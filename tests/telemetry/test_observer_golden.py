"""Observer output pinned across engines and against a recorded digest.

Every observer the co-simulator feeds — the Chrome trace, the interval
time series, the dependency recorder, the per-core PC histogram and the
stats registry — is serialized canonically and hashed.  The digests
below were recorded from the original per-retire-decoding interpreter;
the instrumented loop (the only one that carries observers: ``fast``
refuses them and an armed injector sends it to ``instrumented``) must
reproduce every byte, so a change to which sink hears which event, or
with which arguments, fails here.

The digests are independent of ``PYTHONHASHSEED``: every payload is
dumped with sorted keys and the PC histograms as sorted lists.
"""

import hashlib
import json

import pytest

from repro.chaos import Fault, InjectionPlan, Injector, RecoveryParams
from repro.critpath import DependencyRecorder
from repro.isa import assemble
from repro.mem import SPM_BASE
from repro.platform import DEFAULT_PLATFORM
from repro.sim import StitchSystem
from repro.target import Target
from repro.telemetry import Stats, Telemetry, TimeSeries, Tracer

GOLDEN = {
    "fir": "efed49fcbe43e1a4be497615d98d5a19d75279f28907c2e6a002aa77d29eb2a2",
    "APP1": "3b31f89465c101da0354fac373066b01122dc4079e5c66cec30ec4b206b6421a",
    "contended": "171a12948405c26a9e6f1dc7394f40c5d7f07d9cc7d26e1d9cb828338535c723",
    "fir+chaos": "403b1786d18dd10fb7bd5ca9c745cfa602b3d42550d6a397cb9d6014091c1b2e",
}

CHAOS_PLAN = InjectionPlan(
    name="golden",
    faults=(
        Fault("reg", cycle=400, reg=3, bit=5),
        Fault("spm", cycle=900, addr=SPM_BASE + 8, bit=2),
        Fault("dram", cycle=1500, addr=0x100, bit=7),
    ),
    recovery=RecoveryParams(ecc=True),
)


def _bundle():
    return Telemetry(
        stats=Stats(), tracer=Tracer(),
        timeseries=TimeSeries(interval=256),
        recorder=DependencyRecorder(DEFAULT_PLATFORM),
    )


def _observed(telemetry, cores):
    recorder = telemetry.recorder
    return {
        "chrome": telemetry.tracer.to_chrome(),
        "timeseries": telemetry.timeseries.to_dict(),
        "records": [record.to_dict() for record in recorder.records],
        "outcome": recorder.outcome,
        "blocked": {str(tile): info
                    for tile, info in sorted(recorder.blocked.items())},
        "chaos_events": [list(event) for event in recorder.chaos_events],
        "pc_profile": {
            str(core.core_id): sorted(
                [pc, cycles, retired]
                for pc, (cycles, retired) in core.pc_profile.items()
            )
            for core in cores
        },
        "stats": telemetry.stats.snapshot(),
    }


SENDER = "movi r1, 2\nmovi r2, 0x100\nmovi r3, 64\nsend r1, r2, r3\nhalt"
SINK = ("movi r2, 0x200\nmovi r3, 64\nmovi r1, 1\nrecv r1, r2, r3\n"
        "movi r1, 0\nrecv r1, r2, r3\nhalt")


def _contended(telemetry, engine):
    """Tiles 0 and 1 both send 64 words to tile 2 over the
    contention-modelled NoC, so link 1->2 queues packets (an app
    co-simulation uses the uncontended model)."""
    system = StitchSystem(telemetry=telemetry, profile_cycles=True,
                          engine=engine)
    for tile, source in ((0, SENDER), (1, SENDER), (2, SINK)):
        system.load(tile, assemble(source, name=f"tile{tile}"))
    system.run()
    return [core for core in system.cores if core is not None]


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def observe(name, engine, chaos=False):
    """Run ``name`` with every observer on; returns the payload digest."""
    telemetry = _bundle()
    if name == "contended":
        return _digest(_observed(telemetry, _contended(telemetry, engine)))
    injector = Injector(CHAOS_PLAN, telemetry=telemetry) if chaos else None
    run = Target.resolve(name).run(
        items=2, telemetry=telemetry, profile_cycles=True, engine=engine,
        injector=injector,
    )
    payload = _observed(telemetry, run.cores)
    if chaos:
        payload["injector"] = injector.report()
    return _digest(payload)


@pytest.mark.parametrize("name", ["fir", "APP1", "contended"])
def test_observer_output_matches_golden(name):
    assert observe(name, "instrumented") == GOLDEN[name]


def test_chaos_mirror_matches_golden():
    assert observe("fir", "instrumented", chaos=True) == GOLDEN["fir+chaos"]
