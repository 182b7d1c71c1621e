"""Telemetry overhead guard (run directly, not under pytest).

The telemetry layer promises a near-zero-cost disabled path: cores,
NoC and fabric fire the hooks of one ``Telemetry`` bundle, and a hook
no enabled sink listens to is ``None``, so a disabled event costs one
``is not None`` check and no call.  This script measures a fixed
co-simulation workload with telemetry disabled and enabled and fails —
exit code 1 — if either side of that promise breaks:

* the *disabled* path must not be slower than the enabled path beyond
  measurement noise (>5% means dead instrumentation work leaked into
  the null path);
* the *enabled* path must stay within a small constant factor of the
  disabled path (counters and trace appends, not a profiler);
* the same two bounds hold against the *profiled* path (interval
  sampling + the PC-cycle histogram on every core), so neither the
  sampler's boundary check nor the profiler's disabled guard can grow
  work on the null path;
* and against the *recorded* path (the causal dependency recorder of
  ``repro critpath``), whose hooks live only on comm events — never in
  the instruction hot loop — so both its null path and its enabled
  path must obey the same limits;
* and against the *injected* path (an unarmed ``repro chaos``
  :class:`~repro.chaos.Injector` carrying a zero-fault plan): an
  unarmed injector keeps the fast engine and costs at most one
  attribute check per hook site, so it must satisfy the same two
  bounds — no leak into the null path, and within the same constant
  factor of the disabled run.

Wall-clock ratios between two in-process runs are machine-independent,
unlike absolute times, so this is safe to run in CI.

Usage::

    PYTHONPATH=src python benchmarks/telemetry_overhead.py \
        [--repeats 5] [--trace-out sample_trace.json]

``--trace-out`` additionally writes the enabled run's Chrome trace, so
CI can publish a sample artifact straight from the guard run.
"""

import argparse
import sys
import time

from repro.isa import assemble
from repro.sim import StitchSystem
from repro.telemetry import Telemetry
from repro.verify import check_run

# The disabled path may be up to this much slower than enabled before
# we call it a regression (pure measurement noise allowance).
DISABLED_REGRESSION_LIMIT = 1.05
# The enabled path may cost at most this factor over disabled.
ENABLED_OVERHEAD_LIMIT = 3.0

RELAY_TILES = 8
WORDS = 8
ROUNDS = 40


def pipeline_programs():
    """A ring pipeline: tile 0 seeds, tiles relay, tile 0 collects."""
    programs = {}
    head = f"""
        movi r10, {ROUNDS}
        movi r2, 0x100
        movi r3, {WORDS}
        movi r4, 7
        sw   r4, 0(r2)
    loop:
        movi r1, 1
        send r1, r2, r3
        movi r1, {RELAY_TILES - 1}
        recv r1, r2, r3
        addi r10, r10, -1
        bne  r10, r0, loop
        halt
    """
    programs[0] = assemble(head, name="head")
    for tile in range(1, RELAY_TILES):
        nxt = (tile + 1) % RELAY_TILES
        relay = f"""
            movi r10, {ROUNDS}
        loop:
            movi r1, {tile - 1}
            movi r2, 0x100
            movi r3, {WORDS}
            recv r1, r2, r3
            movi r1, {nxt}
            send r1, r2, r3
            addi r10, r10, -1
            bne  r10, r0, loop
            halt
        """
        programs[tile] = assemble(relay, name=f"relay{tile}")
    return programs


def run_once(telemetry, profile_cycles=False, injector=None):
    system = StitchSystem(telemetry=telemetry, profile_cycles=profile_cycles,
                          injector=injector)
    for tile, program in pipeline_programs().items():
        system.load(tile, program)
    results = system.run()
    if not all(r.halted for r in results):
        raise RuntimeError("guard workload did not run to completion")
    if not check_run(results).ok(strict=True):
        raise RuntimeError("guard workload failed the V500 cross-check")
    return system


def profiled_telemetry():
    """The full observability stack: stats, tracing, interval sampling."""
    from repro.telemetry import TimeSeries

    return Telemetry(timeseries=TimeSeries(interval=256))


def recorded_telemetry():
    """Only the causal dependency recorder (``repro critpath``)."""
    from repro.telemetry import (
        DependencyRecorder,
        NULL_STATS,
        NULL_TIMESERIES,
        NULL_TRACER,
    )

    return Telemetry(NULL_STATS, NULL_TRACER, NULL_TIMESERIES,
                     recorder=DependencyRecorder())


def unarmed_injector():
    """A real chaos injector holding a zero-fault plan (never fires)."""
    from repro.chaos import InjectionPlan, Injector

    return Injector(InjectionPlan(name="guard-unarmed"))


def measure(repeats, telemetry_factory, profile_cycles=False,
            injector_factory=None):
    times = []
    for _ in range(repeats):
        telemetry = telemetry_factory()
        injector = injector_factory() if injector_factory else None
        start = time.perf_counter()
        run_once(telemetry, profile_cycles=profile_cycles, injector=injector)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]  # median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also write the enabled run's Chrome trace")
    args = parser.parse_args(argv)

    run_once(None)  # warm caches / imports outside the timed region
    disabled = measure(args.repeats, lambda: None)
    enabled = measure(args.repeats, Telemetry)
    profiled = measure(args.repeats, profiled_telemetry, profile_cycles=True)
    recorded = measure(args.repeats, recorded_telemetry)
    injected = measure(args.repeats, lambda: None,
                       injector_factory=unarmed_injector)
    ratio = enabled / disabled
    profiled_ratio = profiled / disabled
    recorded_ratio = recorded / disabled
    injected_ratio = injected / disabled
    print(f"telemetry disabled: {disabled * 1e3:8.2f} ms (median of "
          f"{args.repeats})")
    print(f"telemetry enabled:  {enabled * 1e3:8.2f} ms "
          f"(x{ratio:.2f} vs disabled)")
    print(f"profiled (+timeseries+pc): {profiled * 1e3:8.2f} ms "
          f"(x{profiled_ratio:.2f} vs disabled)")
    print(f"recorded (critpath): {recorded * 1e3:8.2f} ms "
          f"(x{recorded_ratio:.2f} vs disabled)")
    print(f"injected (unarmed chaos): {injected * 1e3:8.2f} ms "
          f"(x{injected_ratio:.2f} vs disabled)")

    failed = False
    if disabled > enabled * DISABLED_REGRESSION_LIMIT:
        print(f"FAIL: disabled path is >{DISABLED_REGRESSION_LIMIT:.0%} "
              "slower than enabled — null-sink work leaked into the "
              "hot path", file=sys.stderr)
        failed = True
    if disabled > profiled * DISABLED_REGRESSION_LIMIT:
        print(f"FAIL: disabled path is >{DISABLED_REGRESSION_LIMIT:.0%} "
              "slower than the profiled path — sampler/profiler work "
              "leaked into the null path", file=sys.stderr)
        failed = True
    if enabled > disabled * ENABLED_OVERHEAD_LIMIT:
        print(f"FAIL: enabled telemetry costs more than "
              f"{ENABLED_OVERHEAD_LIMIT}x the disabled path",
              file=sys.stderr)
        failed = True
    if profiled > disabled * ENABLED_OVERHEAD_LIMIT:
        print(f"FAIL: the profiled path costs more than "
              f"{ENABLED_OVERHEAD_LIMIT}x the disabled path",
              file=sys.stderr)
        failed = True
    if disabled > recorded * DISABLED_REGRESSION_LIMIT:
        print(f"FAIL: disabled path is >{DISABLED_REGRESSION_LIMIT:.0%} "
              "slower than the recorded path — recorder work leaked "
              "into the null path", file=sys.stderr)
        failed = True
    if recorded > disabled * ENABLED_OVERHEAD_LIMIT:
        print(f"FAIL: the dependency recorder costs more than "
              f"{ENABLED_OVERHEAD_LIMIT}x the disabled path",
              file=sys.stderr)
        failed = True
    if disabled > injected * DISABLED_REGRESSION_LIMIT:
        print(f"FAIL: disabled path is >{DISABLED_REGRESSION_LIMIT:.0%} "
              "slower than the unarmed-injector path — chaos hook work "
              "leaked into the null path", file=sys.stderr)
        failed = True
    if injected > disabled * ENABLED_OVERHEAD_LIMIT:
        print(f"FAIL: an unarmed chaos injector costs more than "
              f"{ENABLED_OVERHEAD_LIMIT}x the disabled path",
              file=sys.stderr)
        failed = True
    if not failed:
        print("telemetry overhead guard: OK")

    if args.trace_out:
        telemetry = Telemetry()
        run_once(telemetry)
        telemetry.tracer.write_chrome(args.trace_out)
        print(f"sample chrome trace written to {args.trace_out} "
              f"({len(telemetry.tracer)} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
