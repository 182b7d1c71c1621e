"""Harness entries: record a kernel-or-app target or an ad-hoc system.

Kept out of :mod:`repro.critpath`'s package namespace on purpose — it
imports the simulator stack (workloads, the co-simulator, platform
presets), which the analysis modules must stay independent of.  The
CLI and tests import it directly.
"""

from repro.critpath.analyze import analyze
from repro.critpath.graph import DependencyGraph
from repro.critpath.recorder import DependencyRecorder
from repro.critpath.whatif import WhatIfSpec, replay


class RecordedRun:
    """A recorded run: the graph plus what the simulator reported."""

    __slots__ = ("target", "graph", "analysis", "measured", "results",
                 "error", "platform")

    def __init__(self, target, graph, measured, results=None, error=None,
                 platform=None):
        self.target = target
        self.graph = graph
        self.analysis = analyze(graph)
        self.measured = measured
        self.results = results
        self.error = error
        self.platform = platform

    @property
    def partial(self):
        return self.error is not None

    def project(self, expressions):
        return replay(self.graph, WhatIfSpec.parse(expressions))

    def to_dict(self):
        payload = {
            "target": self.target,
            "measured_cycles": self.measured,
            "partial": self.partial,
            "graph": self.graph.to_dict(),
            "analysis": self.analysis.to_dict(),
        }
        if self.error is not None:
            payload["error"] = f"{type(self.error).__name__}: {self.error}"
        return payload


def recording_telemetry(platform=None):
    """A telemetry bundle with *only* the dependency recorder enabled.

    Returns ``(telemetry, recorder)``; stats/tracing/sampling stay the
    null sinks so recording adds nothing to the instruction hot loop.
    """
    from repro.telemetry import NULL_STATS, NULL_TRACER, Telemetry

    recorder = DependencyRecorder(platform)
    return Telemetry(NULL_STATS, NULL_TRACER, recorder=recorder), recorder


def record(target, items=2):
    """Record a resolved :class:`~repro.target.Target` (kernel or app).

    Deadlocks and exhausted round budgets come back as a *partial*
    :class:`RecordedRun` (``error`` set, frontier in the analysis)
    instead of propagating.
    """
    telemetry, recorder = recording_telemetry(target.platform)

    def execute():
        run = target.run(items=items, telemetry=telemetry)
        return run.cycles, run.results

    return _recorded(target.name, recorder, target.platform, execute)


def record_system(target, system, recorder, **run_kwargs):
    """Record an already-loaded :class:`StitchSystem` (test harness)."""

    def execute():
        results = system.run(**run_kwargs)
        return max((result.cycles for result in results), default=0), results

    return _recorded(target, recorder, system.platform, execute)


def _recorded(name, recorder, platform, execute):
    from repro.sim.system import DeadlockError, RoundBudgetError

    try:
        measured, results = execute()
    except (DeadlockError, RoundBudgetError) as exc:
        # The run already finalized the partial graph on the recorder.
        graph = DependencyGraph.from_recorder(recorder)
        return RecordedRun(name, graph, graph.makespan, error=exc,
                           platform=platform)
    graph = DependencyGraph.from_recorder(recorder)
    return RecordedRun(name, graph, measured, results=results,
                       platform=platform)


def validate_whatif(run, expressions, seed=1, items=2):
    """Project ``expressions`` on ``run`` AND re-run the simulator with
    the equivalent platform change; returns the comparison dict.

    Only platform-parameter what-ifs can be validated this way; today
    that means a single ``dram_latency`` clause.
    """
    from repro.critpath.whatif import WhatIfError
    from repro.target import Target

    spec = WhatIfSpec.parse(expressions)
    unsupported = [
        e for e in spec.expressions if not e.replace(" ", "").startswith(
            "dram_latency"
        )
    ]
    if unsupported or spec.dram is None:
        raise WhatIfError(
            f"--validate needs exactly one dram_latency clause; got "
            f"{list(expressions)}"
        )
    projection = replay(run.graph, spec)
    base = run.platform
    base_latency = base.mem.dram_latency
    op, value = spec.dram
    new_latency = int(round(value * base_latency if op == "*" else value))
    derived = base.derive(mem={"dram_latency": new_latency})
    rerun = record(Target.resolve(run.target, seed=seed, platform=derived),
                   items=items)
    actual = rerun.measured
    projected = projection["projected_cycles"]
    drift = (projected - actual) / actual if actual else 0.0
    return {
        "expressions": list(spec.expressions),
        "dram_latency": {"baseline": base_latency, "what_if": new_latency},
        "projected_cycles": projected,
        "actual_cycles": actual,
        "drift": round(drift, 6),
        "within_2pct": abs(drift) <= 0.02,
    }
