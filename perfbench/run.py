"""Host-time benchmark of the Stitch reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with no probe installed.
``--trace 1`` first runs the same workload untraced in a child process
(for ``trace.overhead_ratio``), then runs it again with every probe of
``layers.py`` installed and reports the per-layer metrics.

Load comes from one closed-loop client in one process: the next op
starts when the previous one and its correctness check have finished.
There are no worker pools and no threads.

Workloads
---------
compile_fig11
    For each of the 15 Fig. 11 kernels, a fresh ``KernelCompiler``
    compiles all 13 options (``ALL_OPTIONS + LOCUS_OPTION``).  One op is
    one ``KernelCompiler.compile(option)``.  The constructor (profile,
    liveness, reference run) counts in the compile wall time but is not
    an op.  The 15 constructors run first, then each option is compiled
    on every kernel in turn.  A run is one full pass over the suite,
    however long it takes: a partial pass would change the op mix from
    run to run.
cosim_apps
    The Stitch plans of APP2 and APP4 on the default (fast) engine with
    contention off.  Stage compiles, stitching and the baseline
    architecture's reference outputs happen in setup.  One op is
    ``AppEvaluator.build_system(ARCH_STITCH, ...)`` plus ``run()``.
cosim_observed
    The same two systems with every observer on (stats, tracer,
    cycle profile, interval time series, critical-path recorder).  Each
    op also folds the profiles, builds and analyzes the dependency
    graph, exports the Chrome trace and runs the V500/V900/V1000 checks.
mesh_ring
    The ``repro.sweep.runner.ring_programs`` token ring on the 4x4
    stitch platform.  The programs are assembled in setup; one op is a
    ``StitchSystem`` build, load and ``run()``.

Cache hygiene: every run is a fresh process, and ``compile_fig11``
builds its own ``KernelCompiler`` per kernel instead of going through
``compile_kernel_options``' module cache, compiling each kernel once
per run.  An in-process memo can therefore only win where a real run
would hit it too.  The co-simulation workloads compile in setup through
that cache, as ``repro app`` does.

Host times are reported in reference seconds.  On a shared host the
speed of a vCPU drifts by up to 1.5x over seconds to minutes, which no
amount of averaging inside a 20-second run removes.  So after every op
(and between setup steps) the benchmark times a fixed calibration chunk
(a tiny register-machine interpreter plus a graph search, written here
and independent of the program) and scales each interval by the median
of ``CALIBRATION_REF_S / chunk time`` over the samples taken near it: a
host running at the reference speed reads real seconds.  The scale
never touches the program, so a change that makes an op 10% faster
still reads 10% faster.

Each op is checked against a reference the code under test does not
produce: compiled kernels against the kernel's pure-Python
``reference()`` (and, for seed 1, the committed
``benchmarks/baselines/BENCH_fig11.json`` rows); co-simulations against
the baseline architecture's outputs from setup; the ring against
``ring_expected``.  A failed op is counted and the run goes on.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
FIG11_BASELINE = os.path.join(ROOT, "benchmarks", "baselines",
                              "BENCH_fig11.json")

# Co-simulated apps and how many ops of each one cycle of the closed
# loop issues: an APP2 item costs about 2.5 APP4 items, so the two apps
# get similar host time, p50 falls inside the APP4 cluster and p90
# inside the APP2 cluster instead of on a boundary between the two.
COSIM_APPS = (("APP2", 1), ("APP4", 3))
COSIM_ITEMS = 1
TIMESERIES_INTERVAL = 1024
RING_LAPS = 20
MAX_KERNEL_INSTRUCTIONS = 5_000_000
CHILD_TIMEOUT_S = 150
# One calibration chunk on an unloaded reference host (an x86 Xeon VM
# under CPython 3.11); see HostSpeed.
CALIBRATION_REF_S = 0.00045
CALIBRATION_REPEATS = 3
CALIBRATION_WINDOW_S = 0.25
# Share of traced wall time the spans may leave unattributed.
OTHER_MAX_SHARE = 0.05

# Span names (or counters) that must be non-zero in a traced run.
_COMPILER_LAYERS = ("compiler.other", "compiler.profile", "compiler.liveness",
                    "compiler.dfg", "compiler.enumerate", "compiler.convex",
                    "compiler.select", "compiler.map", "compiler.rewrite",
                    "compiler.measure")
_FABRIC_LAYERS = ("sim.build", "sim.run", "cpu.run", "mpi.send",
                  "mpi.try_recv", "noc.send")
_COSIM_LAYERS = (_COMPILER_LAYERS + _FABRIC_LAYERS
                 + ("stitcher", "stitcher.find_path", "patch.execute"))
LIVE_LAYERS = {
    "compile_fig11": _COMPILER_LAYERS,
    "cosim_apps": _COSIM_LAYERS,
    "cosim_observed": _COSIM_LAYERS + (
        "telemetry.chrome", "profile.fold", "critpath.graph",
        "critpath.analyze", "verify", "telemetry.tracer.events",
        "telemetry.timeseries.samples", "critpath.nodes"),
    "mesh_ring": _FABRIC_LAYERS,
}


_PROGRAM = tuple((i % 5, i & 15, (i * 7) & 15, i) for i in range(64))


def _interpreter_steps(steps=2000):
    """A register machine loop shaped like the simulator's engine."""
    regs = [0] * 16
    pc = 0
    cycles = 0
    size = len(_PROGRAM)
    for _ in range(steps):
        op, a, b, imm = _PROGRAM[pc]
        if op == 0:
            regs[a] = (regs[b] + imm) & 0xFFFFFFFF
        elif op == 1:
            regs[a] = regs[b] ^ imm
        elif op == 2:
            if regs[a] > regs[b]:
                pc = (pc + 3) % size
                cycles += 2
                continue
        elif op == 3:
            regs[a] = (regs[b] << 1) & 0xFFFFFFFF
        else:
            cycles += 1
        pc += 1
        if pc == size:
            pc = 0
        cycles += 1
    return cycles


class _Node:
    __slots__ = ("id", "succ")

    def __init__(self, node_id):
        self.id = node_id
        self.succ = []


def _graph_search(nodes=120):
    """Object, set and stack traffic shaped like the compiler's DFG walks."""
    graph = [_Node(i) for i in range(nodes)]
    for node in graph:
        for step in (1, 7, 13):
            if node.id + step < nodes:
                node.succ.append(graph[node.id + step])
    found = 0
    for start in range(0, nodes, 10):
        members = {start, start + 1, start + 7}
        seen = set()
        frontier = [graph[start]]
        while frontier:
            node = frontier.pop()
            if node.id in seen:
                continue
            seen.add(node.id)
            found += node.id in members
            frontier.extend(node.succ)
    return found


class HostSpeed:
    """Host-speed samples, for scaling wall time to reference seconds.

    A sample times the calibration chunk and stores
    ``CALIBRATION_REF_S / chunk time`` (1.0 at the reference speed, below
    1 on a slowed host).  An interval is scaled by the median of the
    samples taken within ``CALIBRATION_WINDOW_S`` of it; samples are
    taken after every op, so every op has one on each side.
    """

    def __init__(self):
        self.times = []
        self.scales = []
        self.sample()

    def sample(self):
        durations = []
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            _interpreter_steps()
            _graph_search()
            durations.append(time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.scales.append(CALIBRATION_REF_S / statistics.median(durations))

    def seconds(self, start, end):
        """Reference seconds of the wall-clock interval [start, end]."""
        lo = bisect.bisect_left(self.times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CALIBRATION_WINDOW_S)
        nearby = self.scales[lo:hi] or self.scales[-1:]
        return (end - start) * statistics.median(nearby)


class Run:
    """What one run measured: op latencies, failures, simulated work.

    Intervals are kept as wall-clock ``(start, end)`` pairs and turned into
    reference seconds (:class:`HostSpeed`) when the run is over.
    """

    def __init__(self, speed, recorder=None):
        self.speed = speed
        self.recorder = recorder
        self.setup_marks = [PROCESS_START]
        self.op_spans = []
        self.other_busy_spans = []
        self.sim_spans = []
        self.attempted = 0
        self.failed = 0
        self.sim_instructions = 0
        self.first_op_at = None
        self.unit_labels = []
        self.counts = collections.Counter()

    def setup_step(self):
        """Close a stretch of setup (samples the host speed)."""
        self.setup_marks.append(time.perf_counter())
        self._sample()

    def unit(self, label):
        """Start the next unit of timed work (an op or a constructor)."""
        if self.first_op_at is None:
            self.setup_step()
            self.first_op_at = time.perf_counter()
        if self.recorder is not None:
            self.recorder.current_unit = len(self.unit_labels)
        self.unit_labels.append(label)

    def timed(self, fn, *args, is_op=True):
        """Time ``fn(*args)``; returns its result, or None if it raised."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed op is counted, the run goes on
            traceback.print_exc()
            result = None
        spans = self.op_spans if is_op else self.other_busy_spans
        spans.append((start, time.perf_counter()))
        self._sample()
        return result

    def _sample(self):
        with self._span("bench.calibrate"):
            self.speed.sample()

    def latencies(self):
        return [self.speed.seconds(*span) for span in self.op_spans]

    def busy_s(self):
        return sum(self.speed.seconds(*span)
                   for span in self.op_spans + self.other_busy_spans)

    def setup_s(self):
        marks = self.setup_marks
        return sum(self.speed.seconds(a, b) for a, b in zip(marks, marks[1:]))

    def sim_s(self):
        """Seconds behind ``sim_instructions``: the simulation re-runs
        where a workload keeps them apart, else all timed work."""
        if not self.sim_spans:
            return self.busy_s()
        return sum(self.speed.seconds(*span) for span in self.sim_spans)

    def checking(self):
        return self._span("bench.check")

    def _span(self, name):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)


# -- compile_fig11 -------------------------------------------------------------


def compile_fig11(seed, _seconds, run):
    from repro.compiler.driver import ALL_OPTIONS, KernelCompiler, LOCUS_OPTION
    from repro.workloads.suite import KERNEL_FACTORIES, make_kernel

    options = ALL_OPTIONS + (LOCUS_OPTION,)
    kernels = [make_kernel(name, seed=seed)
               for name in sorted(KERNEL_FACTORIES)]
    committed = None
    if seed == 1:
        with open(FIG11_BASELINE) as handle:
            committed = json.load(handle)["kernels"]
    compilers = []
    for kernel in kernels:
        run.unit(kernel.name)
        compilers.append(run.timed(
            lambda k=kernel: KernelCompiler(k, allow_replication=True),
            is_op=False,
        ))
    # Option-major order spreads every kernel's ops over the whole run,
    # so a slow stretch of the host lands on a mix of kernels.
    verified = [{} for _ in kernels]
    expected = {}
    for option in options:
        for kernel, compiler, versions in zip(kernels, compilers, verified):
            run.unit(kernel.name)
            run.attempted += 1
            if compiler is None:
                continue
            version = run.timed(compiler.compile, option)
            if version is None:
                continue
            with run.checking():
                if kernel.name not in expected:
                    expected[kernel.name] = kernel.reference()
                if _version_ok(kernel, version, expected[kernel.name], run):
                    versions[option.name] = version
    if committed is not None:
        with run.checking():
            for kernel, compiler, versions in zip(kernels, compilers,
                                                  verified):
                if (len(versions) == len(options)
                        and _fig11_row(compiler, versions)
                        != _committed_row(committed[kernel.name])):
                    print(f"{kernel.name}: differs from {FIG11_BASELINE}",
                          file=sys.stderr)
                    versions.clear()
    run.failed += run.attempted - sum(len(v) for v in verified)


def _version_ok(kernel, version, expected, run):
    """Re-run a compiled version and compare it with the kernel's
    pure-Python reference (and the compiler's measured cycles)."""
    start = time.perf_counter()
    result, retired, cycles = _run_version(kernel, version)
    run.sim_spans.append((start, time.perf_counter()))
    run.sim_instructions += retired
    if result != expected or cycles != version.cycles:
        print(f"{kernel.name} @ {version.option.name}: wrong output",
              file=sys.stderr)
        return False
    return True


def _run_version(kernel, version):
    """Run one compiled version on a fresh tile, as the measure step
    does; returns ``(result or None, instructions, cycles)``."""
    from repro.core.executor import PatchExecutor
    from repro.core.fusion import FusedConfig
    from repro.cpu.core import Core, STOP_HALT
    from repro.mem.hierarchy import MemorySystem

    memory = MemorySystem.stitch()
    patch = None
    if version.cfg_table:
        replica = None
        if any(isinstance(cfg, FusedConfig) and cfg.cfg_b.uses_lmau()
               for cfg in version.cfg_table):
            replica = MemorySystem.stitch()
            for region, words in kernel.consts:
                replica.load(region.addr, words)
        patch = PatchExecutor(version.cfg_table, memory,
                              replica_memory=replica)
    core = Core(version.program, memory, patch=patch)
    kernel.setup(core)
    outcome = core.run(max_instructions=MAX_KERNEL_INSTRUCTIONS)
    result = kernel.result(core) if outcome.reason == STOP_HALT else None
    return result, core.instret, core.cycles


def _fig11_row(compiler, compiled):
    """The simulated (non-wall) fields of a ``repro bench`` Fig. 11 row."""
    from repro.compiler.driver import (
        ALL_OPTIONS,
        FUSED_OPTIONS,
        LOCUS_OPTION,
        SINGLE_OPTIONS,
    )

    def best(options):
        return max((compiled[o.name] for o in options),
                   key=lambda c: c.speedup)

    def named(version):
        return {"option": version.option.name,
                "speedup": round(version.speedup, 4)}

    return {
        "baseline_cycles": compiler.baseline_cycles,
        "locus_speedup": round(compiled[LOCUS_OPTION.name].speedup, 4),
        "best_single": named(best(SINGLE_OPTIONS)),
        "best_fused": named(best(FUSED_OPTIONS)),
        "best_speedup": round(best(ALL_OPTIONS).speedup, 4),
    }


def _committed_row(row):
    keys = ("baseline_cycles", "locus_speedup", "best_single", "best_fused",
            "best_speedup")
    return {key: row[key] for key in keys}


# -- cosim_apps / cosim_observed ---------------------------------------------------


def cosim_apps(seed, seconds, run):
    _cosim(seed, seconds, run, observed=False)


def cosim_observed(seed, seconds, run):
    _cosim(seed, seconds, run, observed=True)


def _cosim(seed, seconds, run, observed):
    from repro.sim.baselines import (
        ARCH_BASELINE,
        ARCH_STITCH,
        AppEvaluator,
        compile_kernel_options,
    )
    from repro.workloads.apps import APP_FACTORIES

    cycle = []
    for name, weight in COSIM_APPS:
        evaluator = AppEvaluator(APP_FACTORIES[name](seed=seed))
        # The stage compiles the evaluator would run, one at a time, so
        # the host speed is sampled between them; plan() then hits the
        # same module cache.
        for stage in evaluator.app.stages:
            compile_kernel_options(stage.kernel, platform=evaluator.platform)
            run.setup_step()
        plan = evaluator.plan(ARCH_STITCH)
        expected = evaluator.final_outputs(ARCH_BASELINE, items=COSIM_ITEMS)
        cycle += [(name, evaluator, plan, expected)] * weight
        run.setup_step()
    if observed:
        # Load the analysis modules in setup, not inside the first op.
        import repro.critpath  # noqa: F401
        import repro.profile.profiler  # noqa: F401
        import repro.verify  # noqa: F401
    op = _observed_op if observed else _plain_op
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        for name, evaluator, plan, expected in cycle:
            run.unit(name)
            if deadline is None:
                deadline = run.first_op_at + seconds
            run.attempted += 1
            outcome = run.timed(op, evaluator, plan, run.counts)
            with run.checking():
                if not _cosim_ok(evaluator, plan, expected, outcome, run):
                    print(f"{name}: co-simulation check failed",
                          file=sys.stderr)
                    run.failed += 1


def _plain_op(evaluator, plan, _counts):
    from repro.sim.baselines import ARCH_STITCH

    system, _ = evaluator.build_system(ARCH_STITCH, items=COSIM_ITEMS,
                                       plan=plan)
    return system, system.run(), 0


def _observed_op(evaluator, plan, counts):
    import repro.critpath as critpath
    import repro.verify as verify
    from repro.critpath.graph import DependencyGraph
    from repro.platform import DEFAULT_PLATFORM
    from repro.profile.profiler import CycleProfile
    from repro.sim.baselines import ARCH_STITCH
    from repro.telemetry import (
        DependencyRecorder,
        Stats,
        Telemetry,
        TimeSeries,
        Tracer,
    )

    timeseries = TimeSeries(interval=TIMESERIES_INTERVAL)
    recorder = DependencyRecorder(evaluator.platform or DEFAULT_PLATFORM)
    telemetry = Telemetry(stats=Stats(), tracer=Tracer(),
                          timeseries=timeseries, recorder=recorder)
    system, _ = evaluator.build_system(
        ARCH_STITCH, items=COSIM_ITEMS, plan=plan, telemetry=telemetry,
        profile_cycles=True,
    )
    results = system.run()
    profiles = {core.core_id: CycleProfile.from_core(core)
                for core in system.cores if core is not None}
    graph = DependencyGraph.from_recorder(recorder)
    analysis = critpath.analyze(graph)
    chrome = telemetry.tracer.to_chrome()
    report = verify.check_run(results)
    verify.check_profile_run(profiles, results, report=report)
    verify.check_timeseries(timeseries, report=report)
    verify.check_critpath(graph, analysis,
                          measured=max(r.cycles for r in results),
                          report=report)
    counts["telemetry.tracer.events"] += len(telemetry.tracer)
    counts["telemetry.timeseries.samples"] += len(timeseries)
    counts["critpath.nodes"] += len(graph.nodes)
    counts["verify.diagnostics"] += len(report)
    if not chrome["traceEvents"]:
        return system, results, 1
    return system, results, len(report)


def _cosim_ok(evaluator, plan, expected, outcome, run):
    if outcome is None:
        return False
    system, results, diagnostics = outcome
    run.sim_instructions += sum(r.instructions for r in results)
    outputs = {
        stage.id: stage.kernel.result(system.cores[plan.tile_of(stage.id)])
        for stage in evaluator.app.stages
    }
    return (diagnostics == 0 and all(r.halted for r in results)
            and outputs == expected)


# -- mesh_ring ------------------------------------------------------------------


def mesh_ring(seed, seconds, run):
    from repro.noc.topology import Mesh
    from repro.platform import PlatformConfig
    from repro.sweep.runner import ring_expected, ring_programs

    platform = PlatformConfig.stitch()
    tiles = Mesh.from_params(platform.noc).num_tiles
    token = random.Random(seed).randrange(1, 1 << 20)
    programs = ring_programs(tiles, token=token, laps=RING_LAPS)
    expected = ring_expected(tiles, token, RING_LAPS)
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        run.unit("ring")
        if deadline is None:
            deadline = run.first_op_at + seconds
        run.attempted += 1
        outcome = run.timed(_ring_op, platform, programs)
        with run.checking():
            if outcome is None:
                ok = False
            else:
                system, results = outcome
                run.sim_instructions += sum(r.instructions for r in results)
                ok = (all(r.halted for r in results)
                      and system.cores[0].regs[4] == expected)
            if not ok:
                print("ring: wrong final token", file=sys.stderr)
                run.failed += 1


def _ring_op(platform, programs):
    from repro.sim.system import StitchSystem

    system = StitchSystem(platform=platform)
    for tile, program in programs.items():
        system.load(tile, program)
    return system, system.run()


WORKLOADS = {
    "compile_fig11": compile_fig11,
    "cosim_apps": cosim_apps,
    "cosim_observed": cosim_observed,
    "mesh_ring": mesh_ring,
}


# -- metrics ----------------------------------------------------------------------


def end_to_end_metrics(run):
    latencies = run.latencies()
    return {
        "setup_s": (run.setup_s(), "s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_p90": (statistics.quantiles(latencies, n=10)[-1], "s"),
        "ops_per_s": (len(latencies) / run.busy_s(), "1/s"),
        "sim_minstr_per_s": (run.sim_instructions / run.sim_s() / 1e6,
                             "Minstr/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def traced_metrics(workload, run, untraced):
    import layers

    run.recorder.counts.update(run.counts)
    totals = layers.LayerTotals(run.recorder)
    metrics = {name: (value(totals), unit)
               for name, unit, _better, value in layers.LAYER_METRICS}
    traced_rate = len(run.op_spans) / run.busy_s()
    metrics["trace.overhead_ratio"] = (
        untraced["metrics"]["ops_per_s"]["value"] / traced_rate, "ratio"
    )
    dead = [name for name in LIVE_LAYERS[workload]
            if not totals.calls[name] and not totals.counts[name]]
    if dead:
        raise RuntimeError(
            f"{workload}: layer(s) {dead} recorded no calls; a probe no "
            f"longer sees its function (renamed or moved?)"
        )
    share = totals.other_s / totals.wall_s
    if not -0.001 <= share <= OTHER_MAX_SHARE:
        raise RuntimeError(
            f"{workload}: spans leave {share:.1%} of the traced wall time "
            f"unattributed (allowed: 0 to {OTHER_MAX_SHARE:.0%})"
        )
    if workload == "compile_fig11":
        _print_kernel_shares(run, totals)
    return metrics


def _print_kernel_shares(run, totals):
    """Per-kernel enumerate+convex and measure shares, to stderr."""
    by_kernel = collections.defaultdict(collections.Counter)
    for unit, label in enumerate(run.unit_labels):
        by_kernel[label].update(totals.unit_self.get(unit, {}))
    print("kernel      compile_s  enumerate+convex  measure", file=sys.stderr)
    for kernel in sorted(by_kernel):
        spans = by_kernel[kernel]
        compile_s = sum(v for k, v in spans.items()
                        if not k.startswith("bench."))
        search = spans["compiler.enumerate"] + spans["compiler.convex"]
        print(f"{kernel:<11} {compile_s:9.3f}  {search / compile_s:16.1%}  "
              f"{spans['compiler.measure'] / compile_s:7.1%}",
              file=sys.stderr)


def _untraced_child(args):
    """The same workload and seed untraced, in a fresh process."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, check=False)
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        raise RuntimeError(f"untraced run exited {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def _import_program():
    sys.path.insert(0, SOURCE)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SOURCE}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SOURCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    speed = HostSpeed()
    _import_program()

    if args.trace:
        import layers

        untraced = _untraced_child(args)
        recorder = layers.SpanRecorder()
        layers.install(recorder)
        recorder.t0 = time.perf_counter()
        run = Run(speed, recorder)
        WORKLOADS[args.workload](args.seed, args.seconds, run)
        recorder.stop()
        metrics = traced_metrics(args.workload, run, untraced)
        correct = run.failed == 0 and untraced["correct"]
    else:
        run = Run(speed)
        WORKLOADS[args.workload](args.seed, args.seconds, run)
        metrics = end_to_end_metrics(run)
        correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
