"""Outside-in host span recorder for the benchmark's traced runs.

Every probe wraps one public function of the program under the name
its callers look it up by (a module attribute or a class attribute),
so the program itself is never edited.  A span records its name, start,
end, parent span and the unit of work (op) it ran under; spans stay in
flat arrays until the run ends, when :class:`LayerTotals` folds them
into per-layer self times.  A span's self time is its duration minus
the time its child spans cover, so the self times of all spans plus the
benchmark's own ``other`` time add up to the traced wall time.

``Core.run`` and ``PatchExecutor.execute`` are named by context: under
``profile_kernel`` they are compiler profiling, under a
``KernelCompiler`` the compiler's measure step, inside the benchmark's
own output checks ``bench.check``, and otherwise the engine
(``cpu.run``) and the patch executor (``patch.execute``).
"""

import collections
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

from repro.cpu.core import STOP_RECV


class SpanRecorder:
    """Flat, append-only span store plus named event counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # Name ids that context-named probes take; -1 = their default.
        self.contexts = [-1]
        self.current_unit = -1
        self.counts = collections.Counter()
        self.t0 = perf_counter()
        self.t1 = None

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, context=None, contextual=False, before=None,
             after=None):
        """A recording stand-in for ``fn``.

        ``context`` names the spans of context-named probes that run
        inside this one; ``contextual`` makes this probe one of them.
        ``before(args)`` returns a token handed to
        ``after(recorder, span_name, args, result, token)``.
        """
        default = self.name_id(name)
        pushed = self.name_id(context) if context is not None else None
        names, parents, units = self.name, self.parent, self.unit
        starts, ends = self.start, self.end
        stack, contexts = self.stack, self.contexts
        recorder = self

        def probe(*args, **kwargs):
            nid = default
            if contextual and contexts[-1] >= 0:
                nid = contexts[-1]
            token = before(args) if before is not None else None
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            units.append(recorder.current_unit)
            ends.append(0.0)
            stack.append(index)
            if pushed is not None:
                contexts.append(pushed)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
                if pushed is not None:
                    contexts.pop()
            if after is not None:
                after(recorder, recorder.names[nid], args, result, token)
            return result

        return probe

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code; context-named probes
        inside it take its name."""
        nid = self.name_id(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.unit.append(self.current_unit)
        self.end.append(0.0)
        self.stack.append(index)
        self.contexts.append(nid)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self.stack.pop()
            self.contexts.pop()

    def stop(self):
        self.t1 = perf_counter()


# -- counters taken at probe exit ---------------------------------------------


def _count(key, predicate=bool):
    def after(recorder, _name, _args, result, _token):
        if predicate(result):
            recorder.counts[key] += 1
    return after


def _count_len(key):
    def after(recorder, _name, _args, result, _token):
        recorder.counts[key] += len(result)
    return after


def _select_counts(recorder, _name, args, result, _token):
    recorder.counts["compiler.select.considered"] += len(args[0])
    recorder.counts["compiler.select.accepted"] += len(result)


def _kernel_wall(kernel_of):
    def before(_args):
        return perf_counter()

    def after(recorder, _name, args, _result, started):
        key = f"compile.{kernel_of(args).name}.s"
        recorder.counts[key] += perf_counter() - started
    return before, after


def _memory_counters(memory):
    spm = memory.spm
    return (
        memory.icache.hits, memory.icache.misses,
        memory.dcache.hits, memory.dcache.misses,
        spm.reads + spm.writes if spm is not None else 0,
        memory.dram.reads + memory.dram.writes,
    )


_MEMORY_KEYS = ("mem.icache.hits", "mem.icache.misses", "mem.dcache.hits",
                "mem.dcache.misses", "mem.spm.accesses", "mem.dram.accesses")


def _core_before(args):
    core = args[0]
    return (core.instret, core.cycles, core.selected_engine(),
            _memory_counters(core.memory))


def _core_after(recorder, name, args, result, token):
    core = args[0]
    instret, cycles, engine, memory = token
    retired = core.instret - instret
    counts = recorder.counts
    counts[name + ".instr"] += retired
    counts[name + ".cycles"] += core.cycles - cycles
    if engine == "fast":
        counts[name + ".fast_instr"] += retired
    if result.reason == STOP_RECV:
        counts[name + ".blocked"] += 1
    if name != "bench.check":
        for key, old, new in zip(_MEMORY_KEYS, memory,
                                 _memory_counters(core.memory)):
            counts[key] += new - old


def _network_counts(recorder, _name, args, _result, _token):
    # Every system the benchmark builds runs once, so the network's
    # cumulative counters are this run's.
    network = args[0].fabric.network
    recorder.counts["noc.flits"] += network.flits_sent
    recorder.counts["noc.hops"] += network.total_hops
    recorder.counts["noc.contention_delay"] += network.contention_delay


# -- the probe table ------------------------------------------------------------

# (owner, attribute, span name, options).  ``owner`` is a module path or
# ``module:Class``; every entry is the name the program's callers use.
PROBES = (
    ("repro.compiler.driver:KernelCompiler", "__init__", "compiler.other",
     {"context": "compiler.measure",
      "kernel_wall": lambda args: args[1]}),
    ("repro.compiler.driver:KernelCompiler", "compile", "compiler.other",
     {"context": "compiler.measure",
      "kernel_wall": lambda args: args[0].kernel}),
    ("repro.compiler.driver", "profile_kernel", "compiler.profile",
     {"context": "compiler.profile"}),
    ("repro.compiler.driver", "liveness", "compiler.liveness", {}),
    ("repro.compiler.dfg:DFG", "__init__", "compiler.dfg", {}),
    ("repro.compiler.driver", "enumerate_candidates", "compiler.enumerate",
     {"after": _count_len("compiler.enumerate.candidates")}),
    ("repro.compiler.dfg:DFG", "is_convex", "compiler.convex", {}),
    ("repro.compiler.driver", "select_ises", "compiler.select",
     {"after": _select_counts}),
    ("repro.compiler.selector", "map_candidate", "compiler.map",
     {"after": _count("compiler.map.mapped", lambda m: m is not None)}),
    ("repro.compiler.selector", "rewrite_block", "compiler.rewrite", {}),
    ("repro.compiler.driver", "rewrite_block", "compiler.rewrite", {}),
    ("repro.compiler.driver", "rewrite_program", "compiler.rewrite", {}),
    ("repro.isa", "assemble", "isa.assemble", {}),
    ("repro.isa.builder", "assemble", "isa.assemble", {}),
    ("repro.workloads.base", "assemble", "isa.assemble", {}),
    ("repro.cpu.core:Core", "run", "cpu.run",
     {"contextual": True, "before": _core_before, "after": _core_after}),
    ("repro.core.executor:PatchExecutor", "execute", "patch.execute",
     {"contextual": True}),
    ("repro.sim.baselines", "stitch_best", "stitcher", {}),
    ("repro.core.stitching", "find_path", "stitcher.find_path",
     {"after": _count("stitcher.find_path.found",
                      lambda path: path is not None)}),
    ("repro.sim.baselines:AppEvaluator", "build_system", "sim.build", {}),
    ("repro.sim.system:StitchSystem", "__init__", "sim.build", {}),
    ("repro.sim.system:StitchSystem", "load", "sim.build", {}),
    ("repro.sim.system:StitchSystem", "run", "sim.run",
     {"after": _network_counts}),
    ("repro.mpi.runtime:MessagePassing", "send", "mpi.send", {}),
    ("repro.mpi.runtime:MessagePassing", "try_recv", "mpi.try_recv",
     {"after": _count("mpi.try_recv.misses", lambda got: got is None)}),
    ("repro.noc.network:Network", "send", "noc.send", {}),
    ("repro.telemetry.trace:Tracer", "to_chrome", "telemetry.chrome", {}),
    ("repro.profile.profiler:CycleProfile", "from_core", "profile.fold", {}),
    ("repro.critpath.graph:DependencyGraph", "from_recorder",
     "critpath.graph", {}),
    ("repro.critpath", "analyze", "critpath.analyze", {}),
    ("repro.verify", "check_run", "verify", {}),
    ("repro.verify", "check_profile_run", "verify", {}),
    ("repro.verify", "check_timeseries", "verify", {}),
    ("repro.verify", "check_critpath", "verify", {}),
)


def _resolve(owner):
    module_path, _, class_name = owner.partition(":")
    target = importlib.import_module(module_path)
    return getattr(target, class_name) if class_name else target


def install(recorder):
    """Patch every probe of :data:`PROBES` for the rest of the process."""
    for owner, attribute, name, options in PROBES:
        target = _resolve(owner)
        raw = target.__dict__[attribute] if isinstance(target, type) else (
            getattr(target, attribute)
        )
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        options = dict(options)
        kernel_of = options.pop("kernel_wall", None)
        if kernel_of is not None:
            options["before"], options["after"] = _kernel_wall(kernel_of)
        probe = recorder.wrap(fn, name, **options)
        setattr(target, attribute, classmethod(probe) if is_classmethod
                else probe)


# -- folding spans into layer totals ----------------------------------------------


class LayerTotals:
    """Per-name calls, self time and outermost total time of a run."""

    def __init__(self, recorder):
        names = recorder.names
        starts, ends = recorder.start, recorder.end
        parents, span_names = recorder.parent, recorder.name
        count = len(starts)
        duration = [ends[i] - starts[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += duration[i]
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.total_s = collections.Counter()
        # {unit: {span name: self seconds}}, for per-op breakdowns.
        self.unit_self = collections.defaultdict(collections.Counter)
        for i in range(count):
            name = names[span_names[i]]
            own = duration[i] - covered[i]
            self.calls[name] += 1
            self.self_s[name] += own
            self.unit_self[recorder.unit[i]][name] += own
            parent = parents[i]
            if parent < 0 or span_names[parent] != span_names[i]:
                self.total_s[name] += duration[i]
        self.counts = recorder.counts
        self.wall_s = recorder.t1 - recorder.t0
        self.other_s = self.wall_s - sum(self.self_s.values())

    def self_of(self, *names):
        return sum(self.self_s[name] for name in names)


# -- the per-layer metrics -----------------------------------------------------------


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _self(name):
    return lambda t: t.self_s[name]


def _calls(name):
    return lambda t: t.calls[name]


def _counted(key):
    return lambda t: t.counts[key]


FIG11_KERNELS = ("2dconv", "aes", "aesdec", "astar", "classify", "dtw", "fc",
                 "fft", "fir", "histogram", "ifft", "pool", "specfilter",
                 "svm", "update")

# (metric, unit, better, value of a LayerTotals).  ``.s`` metrics are
# self times unless the name says ``run`` (inclusive of child spans).
LAYER_METRICS = (
    ("compiler.profile.s", "s", "lower", _self("compiler.profile")),
    ("compiler.liveness.s", "s", "lower", _self("compiler.liveness")),
    ("compiler.dfg.s", "s", "lower", _self("compiler.dfg")),
    ("compiler.dfg.calls", "count", "lower", _calls("compiler.dfg")),
    ("compiler.enumerate.s", "s", "lower", _self("compiler.enumerate")),
    ("compiler.enumerate.calls", "count", "lower",
     _calls("compiler.enumerate")),
    ("compiler.enumerate.candidates", "count", "lower",
     _counted("compiler.enumerate.candidates")),
    ("compiler.convex.s", "s", "lower", _self("compiler.convex")),
    ("compiler.convex.calls", "count", "lower", _calls("compiler.convex")),
    ("compiler.select.s", "s", "lower", _self("compiler.select")),
    ("compiler.select.accepted", "count", "higher",
     _counted("compiler.select.accepted")),
    ("compiler.select.accept_ratio", "ratio", "higher",
     lambda t: _ratio(t.counts["compiler.select.accepted"],
                      t.counts["compiler.select.considered"])),
    ("compiler.map.s", "s", "lower", _self("compiler.map")),
    ("compiler.map.calls", "count", "lower", _calls("compiler.map")),
    ("compiler.map.success_ratio", "ratio", "higher",
     lambda t: _ratio(t.counts["compiler.map.mapped"],
                      t.calls["compiler.map"])),
    ("compiler.rewrite.s", "s", "lower", _self("compiler.rewrite")),
    ("compiler.rewrite.calls", "count", "lower", _calls("compiler.rewrite")),
    ("compiler.measure.s", "s", "lower", _self("compiler.measure")),
    ("compiler.measure.instr", "count", "lower",
     _counted("compiler.measure.instr")),
    ("compiler.other.s", "s", "lower", _self("compiler.other")),
) + tuple(
    (f"compile.{kernel}.s", "s", "lower", _counted(f"compile.{kernel}.s"))
    for kernel in FIG11_KERNELS
) + (
    ("isa.assemble.s", "s", "lower", _self("isa.assemble")),
    ("isa.assemble.calls", "count", "lower", _calls("isa.assemble")),
    ("stitcher.s", "s", "lower",
     lambda t: t.self_of("stitcher", "stitcher.find_path")),
    ("stitcher.find_path.calls", "count", "lower",
     _calls("stitcher.find_path")),
    ("stitcher.find_path.found_ratio", "ratio", "higher",
     lambda t: _ratio(t.counts["stitcher.find_path.found"],
                      t.calls["stitcher.find_path"])),
    ("sim.build.s", "s", "lower", _self("sim.build")),
    ("sim.run.s", "s", "lower", lambda t: t.total_s["sim.run"]),
    ("sim.scheduler.self_s", "s", "lower", _self("sim.run")),
    ("sim.slices", "count", "lower", _calls("cpu.run")),
    ("sim.slices_blocked_ratio", "ratio", "lower",
     lambda t: _ratio(t.counts["cpu.run.blocked"], t.calls["cpu.run"])),
    ("sim.instr_per_slice", "count", "higher",
     lambda t: _ratio(t.counts["cpu.run.instr"], t.calls["cpu.run"])),
    ("cpu.run.s", "s", "lower", lambda t: t.total_s["cpu.run"]),
    ("cpu.self_s", "s", "lower", _self("cpu.run")),
    ("cpu.instr", "count", "higher", _counted("cpu.run.instr")),
    ("cpu.cycles", "count", "higher", _counted("cpu.run.cycles")),
    ("cpu.fast_share", "ratio", "higher",
     lambda t: _ratio(t.counts["cpu.run.fast_instr"],
                      t.counts["cpu.run.instr"])),
    ("patch.execute.s", "s", "lower", _self("patch.execute")),
    ("patch.execute.calls", "count", "higher", _calls("patch.execute")),
    ("mem.icache.miss_ratio", "ratio", "lower",
     lambda t: _ratio(t.counts["mem.icache.misses"],
                      t.counts["mem.icache.hits"]
                      + t.counts["mem.icache.misses"])),
    ("mem.dcache.miss_ratio", "ratio", "lower",
     lambda t: _ratio(t.counts["mem.dcache.misses"],
                      t.counts["mem.dcache.hits"]
                      + t.counts["mem.dcache.misses"])),
    ("mem.spm.accesses", "count", "higher", _counted("mem.spm.accesses")),
    ("mem.dram.accesses", "count", "higher", _counted("mem.dram.accesses")),
    ("mpi.send.s", "s", "lower", _self("mpi.send")),
    ("mpi.send.calls", "count", "higher", _calls("mpi.send")),
    ("mpi.try_recv.s", "s", "lower", _self("mpi.try_recv")),
    ("mpi.try_recv.calls", "count", "higher", _calls("mpi.try_recv")),
    ("mpi.try_recv.miss_ratio", "ratio", "lower",
     lambda t: _ratio(t.counts["mpi.try_recv.misses"],
                      t.calls["mpi.try_recv"])),
    ("noc.send.s", "s", "lower", _self("noc.send")),
    ("noc.send.calls", "count", "higher", _calls("noc.send")),
    ("noc.flits", "count", "higher", _counted("noc.flits")),
    ("noc.hops", "count", "higher", _counted("noc.hops")),
    ("noc.contention_delay", "cycles", "lower",
     _counted("noc.contention_delay")),
    ("telemetry.tracer.events", "count", "higher",
     _counted("telemetry.tracer.events")),
    ("telemetry.timeseries.samples", "count", "higher",
     _counted("telemetry.timeseries.samples")),
    ("telemetry.chrome.s", "s", "lower", _self("telemetry.chrome")),
    ("profile.fold.s", "s", "lower", _self("profile.fold")),
    ("critpath.graph.s", "s", "lower", _self("critpath.graph")),
    ("critpath.analyze.s", "s", "lower", _self("critpath.analyze")),
    ("critpath.nodes", "count", "higher", _counted("critpath.nodes")),
    ("verify.s", "s", "lower", _self("verify")),
    ("verify.diagnostics", "count", "lower", _counted("verify.diagnostics")),
    ("bench.check.s", "s", "lower", _self("bench.check")),
    ("bench.calibrate.s", "s", "lower", _self("bench.calibrate")),
    ("trace.wall_s", "s", "lower", lambda t: t.wall_s),
    ("trace.other_s", "s", "lower", lambda t: t.other_s),
    ("trace.other_share", "ratio", "lower",
     lambda t: _ratio(t.other_s, t.wall_s)),
)
