"""The four evaluated architectures and the per-app evaluator.

Figure 12 compares, all at 200 MHz on 16 message-passing cores:

* **baseline** — no acceleration (8 KB D$, no SPM/patches),
* **LOCUS** — a conventional compute-only ISE accelerator per core,
* **Stitch w/o fusion** — polymorphic patches, local use only,
* **Stitch** — patches plus compiler-scheduled fusion (Algorithm 1).

:class:`AppEvaluator` measures per-stage cycle tables by compiling and
simulating each *structurally distinct* kernel once per option (stages
differing only in input seed share a measurement — their programs are
identical), then runs Algorithm 1 and the pipeline model per
architecture.  It can also materialize the full 16-tile streaming
binary set for the co-simulator.
"""

from repro.compiler.driver import (
    ALL_OPTIONS,
    KernelCompiler,
    LOCUS_OPTION,
    SINGLE_OPTIONS,
)
from repro.core.placement import DEFAULT_PLACEMENT, Placement
from repro.core.stitching import BASELINE, stitch_application, stitch_best
from repro.noc.topology import Mesh
from repro.platform import DEFAULT_PLATFORM
from repro.sim.pipeline_model import PipelineModel, StageTiming
from repro.sim.streaming import wrap_streaming
from repro.sim.system import StitchSystem

ARCH_BASELINE = "baseline"
ARCH_LOCUS = "LOCUS"
ARCH_NOFUSE = "Stitch w/o fusion"
ARCH_STITCH = "Stitch"
ARCHITECTURES = (ARCH_BASELINE, ARCH_LOCUS, ARCH_NOFUSE, ARCH_STITCH)

_SINGLE_NAMES = frozenset(option.name for option in SINGLE_OPTIONS)

_COMPILE_CACHE = {}


def _structural_key(kernel):
    key = kernel.cache_key()
    return (key[0], tuple(kv for kv in key[2] if kv[0] != "seed"))


def compile_kernel_options(kernel, options=None, allow_replication=False,
                           platform=None):
    """Cycle table + compiled programs for one kernel (cached).

    Returns ``(cycles: {name: cycles}, compiled: {name: CompiledKernel})``
    with ``cycles["baseline"]`` included.  ``platform`` (None: the stitch
    preset) keys the cache via :meth:`~repro.platform.PlatformConfig.cache_key`,
    so sweeps over memory/NoC configurations never share measurements.

    Const-region replication defaults off: placing a replica needs free
    space at the region's address in the *remote* tile's scratchpad,
    and every tile of a 16-kernel application already hosts a kernel
    whose regions occupy that space.  App-level binaries therefore
    compile without it; the Fig. 11 kernel study turns it on.
    """
    options = options if options is not None else ALL_OPTIONS + (LOCUS_OPTION,)
    key = (_structural_key(kernel), tuple(o.name for o in options),
           allow_replication,
           (platform or DEFAULT_PLATFORM).cache_key())
    if key not in _COMPILE_CACHE:
        compiler = KernelCompiler(kernel, allow_replication=allow_replication,
                                  platform=platform)
        compiled = compiler.compile_options(options)
        cycles = {name: c.cycles for name, c in compiled.items()}
        cycles[BASELINE] = compiler.baseline_cycles
        _COMPILE_CACHE[key] = (cycles, compiled)
    return _COMPILE_CACHE[key]


class AppEvaluator:
    """Evaluate one application across the four architectures."""

    def __init__(self, app, placement=None, platform=None):
        self.app = app
        self.platform = platform
        if placement is None:
            placement = (
                DEFAULT_PLACEMENT if platform is None
                else Placement(mesh=Mesh.from_params(platform.noc))
            )
        self.placement = placement
        self._tables = None
        self._compiled = None

    # -- measurement ---------------------------------------------------------

    def cycle_tables(self):
        """{stage id: {option name: per-item cycles}} (measured)."""
        if self._tables is None:
            tables = {}
            compiled = {}
            for stage in self.app.stages:
                cycles, programs = compile_kernel_options(
                    stage.kernel, platform=self.platform
                )
                tables[stage.id] = dict(cycles)
                compiled[stage.id] = programs
            self._tables = tables
            self._compiled = compiled
        return self._tables

    def compiled_programs(self):
        self.cycle_tables()
        return self._compiled

    # -- architecture plans ------------------------------------------------------

    def plan(self, architecture, trace=None):
        """A StitchPlan-compatible assignment for each architecture.

        ``trace`` (a :class:`repro.provenance.StitchTrace`) records the
        stitcher's decisions for the two architectures that stitch.
        """
        tables = self.cycle_tables()
        if architecture == ARCH_STITCH:
            return stitch_best(
                f"{self.app.name}/{architecture}", tables, self.placement,
                trace=trace,
            )
        if architecture == ARCH_NOFUSE:
            return stitch_best(
                f"{self.app.name}/{architecture}", tables, self.placement,
                allowed=_SINGLE_NAMES, trace=trace,
            )
        # baseline / LOCUS: identity placement, uniform per-core option.
        option = LOCUS_OPTION.name if architecture == ARCH_LOCUS else BASELINE
        synthetic = {}
        for sid, table in tables.items():
            cycles = table.get(option, table[BASELINE])
            synthetic[sid] = {BASELINE: cycles}
        plan = stitch_application(
            f"{self.app.name}/{architecture}", synthetic, self.placement,
            allowed=frozenset(),
        )
        for sid, assignment in plan.assignments.items():
            assignment.option = option if option != BASELINE else BASELINE
        return plan

    def pipeline(self, architecture):
        """Analytic pipeline model for an architecture."""
        plan = self.plan(architecture)
        stages = []
        for stage in self.app.stages:
            recv, send = self.app.comm_words(stage.id)
            stages.append(
                StageTiming(
                    f"{stage.kernel.name}#{stage.id}",
                    plan.assignments[stage.id].cycles,
                    recv_words=recv,
                    send_words=send,
                )
            )
        return PipelineModel(stages)

    def cycles_per_item(self, architecture):
        return self.pipeline(architecture).cycles_per_item()

    def normalized_throughputs(self):
        """{architecture: speedup over baseline} (Figure 12's y-axis)."""
        base = self.cycles_per_item(ARCH_BASELINE)
        return {
            arch: base / self.cycles_per_item(arch) for arch in ARCHITECTURES
        }

    # -- co-simulation ------------------------------------------------------------

    def build_system(self, architecture, items=2, contention=False,
                     telemetry=None, profile_cycles=False, engine="auto",
                     injector=None, plan=None):
        """Materialize the 16-tile co-simulation for an architecture.

        All architectures run on the Stitch tile memory (4 KB D$ +
        4 KB SPM) so cycle tables and co-simulation agree; the paper
        reports the 8 KB-D$-vs-SPM difference is ~1.5 % (Section
        III-C), which the dedicated experiment measures separately.

        ``contention`` defaults to off here: the link-reservation model
        needs globally time-ordered injections, which the
        run-until-blocked co-simulator does not guarantee — host
        scheduling order would leak into simulated time.

        ``telemetry`` (``True`` or a :class:`repro.telemetry.Telemetry`
        bundle) enables stats/tracing across every tile and the NoC;
        ``profile_cycles`` turns on every core's retired-cycle PC
        histogram (the ``repro profile`` substrate).

        ``injector`` (an :class:`repro.chaos.Injector` or an
        :class:`~repro.chaos.InjectionPlan`) arms fault injection on
        every tile; ``plan`` overrides the stitch plan — graceful
        degradation rebuilds the system from a remapped plan that
        routes around a failed fused unit.
        """
        plan = plan if plan is not None else self.plan(architecture)
        compiled = self.compiled_programs()
        system = StitchSystem(self.placement.mesh, contention=contention,
                              telemetry=telemetry, platform=self.platform,
                              profile_cycles=profile_cycles, engine=engine,
                              injector=injector)
        for stage in self.app.stages:
            assignment = plan.assignments[stage.id]
            option = assignment.option
            if option == BASELINE:
                program = stage.kernel.program
            else:
                program = compiled[stage.id][option].program
            sources = [
                (plan.tile_of(c.src), stage.kernel.get_region(c.dst_region))
                for c in self.app.producers_of(stage.id)
            ]
            sinks = [
                (plan.tile_of(c.dst), stage.kernel.get_region(c.src_region))
                for c in self.app.consumers_of(stage.id)
            ]
            streaming = wrap_streaming(
                program, sources, sinks, items,
                name=f"{stage.kernel.name}#{stage.id}",
            )
            system.load(
                plan.tile_of(stage.id), streaming,
                setup=stage.kernel.setup,
            )
        return system, plan

    def cosim_cycles_per_item(self, architecture, warm_items=2, total_items=5):
        """Measured steady-state initiation interval from two co-sim runs."""
        short, _ = self.build_system(architecture, items=warm_items)
        long, _ = self.build_system(architecture, items=total_items)
        t_short = short.makespan()
        t_long = long.makespan()
        return (t_long - t_short) / (total_items - warm_items)

    def final_outputs(self, architecture, items=2):
        """Per-stage output dumps after a co-sim run (for validation)."""
        system, plan = self.build_system(architecture, items=items)
        system.run()
        outputs = {}
        for stage in self.app.stages:
            core = system.cores[plan.tile_of(stage.id)]
            outputs[stage.id] = stage.kernel.result(core)
        return outputs
