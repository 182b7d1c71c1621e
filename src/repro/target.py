"""One name, one run: the kernel-or-app target every tool drives.

The paper evaluates two units: one Figure-11 kernel on one tile and
one Figure-12 application co-simulated on the 16-tile mesh.  Every
tool — ``profile``, ``critpath``, ``monitor``, ``verify``, ``explain``,
``app``, ``chaos``, the sweep and bench harnesses — names one of the
two and then runs it.  :meth:`Target.resolve` is the only place a name
is looked up (kernels match exactly, apps case-insensitively), and
:meth:`Target.run` is the only single-tile kernel harness: build a
:class:`~repro.cpu.Core`, set it up, run it, check that it halted, and
close the telemetry with the :meth:`Telemetry.close_run
<repro.telemetry.Telemetry.close_run>` epilogue an application's
:meth:`StitchSystem.run <repro.sim.system.StitchSystem.run>` also uses.

The simulator stack is imported lazily, so importing this module stays
cheap and cycle-free.
"""

import time

from repro.platform import DEFAULT_PLATFORM


class UnknownTargetError(ValueError, KeyError):
    """A name that is neither a kernel nor an application.

    Also a :class:`KeyError`, like the registry lookups it replaces.
    """

    __str__ = ValueError.__str__  # KeyError would quote the message


class NoHaltError(RuntimeError):
    """A kernel run stopped without halting (limit, freeze, ...)."""

    def __init__(self, name, reason, max_instructions):
        super().__init__(
            f"kernel {name!r} did not halt within {max_instructions} "
            f"instructions (reason: {reason})"
        )
        self.reason = reason


class Target:
    """A resolved kernel (``kernel`` set) or application (``evaluator``
    set), bound to a platform."""

    __slots__ = ("name", "platform", "kernel", "evaluator")

    def __init__(self, name, platform, kernel=None, evaluator=None):
        self.name = name
        self.platform = platform if platform is not None else DEFAULT_PLATFORM
        self.kernel = kernel
        self.evaluator = evaluator

    @classmethod
    def resolve(cls, name, seed=1, platform=None):
        """Look ``name`` up in the kernel, then the app registry."""
        from repro.workloads.apps import APP_FACTORIES
        from repro.workloads.suite import KERNEL_FACTORIES, make_kernel

        if name in KERNEL_FACTORIES:
            return cls(name, platform, kernel=make_kernel(name, seed=seed))
        canonical = str(name).upper()
        if canonical in APP_FACTORIES:
            from repro.sim.baselines import AppEvaluator

            # The evaluator gets the caller's platform as given: None
            # keeps the default placement and compile-cache key.
            app = APP_FACTORIES[canonical](seed=seed)
            return cls(canonical, platform,
                       evaluator=AppEvaluator(app, platform=platform))
        raise UnknownTargetError(
            f"unknown target {name!r}: not a kernel "
            f"({sorted(KERNEL_FACTORIES)}) or app ({sorted(APP_FACTORIES)})"
        )

    @property
    def is_app(self):
        return self.evaluator is not None

    @property
    def app(self):
        return self.evaluator.app

    def run(self, items=2, telemetry=None, profile_cycles=False,
            engine="auto", injector=None, plan=None,
            max_instructions=20_000_000):
        """Run the target once; returns a :class:`TargetRun`.

        An app runs its Stitch plan (or ``plan``) for ``items`` items;
        co-simulation errors (deadlock, watchdog, round budget)
        propagate.  A kernel runs its baseline program on one tile and
        raises :class:`NoHaltError` unless it halts within
        ``max_instructions``.
        """
        if self.evaluator is not None:
            from repro.sim.baselines import ARCH_STITCH

            system, plan = self.evaluator.build_system(
                ARCH_STITCH, items=items, telemetry=telemetry,
                profile_cycles=profile_cycles, engine=engine,
                injector=injector, plan=plan,
            )
            start = time.perf_counter()
            results = system.run()
            seconds = time.perf_counter() - start
            cores = [core for core in system.cores if core is not None]
            return TargetRun(self, cores, results, seconds, plan)

        from repro.cpu.core import Core, STOP_HALT
        from repro.mem.hierarchy import MemorySystem
        from repro.power.chip import EnergyModel
        from repro.telemetry import ensure_telemetry

        telemetry = ensure_telemetry(telemetry)
        core = Core(
            self.kernel.program, MemorySystem(self.platform.mem),
            telemetry=telemetry, profile_cycles=profile_cycles,
            params=self.platform.core, engine=engine, injector=injector,
        )
        self.kernel.setup(core)
        start = time.perf_counter()
        outcome = core.run(max_instructions=max_instructions)
        seconds = time.perf_counter() - start
        if outcome.reason != STOP_HALT:
            raise NoHaltError(self.name, outcome.reason, max_instructions)
        telemetry.close_run(
            [core], {core: outcome.reason}, "complete",
            energy=EnergyModel(self.platform.power,
                               num_tiles=self.platform.noc.num_tiles),
        )
        return TargetRun(self, [core], None, seconds)


class TargetRun:
    """One completed run of a :class:`Target`.

    ``cores`` are the live tiles, ``results`` the co-simulator's
    :class:`~repro.sim.system.RunResults` (``None`` for a kernel),
    ``host_seconds`` the host wall time of the simulation loop alone
    (no build, setup or epilogue).
    """

    __slots__ = ("target", "cores", "results", "host_seconds", "plan")

    def __init__(self, target, cores, results, host_seconds, plan=None):
        self.target = target
        self.cores = cores
        self.results = results
        self.host_seconds = host_seconds
        self.plan = plan

    @property
    def cycles(self):
        """Measured cycles: the kernel's, or the app's makespan."""
        return max(core.cycles for core in self.cores)

    def outputs(self):
        """``kernel.result(core)``, or ``{stage id: result}`` for an app."""
        if not self.target.is_app:
            return self.target.kernel.result(self.cores[0])
        tiles = {core.core_id: core for core in self.cores}
        return {
            stage.id: stage.kernel.result(tiles[self.plan.tile_of(stage.id)])
            for stage in self.target.app.stages
        }
