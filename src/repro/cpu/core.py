"""Interpreter + cycle model for the in-order core.

Timing model (validated against the paper's counts in Figure 4):

* every instruction issues in 1 cycle, including the two-word ``movi``
  and ``cix`` encodings (the second word is fetched in parallel);
* loads/stores add the memory system's latency beyond the first cycle;
* taken branches pay a 1-cycle redirect bubble;
* instruction-cache misses stall the front end for the DRAM latency;
* ``cix`` executes the configured (possibly fused) patch in exactly one
  cycle — scratchpad accesses made by the LMAU inside the custom
  instruction are part of that cycle (Section III-C);
* ``send``/``recv`` timing is delegated to the attached comm port,
  which starts the transfer once the instruction's fetch has completed,
  and ``recv`` blocks (without retiring) until data is available.

The loops live in :mod:`repro.cpu.engine`; ``engine=`` on :class:`Core`
picks one.  ``instrumented`` is the executable specification of the
timing model and carries every observability hook; ``fast`` is an
independent hook-free implementation held bit-identical to it by the
differential suite and by golden digests of the original interpreter
(``tests/cpu/test_engine_golden.py``).  ``auto`` selects ``fast`` when
nothing observes the core (:attr:`Core.observed`) and ``instrumented``
otherwise.

Observers attach through one :class:`~repro.telemetry.Telemetry`
bundle (``telemetry=``) whose per-event hooks the loops fire.
``profile=True`` (the compiler's block/region profile) and
``profile_cycles=True`` both turn on the per-PC histogram.
"""

import math

from repro.isa.instructions import wrap32
from repro.chaos.injector import NULL_INJECTOR
from repro.platform import DEFAULT_PLATFORM
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.rollup import ATTRIBUTION_BUCKETS  # noqa: F401 (re-export)

STOP_HALT = "halt"
STOP_LIMIT = "limit"
STOP_RECV = "recv"
STOP_FROZEN = "frozen"

#: Engine names accepted by :class:`Core`.  ``auto`` picks the fast
#: loop when every observability channel is off and the instrumented
#: loop otherwise.
ENGINES = ("auto", "fast", "instrumented")

class BlockedError(RuntimeError):
    """Raised when a comm operation is attempted with no port attached."""


class ExecutionError(IndexError):
    """The pc left the program's instruction range (missing halt?).

    Subclasses :class:`IndexError` so existing callers that caught the
    interpreter's old bare ``IndexError`` keep working; carries the
    core id, program name and offending pc as attributes for
    diagnostics.
    """

    def __init__(self, core_id, program_name, pc):
        super().__init__(
            f"core {core_id}: pc {pc} ran off the end of "
            f"{program_name!r} (missing halt?)"
        )
        self.core_id = core_id
        self.program_name = program_name
        self.pc = pc


class RunResult:
    """Outcome of a :meth:`Core.run` call."""

    __slots__ = ("reason", "cycles", "instructions")

    def __init__(self, reason, cycles, instructions):
        self.reason = reason
        self.cycles = cycles
        self.instructions = instructions

    def __repr__(self):
        return (
            f"RunResult({self.reason}, cycles={self.cycles}, "
            f"instructions={self.instructions})"
        )


class PatchPort:
    """Interface of the tile's patch as seen by the core.

    ``execute(cfg_id, in_values)`` returns up to two output values; any
    SPM traffic happens through the LMAU inside the same cycle.
    """

    def execute(self, cfg_id, in_values):
        raise NotImplementedError


class CommPort:
    """Interface of the tile's NIC as seen by the core (blocking MPI).

    ``send`` always succeeds (the NIC injects at line rate) and returns
    the local finish time.  ``try_recv`` returns ``None`` when no
    matching message is ready, else ``(values, finish_time)``.
    """

    def send(self, peer, values, now):
        raise NotImplementedError

    def try_recv(self, peer, count, now):
        raise NotImplementedError


class NullComm(CommPort):
    """Comm port for single-core runs: any use is a programming error."""

    def send(self, peer, values, now):
        raise BlockedError("send executed but no network is attached")

    def try_recv(self, peer, count, now):
        raise BlockedError("recv executed but no network is attached")


class Core:
    """One in-order core executing an assembled :class:`Program`."""

    def __init__(
        self,
        program,
        memory,
        patch=None,
        comm=None,
        core_id=0,
        taken_branch_penalty=None,
        profile=False,
        profile_cycles=False,
        telemetry=None,
        params=None,
        engine="auto",
        injector=None,
    ):
        if params is None:
            params = DEFAULT_PLATFORM.core
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine = engine
        # Pre-decoded execution form + resident-line memo, built lazily
        # on first run.
        self._decoded = None
        self._resident = None
        self.program = program
        self.memory = memory
        self.patch = patch
        self.comm = comm if comm is not None else NullComm()
        self.core_id = core_id
        self.params = params
        self.taken_branch_penalty = (
            taken_branch_penalty
            if taken_branch_penalty is not None
            else params.taken_branch_penalty
        )
        self.profile = profile
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.injector = injector if injector is not None else NULL_INJECTOR
        #: Set by an armed injector's ``freeze`` fault: the core stops
        #: retiring and its run() returns ``STOP_FROZEN`` forever.
        self.frozen = False
        self.profile_cycles = profile_cycles
        # pc -> [cycles, retired]; every simulated cycle lands on exactly
        # one pc, so sum(cycles) == self.cycles at instruction boundaries
        # (the profiler-side twin of the attribution invariant).
        self.pc_profile = {} if profile or profile_cycles else None

        self.regs = [0] * params.num_regs
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self.halted = False

        # Cycle attribution (always on — plain integer bumps): stall
        # cycles beyond the issue slot, by cause.  The issue slots
        # themselves are ``instret`` (one compute cycle per retired
        # instruction), so ``cycles == instret + sum(stalls)`` holds at
        # every instruction boundary.
        self.stall_memory = 0
        self.stall_icache = 0
        self.stall_branch = 0
        self.stall_comm = 0
        self.cix_retired = 0

        self.spm_only_accesses = {}  # program index -> all addresses in SPM
        self.mem_ranges = {}         # program index -> [min addr, max addr]

        self.cfg_table = getattr(program, "cfg_table", None)

        # Interval sampling: the hot loop compares cycles against the
        # next interval boundary; disabled collectors pin it at +inf so
        # the disabled path costs exactly one comparison.
        if self.telemetry.tile_sample is not None:
            self._ts_snap = self._timeseries_counters()
            self._ts_next = self.telemetry.timeseries.interval
        else:
            self._ts_snap = None
            self._ts_next = math.inf

        # Fault-injection boundary: same +inf trick; an armed injector
        # sets the first trigger cycle (and the stalled-cfg set).
        self.injector.attach_core(self)

    # -- register helpers ----------------------------------------------------

    def write_reg(self, index, value):
        if index != 0:
            self.regs[index] = wrap32(value)

    def set_regs(self, **named):
        """Harness helper: ``core.set_regs(r1=addr, r2=count)``."""
        for name, value in named.items():
            self.write_reg(int(name[1:]), value)

    # -- execution -------------------------------------------------------------

    def run(self, max_instructions=None, max_cycles=None):
        """Run until halt, a blocking receive, or a limit; resumable."""
        tile_span = self.telemetry.tile_span
        if tile_span is None:
            return self._dispatch(max_instructions, max_cycles)
        slice_cycles = self.cycles
        slice_instret = self.instret
        result = self._dispatch(max_instructions, max_cycles)
        retired = self.instret - slice_instret
        if retired or self.cycles > slice_cycles:
            tile_span(
                self.core_id, self.program.name, slice_cycles, self.cycles,
                result.reason, retired,
            )
        return result

    def selected_engine(self):
        """The loop ``run`` will enter: resolves ``auto`` to a mode.

        An armed injector needs the boundary/hook sites the fast loop
        deliberately omits, so both ``auto`` and an explicit ``fast``
        fall back to the instrumented loop transparently while faults
        are in play.
        """
        if self.engine == "fast":
            return "instrumented" if self.injector.armed else "fast"
        if self.engine != "auto":
            return self.engine
        return "instrumented" if self.observed else "fast"

    @property
    def observed(self):
        """Whether anything hooks this core's loop: the PC histogram, a
        telemetry sink or an armed injector.  The fast loop carries no
        hooks, so it runs only unobserved cores."""
        return (self.pc_profile is not None or self.telemetry.observes_cores
                or self.injector.armed)

    def _dispatch(self, max_instructions, max_cycles):
        from repro.cpu import engine as engine_mod

        if self.frozen:
            return RunResult(STOP_FROZEN, self.cycles, self.instret)
        if self.selected_engine() == "fast":
            return engine_mod.run_fast(self, max_instructions, max_cycles)
        return engine_mod.run_instrumented(self, max_instructions, max_cycles)

    def _ensure_decoded(self):
        """Decode (memoized on the Program) + allocate the resident memo."""
        decoded = self._decoded
        if decoded is None:
            from repro.isa.decoded import decode_program

            decoded = decode_program(
                self.program, self.params, getattr(self.memory, "params", None)
            )
            self._decoded = decoded
            self._resident = bytearray(decoded.n)
        return decoded

    # -- telemetry ---------------------------------------------------------------

    def attribution(self):
        """Cycle attribution: every cycle in exactly one bucket.

        ``compute`` is the retired-instruction count (each instruction
        owns one issue cycle); the stall buckets are tracked
        independently in the interpreter, so ``sum(buckets) == total``
        is a real cross-check of the timing model, not an identity
        (see :func:`repro.verify.check_cycle_attribution`).
        """
        return {
            "compute": self.instret,
            "memory_stall": self.stall_memory,
            "icache_stall": self.stall_icache,
            "branch_bubble": self.stall_branch,
            "comm_blocked": self.stall_comm,
            "total": self.cycles,
        }

    def _recorder_counters(self):
        """Counter snapshot in :data:`repro.critpath.COUNTER_FIELDS`
        order — the compute-segment deltas the dependency recorder
        attaches to each comm op."""
        memory = self.memory
        return (
            self.instret,
            self.stall_memory,
            self.stall_icache,
            self.stall_branch,
            memory.icache.misses,
            memory.dcache.misses,
            memory.dcache.writebacks,
            self.cix_retired,
        )

    def _timeseries_counters(self):
        """Current values of every counter the interval sampler tracks."""
        ih, im, dh, dm = self.memory.counter_snapshot()
        return {
            "cycles": self.cycles,
            "instructions": self.instret,
            "memory_stall": self.stall_memory,
            "icache_stall": self.stall_icache,
            "branch_bubble": self.stall_branch,
            "comm_blocked": self.stall_comm,
            "icache_hits": ih,
            "icache_misses": im,
            "dcache_hits": dh,
            "dcache_misses": dm,
        }

    def flush_timeseries(self):
        """Close the current sampling interval.

        Folds every counter delta since the previous sample into the
        interval containing the cycle at which the delta *began* (the
        previous snapshot), so per-interval sums reconcile exactly with
        the end-of-run totals no matter where the flush lands, and
        successive samples carry strictly increasing interval indices.
        Called by the interpreter at interval boundaries and by the
        harness once a run finishes.
        """
        tile_sample = self.telemetry.tile_sample
        if tile_sample is None:
            return
        now = self._timeseries_counters()
        snap = self._ts_snap
        deltas = {
            field: now[field] - snap[field]
            for field in now
            if now[field] != snap[field]
        }
        if deltas:
            tile_sample(self.core_id, snap["cycles"], deltas)
        self._ts_snap = now
        interval = self.telemetry.timeseries.interval
        self._ts_next = (self.cycles // interval + 1) * interval

    def _fire_injector(self):
        """Apply due injected faults; returns the next boundary cycle."""
        self._inj_next = self.injector.fire_core(self)
        return self._inj_next

    def _execute_cix(self, instr):
        if self.patch is None:
            raise BlockedError(
                f"core {self.core_id}: cix executed but no patch is attached"
            )
        if self._inj_cix is not None and instr.cfg in self._inj_cix:
            self.injector.cix_stall(self.core_id, instr.cfg, self.cycles)
        in_values = [self.regs[r] for r in instr.ins]
        return self.patch.execute(instr.cfg, in_values)

    def _note_region(self, pc, addr):
        is_spm = self.memory.is_spm(addr)
        previous = self.spm_only_accesses.get(pc)
        self.spm_only_accesses[pc] = is_spm if previous is None else (previous and is_spm)
        span = self.mem_ranges.get(pc)
        if span is None:
            self.mem_ranges[pc] = [addr, addr]
        else:
            if addr < span[0]:
                span[0] = addr
            if addr > span[1]:
                span[1] = addr

    # -- profiling ---------------------------------------------------------------

    @property
    def block_counts(self):
        """{leader pc: block entries} — the retires at each leader pc
        (requires profile=True)."""
        if not self.profile:
            raise RuntimeError("core was created with profile=False")
        pc_profile = self.pc_profile
        return {
            block.start: pc_profile.get(block.start, (0, 0))[1]
            for block in self.program.basic_blocks()
        }

    def block_instruction_counts(self):
        """Dynamic instruction count per basic block (requires profile=True)."""
        counts = self.block_counts
        return {
            block.index: counts[block.start] * len(block)
            for block in self.program.basic_blocks()
        }
