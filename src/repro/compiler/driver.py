"""Per-kernel compilation driver.

For every kernel the tool chain produces one executable version per
*patch option* — the patch (or fused pair) the kernel's tile could be
granted — and measures each version by actually simulating it
(Figure 6: "multiple executable versions of the original kernel").
Every version is validated bit-exactly against the profile run, the
one run of the unmodified kernel, on the platform it is measured on.

The stitcher (:mod:`repro.core.stitching`) later picks one version per
kernel chip-wide.
"""

import time

from repro.compiler.codegen import (
    ImmPool,
    rewrite_block,
    rewrite_program,
)
from repro.compiler.dfg import DFG
from repro.compiler.ise import enumerate_candidates
from repro.compiler.liveness import ALL_REGS, liveness
from repro.compiler.profiler import profile_kernel
from repro.compiler.selector import select_ises
from repro.core.executor import PatchExecutor
from repro.core.patches import AT_AS, AT_MA, AT_SA, LOCUS_SFU
from repro.cpu.core import Core, STOP_HALT
from repro.mem.hierarchy import MemorySystem
from repro.platform import DEFAULT_PLATFORM
from repro.provenance.records import NULL_REPORT, EnumerationLog


def _first_divergence(expected, actual, prefix=""):
    """First location where two kernel results disagree, or ``None``.

    Walks nested sequences/dicts (kernel results are memory-word dumps,
    register values, or small structures of them) and returns
    ``(loc, expected_value, actual_value)`` with ``loc`` an index path
    like ``[2][17]``.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=repr):
            if key not in expected:
                return (f"{prefix}[{key!r}]", "<absent>", actual[key])
            if key not in actual:
                return (f"{prefix}[{key!r}]", expected[key], "<absent>")
            found = _first_divergence(
                expected[key], actual[key], f"{prefix}[{key!r}]"
            )
            if found is not None:
                return found
        return None
    if (isinstance(expected, (list, tuple))
            and isinstance(actual, (list, tuple))):
        for index, (want, got) in enumerate(zip(expected, actual)):
            found = _first_divergence(want, got, f"{prefix}[{index}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            return (f"{prefix}.length", len(expected), len(actual))
        return None
    if expected != actual:
        return (prefix or "value", expected, actual)
    return None


class MiscompileError(AssertionError):
    """An accelerated kernel produced different results.

    Carries the kernel name, the patch option whose version failed, and
    the first diverging word — ``divergence`` is ``(loc, expected,
    actual)`` where ``loc`` indexes into the kernel's result structure
    (for memory dumps, the word index) — so a miscompile names exactly
    where the accelerated binary went wrong, mirroring the assembler's
    located :class:`~repro.isa.assembler.AssemblerError`.
    """

    def __init__(self, message, kernel=None, option=None, divergence=None):
        super().__init__(message)
        self.kernel = kernel
        self.option = option
        self.divergence = divergence

    @classmethod
    def from_results(cls, kernel_name, option_name, expected, actual):
        divergence = _first_divergence(expected, actual)
        head = f"{kernel_name} @ {option_name}: accelerated output "
        if divergence is None:
            message = head + "differs from reference"
        else:
            loc, want, got = divergence
            message = (
                head + f"diverges at word {loc}: "
                f"expected {want!r}, got {got!r}"
            )
        return cls(
            message, kernel=kernel_name, option=option_name,
            divergence=divergence,
        )


class PatchOption:
    """One acceleration scenario for a kernel's tile.

    ``max_outputs`` optionally narrows the register-file write ports
    for this option's custom instructions (the 2-output interface is a
    Stitch patch feature; conventional SFUs write one register).
    """

    def __init__(self, name, local_type, remote_type=None, max_outputs=None):
        self.name = name
        self.local_type = local_type
        self.remote_type = remote_type
        self.max_outputs = max_outputs

    @property
    def fused(self):
        return self.remote_type is not None

    def targets(self):
        """Mapping targets in preference order."""
        if self.fused:
            return [(self.local_type, self.remote_type), self.local_type]
        return [self.local_type]

    def __repr__(self):
        return f"PatchOption({self.name})"

    def __eq__(self, other):
        return isinstance(other, PatchOption) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


_AT_TYPES = (AT_MA, AT_AS, AT_SA)

SINGLE_OPTIONS = tuple(PatchOption(p.name, p) for p in _AT_TYPES)
FUSED_OPTIONS = tuple(
    PatchOption(f"{a.name}+{b.name}", a, b)
    for a in _AT_TYPES
    for b in _AT_TYPES
)
ALL_OPTIONS = SINGLE_OPTIONS + FUSED_OPTIONS
# The paper's per-core SFU executes op-chain ISEs without load/store
# (Section VI-B) and, like conventional ISE interfaces, writes a single
# result register — the 4-input/2-output register file plumbing is part
# of the Stitch patch design.
LOCUS_OPTION = PatchOption(LOCUS_SFU.name, LOCUS_SFU, max_outputs=1)


class CompiledKernel:
    """One measured executable version of a kernel."""

    def __init__(self, kernel, option, program, cfg_table, mappings,
                 cycles, baseline_cycles, replicated_regions=()):
        self.kernel = kernel
        self.option = option
        self.program = program
        self.cfg_table = cfg_table
        self.mappings = mappings
        self.cycles = cycles
        self.baseline_cycles = baseline_cycles
        # Read-only regions a remote tile must replicate before this
        # binary's fused custom instructions may execute there.
        self.replicated_regions = tuple(replicated_regions)

    @property
    def speedup(self):
        return self.baseline_cycles / self.cycles if self.cycles else 1.0

    @property
    def uses_fusion(self):
        return any(m.is_fused for m in self.mappings)

    def __repr__(self):
        return (
            f"CompiledKernel({self.kernel.name} @ {self.option.name}: "
            f"{self.speedup:.2f}x)"
        )


class KernelCompiler:
    """Compiles and measures one kernel across patch options."""

    def __init__(self, kernel, hot_threshold=0.05, max_instructions=20_000_000,
                 max_inputs=4, max_outputs=2, allow_replication=True,
                 verify=False, report=None, platform=None):
        self.kernel = kernel
        self.hot_threshold = hot_threshold
        self.max_instructions = max_instructions
        # Platform the kernel is profiled and every version measured on
        # (None = the stitch preset; sweeps pass alternative configs).
        self.platform = platform if platform is not None else DEFAULT_PLATFORM
        # Opt-in static verification: every compiled artifact must pass
        # the repro.verify ISE checks (and the kernel body its lint)
        # before it is returned or cached.
        self.verify = verify
        # Opt-in decision provenance; the null report swallows every
        # hook so the default path pays a single attribute load.
        self.report = report if report is not None else NULL_REPORT
        if not (1 <= max_outputs <= 2 and 1 <= max_inputs <= 4):
            raise ValueError(
                "the register file provides at most 4 read / 2 write ports"
            )
        self.max_inputs = max_inputs
        self.max_outputs = max_outputs
        self.allow_replication = allow_replication
        profiled = []  # the setup hook lends out the profiled core

        def setup(core):
            kernel.setup(core)
            profiled.append(core)

        with self.report.phase("profile"):
            self.profile = profile_kernel(
                kernel.program, setup, platform=self.platform,
                max_instructions=max_instructions,
            )
        self._reference = kernel.result(profiled.pop())
        self.baseline_cycles = self.profile.cycles
        self.report.baseline_cycles = self.baseline_cycles
        exit_live = getattr(kernel, "live_out_regs", None)
        with self.report.phase("liveness"):
            _, self.block_live_out = liveness(
                kernel.program, ALL_REGS if exit_live is None else exit_live
            )
        # Loads confined to read-only (const) regions may run on a
        # remote patch's LMAU once the region is replicated there.
        const_regions = [r for r, _ in getattr(kernel, "consts", [])]
        self.replicable = (
            self.profile.replicable_loads(const_regions)
            if allow_replication and const_regions else {}
        )
        self._cache = {}
        self._enumerations = {}  # (block, max_inputs, max_outputs) -> memo

    # -- execution ------------------------------------------------------------

    def _replica_memory(self, cfg_table):
        """A stand-in remote scratchpad preloaded with the replicated
        read-only regions, when any fused config's B half loads."""
        from repro.core.fusion import FusedConfig

        needs = any(
            isinstance(cfg, FusedConfig) and cfg.cfg_b.uses_lmau()
            for cfg in cfg_table
        )
        if not needs:
            return None
        replica = MemorySystem(self.platform.mem)
        for region, words in getattr(self.kernel, "consts", []):
            replica.load(region.addr, words)
        return replica

    def _run(self, program, cfg_table):
        memory = MemorySystem(self.platform.mem)
        patch = None
        if cfg_table:
            patch = PatchExecutor(
                cfg_table, memory,
                replica_memory=self._replica_memory(cfg_table),
            )
        core = Core(program, memory, patch=patch, params=self.platform.core)
        self.kernel.setup(core)
        outcome = core.run(max_instructions=self.max_instructions)
        if outcome.reason != STOP_HALT:
            raise RuntimeError(
                f"kernel {self.kernel.name!r} did not halt ({outcome.reason})"
            )
        return core.cycles, self.kernel.result(core)

    # -- compilation ------------------------------------------------------------

    def compile(self, option):
        """Compile + measure + validate one option (cached)."""
        if option.name in self._cache:
            return self._cache[option.name]
        version = self.report.version(option)
        wall_start = time.perf_counter()
        try:
            compiled = self._compile(option, version)
        finally:
            version.wall_seconds = time.perf_counter() - wall_start
        self._cache[option.name] = compiled
        return compiled

    def _enumerate(self, block, max_outputs):
        """``(candidates, EnumerationLog)`` of one hot block, memoized.

        The DFG and its candidate set depend only on the block and the
        I/O budget, so the options sharing a budget share one search;
        each version replays the log into its own block record.
        """
        key = (block.index, self.max_inputs, max_outputs)
        memo = self._enumerations.get(key)
        if memo is None:
            dfg = DFG(
                block,
                spm_only=self.profile.spm_only,
                live_out=self.block_live_out[block.index],
                replicable=frozenset(self.replicable),
            )
            log = EnumerationLog()
            candidates = enumerate_candidates(
                dfg, max_inputs=self.max_inputs, max_outputs=max_outputs,
                observer=log,
            )
            memo = self._enumerations[key] = (candidates, log)
        return memo

    def _compile(self, option, version):
        program = self.kernel.program
        pool = ImmPool.for_program(program)
        all_mappings = []
        rewrites = {}
        max_outputs = (
            option.max_outputs if option.max_outputs is not None
            else self.max_outputs
        )
        for hot in self.profile.hot_blocks(self.hot_threshold):
            block_rec = version.block(hot.block.index, hot.weight)
            with self.report.phase("enumerate", owner=version):
                candidates, log = self._enumerate(hot.block, max_outputs)
            if block_rec is not None:
                block_rec.enumeration.visited = log.visited
                block_rec.enumeration.rejections = dict(log.rejections)
                block_rec.enumeration.truncated = log.truncated
                block_rec.enumerated = len(candidates)
            with self.report.phase("select", owner=version):
                mappings = select_ises(
                    candidates, option.targets(), pool, observer=block_rec
                )
            if mappings:
                rewrites[hot.block.index] = mappings
        cfg_table = []
        block_rewrites = {}
        with self.report.phase("rewrite", owner=version):
            for block_index, placements in rewrites.items():
                numbered = []
                for mapping in placements:
                    numbered.append((mapping, len(cfg_table)))
                    cfg_table.append(mapping.config)
                    all_mappings.append(mapping)
                block = self.kernel.program.basic_blocks()[block_index]
                block_rewrites[block_index] = rewrite_block(
                    block, numbered, pool
                )
            new_program = rewrite_program(
                program, block_rewrites, pool, cfg_table
            )
        with self.report.phase("measure", owner=version):
            cycles, result = self._run(new_program, cfg_table)
        replicated = []
        for mapping in all_mappings:
            for node_id in mapping.remote_node_ids:
                node = mapping.candidate.dfg.nodes[node_id]
                if not node.is_mem:
                    continue
                pc = mapping.candidate.dfg.block.start + node.pos
                region = self.replicable.get(pc)
                if region is not None and region not in replicated:
                    replicated.append(region)
        version.measured(
            cycles, self.baseline_cycles, all_mappings,
            replicated_regions=replicated,
        )
        with self.report.phase("validate", owner=version):
            if result != self._reference:
                version.note_validation(False)
                raise MiscompileError.from_results(
                    self.kernel.name, option.name, self._reference, result
                )
            version.note_validation(True)
        compiled = CompiledKernel(
            self.kernel, option, new_program, cfg_table, all_mappings,
            cycles, self.baseline_cycles, replicated_regions=replicated,
        )
        if self.verify:
            self._verify(compiled)
        return compiled

    def _verify(self, compiled):
        """Reject the artifact if the static verifier finds errors."""
        # Local import: repro.verify pulls compiler modules for its
        # passes, so binding it at call time keeps the graph acyclic.
        from repro.verify.dataflow_checks import check_dataflow
        from repro.verify.diagnostics import Report, VerificationError
        from repro.verify.ise_checks import check_ises
        from repro.verify.program_lint import lint_program

        report = Report(f"{self.kernel.name}@{compiled.option.name}")
        lint_program(
            self.kernel.program,
            kernel_conventions=True,
            exit_live=self.kernel.live_out_regs,
            report=report,
        )
        check_ises(
            compiled.program,
            cfg_table=compiled.cfg_table,
            mappings=compiled.mappings,
            original_program=self.kernel.program,
            report=report,
        )
        check_dataflow(
            compiled.program,
            mem=self.platform.mem,
            cfg_table=compiled.cfg_table,
            exit_live=self.kernel.live_out_regs,
            report=report,
        )
        if not report.ok():
            raise VerificationError(report)

    def compile_options(self, options=ALL_OPTIONS):
        """Compile every option; returns {option name: CompiledKernel}."""
        return {option.name: self.compile(option) for option in options}

    def best_option(self, options=ALL_OPTIONS):
        compiled = self.compile_options(options)
        return max(compiled.values(), key=lambda c: c.speedup)
