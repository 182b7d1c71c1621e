"""Integration tests: profiling -> ISE -> codegen -> measured speedup."""

import pytest

from repro.compiler import KernelCompiler, profile_kernel
from repro.compiler.codegen import CodegenError, ImmPool
from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, PatchOption, SINGLE_OPTIONS
from repro.core import AT_MA, AT_SA
from repro.isa import Asm, Op, assemble
from repro.mem import SPM_BASE


def sum_of_squares_kernel(n=32):
    """sum += spm[i]*spm[i] over n elements, with a shift flourish."""
    asm = Asm("sumsq")
    asm.movi("r1", SPM_BASE)       # pointer
    asm.movi("r2", SPM_BASE + 4 * n)
    asm.movi("r6", 0)              # accumulator
    loop = asm.label("loop")
    asm.lw("r3", 0, "r1")
    asm.mul("r4", "r3", "r3")
    asm.srai("r5", "r4", 2)
    asm.add("r6", "r6", "r5")
    asm.addi("r1", "r1", 4)
    asm.bne("r1", "r2", loop)
    asm.halt()
    program = asm.assemble()

    class Kernel:
        name = "sumsq"
        live_out_regs = frozenset({6})

        def __init__(self):
            self.program = program
            self.n = n

        def setup(self, core):
            core.memory.load(SPM_BASE, [i + 1 for i in range(n)])

        def result(self, core):
            return [core.regs[6]]

    return Kernel()


class TestProfiler:
    def test_hot_block_is_the_loop(self):
        kernel = sum_of_squares_kernel()
        profile = profile_kernel(kernel.program, kernel.setup)
        hot = profile.hot_blocks()
        assert len(hot) == 1
        assert hot[0].weight > 0.9
        assert hot[0].entries == 32

    def test_spm_only_detection(self):
        kernel = sum_of_squares_kernel()
        profile = profile_kernel(kernel.program, kernel.setup)
        loop = profile.hot_blocks()[0].block
        load_index = next(
            loop.start + pos for pos, instr in enumerate(loop.instructions)
            if instr.op is Op.LW
        )
        assert load_index in profile.spm_only

    def test_non_halting_kernel_rejected(self):
        program = assemble("loop: jmp loop")
        with pytest.raises(RuntimeError):
            profile_kernel(program, max_instructions=1000)


class TestImmPool:
    def test_free_registers_found(self):
        program = assemble("add r1, r2, r3\nhalt")
        pool = ImmPool.for_program(program)
        reg = pool.get(42)
        assert reg not in (0, 1, 2, 3)

    def test_streaming_wrapper_registers_never_pooled(self):
        # r10-r13 belong to the stream wrapper even when the standalone
        # kernel leaves them untouched.
        program = assemble("add r1, r2, r3\nhalt")
        pool = ImmPool.for_program(program)
        taken = set()
        value = 100
        while True:
            try:
                taken.add(pool.get(value))
            except CodegenError:
                break
            value += 1
        assert taken  # some registers are available...
        assert 11 not in taken  # ...but never the wrapper's item counter

    def test_same_value_same_register(self):
        pool = ImmPool([14, 15])
        assert pool.get(7) == pool.get(7)
        assert pool.get(8) != pool.get(7)

    def test_zero_uses_r0(self):
        pool = ImmPool([14])
        assert pool.get(0) == 0

    def test_exhaustion(self):
        pool = ImmPool([14])
        pool.get(1)
        with pytest.raises(CodegenError):
            pool.get(2)
        assert not pool.can_allocate([3])
        assert pool.can_allocate([1])

    def test_prologue(self):
        pool = ImmPool([14, 15])
        pool.get(5)
        movis = pool.prologue()
        assert len(movis) == 1
        assert movis[0].op is Op.MOVI and movis[0].imm == 5


class TestRewrite:
    def test_rewritten_kernel_matches_and_speeds_up(self):
        kernel = sum_of_squares_kernel()
        compiler = KernelCompiler(kernel)
        compiled = compiler.compile(PatchOption("AT-MA", AT_MA))
        assert compiled.speedup > 1.0
        assert compiled.mappings

    def test_fused_option_at_least_as_fast(self):
        kernel = sum_of_squares_kernel()
        compiler = KernelCompiler(kernel)
        single = compiler.compile(PatchOption("AT-MA", AT_MA))
        fused = compiler.compile(PatchOption("AT-MA+AT-SA", AT_MA, AT_SA))
        assert fused.cycles <= single.cycles

    def test_all_options_compile_and_validate(self):
        kernel = sum_of_squares_kernel(n=8)
        compiler = KernelCompiler(kernel)
        table = compiler.compile_options(ALL_OPTIONS + (LOCUS_OPTION,))
        assert len(table) == len(ALL_OPTIONS) + 1
        for compiled in table.values():
            assert compiled.speedup >= 0.9

    def test_cix_present_in_rewritten_program(self):
        kernel = sum_of_squares_kernel()
        compiled = KernelCompiler(kernel).compile(PatchOption("AT-MA", AT_MA))
        ops = [instr.op for instr in compiled.program]
        assert Op.CIX in ops

    def test_branch_targets_remapped(self):
        kernel = sum_of_squares_kernel()
        compiled = KernelCompiler(kernel).compile(PatchOption("AT-MA", AT_MA))
        program = compiled.program
        for instr in program:
            if instr.is_branch() and instr.op is not Op.JR:
                assert 0 <= instr.target < len(program)

    def test_locus_cannot_take_memory_ops(self):
        kernel = sum_of_squares_kernel()
        compiled = KernelCompiler(kernel).compile(LOCUS_OPTION)
        for mapping in compiled.mappings:
            sig = mapping.candidate.signature()
            assert "T" not in sig

    def test_best_option_selects_maximum_speedup(self):
        kernel = sum_of_squares_kernel(n=8)
        compiler = KernelCompiler(kernel)
        table = compiler.compile_options(SINGLE_OPTIONS)
        compiler.compile_options = lambda options: table  # compile once
        best = compiler.best_option(SINGLE_OPTIONS)
        assert best.speedup == max(c.speedup for c in table.values())
