"""Property-based differential testing: fast loop vs reference.

The reference is the instrumented loop, the executable specification
of the timing model.  Hypothesis generates random straight-line bodies
and counted loops over the scalar ISA (ALU, shifts, SPM loads/stores)
and asserts the fast loop finishes in *exactly* the instrumented
loop's state — registers, cycles, instret, every stall bucket, and the
cache/SPM counters.  The fixed-kernel suite in
``tests/cpu/test_engine_differential.py`` covers realistic programs;
this one hunts the weird corners (unwrapped MOVI values feeding
shifts, r0 writes, back-to-back taken branches) the kernels never
emit.  Both loops share the decode pass, so two further checks stand
outside it: ``tests/cpu/test_engine_golden.py`` replays a seeded
corpus of the same op mix against digests recorded from the original
per-retire-decoding interpreter, and
``tests/property/test_op_semantics.py`` checks each op against the
undecoded ``eval_*`` semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.core import Core
from repro.isa import assemble
from repro.mem import MemorySystem, SPM_BASE

i32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
imm12 = st.integers(min_value=-2048, max_value=2047)
# r14 is reserved as the SPM base pointer; r15 is the jal link register.
reg = st.integers(min_value=0, max_value=13)
shift = st.integers(min_value=0, max_value=31)
# 16 SPM words are preloaded; offsets stay inside them.
spm_offset = st.integers(min_value=0, max_value=15).map(lambda i: i * 4)

_R3_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu", "seq", "mul",
           "mulh", "sll", "srl", "sra")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slti")
_SHIFT_OPS = ("slli", "srli", "srai")


@st.composite
def instruction(draw, dest=reg):
    """One random scalar instruction as assembly text.

    ``dest`` bounds the *written* register so loop harnesses can fence
    off their trip-count registers; sources always range over r0-r13.
    """
    form = draw(st.sampled_from(("r3", "imm", "shift", "movi", "mov",
                                 "lw", "sw")))
    if form == "r3":
        op = draw(st.sampled_from(_R3_OPS))
        return f"{op} r{draw(dest)}, r{draw(reg)}, r{draw(reg)}"
    if form == "imm":
        op = draw(st.sampled_from(_IMM_OPS))
        return f"{op} r{draw(dest)}, r{draw(reg)}, {draw(imm12)}"
    if form == "shift":
        op = draw(st.sampled_from(_SHIFT_OPS))
        return f"{op} r{draw(dest)}, r{draw(reg)}, {draw(shift)}"
    if form == "movi":
        return f"movi r{draw(dest)}, {draw(i32)}"
    if form == "mov":
        return f"mov r{draw(dest)}, r{draw(reg)}"
    if form == "lw":
        return f"lw r{draw(dest)}, {draw(spm_offset)}(r14)"
    return f"sw r{draw(reg)}, {draw(spm_offset)}(r14)"


#: Loop bodies may only write r0-r11, keeping r12/r13 (trip counters)
#: loop-carried.
loop_safe = instruction(dest=st.integers(min_value=0, max_value=11))


def run_both(source, init_regs, spm_words):
    states = []
    for engine in ("instrumented", "fast"):
        memory = MemorySystem.stitch()
        memory.load(SPM_BASE, spm_words)
        core = Core(assemble(source), memory, engine=engine)
        for index, value in enumerate(init_regs, start=1):
            core.regs[index] = value
        core.regs[14] = SPM_BASE
        outcome = core.run(max_instructions=200_000)
        states.append({
            "reason": outcome.reason,
            "regs": list(core.regs),
            "pc": core.pc,
            "cycles": core.cycles,
            "instret": core.instret,
            "stalls": (core.stall_memory, core.stall_icache,
                       core.stall_branch, core.stall_comm),
            "icache": (memory.icache.hits, memory.icache.misses),
            "dcache": (memory.dcache.hits, memory.dcache.misses),
            "spm": (memory.spm.reads, memory.spm.writes,
                    list(memory.spm._words)),
        })
    return states


class TestFastVsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(instruction(), min_size=1, max_size=40),
        st.lists(i32, min_size=13, max_size=13),
        st.lists(i32, min_size=16, max_size=16),
    )
    def test_straight_line(self, body, init_regs, spm_words):
        source = "\n".join(body + ["halt"])
        spec, fast = run_both(source, init_regs, spm_words)
        assert fast == spec

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(loop_safe, min_size=1, max_size=12),
        st.integers(min_value=1, max_value=50),
        st.lists(i32, min_size=13, max_size=13),
        st.lists(i32, min_size=16, max_size=16),
    )
    def test_counted_loop(self, body, trips, init_regs, spm_words):
        # r12/r13 carry the trip count (loop bodies never write them),
        # so the loop always terminates.
        source = "\n".join(
            ["movi r12, 0", f"movi r13, {trips}", "loop:"]
            + body
            + ["addi r12, r12, 1", "bne r12, r13, loop", "halt"]
        )
        spec, fast = run_both(source, init_regs, spm_words)
        assert fast == spec

    @settings(max_examples=20, deadline=None)
    @given(st.lists(instruction(), min_size=1, max_size=10))
    def test_limit_stop_state_identical(self, body):
        # Stop mid-program via max_instructions: the fast loop's
        # deferred write-back must still leave identical partial state.
        source = "\n".join(body * 3 + ["halt"])
        states = []
        for engine in ("instrumented", "fast"):
            core = Core(assemble(source), MemorySystem.stitch(),
                        engine=engine)
            core.regs[14] = SPM_BASE
            core.run(max_instructions=max(1, len(body)))
            states.append((list(core.regs), core.pc, core.cycles,
                           core.instret, core.halted))
        assert states[0] == states[1]
