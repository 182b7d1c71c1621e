"""Per-op semantics oracle, independent of the shared decode pass.

Both execution loops read :mod:`repro.isa.decoded` — immediates
pre-masked, ANDI/ORI/XORI/SLTI folded onto their base ops, word counts
and branch targets copied out of each :class:`Instruction` — so a decode
bug would move both loops alike and the fast-vs-instrumented diff would
not see it.  Here every scalar opcode runs once, on random operands, in
a one-instruction program, and the destination register is compared
against :func:`eval_alu` / :func:`eval_shift` / :func:`eval_mul`
applied to the *undecoded* instruction; branches are compared against
plain Python comparisons.  Operands include imm12/imm16 extremes, shift
amounts 0 and 31 (and immediates the decoder must mask), register
values outside the signed 32-bit range as an unwrapped ``movi`` leaves
them, and ``rd = r0``.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.core import Core
from repro.isa.decoded import decode_program
from repro.isa.instructions import (
    Instruction,
    Op,
    eval_alu,
    eval_mul,
    eval_shift,
)
from repro.isa.program import Program
from repro.mem import MemorySystem

ENGINES = ("instrumented", "fast")

_R3_ALU = (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT, Op.SLTU, Op.SEQ)
_R3_SHIFT = (Op.SLL, Op.SRL, Op.SRA)
_MUL = (Op.MUL, Op.MULH)
#: Immediate form -> the register form whose semantics it shares.
_IMM_ALU_BASE = {Op.ADDI: Op.ADD, Op.ANDI: Op.AND, Op.ORI: Op.OR,
                 Op.XORI: Op.XOR, Op.SLTI: Op.SLT}
_IMM_SHIFT_BASE = {Op.SLLI: Op.SLL, Op.SRLI: Op.SRL, Op.SRAI: Op.SRA}
_BRANCHES = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: a < b,
    Op.BGE: lambda a, b: a >= b,
    Op.BLTU: lambda a, b: (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF),
    Op.BGEU: lambda a, b: (a & 0xFFFFFFFF) >= (b & 0xFFFFFFFF),
}

i32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
u32 = st.integers(min_value=1 << 31, max_value=(1 << 32) - 1)
edges = st.sampled_from(
    (0, 1, -1, 31, 32, (1 << 31) - 1, -(1 << 31), (1 << 32) - 1)
)
#: Register contents: signed words, unwrapped words, and the edges.
value = st.one_of(i32, u32, edges)
imm = st.one_of(
    st.integers(min_value=-2048, max_value=2047),
    st.sampled_from((-2048, 2047, -(1 << 15), (1 << 15) - 1, 0, -1)),
)
#: Shift immediates: 0 and 31, and values the decoder must mask.
shift_imm = st.one_of(
    st.integers(min_value=0, max_value=31),
    st.sampled_from((0, 31, 32, 33, 63, -1, (1 << 15) - 1)),
)
dest = st.integers(min_value=0, max_value=13)
src = st.integers(min_value=1, max_value=13)


@st.composite
def scalar_instruction(draw):
    """``(instruction, expected(regs))`` for one random scalar op."""
    rd, ra, rb = draw(dest), draw(src), draw(src)
    family = draw(st.sampled_from(("alu", "shift", "mul", "imm_alu",
                                   "imm_shift", "mov", "movi")))
    if family == "alu":
        op = draw(st.sampled_from(_R3_ALU))
        return (Instruction(op, rd=rd, ra=ra, rb=rb),
                lambda regs: eval_alu(op, regs[ra], regs[rb]))
    if family == "shift":
        op = draw(st.sampled_from(_R3_SHIFT))
        return (Instruction(op, rd=rd, ra=ra, rb=rb),
                lambda regs: eval_shift(op, regs[ra], regs[rb]))
    if family == "mul":
        op = draw(st.sampled_from(_MUL))
        return (Instruction(op, rd=rd, ra=ra, rb=rb),
                lambda regs: eval_mul(op, regs[ra], regs[rb]))
    if family == "imm_alu":
        op = draw(st.sampled_from(sorted(_IMM_ALU_BASE, key=str)))
        k = draw(imm)
        return (Instruction(op, rd=rd, ra=ra, imm=k),
                lambda regs: eval_alu(_IMM_ALU_BASE[op], regs[ra], k))
    if family == "imm_shift":
        op = draw(st.sampled_from(sorted(_IMM_SHIFT_BASE, key=str)))
        k = draw(shift_imm)
        return (Instruction(op, rd=rd, ra=ra, imm=k),
                lambda regs: eval_shift(_IMM_SHIFT_BASE[op], regs[ra], k))
    if family == "mov":
        return Instruction(Op.MOV, rd=rd, ra=ra), lambda regs: regs[ra]
    k = draw(value)  # movi writes its immediate as is, even unwrapped
    return Instruction(Op.MOVI, rd=rd, imm=k), lambda regs: k


def run(instructions, regs, engine):
    program = Program(instructions + [Instruction(Op.HALT)])
    core = Core(program, MemorySystem.stitch(), engine=engine)
    core.regs[:len(regs)] = regs
    core.run(max_instructions=10)
    return core


@settings(max_examples=400, deadline=None)
@given(scalar_instruction(), st.lists(value, min_size=14, max_size=14))
def test_scalar_op_matches_eval_semantics(case, init):
    instr, expected = case
    regs = [0] + init[1:]
    want = list(regs)
    if instr.rd != 0:
        want[instr.rd] = expected(regs)
    for engine in ENGINES:
        core = run([instr], regs, engine)
        assert core.halted
        assert core.regs[:14] == want, (engine, instr.op, instr.rd)
        assert core.instret == 2


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_BRANCHES, key=str)), value, value)
def test_branch_direction_and_target(op, lhs, rhs):
    # pc 0 branches to pc 3; the fall-through path marks r3 = 1, the
    # taken path r3 = 2.
    instructions = [
        Instruction(op, ra=1, rb=2, target=3),
        Instruction(Op.MOVI, rd=3, imm=1),
        Instruction(Op.HALT),
        Instruction(Op.MOVI, rd=3, imm=2),
    ]
    taken = _BRANCHES[op](lhs, rhs)
    for engine in ENGINES:
        core = run(instructions, [0, lhs, rhs], engine)
        assert core.regs[3] == (2 if taken else 1), (engine, op)
        assert core.stall_branch == \
            (core.taken_branch_penalty if taken else 0)


def test_jumps_follow_their_targets():
    instructions = [
        Instruction(Op.JAL, target=3),        # r15 = 1
        Instruction(Op.MOVI, rd=2, imm=7),    # via jr r1 -> pc 1
        Instruction(Op.HALT),
        Instruction(Op.MOVI, rd=1, imm=1),
        Instruction(Op.JMP, target=5),
        Instruction(Op.JR, ra=1),
    ]
    for engine in ENGINES:
        core = run(instructions, [], engine)
        assert core.halted, engine
        assert (core.regs[15], core.regs[2]) == (1, 7), engine
        assert core.instret == 6


def test_exec_op_words_and_targets_match_the_instruction():
    ops = list(Op)
    instructions = []
    for op in ops:
        if op in _BRANCHES or op in (Op.JMP, Op.JAL):
            instructions.append(Instruction(op, ra=1, rb=2, target=0))
        elif op is Op.CIX:
            instructions.append(Instruction(op, cfg=0, outs=(1,), ins=(2,)))
        else:
            instructions.append(Instruction(op, rd=1, ra=2, rb=3, imm=5))
    decoded = decode_program(Program(instructions), None,
                             MemorySystem.stitch().params)
    assert len(decoded.ops) == len(instructions) == len(ops)
    for instr, ex in zip(instructions, decoded.ops):
        assert ex.words == instr.words, instr.op
        assert ex.target == instr.target, instr.op
    assert {ex.words for ex in decoded.ops} == {1, 2}
