"""Pre-decoded execution form of a :class:`Program`.

The interpreter used to re-decode every instruction on every retire:
look up ``instr.op`` (an enum attribute), walk a ~30-arm ``if/elif``
ladder of enum identity tests, and — for the immediate ALU forms —
allocate a fresh ``{imm op: base op}`` dict per retired instruction.
This module performs all of that work once per ``(program, platform)``
pair and caches the result on the ``Program`` instance:

* every instruction is lowered to an :class:`ExecOp` slot with a dense
  integer ``kind`` (the dispatch key), pre-bound register indices and
  immediates, pre-folded ANDI→AND-style base operations and pre-masked
  shift amounts;
* alongside the rich slots, a parallel ``code`` list of plain tuples
  ``(kind, resident_cost, words, *operands)`` feeds the fast loop in
  :mod:`repro.cpu.engine` — tuple indexing is the cheapest per-retire
  access path CPython offers;
* per-slot word counts ride along as metadata;
* ``resident_ok`` records whether the program's code footprint can ever
  be evicted from the I-cache (see :func:`code_fully_cacheable`), which
  is what licenses the engine's memoized resident-line fetch path.

Decodes are memoized per ``Program`` instance, keyed by the
``(CoreParams, MemParams)`` pair — the execution-relevant projection of
``PlatformConfig.cache_key()`` (NoC and power parameters cannot change
decode output).  Both params types are frozen dataclasses, so the key
is hashable and two configs that agree on core+mem share one decode.
"""

from repro.isa.instructions import Op

# -- dispatch kinds ---------------------------------------------------------
#
# Dense small ints; the fast loop dispatches on them with an if/elif
# ladder ordered by dynamic frequency, the instrumented loop indexes a
# handler list.  Grouped: value-computing families first, then control
# flow, then the comm pair (which manage cycles themselves).

K_ADDI = 0    # also the pre-folded home of rd = ra + imm
K_LW = 1
K_ADD = 2
K_SW = 3
K_CIX = 4
K_MOVI = 5
K_MUL = 6
K_MULH = 7
K_SUB = 8
K_AND = 9
K_OR = 10
K_XOR = 11
K_SLT = 12
K_SLTU = 13
K_SEQ = 14
K_ANDI = 15   # pre-folded: rd = ra & imm
K_ORI = 16
K_XORI = 17
K_SLTI = 18
K_SLL = 19
K_SRL = 20
K_SRA = 21
K_SLLI = 22   # imm shift amount pre-masked to the low 5 bits at decode
K_SRLI = 23
K_SRAI = 24
K_MOV = 25
K_NOP = 26
K_BEQ = 27
K_BNE = 28
K_BLT = 29
K_BGE = 30
K_BLTU = 31
K_BGEU = 32
K_JMP = 33
K_JAL = 34
K_JR = 35
K_HALT = 36
K_SEND = 37
K_RECV = 38

FIRST_CONTROL = K_BEQ  # kinds below this are simple (fall-through) ops
NUM_KINDS = 39

_OP_KIND = {
    Op.ADDI: K_ADDI, Op.LW: K_LW, Op.ADD: K_ADD, Op.SW: K_SW,
    Op.CIX: K_CIX, Op.MOVI: K_MOVI, Op.MUL: K_MUL, Op.MULH: K_MULH,
    Op.SUB: K_SUB, Op.AND: K_AND, Op.OR: K_OR, Op.XOR: K_XOR,
    Op.SLT: K_SLT, Op.SLTU: K_SLTU, Op.SEQ: K_SEQ,
    Op.ANDI: K_ANDI, Op.ORI: K_ORI, Op.XORI: K_XORI, Op.SLTI: K_SLTI,
    Op.SLL: K_SLL, Op.SRL: K_SRL, Op.SRA: K_SRA,
    Op.SLLI: K_SLLI, Op.SRLI: K_SRLI, Op.SRAI: K_SRAI,
    Op.MOV: K_MOV, Op.NOP: K_NOP,
    Op.BEQ: K_BEQ, Op.BNE: K_BNE, Op.BLT: K_BLT, Op.BGE: K_BGE,
    Op.BLTU: K_BLTU, Op.BGEU: K_BGEU,
    Op.JMP: K_JMP, Op.JAL: K_JAL, Op.JR: K_JR, Op.HALT: K_HALT,
    Op.SEND: K_SEND, Op.RECV: K_RECV,
}

_SHIFT_IMM_KINDS = frozenset({K_SLLI, K_SRLI, K_SRAI})


class ExecOp:
    """One pre-decoded execution slot (rich form).

    Carries everything a loop or an analysis pass might want about the
    instruction at ``pc`` without touching the enum or re-deriving
    metadata: the dispatch ``kind``, the original :class:`Instruction`
    fields (with immediates already folded to base-op semantics), the
    encoded word count and the fetch cost the slot charges when its
    code lines are I-cache resident.
    """

    __slots__ = ("pc", "kind", "op", "rd", "ra", "rb", "imm", "target",
                 "cfg", "outs", "ins", "words", "resident_cost")

    def __init__(self, pc, kind, instr, resident_cost):
        self.pc = pc
        self.kind = kind
        self.op = instr.op
        self.rd = instr.rd
        self.ra = instr.ra
        self.rb = instr.rb
        imm = instr.imm
        if kind in _SHIFT_IMM_KINDS and imm is not None:
            imm = imm & 31
        self.imm = imm
        self.target = instr.target
        self.cfg = instr.cfg
        self.outs = tuple(instr.outs) if instr.outs is not None else None
        self.ins = tuple(instr.ins) if instr.ins is not None else None
        self.words = instr.words
        self.resident_cost = resident_cost

    def __repr__(self):
        return f"ExecOp(pc={self.pc}, kind={self.kind}, {self.op.value})"


class DecodedProgram:
    """The decode pass's output: per-PC slots plus fast-loop tuples.

    ``ops``
        list of :class:`ExecOp`, index == pc (rich form, instrumented
        loop and tooling).
    ``code``
        parallel list of plain tuples ``(kind, resident_cost, words,
        *operands)`` — the fast loop's representation.
    ``resident_ok``
        True when the code footprint fits the I-cache outright (no
        eviction is ever possible), licensing the resident-line fetch
        memo.
    """

    __slots__ = ("program", "ops", "code", "n", "resident_ok", "key")

    def __init__(self, program, ops, code, resident_ok, key):
        self.program = program
        self.ops = ops
        self.code = code
        self.n = len(ops)
        self.resident_ok = resident_ok
        self.key = key

    def __len__(self):
        return self.n


def code_fully_cacheable(num_words, mem_params):
    """True when a ``num_words``-word code image can never be evicted.

    The code window is contiguous starting at ``code_base``, so its
    lines map round-robin over the I-cache sets: no set ever holds more
    than ``ceil(lines / num_sets)`` code lines, which is within the
    associativity exactly when the total line count fits the cache.
    Data accesses go to the D-cache (a distinct tag store), so code
    lines have no other competitors — once fetched, a line is resident
    for the rest of the simulation and its LRU position is irrelevant
    (every future access would be a hit regardless of replacement
    order).
    """
    if num_words == 0:
        return True
    line = mem_params.cache_line_bytes
    shift = line.bit_length() - 1
    first = mem_params.code_base >> shift
    last = (mem_params.code_base + 4 * num_words - 1) >> shift
    total_lines = mem_params.icache_bytes // line
    return (last - first + 1) <= total_lines


def _fast_tuple(ex):
    """Lower one :class:`ExecOp` to the fast loop's plain tuple."""
    k = ex.kind
    head = (k, ex.resident_cost, ex.words)
    if k in (K_ADD, K_SUB, K_MUL, K_MULH, K_AND, K_OR, K_XOR, K_SLT,
             K_SLTU, K_SEQ, K_SLL, K_SRL, K_SRA):
        return head + (ex.rd, ex.ra, ex.rb)
    if k in (K_ADDI, K_ANDI, K_ORI, K_XORI, K_SLTI, K_SLLI, K_SRLI,
             K_SRAI, K_LW, K_SW):
        return head + (ex.rd, ex.ra, ex.imm)
    if k == K_MOV:
        return head + (ex.rd, ex.ra)
    if k == K_MOVI:
        return head + (ex.rd, ex.imm)
    if k in (K_BEQ, K_BNE, K_BLT, K_BGE, K_BLTU, K_BGEU):
        return head + (ex.ra, ex.rb, ex.target)
    if k in (K_JMP, K_JAL):
        return head + (ex.target,)
    if k == K_JR:
        return head + (ex.ra,)
    if k == K_CIX:
        return head + (ex.cfg, ex.outs, ex.ins)
    if k in (K_SEND, K_RECV):
        return head + (ex.rd, ex.ra, ex.rb)
    return head  # HALT / NOP


def _decode(program, core_params, mem_params, key):
    if mem_params is not None:
        hit_latency = mem_params.cache_hit_latency
        resident_ok = code_fully_cacheable(
            program.static_words(), mem_params
        )
    else:
        # Custom memory model: fetch timing is unknowable at decode, so
        # the engine always takes the real fetch path.
        hit_latency = 1
        resident_ok = False
    ops = []
    for pc, instr in enumerate(program.instructions):
        kind = _OP_KIND.get(instr.op)
        if kind is None:  # pragma: no cover - full ISA covered above
            raise NotImplementedError(f"opcode {instr.op}")
        words = instr.words
        # fetch() charges hit_latency per word on an all-hit fetch; the
        # core folds multi-word overlap back out as cost = fetch - (w-1).
        resident_cost = words * hit_latency - (words - 1)
        ops.append(ExecOp(pc, kind, instr, resident_cost))
    code = [_fast_tuple(ex) for ex in ops]
    return DecodedProgram(program, ops, code, resident_ok, key)


def decode_program(program, core_params=None, mem_params=None):
    """Decode ``program`` for one platform; memoized on the Program.

    The cache lives on the ``Program`` instance (``_decoded_cache``), so
    it dies with the program and never outlives a mutation-free
    lifetime; like ``Program.basic_blocks`` it assumes instructions are
    not mutated in place after first execution.
    """
    cache = getattr(program, "_decoded_cache", None)
    if cache is None:
        cache = program._decoded_cache = {}
    key = (core_params, mem_params)
    decoded = cache.get(key)
    if decoded is None:
        decoded = cache[key] = _decode(program, core_params, mem_params, key)
    return decoded


def decode_for_platform(program, platform):
    """Decode against a :class:`~repro.platform.PlatformConfig`.

    Convenience wrapper: projects the platform down to the
    ``(core, mem)`` params that actually determine decode output, so
    two platforms differing only in NoC/power share a cache entry.
    """
    return decode_program(program, platform.core, platform.mem)
