"""Execution engines over pre-decoded programs.

Two entry loops share the decode pass of :mod:`repro.isa.decoded`:

* :func:`run_instrumented` — the executable specification of the
  timing model.  It dispatches through :data:`HANDLERS` (one small
  function per op family) and carries every observation site: the
  telemetry bundle's event hooks (one ``is not None`` check per event
  site), interval samples, the PC histogram, the region profile and the
  fault injector's boundary.
* :func:`run_fast` — selected when nothing observes the core
  (``Core.observed``).  All flag checks are hoisted out of the
  per-instruction path, architectural and timing state live in locals,
  dispatch is a frequency-ordered ladder over dense integer kinds, and
  the two dominant memory operations take memoized fast paths:

  - **resident-line fetch**: when the program's code footprint fits the
    I-cache outright (``DecodedProgram.resident_ok``), a per-PC flag
    marks slots whose lines have been fetched once; marked slots charge
    the pre-computed all-hit cost without touching the cache model.
    Hit counters are accumulated locally and flushed on exit, so cache
    statistics stay bit-identical to the instrumented loop.
  - **SPM direct access**: aligned loads/stores inside the scratchpad
    window index the backing word list directly; anything else falls
    back to ``MemorySystem.read``/``write`` (same errors, same timing).

Both loops are resumable and idempotent: the fast loop syncs its locals
back to the core in a ``finally`` block, so limit stops, blocking
receives and even mid-instruction exceptions leave the core in exactly
the state the instrumented loop would.  ``tests/cpu`` holds the two to
bit-identical state, and both to golden digests recorded from the
original per-retire-decoding interpreter.
"""

import math

from repro.cpu.core import (
    BlockedError,
    ExecutionError,
    RunResult,
    STOP_FROZEN,
    STOP_HALT,
    STOP_LIMIT,
    STOP_RECV,
)
from repro.isa.decoded import (
    FIRST_CONTROL,
    K_ADD,
    K_ADDI,
    K_AND,
    K_ANDI,
    K_BEQ,
    K_BGE,
    K_BGEU,
    K_BLT,
    K_BLTU,
    K_BNE,
    K_CIX,
    K_HALT,
    K_JAL,
    K_JMP,
    K_JR,
    K_LW,
    K_MOV,
    K_MOVI,
    K_MUL,
    K_MULH,
    K_NOP,
    K_OR,
    K_ORI,
    K_RECV,
    K_SEND,
    K_SEQ,
    K_SLL,
    K_SLLI,
    K_SLT,
    K_SLTI,
    K_SLTU,
    K_SRA,
    K_SRAI,
    K_SRL,
    K_SRLI,
    K_SUB,
    K_SW,
    K_XOR,
    K_XORI,
    NUM_KINDS,
)
from repro.isa.instructions import wrap32

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000
_WRAP32 = 0x100000000


# -- handler table (instrumented loop) --------------------------------------
#
# One small function per op family, ``handler(core, ex, regs) -> extra
# cycles beyond the fetch cost``.  Control flow, halt and the comm pair
# are not in the table: they steer the loop (next pc, the comm port's
# finish time, a blocking receive's early return), so the instrumented
# loop keeps them inline.

def _h_addi(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] + ex.imm)
    return 0


def _h_lw(core, ex, regs):
    addr = (regs[ex.ra] + ex.imm) & _MASK32
    value, mem_cycles = core.memory.read(addr)
    if ex.rd != 0:
        regs[ex.rd] = value
    extra = mem_cycles - 1
    if extra > 0:
        core.stall_memory += extra
        if core.telemetry.cache_miss is not None:
            core.telemetry.cache_miss(core.core_id, "dcache", addr, core.cycles)
    if core.profile:
        core._note_region(ex.pc, addr)
    return extra


def _h_add(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] + regs[ex.rb])
    return 0


def _h_sw(core, ex, regs):
    addr = (regs[ex.ra] + ex.imm) & _MASK32
    mem_cycles = core.memory.write(addr, regs[ex.rd])
    extra = mem_cycles - 1
    if extra > 0:
        core.stall_memory += extra
        if core.telemetry.cache_miss is not None:
            core.telemetry.cache_miss(core.core_id, "dcache", addr, core.cycles)
    if core.profile:
        core._note_region(ex.pc, addr)
    return extra


def _h_cix(core, ex, regs):
    core.cix_retired += 1
    if core.telemetry.cix is not None:
        core.telemetry.cix(core.core_id, ex.cfg, core.cycles)
    outs = core._execute_cix(ex)
    for reg, value in zip(ex.outs, outs):
        if reg != 0:
            regs[reg] = wrap32(value)
    return 0


def _h_movi(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = ex.imm
    return 0


def _h_mul(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] * regs[ex.rb])
    return 0


def _h_mulh(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32((regs[ex.ra] * regs[ex.rb]) >> 32)
    return 0


def _h_sub(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] - regs[ex.rb])
    return 0


def _h_and(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] & regs[ex.rb])
    return 0


def _h_or(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] | regs[ex.rb])
    return 0


def _h_xor(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] ^ regs[ex.rb])
    return 0


def _h_slt(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = 1 if regs[ex.ra] < regs[ex.rb] else 0
    return 0


def _h_sltu(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = (
            1 if (regs[ex.ra] & _MASK32) < (regs[ex.rb] & _MASK32) else 0
        )
    return 0


def _h_seq(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = 1 if regs[ex.ra] == regs[ex.rb] else 0
    return 0


def _h_andi(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] & ex.imm)
    return 0


def _h_ori(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] | ex.imm)
    return 0


def _h_xori(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] ^ ex.imm)
    return 0


def _h_slti(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = 1 if regs[ex.ra] < ex.imm else 0
    return 0


def _h_sll(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(
            (regs[ex.ra] & _MASK32) << (regs[ex.rb] & 31)
        )
    return 0


def _h_srl(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(
            (regs[ex.ra] & _MASK32) >> (regs[ex.rb] & 31)
        )
    return 0


def _h_sra(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] >> (regs[ex.rb] & 31))
    return 0


def _h_slli(core, ex, regs):  # ex.imm pre-masked to 5 bits at decode
    if ex.rd != 0:
        regs[ex.rd] = wrap32((regs[ex.ra] & _MASK32) << ex.imm)
    return 0


def _h_srli(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32((regs[ex.ra] & _MASK32) >> ex.imm)
    return 0


def _h_srai(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = wrap32(regs[ex.ra] >> ex.imm)
    return 0


def _h_mov(core, ex, regs):
    if ex.rd != 0:
        regs[ex.rd] = regs[ex.ra]
    return 0


def _h_nop(core, ex, regs):
    return 0


HANDLERS = [None] * NUM_KINDS
HANDLERS[K_ADDI] = _h_addi
HANDLERS[K_LW] = _h_lw
HANDLERS[K_ADD] = _h_add
HANDLERS[K_SW] = _h_sw
HANDLERS[K_CIX] = _h_cix
HANDLERS[K_MOVI] = _h_movi
HANDLERS[K_MUL] = _h_mul
HANDLERS[K_MULH] = _h_mulh
HANDLERS[K_SUB] = _h_sub
HANDLERS[K_AND] = _h_and
HANDLERS[K_OR] = _h_or
HANDLERS[K_XOR] = _h_xor
HANDLERS[K_SLT] = _h_slt
HANDLERS[K_SLTU] = _h_sltu
HANDLERS[K_SEQ] = _h_seq
HANDLERS[K_ANDI] = _h_andi
HANDLERS[K_ORI] = _h_ori
HANDLERS[K_XORI] = _h_xori
HANDLERS[K_SLTI] = _h_slti
HANDLERS[K_SLL] = _h_sll
HANDLERS[K_SRL] = _h_srl
HANDLERS[K_SRA] = _h_sra
HANDLERS[K_SLLI] = _h_slli
HANDLERS[K_SRLI] = _h_srli
HANDLERS[K_SRAI] = _h_srai
HANDLERS[K_MOV] = _h_mov
HANDLERS[K_NOP] = _h_nop


# -- instrumented loop ------------------------------------------------------

def run_instrumented(core, max_instructions=None, max_cycles=None):
    """Pre-decoded loop with full observability.

    Per instruction: limit, interval-sample and injector checks, an
    :class:`ExecOp` slot lookup, the fetch, then the op — value ops
    through the :data:`HANDLERS` table, control flow and the comm pair
    inline — and one common retire tail.  A send/recv starts at the
    cycle its fetch completes and retires with the comm port's finish
    time; a blocked recv charges its fetch stall once and returns.
    """
    decoded = core._ensure_decoded()
    ops = decoded.ops
    n = decoded.n
    regs = core.regs
    memory = core.memory
    fetch = memory.fetch
    penalty = core.taken_branch_penalty
    telemetry = core.telemetry
    cache_miss = telemetry.cache_miss
    comm_send = telemetry.comm_send
    comm_recv = telemetry.comm_recv
    comm_blocked = telemetry.comm_blocked
    pc_profile = core.pc_profile
    ts_next = core._ts_next
    inj_next = core._inj_next
    start_instret = core.instret
    handlers = HANDLERS

    while not core.halted:
        if (max_instructions is not None
                and core.instret - start_instret >= max_instructions):
            return RunResult(STOP_LIMIT, core.cycles, core.instret)
        if max_cycles is not None and core.cycles >= max_cycles:
            return RunResult(STOP_LIMIT, core.cycles, core.instret)
        if core.cycles >= ts_next:
            core.flush_timeseries()
            ts_next = core._ts_next
        if core.cycles >= inj_next:
            inj_next = core._fire_injector()
            if core.frozen:
                return RunResult(STOP_FROZEN, core.cycles, core.instret)
        pc = core.pc
        if not 0 <= pc < n:
            raise ExecutionError(core.core_id, core.program.name, pc)
        ex = ops[pc]
        kind = ex.kind

        cost = fetch(pc, ex.words) - (ex.words - 1)
        fetch_stall = cost - 1
        if fetch_stall:
            core.stall_icache += fetch_stall
            if cache_miss is not None:
                cache_miss(core.core_id, "icache", pc, core.cycles)
        next_pc = pc + 1

        if kind < FIRST_CONTROL:
            cost += handlers[kind](core, ex, regs)
        elif kind <= K_BGEU:
            lhs = regs[ex.ra]
            rhs = regs[ex.rb]
            if kind == K_BEQ:
                taken = lhs == rhs
            elif kind == K_BNE:
                taken = lhs != rhs
            elif kind == K_BLT:
                taken = lhs < rhs
            elif kind == K_BGE:
                taken = lhs >= rhs
            elif kind == K_BLTU:
                taken = (lhs & _MASK32) < (rhs & _MASK32)
            else:
                taken = (lhs & _MASK32) >= (rhs & _MASK32)
            if taken:
                next_pc = ex.target
                cost += penalty
                core.stall_branch += penalty
        elif kind == K_JMP:
            next_pc = ex.target
            cost += penalty
            core.stall_branch += penalty
        elif kind == K_JAL:
            regs[15] = pc + 1
            next_pc = ex.target
            cost += penalty
            core.stall_branch += penalty
        elif kind == K_JR:
            next_pc = regs[ex.ra]
            cost += penalty
            core.stall_branch += penalty
        elif kind == K_HALT:
            core.halted = True
        elif kind == K_SEND:
            peer = regs[ex.ra]
            base = regs[ex.rb]
            count = regs[ex.rd]
            values = memory.dump(base, count)  # NIC DMA bypasses the cache
            start = core.cycles + fetch_stall  # the NIC waits for the fetch
            finish = core.comm.send(peer, values, start)
            core.stall_comm += finish - start - 1  # 1 = the issue slot
            if comm_send is not None:
                comm_send(core.core_id, peer, count, start, finish,
                          core._recorder_counters())
            cost = finish - core.cycles
        elif kind == K_RECV:
            peer = regs[ex.ra]
            base = regs[ex.rb]
            count = regs[ex.rd]
            start = core.cycles + fetch_stall
            result = core.comm.try_recv(peer, count, start)
            if result is None:
                # The fetch happened, so its stall is charged now, once:
                # the retry finds the line resident.
                if fetch_stall:
                    core.cycles = start
                    if pc_profile is not None:
                        entry = pc_profile.get(pc)
                        if entry is None:
                            entry = pc_profile[pc] = [0, 0]
                        entry[0] += fetch_stall
                if comm_blocked is not None:
                    comm_blocked(core.core_id, peer, count, core.cycles)
                return RunResult(STOP_RECV, core.cycles, core.instret)
            values, finish = result
            memory.load(base, values)  # NIC DMA bypasses the cache
            core.stall_comm += finish - start - 1  # 1 = the issue slot
            if comm_recv is not None:
                comm_recv(core.core_id, peer, count, start, finish,
                          core._recorder_counters())
            cost = finish - core.cycles
        else:  # pragma: no cover - all kinds handled above
            raise NotImplementedError(f"kind {kind}")

        regs[0] = 0
        core.cycles += cost
        core.instret += 1
        core.pc = next_pc
        if pc_profile is not None:
            entry = pc_profile.get(pc)
            if entry is None:
                entry = pc_profile[pc] = [0, 0]
            entry[0] += cost
            entry[1] += 1

    return RunResult(STOP_HALT, core.cycles, core.instret)


# -- fast loop --------------------------------------------------------------

def run_fast(core, max_instructions=None, max_cycles=None):
    """Observability-free loop: locals, tuples, memoized memory paths.

    Requires an unobserved core (``Core.observed`` false — ``Core``
    only selects it then); raises ``ValueError`` if forced onto an
    observed one.
    Produces bit-identical architectural state, cycles, stall
    attribution and cache/SPM counters to :func:`run_instrumented` —
    the differential suite in ``tests/cpu`` holds it to that.
    """
    if core.observed:
        raise ValueError(
            "engine='fast' cannot honor enabled observability "
            "(profiler/telemetry hooks/injector); use "
            "engine='auto' or 'instrumented'"
        )
    if core.halted:
        return RunResult(STOP_HALT, core.cycles, core.instret)
    decoded = core._ensure_decoded()
    code = decoded.code
    n = decoded.n
    flags = core._resident
    mark = decoded.resident_ok
    regs = core.regs
    memory = core.memory
    fetch = memory.fetch
    read = memory.read
    write = memory.write
    comm = core.comm
    patch = core.patch
    penalty = core.taken_branch_penalty

    spm = getattr(memory, "spm", None)
    if spm is not None:
        spm_words, spm_base, spm_end, spm_latency = spm.window()
        spm_extra = spm_latency - 1
    else:
        spm_base, spm_end = 1, 0  # empty window: the test always fails
        spm_words = None
        spm_extra = 0

    pc = core.pc
    cycles = core.cycles
    instret = core.instret
    stall_memory = core.stall_memory
    stall_icache = core.stall_icache
    stall_branch = core.stall_branch
    stall_comm = core.stall_comm
    # Deferred counter deltas, flushed once on exit (the whole point of
    # the fast paths is not touching these objects per access).
    hit_words = 0
    spm_reads = 0
    spm_writes = 0
    cix_retired = 0

    stop_instret = (
        math.inf if max_instructions is None else instret + max_instructions
    )
    stop_cycles = math.inf if max_cycles is None else max_cycles

    try:
        while True:
            if instret >= stop_instret or cycles >= stop_cycles:
                return RunResult(STOP_LIMIT, cycles, instret)
            if not 0 <= pc < n:
                raise ExecutionError(core.core_id, core.program.name, pc)
            t = code[pc]
            if flags[pc]:
                cost = t[1]
                hit_words += t[2]
            else:
                words = t[2]
                cost = fetch(pc, words) - words + 1
                if mark:
                    flags[pc] = 1
            if cost != 1:
                stall_icache += cost - 1
            kind = t[0]

            if kind == K_ADDI:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] + t[5]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_LW:
                addr = (regs[t[4]] + t[5]) & _MASK32
                if spm_base <= addr < spm_end and not addr & 3:
                    value = spm_words[(addr - spm_base) >> 2]
                    spm_reads += 1
                    if spm_extra:
                        cost += spm_extra
                        if spm_extra > 0:
                            stall_memory += spm_extra
                else:
                    value, mem_cycles = read(addr)
                    if mem_cycles != 1:
                        extra = mem_cycles - 1
                        cost += extra
                        if extra > 0:
                            stall_memory += extra
                rd = t[3]
                if rd:
                    regs[rd] = value
            elif kind == K_ADD:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] + regs[t[5]]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SW:
                addr = (regs[t[4]] + t[5]) & _MASK32
                if spm_base <= addr < spm_end and not addr & 3:
                    v = regs[t[3]] & _MASK32
                    spm_words[(addr - spm_base) >> 2] = (
                        v - _WRAP32 if v & _SIGN32 else v
                    )
                    spm_writes += 1
                    if spm_extra:
                        cost += spm_extra
                        if spm_extra > 0:
                            stall_memory += spm_extra
                else:
                    mem_cycles = write(addr, regs[t[3]])
                    if mem_cycles != 1:
                        extra = mem_cycles - 1
                        cost += extra
                        if extra > 0:
                            stall_memory += extra
            elif kind == K_BNE:
                if regs[t[3]] != regs[t[4]]:
                    stall_branch += penalty
                    cycles += cost + penalty
                    instret += 1
                    pc = t[5]
                    continue
            elif kind == K_CIX:
                cix_retired += 1
                if patch is None:
                    raise BlockedError(
                        f"core {core.core_id}: cix executed but no patch "
                        f"is attached"
                    )
                outs = patch.execute(t[3], [regs[r] for r in t[5]])
                for reg, value in zip(t[4], outs):
                    if reg:
                        v = value & _MASK32
                        regs[reg] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_MOVI:
                rd = t[3]
                if rd:
                    regs[rd] = t[4]
            elif kind == K_BEQ:
                if regs[t[3]] == regs[t[4]]:
                    stall_branch += penalty
                    cycles += cost + penalty
                    instret += 1
                    pc = t[5]
                    continue
            elif kind == K_BLT:
                if regs[t[3]] < regs[t[4]]:
                    stall_branch += penalty
                    cycles += cost + penalty
                    instret += 1
                    pc = t[5]
                    continue
            elif kind == K_BGE:
                if regs[t[3]] >= regs[t[4]]:
                    stall_branch += penalty
                    cycles += cost + penalty
                    instret += 1
                    pc = t[5]
                    continue
            elif kind == K_MUL:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] * regs[t[5]]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SLLI:
                rd = t[3]
                if rd:
                    v = ((regs[t[4]] & _MASK32) << t[5]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SRLI:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] & _MASK32) >> t[5]
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SRAI:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] >> t[5]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SUB:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] - regs[t[5]]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_MOV:
                rd = t[3]
                if rd:
                    regs[rd] = regs[t[4]]
            elif kind == K_AND:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] & regs[t[5]]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_OR:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] | regs[t[5]]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_XOR:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] ^ regs[t[5]]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SLT:
                rd = t[3]
                if rd:
                    regs[rd] = 1 if regs[t[4]] < regs[t[5]] else 0
            elif kind == K_SLTU:
                rd = t[3]
                if rd:
                    regs[rd] = (
                        1 if (regs[t[4]] & _MASK32) < (regs[t[5]] & _MASK32)
                        else 0
                    )
            elif kind == K_SEQ:
                rd = t[3]
                if rd:
                    regs[rd] = 1 if regs[t[4]] == regs[t[5]] else 0
            elif kind == K_ANDI:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] & t[5]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_ORI:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] | t[5]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_XORI:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] ^ t[5]) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SLTI:
                rd = t[3]
                if rd:
                    regs[rd] = 1 if regs[t[4]] < t[5] else 0
            elif kind == K_SLL:
                rd = t[3]
                if rd:
                    v = ((regs[t[4]] & _MASK32) << (regs[t[5]] & 31)) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SRL:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] & _MASK32) >> (regs[t[5]] & 31)
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_SRA:
                rd = t[3]
                if rd:
                    v = (regs[t[4]] >> (regs[t[5]] & 31)) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_MULH:
                rd = t[3]
                if rd:
                    v = ((regs[t[4]] * regs[t[5]]) >> 32) & _MASK32
                    regs[rd] = v - _WRAP32 if v & _SIGN32 else v
            elif kind == K_BLTU:
                if (regs[t[3]] & _MASK32) < (regs[t[4]] & _MASK32):
                    stall_branch += penalty
                    cycles += cost + penalty
                    instret += 1
                    pc = t[5]
                    continue
            elif kind == K_BGEU:
                if (regs[t[3]] & _MASK32) >= (regs[t[4]] & _MASK32):
                    stall_branch += penalty
                    cycles += cost + penalty
                    instret += 1
                    pc = t[5]
                    continue
            elif kind == K_JMP:
                stall_branch += penalty
                cycles += cost + penalty
                instret += 1
                pc = t[3]
                continue
            elif kind == K_JAL:
                regs[15] = pc + 1
                stall_branch += penalty
                cycles += cost + penalty
                instret += 1
                pc = t[3]
                continue
            elif kind == K_JR:
                stall_branch += penalty
                cycles += cost + penalty
                instret += 1
                pc = regs[t[3]]
                continue
            elif kind == K_HALT:
                core.halted = True
                cycles += cost
                instret += 1
                pc += 1
                return RunResult(STOP_HALT, cycles, instret)
            elif kind == K_NOP:
                pass
            elif kind == K_SEND:
                peer = regs[t[4]]
                base = regs[t[5]]
                count = regs[t[3]]
                values = memory.dump(base, count)  # NIC DMA, cache bypass
                start = cycles + cost - 1  # the NIC waits for the fetch
                finish = comm.send(peer, values, start)
                stall_comm += finish - start - 1  # 1 = the issue slot
                cycles = finish
                instret += 1
                pc += 1
                continue
            elif kind == K_RECV:
                peer = regs[t[4]]
                base = regs[t[5]]
                count = regs[t[3]]
                start = cycles + cost - 1
                result = comm.try_recv(peer, count, start)
                if result is None:
                    cycles = start  # fetch stall charged once; retry hits
                    return RunResult(STOP_RECV, cycles, instret)
                values, finish = result
                memory.load(base, values)  # NIC DMA, cache bypass
                stall_comm += finish - start - 1  # 1 = the issue slot
                cycles = finish
                instret += 1
                pc += 1
                continue
            else:  # pragma: no cover - all kinds handled above
                raise NotImplementedError(f"kind {kind}")

            cycles += cost
            instret += 1
            pc += 1
    finally:
        # Idempotent write-back: limit stops, blocking receives and
        # mid-instruction exceptions all leave the core exactly where
        # the instrumented loop would.
        core.pc = pc
        core.cycles = cycles
        core.instret = instret
        core.stall_memory = stall_memory
        core.stall_icache = stall_icache
        core.stall_branch = stall_branch
        core.stall_comm = stall_comm
        if cix_retired:
            core.cix_retired += cix_retired
        if hit_words:
            memory.icache.hits += hit_words
        if spm_reads:
            spm.reads += spm_reads
        if spm_writes:
            spm.writes += spm_writes
