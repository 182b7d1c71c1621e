"""Property-based tests: compiler invariants on random programs.

The heavyweight invariant — rewritten programs compute the same values
— runs on randomly generated SPM-loop kernels across all patch options.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.compiler import DFG, enumerate_candidates, map_candidate
from repro.compiler.codegen import CodegenError, ImmPool, rewrite_block
from repro.compiler.driver import ALL_OPTIONS, KernelCompiler
from repro.compiler.ise import _independent_pairs
from repro.compiler.selector import select_ises
from repro.core import AT_AS, AT_MA, AT_SA
from repro.isa import Asm, assemble
from repro.isa.instructions import Op
from repro.mem import SPM_BASE
from repro.provenance.records import (
    REJECT_IMM_POOL,
    REJECT_MAX_PER_BLOCK,
    REJECT_OVERLAP,
    REJECT_UNMAPPABLE,
    REJECT_UNSCHEDULABLE,
    SELECTED,
)


@st.composite
def loop_kernels(draw):
    """Random SPM map-loops: y[i] = f(x[i]) with a random op chain."""
    chain = draw(st.lists(
        st.sampled_from(["add", "sub", "xor", "mul", "srai", "slli", "and"]),
        min_size=1, max_size=5,
    ))
    consts = draw(st.lists(
        st.integers(min_value=1, max_value=127),
        min_size=len(chain), max_size=len(chain),
    ))
    n = 16
    asm = Asm("hyp")
    asm.movi("r1", SPM_BASE)
    asm.movi("r2", SPM_BASE + 4 * n)
    for index in range(len(chain)):
        asm.movi(f"r{6 + index % 3}", consts[index])
    loop = asm.label("loop")
    asm.lw("r3", 0, "r1")
    for index, op in enumerate(chain):
        reg = f"r{6 + index % 3}"
        if op in ("srai", "slli"):
            getattr(asm, op)("r3", "r3", consts[index] % 8 + 1)
        else:
            getattr(asm, op if op != "and" else "and_")("r3", "r3", reg)
    asm.sw("r3", 256, "r1")
    asm.addi("r1", "r1", 4)
    asm.bne("r1", "r2", loop)
    asm.halt()
    data = draw(st.lists(
        st.integers(min_value=-(1 << 20), max_value=1 << 20),
        min_size=n, max_size=n,
    ))
    program = asm.assemble()

    class Kernel:
        name = "hyp"
        live_out_regs = frozenset()

        def __init__(self):
            self.program = program

        def setup(self, core):
            core.memory.load(SPM_BASE, data)

        def result(self, core):
            return core.memory.dump(SPM_BASE + 256, n)

    return Kernel()


class TestCompilerInvariants:
    @settings(max_examples=15, deadline=None)
    @given(loop_kernels())
    def test_every_option_preserves_semantics(self, kernel):
        """compile() raises MiscompileError on any mismatch, so merely
        compiling all 12 options is the assertion."""
        compiler = KernelCompiler(kernel)
        table = compiler.compile_options(ALL_OPTIONS)
        assert all(c.speedup >= 0.8 for c in table.values())

    @settings(max_examples=15, deadline=None)
    @given(loop_kernels())
    def test_speedups_never_below_baseline_structurally(self, kernel):
        compiler = KernelCompiler(kernel)
        compiled = compiler.best_option(ALL_OPTIONS)
        # A cix never replaces fewer than two instructions, so accepted
        # rewrites cannot be slower.
        assert compiled.cycles <= compiler.baseline_cycles


@st.composite
def random_blocks(draw, max_ops=10, regs=8):
    """One random basic block plus the lw/sw program indices that are
    SPM-safe (``spm_only``): ALU/shift/multiply ops in register and
    immediate form, loads, stores and send/recv barriers."""
    kinds = ("r3", "r3", "ri", "ri", "lw", "sw", "comm")
    ops3 = ("add", "sub", "xor", "and", "or", "mul", "sll", "srl")
    opsi = ("addi", "xori", "andi", "slli", "srai")
    count = draw(st.integers(min_value=2, max_value=max_ops))

    def reg():
        return f"r{draw(st.integers(min_value=1, max_value=regs))}"

    lines = []
    spm_only = set()
    for index in range(count):
        kind = draw(st.sampled_from(kinds))
        if kind == "r3":
            lines.append(f"{draw(st.sampled_from(ops3))} {reg()}, {reg()}, {reg()}")
        elif kind == "ri":
            imm = draw(st.integers(min_value=-8, max_value=8))
            lines.append(f"{draw(st.sampled_from(opsi))} {reg()}, {reg()}, {imm}")
        elif kind == "comm":
            op = draw(st.sampled_from(("send", "recv")))
            lines.append(f"{op} {reg()}, {reg()}, {reg()}")
        else:
            offset = 4 * draw(st.integers(min_value=0, max_value=3))
            lines.append(f"{kind} {reg()}, {offset}({reg()})")
            if draw(st.booleans()):
                spm_only.add(index)
    lines.append("halt")
    return assemble("\n".join(lines)), frozenset(spm_only)


def block_dfg(sample):
    program, spm_only = sample
    return DFG(program.basic_blocks()[0], spm_only=spm_only)


class TestCandidateInvariants:
    @settings(max_examples=40, deadline=None)
    @given(random_blocks())
    def test_candidates_respect_constraints(self, sample):
        dfg = block_dfg(sample)
        for candidate in enumerate_candidates(dfg):
            assert 2 <= candidate.size <= 8
            assert len(candidate.inputs) <= 4
            assert len(candidate.outputs) <= 2
            assert dfg.is_convex(candidate.node_ids)

    @settings(max_examples=25, deadline=None)
    @given(random_blocks())
    def test_mappings_use_only_member_ops(self, sample):
        dfg = block_dfg(sample)
        for candidate in enumerate_candidates(dfg)[:10]:
            for target in (AT_MA, AT_AS, AT_SA, (AT_MA, AT_AS)):
                mapping = map_candidate(candidate, target)
                if mapping is None:
                    continue
                # outputs bind member registers (or r0 placeholders)
                member_regs = {
                    dfg.nodes[n].out_reg for n in candidate.node_ids
                }
                for reg in mapping.out_binding:
                    assert reg == 0 or reg in member_regs


# -- differential oracles: the pre-bitset searches ----------------------------


def _dfs_is_convex(dfg, member_ids):
    """Convexity by forward DFS from the candidate's outside consumers
    plus a scan of the memory order inside the candidate's memory span."""
    members = set(member_ids)
    member_mem = [dfg.nodes[m] for m in members if dfg.nodes[m].is_mem]
    if len(member_mem) >= 2:
        positions = [node.pos for node in member_mem]
        lo, hi = min(positions), max(positions)
        member_has_store = any(node.op is Op.SW for node in member_mem)
        for pos in dfg.mem_order:
            if lo < pos < hi:
                node = dfg.node_at_pos.get(pos)
                if node is not None and node.id in members:
                    continue
                outside_is_load = node is not None and node.op is Op.LW
                if not outside_is_load or member_has_store:
                    return False
    frontier = [
        consumer for node_id in members
        for consumer in dfg.consumers(node_id) if consumer not in members
    ]
    seen = set()
    while frontier:
        node_id = frontier.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        if node_id in members:
            return False
        frontier.extend(dfg.consumers(node_id))
    return True


def _dfs_reachable(dfg, src, dst):
    frontier = [src]
    seen = set()
    while frontier:
        node = frontier.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(dfg.consumers(node))
    return False


def _trial_select(candidates, targets, pool, max_per_block=8):
    """Greedy selection deciding schedulability by a trial rewrite of
    the accepted set plus each new mapping; returns the decisions."""
    chosen, covered, decisions = [], set(), []
    block = candidates[0].dfg.block if candidates else None
    for candidate in candidates:
        verdict = None
        if len(chosen) >= max_per_block:
            verdict = REJECT_MAX_PER_BLOCK
        elif candidate.node_ids & covered:
            verdict = REJECT_OVERLAP
        elif not pool.can_allocate(
                [ref[1] for ref in candidate.inputs if ref[0] == "imm"]):
            verdict = REJECT_IMM_POOL
        else:
            mapping = None
            for target in targets:
                mapping = map_candidate(candidate, target)
                if mapping is not None:
                    break
            if mapping is None:
                verdict = REJECT_UNMAPPABLE
            else:
                try:
                    rewrite_block(
                        block, [(m, 0) for m in chosen + [mapping]], pool
                    )
                except CodegenError:
                    verdict = REJECT_UNSCHEDULABLE
                else:
                    chosen.append(mapping)
                    covered |= candidate.node_ids
        decisions.append((sorted(candidate.node_ids), verdict or SELECTED))
    return decisions


class _Decisions:
    def __init__(self):
        self.decisions = []

    def decide(self, candidate, status, reason=None, target=None):
        self.decisions.append((sorted(candidate.node_ids), reason or status))


class TestBitsetSearchesMatchDfs:
    @settings(max_examples=60, deadline=None)
    @given(random_blocks(max_ops=14), st.data())
    def test_is_convex_matches_dfs(self, sample, data):
        dfg = block_dfg(sample)
        ids = list(range(len(dfg.nodes)))
        if not ids:
            return
        small = [
            set(members) for size in (1, 2, 3)
            for members in itertools.combinations(ids, size)
        ]
        drawn = [
            data.draw(st.sets(st.sampled_from(ids), min_size=1))
            for _ in range(10)
        ]
        for members in small + drawn:
            assert dfg.is_convex(members) == _dfs_is_convex(dfg, members)
        for candidate in enumerate_candidates(dfg, max_inputs=4,
                                              max_outputs=2):
            assert _dfs_is_convex(dfg, candidate.node_ids)

    @settings(max_examples=60, deadline=None)
    @given(random_blocks(max_ops=14))
    def test_independent_pairs_match_dfs(self, sample):
        dfg = block_dfg(sample)
        eligible = [node.id for node in dfg.eligible_nodes()]
        pairs = _independent_pairs(dfg, eligible, frozenset)
        compute = [n for n in eligible if not dfg.nodes[n].is_mem]
        expected = [
            frozenset({a, b})
            for index, a in enumerate(compute) for b in compute[index + 1:]
            if not (_dfs_reachable(dfg, a, b) or _dfs_reachable(dfg, b, a))
        ]
        assert pairs == expected


class TestIncrementalSelectionMatchesTrialRewrite:
    @settings(max_examples=80, deadline=None)
    @given(random_blocks(max_ops=12, regs=5), st.data())
    def test_verdicts_and_pool_match(self, sample, data):
        dfg = block_dfg(sample)
        candidates = enumerate_candidates(dfg)
        if not candidates:
            return
        sequence = data.draw(st.permutations(candidates))
        targets = data.draw(st.sampled_from(
            [[AT_MA], [AT_AS], [(AT_MA, AT_AS), AT_MA], [(AT_SA, AT_MA), AT_SA]]
        ))
        free = data.draw(st.lists(
            st.integers(min_value=9, max_value=15), unique=True, max_size=4
        ))
        max_per_block = data.draw(st.integers(min_value=1, max_value=8))
        trial_pool, pool = ImmPool(free), ImmPool(free)
        expected = _trial_select(sequence, targets, trial_pool, max_per_block)
        observer = _Decisions()
        chosen = select_ises(sequence, targets, pool, max_per_block,
                             observer=observer)
        assert observer.decisions == expected
        assert len(chosen) == sum(1 for _, v in expected if v == SELECTED)
        assert pool._by_value == trial_pool._by_value
        assert pool._free == trial_pool._free
