"""ISE selection: choosing which mapped candidates to commit.

Greedy (largest coverage first), honoring:

* disjointness — an instruction joins at most one custom instruction,
* mappability on the target patch option,
* constant-register availability in the :class:`ImmPool`,
* schedulability — adding the mapping must not create a dependence
  cycle in the rewritten block.  A :class:`DependenceClosure` of the
  block, with every accepted group merged in, answers that without a
  trial rewrite; one :func:`rewrite_block` of the final set confirms it.
"""

from repro.compiler.codegen import (
    DependenceClosure,
    operand_registers,
    rewrite_block,
)
from repro.compiler.mapper import map_candidate
from repro.core.fusion import FusedConfig
from repro.provenance.records import (
    REJECT_IMM_POOL,
    REJECT_MAX_PER_BLOCK,
    REJECT_OVERLAP,
    REJECT_UNMAPPABLE,
    REJECT_UNSCHEDULABLE,
    REJECTED,
    SELECTED,
)


def _target_name(mapping):
    """Patch-type name(s) the mapping landed on, e.g. ``AT-MA+AT-AS``."""
    config = mapping.config
    if isinstance(config, FusedConfig):
        return f"{config.cfg_a.ptype.name}+{config.cfg_b.ptype.name}"
    return config.ptype.name


def select_ises(candidates, targets, pool, max_per_block=8, observer=None):
    """Pick mappings for one block.

    ``targets`` is an ordered list of mapping targets (best first), e.g.
    ``[(AT_MA, AT_AS), AT_MA]`` for a kernel whose tile has an {AT-MA}
    patch fused with a remote {AT-AS}.  For each candidate the first
    target that admits a mapping wins.  The returned list of
    :class:`~repro.compiler.mapper.Mapping` is guaranteed to rewrite
    cleanly as a set.

    ``observer`` optionally receives the fate of **every** candidate
    (the :class:`repro.provenance.BlockRecord` protocol):
    ``decide(candidate, status, reason=..., target=...)`` — selected, or
    rejected with one of the documented reasons — so accepted plus
    rejected always sums to ``len(candidates)``.  With the default
    ``None`` the loop short-circuits exactly as before.
    """
    chosen = []
    covered = set()
    if not candidates:
        return chosen
    block = candidates[0].dfg.block
    closure = DependenceClosure(block.instructions)
    for candidate in candidates:
        if len(chosen) >= max_per_block:
            if observer is None:
                break
            observer.decide(candidate, REJECTED, reason=REJECT_MAX_PER_BLOCK)
            continue
        if candidate.node_ids & covered:
            if observer is not None:
                observer.decide(candidate, REJECTED, reason=REJECT_OVERLAP)
            continue
        imm_values = [ref[1] for ref in candidate.inputs if ref[0] == "imm"]
        if not pool.can_allocate(imm_values):
            if observer is not None:
                observer.decide(candidate, REJECTED, reason=REJECT_IMM_POOL)
            continue
        mapping = None
        for target in targets:
            mapping = map_candidate(candidate, target)
            if mapping is not None:
                break
        if mapping is None:
            if observer is not None:
                observer.decide(candidate, REJECTED, reason=REJECT_UNMAPPABLE)
            continue
        positions = [
            candidate.dfg.nodes[node_id].pos for node_id in candidate.node_ids
        ]
        if not closure.contractible(positions):
            if observer is not None:
                observer.decide(
                    candidate, REJECTED, reason=REJECT_UNSCHEDULABLE
                )
            continue
        closure.merge(positions)
        # Allocate the mapping's constants now, in the order its cix
        # will ask for them: later acceptances and blocks see the same
        # pool state as if each accepted set had been rewritten.
        operand_registers(mapping, pool)
        chosen.append(mapping)
        covered |= candidate.node_ids
        if observer is not None:
            observer.decide(candidate, SELECTED, target=_target_name(mapping))
    if chosen:
        rewrite_block(block, [(m, 0) for m in chosen], pool)
    return chosen
