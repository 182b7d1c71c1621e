"""Unit tests for AppEvaluator's planning logic (fabricated tables).

The heavy compile path is covered by the integration module; these
tests inject cycle tables directly so the architecture-plan logic is
exercised in milliseconds.
"""

from repro.core.stitching import BASELINE
from repro.sim.baselines import (
    ARCH_BASELINE,
    ARCH_LOCUS,
    ARCH_NOFUSE,
    ARCH_STITCH,
    AppEvaluator,
)
from repro.workloads import make_kernel
from repro.workloads.apps import app4_transport


def fabricated_evaluator():
    evaluator = AppEvaluator(app4_transport())
    tables = {}
    for sid in range(16):
        heavy = sid < 4
        tables[sid] = {
            BASELINE: 10_000 if heavy else 2_000,
            "LOCUS-SFU": 9_000 if heavy else 1_900,
            "AT-MA": 8_000 if heavy else 1_500,
            "AT-AS": 8_500 if heavy else 1_600,
            "AT-MA+AT-AS": 6_000 if heavy else 1_200,
        }
    evaluator._tables = tables
    evaluator._compiled = {sid: {} for sid in range(16)}
    return evaluator


class TestPlans:
    def test_baseline_plan_unaccelerated(self):
        plan = fabricated_evaluator().plan(ARCH_BASELINE)
        assert all(a.option == BASELINE for a in plan.assignments.values())
        assert plan.bottleneck_cycles() == 10_000

    def test_locus_plan_uses_locus_cycles(self):
        plan = fabricated_evaluator().plan(ARCH_LOCUS)
        assert all(a.option == "LOCUS-SFU" for a in plan.assignments.values())
        assert plan.bottleneck_cycles() == 9_000

    def test_nofuse_plan_single_patches_only(self):
        plan = fabricated_evaluator().plan(ARCH_NOFUSE)
        for assignment in plan.assignments.values():
            assert "+" not in assignment.option
        assert plan.bottleneck_cycles() == 8_000

    def test_stitch_plan_fuses_heavy_stages(self):
        plan = fabricated_evaluator().plan(ARCH_STITCH)
        heavy = [plan.assignments[sid] for sid in range(4)]
        assert all(a.option == "AT-MA+AT-AS" for a in heavy)
        assert plan.bottleneck_cycles() == 6_000

    def test_throughput_ordering(self):
        speedups = fabricated_evaluator().normalized_throughputs()
        assert (
            speedups[ARCH_BASELINE]
            <= speedups[ARCH_LOCUS]
            <= speedups[ARCH_NOFUSE]
            <= speedups[ARCH_STITCH]
        )

    def test_pipeline_includes_comm(self):
        evaluator = fabricated_evaluator()
        pipeline = evaluator.pipeline(ARCH_BASELINE)
        # aesdec stages send three 16-word messages per item.
        source = next(s for s in pipeline.stages if s.name.startswith("aesdec"))
        assert source.comm_cycles > 0


class TestStructuralKey:
    def test_seed_ignored(self):
        a = make_kernel("fir", seed=1)
        b = make_kernel("fir", seed=9)
        assert a.cache_key() == b.cache_key()

    def test_params_distinguish(self):
        a = make_kernel("2dconv")
        b = make_kernel("2dconv")
        b.width = 8  # pretend a different build
        assert a.cache_key() != b.cache_key()
