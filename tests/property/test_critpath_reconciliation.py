"""ISSUE 8 acceptance property: exact critical-path reconciliation.

For every recorded target the critical path must sum to the measured
end-to-end cycle count *exactly* (V1000), every edge must have
non-negative slack (V1001), and a DRAM-latency what-if projection must
agree with an actual re-run of the simulator at the changed latency.
These are run over single-tile kernels and the full 16-tile APP4
co-simulation, so the property covers both graph shapes: a pure
compute chain and a deep cross-tile mesh.
"""

import pytest

from repro.critpath.runner import record, validate_whatif
from repro.target import Target
from repro.verify import check_critpath

KERNELS = ("fir", "fft", "2dconv")
APPS = ("APP4",)


@pytest.fixture(scope="module")
def runs():
    return {target: record(Target.resolve(target))
            for target in KERNELS + APPS}


class TestExactReconciliation:
    @pytest.mark.parametrize("target", KERNELS + APPS)
    def test_critical_path_equals_makespan(self, runs, target):
        run = runs[target]
        analysis = run.analysis
        assert analysis.total == run.measured, (
            f"{target}: critical path {analysis.total} != measured "
            f"{run.measured}"
        )
        assert analysis.reconciled()
        assert run.graph.makespan == run.measured

    @pytest.mark.parametrize("target", KERNELS + APPS)
    def test_all_slack_is_non_negative(self, runs, target):
        run = runs[target]
        analysis = run.analysis
        assert analysis.consistent()
        assert not analysis.negative_edges
        assert not analysis.backward_edges
        assert not analysis.cycle_nodes
        for index, edge in enumerate(run.graph.edges):
            assert run.graph.slack(edge) >= 0
            total_float = analysis.float_by_edge[index]
            assert total_float >= 0

    @pytest.mark.parametrize("target", KERNELS + APPS)
    def test_verifier_agrees(self, runs, target):
        run = runs[target]
        report = check_critpath(run.graph, run.analysis,
                                measured=run.measured)
        assert report.ok(strict=True)

    def test_app_graph_spans_all_tiles(self, runs):
        run = runs["APP4"]
        assert len(run.graph.tiles()) == 16
        assert any(e.kind == "noc" for e in run.graph.edges)


class TestWhatIfAgainstRerun:
    @pytest.mark.parametrize("target,expression", [
        ("fft", "dram_latency*2"),
        ("APP4", "dram_latency=60"),
    ])
    def test_projection_matches_rerun_within_2pct(self, runs, target,
                                                  expression):
        comparison = validate_whatif(runs[target], [expression])
        assert comparison["within_2pct"], comparison
        # The replay model is exact for DRAM latency — every miss and
        # writeback costs precisely one latency — so the drift is zero,
        # well inside the 2% acceptance bound.
        assert comparison["drift"] == 0.0
        assert comparison["projected_cycles"] == comparison["actual_cycles"]

    def test_identity_projection_is_baseline(self, runs):
        for target in KERNELS:
            run = runs[target]
            projection = run.project(["dram_latency*1"])
            assert projection["projected_cycles"] == run.measured
