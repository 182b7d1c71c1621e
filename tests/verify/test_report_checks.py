"""V600-V602: compile-provenance consistency rules."""

import pytest

from repro.core.stitching import Assignment, StitchPlan
from repro.provenance import (
    REJECT_OVERLAP,
    REJECTED,
    SELECTED,
    CandidateRecord,
    CompileReport,
)
from repro.verify import check_compile_report, check_report_against_plan
from repro.verify.diagnostics import RULES, Severity


class FakeOption:
    def __init__(self, name, fused=False):
        self.name = name
        self.fused = fused


class FakeCandidate:
    """Just enough surface for CandidateRecord.of()."""

    def __init__(self, node_ids=(0, 1)):
        self.node_ids = frozenset(node_ids)
        self.inputs = [("reg", 1), ("reg", 2)]
        self.outputs = [3]
        self.size = len(self.node_ids)

    def signature(self):
        return "MA"


def make_report(enumerated=2):
    report = CompileReport("k")
    version = report.version(FakeOption("AT-MA"))
    block = version.block(0, 1.0)
    block.decide(FakeCandidate((0, 1)), SELECTED, target="AT-MA")
    block.decide(FakeCandidate((1, 2)), REJECTED, reason=REJECT_OVERLAP)
    block.enumerated = enumerated
    version.measured(500, 1000, [])
    version.note_validation(True)
    return report


class TestRegistration:
    def test_rules_registered(self):
        for code in ("V600", "V601", "V602", "V603"):
            assert code in RULES
            assert RULES[code].pass_name == "report-checks"


class TestV600:
    def test_accounted_report_is_clean(self):
        assert check_compile_report(make_report()).ok(strict=True)

    def test_missing_decisions_flagged(self):
        report = make_report(enumerated=3)
        result = check_compile_report(report)
        assert result.codes() == ["V600"]
        assert "3 candidates enumerated but only 2 decided" in (
            result.diagnostics[0].message
        )

    def test_unclosed_block_flagged(self):
        report = make_report()
        block = next(iter(report.versions.values())).blocks[0]
        block.enumerated = None
        result = check_compile_report(report)
        assert result.codes() == ["V600"]


class TestV603:
    def test_truncated_enumeration_warns(self):
        report = make_report()
        block = next(iter(report.versions.values())).blocks[0]
        block.enumeration.visited = 20620
        block.enumeration.note_truncated()
        result = check_compile_report(report)
        assert result.codes() == ["V603"]
        assert result.diagnostics[0].severity is Severity.WARNING
        assert "k@AT-MA block 0" in result.diagnostics[0].loc
        assert "20620 subgraphs" in result.diagnostics[0].message
        assert result.ok() and not result.ok(strict=True)

    def test_complete_enumeration_is_silent(self):
        assert "V603" not in check_compile_report(make_report()).codes()


class TestV601:
    def test_rejection_without_reason_flagged(self):
        report = make_report(enumerated=3)
        block = next(iter(report.versions.values())).blocks[0]
        block.candidates.append(
            CandidateRecord("AA", (4, 5), 2, 2, 1, REJECTED, reason=None)
        )
        result = check_compile_report(report)
        assert result.codes() == ["V601"]

    def test_unknown_reason_flagged(self):
        report = make_report(enumerated=3)
        block = next(iter(report.versions.values())).blocks[0]
        block.candidates.append(
            CandidateRecord("AA", (4, 5), 2, 2, 1, REJECTED,
                            reason="cosmic-rays")
        )
        result = check_compile_report(report)
        assert result.codes() == ["V601"]
        assert "cosmic-rays" in result.diagnostics[0].message


class TestV602:
    def plan(self, cycles=500, option="AT-MA"):
        assignments = {
            0: Assignment(0, 2, option, None, None, cycles),
            1: Assignment(1, 0, "baseline", None, None, 900),
        }
        return StitchPlan("app", assignments, network=None)

    def test_consistent_plan_is_clean(self):
        result = check_report_against_plan(
            self.plan(), {"k": make_report()}, {0: "k", 1: "k"}
        )
        assert result.ok(strict=True)

    def test_cycle_mismatch_flagged(self):
        result = check_report_against_plan(
            self.plan(cycles=999), {"k": make_report()}, {0: "k", 1: "k"}
        )
        assert result.codes() == ["V602"]
        assert "999" in result.diagnostics[0].message

    def test_unmeasured_option_flagged(self):
        result = check_report_against_plan(
            self.plan(option="AT-SA"), {"k": make_report()}, {0: "k", 1: "k"}
        )
        assert result.codes() == ["V602"]

    def test_missing_report_flagged(self):
        result = check_report_against_plan(
            self.plan(), {}, {0: "k", 1: "k"}
        )
        assert result.codes() == ["V602"]

    def test_unvalidated_version_flagged(self):
        report = make_report()
        report.versions["AT-MA"].validated = None
        result = check_report_against_plan(
            self.plan(), {"k": report}, {0: "k", 1: "k"}
        )
        assert result.codes() == ["V602"]
        assert "validated=None" in result.diagnostics[0].message

    def test_baseline_assignments_skipped(self):
        result = check_report_against_plan(
            self.plan(), {"k": make_report()}, {0: "k"}
        )
        # stage 1 is baseline: no kernel lookup, no finding.
        assert result.ok(strict=True)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def real_report(self):
        from repro.compiler.driver import SINGLE_OPTIONS, KernelCompiler
        from repro.workloads import make_kernel

        report = CompileReport("fir")
        KernelCompiler(make_kernel("fir"), report=report).compile_options(
            SINGLE_OPTIONS
        )
        return report

    def test_real_compile_report_is_clean(self, real_report):
        assert check_compile_report(real_report).ok(strict=True)
