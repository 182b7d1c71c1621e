"""Compile provenance: the CompileReport threaded through the driver."""

import json

import pytest

from repro.compiler.driver import (
    ALL_OPTIONS,
    KernelCompiler,
    LOCUS_OPTION,
    SINGLE_OPTIONS,
)
from repro.provenance import (
    NULL_REPORT,
    NULL_VERSION,
    REJECTED,
    SELECTED,
    CompileReport,
)
from repro.workloads import make_kernel

OPTIONS = SINGLE_OPTIONS + (ALL_OPTIONS[3], LOCUS_OPTION)


@pytest.fixture(scope="module")
def fir_report():
    report = CompileReport("fir")
    compiler = KernelCompiler(make_kernel("fir"), report=report)
    compiler.compile_options(OPTIONS)
    return report


class TestAccounting:
    def test_every_candidate_is_accounted_for(self, fir_report):
        assert fir_report.accounted()
        for version in fir_report.versions.values():
            for block in version.blocks:
                decided = len(block.selected()) + len(block.rejected())
                assert decided == block.enumerated == len(block.candidates)

    def test_totals_add_up(self, fir_report):
        totals = fir_report.candidate_totals()
        assert totals["enumerated"] > 0
        assert totals["selected"] + totals["rejected"] == totals["enumerated"]

    def test_every_rejection_carries_a_reason(self, fir_report):
        for version in fir_report.versions.values():
            for block in version.blocks:
                for record in block.candidates:
                    assert record.status in (SELECTED, REJECTED)
                    if record.status == REJECTED:
                        assert record.reason

    def test_enumeration_tally_covers_feasible_candidates(self, fir_report):
        # Every feasibility-tested subgraph is either rejected with a
        # bucketed reason or becomes a candidate handed to the selector.
        for version in fir_report.versions.values():
            for block in version.blocks:
                enum = block.enumeration
                assert block.enumerated == (
                    enum.visited - enum.total_rejected()
                )

    def test_selected_records_name_their_target(self, fir_report):
        version = fir_report.versions["AT-MA"]
        targets = {
            record.target
            for block in version.blocks for record in block.selected()
        }
        assert targets == {"AT-MA"}


class TestVersions:
    def test_one_version_per_option(self, fir_report):
        assert sorted(fir_report.versions) == sorted(o.name for o in OPTIONS)

    def test_all_versions_validated_bit_exact(self, fir_report):
        for version in fir_report.versions.values():
            assert version.validated is True

    def test_cycles_and_speedup_recorded(self, fir_report):
        for version in fir_report.versions.values():
            assert version.cycles > 0
            assert version.baseline_cycles == fir_report.baseline_cycles
            assert version.speedup >= 1.0

    def test_best_version_is_max_speedup(self, fir_report):
        best = fir_report.best_version()
        assert best.speedup == max(
            v.speedup for v in fir_report.versions.values()
        )

    def test_wall_seconds_accumulate(self, fir_report):
        for version in fir_report.versions.values():
            assert version.wall_seconds > 0
        assert fir_report.total_wall_seconds() > 0


class TestPhases:
    def test_kernel_level_phases(self, fir_report):
        assert [span.name for span in fir_report.phases] == [
            "profile", "liveness",
        ]

    def test_per_version_phases(self, fir_report):
        for version in fir_report.versions.values():
            names = [span.name for span in version.phases]
            for expected in ("enumerate", "select", "rewrite", "measure",
                             "validate"):
                assert expected in names

    def test_phases_mirrored_into_stats(self, fir_report):
        snapshot = fir_report.stats.snapshot()
        compile_tree = snapshot["compile"]["fir"]
        assert compile_tree["profile"]["seconds"]["count"] == 1
        assert compile_tree["AT-MA"]["measure"]["seconds"]["count"] >= 1

    def test_phases_mirrored_onto_tracer(self, fir_report):
        tracks = fir_report.tracer.tracks()
        assert ("compiler", "fir") in tracks
        names = {event.name for event in fir_report.tracer.events}
        assert "profile" in names
        assert "AT-MA.measure" in names


class TestSerialization:
    def test_to_dict_json_round_trips(self, fir_report):
        payload = json.loads(json.dumps(fir_report.to_dict()))
        assert payload["kernel"] == "fir"
        assert payload["accounted"] is True
        assert set(payload["versions"]) == set(fir_report.versions)
        version = payload["versions"]["AT-MA"]
        assert version["validated"] is True
        assert version["blocks"][0]["accounted"] is True

    def test_render_mentions_every_version(self, fir_report):
        text = fir_report.render()
        for name in fir_report.versions:
            assert name in text
        assert "bit-exact ok" in text
        assert "NOT FULLY ACCOUNTED" not in text


class TestNullReport:
    def test_null_report_swallows_everything(self):
        NULL_REPORT.baseline_cycles = 123
        assert NULL_REPORT.baseline_cycles is None
        assert NULL_REPORT.version(OPTIONS[0]) is NULL_VERSION
        assert NULL_VERSION.block(0, 1.0) is None
        NULL_VERSION.wall_seconds = 9.0
        assert NULL_VERSION.wall_seconds == 0.0
        with NULL_REPORT.phase("anything"):
            pass
        assert NULL_REPORT.accounted()

    def test_driver_without_report_matches_with_report(self, fir_report):
        compiler = KernelCompiler(make_kernel("fir"))
        compiled = compiler.compile(OPTIONS[0])
        assert compiled.cycles == fir_report.versions[OPTIONS[0].name].cycles
