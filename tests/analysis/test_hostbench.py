"""Unit tests for the host-throughput bench and its regression gate."""

from repro.analysis.hostbench import (
    MIN_FAST_SPEEDUP,
    bench_host,
    compare_host,
    render_host,
)


def payload(fir_fast=2_000_000, fir_spec=250_000, agg_fast=1_000_000,
            agg_spec=200_000, instructions=50_000, speedup=None):
    if speedup is None:
        speedup = round(agg_fast / agg_spec, 3)
    return {
        "bench": "host",
        "schema": 1,
        "repeats": 3,
        "targets": {
            "fir": {
                "instructions": instructions,
                "instrumented_instr_per_second": fir_spec,
                "fast_instr_per_second": fir_fast,
                "fast_speedup": round(fir_fast / fir_spec, 3),
            },
        },
        "aggregate": {
            "instrumented_instr_per_second": agg_spec,
            "fast_instr_per_second": agg_fast,
            "fast_speedup": speedup,
        },
    }


class TestCompareHost:
    def test_identical_payloads_pass(self):
        regressions, notes = compare_host(payload(), payload())
        assert regressions == []
        assert notes  # drifts are reported even at 0%

    def test_aggregate_fast_drop_regresses(self):
        regressions, _ = compare_host(
            payload(agg_fast=800_000), payload(agg_fast=1_000_000)
        )
        assert any("aggregate.fast_instr_per_second" in r
                   for r in regressions)

    def test_aggregate_fast_improvement_is_a_note(self):
        regressions, notes = compare_host(
            payload(agg_fast=2_000_000), payload(agg_fast=1_000_000)
        )
        assert regressions == []
        assert any("aggregate.fast_instr_per_second" in n for n in notes)

    def test_per_target_fast_drop_is_note_only(self):
        # Single-kernel wall times are too noisy to gate; only the
        # pooled aggregate fails CI.
        regressions, notes = compare_host(
            payload(fir_fast=1_000_000), payload(fir_fast=2_000_000)
        )
        assert regressions == []
        assert any("targets.fir.fast_instr_per_second" in n for n in notes)

    def test_instrumented_throughput_never_gates(self):
        # The instrumented loop's own speed is guarded only through the
        # fast_speedup floor, never against the baseline.
        regressions, notes = compare_host(
            payload(fir_spec=100_000, agg_spec=80_000, speedup=12.5),
            payload(),
        )
        assert regressions == []
        assert any("instrumented_instr_per_second" in n for n in notes)

    def test_instruction_count_change_regresses(self):
        regressions, _ = compare_host(
            payload(instructions=50_001), payload(instructions=50_000)
        )
        assert any("simulated count changed" in r for r in regressions)

    def test_speedup_below_floor_regresses(self):
        regressions, _ = compare_host(
            payload(speedup=1.4), payload(), min_speedup=2.0
        )
        assert any("below the 2.0x floor" in r for r in regressions)

    def test_default_floor_is_one_and_a_half(self):
        assert MIN_FAST_SPEEDUP == 1.5
        regressions, _ = compare_host(payload(speedup=1.6), payload())
        assert regressions == []
        regressions, _ = compare_host(payload(speedup=1.4), payload())
        assert any("below the 1.5x floor" in r for r in regressions)

    def test_speedup_above_floor_is_a_note(self):
        regressions, notes = compare_host(
            payload(speedup=3.0), payload(speedup=5.0), min_speedup=2.0
        )
        assert regressions == []
        assert any("aggregate.fast_speedup" in n for n in notes)

    def test_missing_target_regresses(self):
        current = payload()
        del current["targets"]["fir"]
        regressions, _ = compare_host(current, payload())
        assert any("targets.fir" in r and "missing" in r
                   for r in regressions)

    def test_missing_aggregate_key_regresses(self):
        current = payload()
        del current["aggregate"]["fast_instr_per_second"]
        regressions, _ = compare_host(current, payload())
        assert any("aggregate.fast_instr_per_second" in r and "missing" in r
                   for r in regressions)

    def test_tolerance_is_respected(self):
        base = payload(agg_fast=1_000_000)
        slight = payload(agg_fast=950_000)  # -5%
        regressions, _ = compare_host(slight, base, tolerance=0.10)
        assert regressions == []
        regressions, _ = compare_host(slight, base, tolerance=0.02)
        assert any("aggregate.fast_instr_per_second" in r
                   for r in regressions)

    def test_floor_applies_without_baseline_speedup(self):
        base = payload()
        del base["aggregate"]["fast_speedup"]
        regressions, _ = compare_host(
            payload(speedup=1.0), base, min_speedup=2.0
        )
        assert any("below the 2.0x floor" in r for r in regressions)


class TestRenderHost:
    def test_renders_targets_and_total(self):
        text = render_host(payload())
        assert "fir" in text
        assert "TOTAL" in text
        assert "speedup" in text


class TestBenchHost:
    def test_single_kernel_payload_shape(self):
        result = bench_host(kernels=("fir",), app=None, repeats=1)
        row = result["targets"]["fir"]
        assert row["instructions"] > 0
        assert row["instrumented_instr_per_second"] > 0
        assert row["fast_speedup"] > 1.0
        assert result["aggregate"]["fast_speedup"] > 1.0
        assert result["bench"] == "host"

    def test_each_repeat_scales_by_the_host_speed_around_it(self, monkeypatch):
        from types import SimpleNamespace

        from repro.analysis import hostbench
        from repro.target import Target

        scales = iter([1.0, 0.5, 2.0])  # before, between, after the repeats
        monkeypatch.setattr(hostbench, "_host_scale", lambda: next(scales))
        run = SimpleNamespace(cores=[SimpleNamespace(instret=10)],
                              host_seconds=1.0)
        target = SimpleNamespace(run=lambda items, engine: run)
        monkeypatch.setattr(Target, "resolve", lambda name, seed: target)
        instructions, seconds = hostbench._measure("fir", 2, seed=1, items=1)
        assert instructions == 10
        # Repeats read 1.0 s * 0.75 and 1.0 s * 1.25; the min counts.
        assert seconds == {"instrumented": 0.75, "fast": 0.75}
