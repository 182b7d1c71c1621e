"""Unit tests for the fixed-interval TimeSeries collector."""

import json

import pytest

from repro.cpu import Core
from repro.mem import MemorySystem
from repro.power.chip import EnergyModel
from repro.telemetry import (
    NULL_STATS,
    NULL_TELEMETRY,
    NULL_TIMESERIES,
    NULL_TRACER,
    Telemetry,
    TimeSeries,
)
from repro.verify import check_timeseries
from repro.workloads import make_kernel


class TestBinning:
    def test_samples_land_in_their_interval(self):
        ts = TimeSeries(interval=100)
        ts.tile_sample(0, 0, {"cycles": 10})
        ts.tile_sample(0, 150, {"cycles": 20})
        ts.tile_sample(0, 199, {"cycles": 5})
        series = dict(ts.tile_series(0))
        assert series[0] == {"cycles": 10}
        assert series[1] == {"cycles": 25}  # both land in [100, 200)

    def test_link_flits_accumulate_per_interval(self):
        ts = TimeSeries(interval=100)
        ts.link_flits((0, 1), 10, 3)
        ts.link_flits((0, 1), 90, 2)
        ts.link_flits((0, 1), 110, 7)
        assert ts.links[(0, 1)] == {0: 5, 1: 7}

    def test_channel_occupancy_keeps_high_water(self):
        ts = TimeSeries(interval=100)
        ts.channel_occupancy(0, 1, 10, 4)
        ts.channel_occupancy(0, 1, 20, 9)
        ts.channel_occupancy(0, 1, 30, 2)
        assert ts.channels[(0, 1)] == {0: 9}

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(interval=0)
        with pytest.raises(ValueError):
            TimeSeries(capacity=0)

    def test_tile_totals_sum_fields(self):
        ts = TimeSeries(interval=10)
        ts.tile_sample(3, 0, {"cycles": 10, "instructions": 8})
        ts.tile_sample(3, 10, {"cycles": 10, "instructions": 6})
        assert ts.tile_totals(3) == {"cycles": 20, "instructions": 14}


class TestRingBuffer:
    def test_eviction_counts_dropped_intervals(self):
        ts = TimeSeries(interval=10, capacity=3)
        for i in range(5):
            ts.tile_sample(0, i * 10, {"cycles": 1})
        assert ts.dropped_intervals == 2
        assert sorted(ts.tiles[0]) == [2, 3, 4]  # oldest evicted first

    def test_span(self):
        ts = TimeSeries(interval=10)
        assert ts.span() is None
        ts.tile_sample(0, 25, {"cycles": 1})
        ts.link_flits((0, 1), 95, 2)
        assert ts.span() == (2, 9)


class TestEnergy:
    def test_energy_derived_idempotently(self):
        ts = TimeSeries(interval=1000)
        ts.tile_sample(0, 0, {"cycles": 1000})
        model = EnergyModel()
        ts.add_energy(model)
        first = ts.tiles[0][0]["energy_nj"]
        ts.add_energy(model)  # re-finalize: assign, not accumulate
        assert ts.tiles[0][0]["energy_nj"] == first
        # 139.5 mW / 16 tiles at 200 MHz: 1000 cycles = 5 us = 43.59375 nJ
        assert first == pytest.approx(43.59375)


class TestExport:
    def capture(self):
        ts = TimeSeries(interval=100)
        ts.tile_sample(0, 0, {"cycles": 80, "instructions": 60})
        ts.tile_sample(0, 120, {"cycles": 90, "instructions": 70})
        ts.link_flits((0, 1), 50, 10)
        ts.channel_occupancy(0, 1, 55, 3)
        return ts

    def test_to_dict_shape(self):
        payload = self.capture().to_dict()
        assert payload["interval"] == 100
        sample = payload["tiles"]["0"][0]
        assert (sample["index"], sample["start"], sample["end"]) == (0, 0, 100)
        link = payload["noc"]["links"]["0->1"][0]
        assert link["flits"] == 10
        assert link["utilization"] == pytest.approx(0.1)
        chan = payload["fabric"]["channels"]["0->1"][0]
        assert chan["occupancy_high_water"] == 3

    def test_payload_is_json_clean_and_v901_clean(self):
        payload = json.loads(json.dumps(self.capture().to_dict()))
        assert check_timeseries(payload).ok(strict=True)

    def test_csv_rows(self):
        text = self.capture().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "kind,id,start,end,field,value"
        assert "tile,0,0,100,cycles,80" in lines
        assert "link,0->1,0,100,flits,10" in lines
        assert "channel,0->1,0,100,occupancy_high_water,3" in lines

    def test_write_json_and_csv(self, tmp_path):
        ts = self.capture()
        jpath = tmp_path / "ts.json"
        cpath = tmp_path / "ts.csv"
        ts.write(jpath)
        ts.write(cpath)
        assert json.loads(jpath.read_text())["interval"] == 100
        assert cpath.read_text().startswith("kind,id,")


class TestNullPath:
    def test_null_records_nothing(self):
        # No event reaches a disabled collector: the bundle's hooks are
        # None, so the null object carries no recording methods at all.
        assert NULL_TELEMETRY.tile_sample is None
        assert NULL_TELEMETRY.link_crossed(True) is None
        assert NULL_TELEMETRY.channel_occupancy() is None
        for hook in ("tile_sample", "link_flits", "channel_occupancy",
                     "add_energy"):
            assert not hasattr(NULL_TIMESERIES, hook)
        assert len(NULL_TIMESERIES) == 0
        assert not NULL_TIMESERIES.enabled
        assert NULL_TIMESERIES.to_dict()["tiles"] == {}


class TestCoreIntegration:
    def test_kernel_intervals_reconcile_with_totals(self):
        kernel = make_kernel("fir", seed=2)
        ts = TimeSeries(interval=256)
        core = Core(kernel.program, MemorySystem.stitch(),
                    telemetry=Telemetry(NULL_STATS, NULL_TRACER, ts))
        kernel.setup(core)
        assert core.run(max_instructions=3_000_000).reason == "halt"
        core.flush_timeseries()
        totals = ts.tile_totals(0)
        assert totals["cycles"] == core.cycles
        assert totals["instructions"] == core.instret
        indices = [index for index, _ in ts.tile_series(0)]
        assert indices == sorted(set(indices))
        assert check_timeseries(ts).ok(strict=True)

    def test_disabled_core_pays_one_comparison(self):
        kernel = make_kernel("fir", seed=2)
        core = Core(kernel.program, MemorySystem.stitch())
        assert core._ts_next == float("inf")
        kernel.setup(core)
        core.run(max_instructions=3_000_000)
        core.flush_timeseries()  # no-op on the null collector
        assert len(NULL_TIMESERIES) == 0
