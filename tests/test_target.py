"""The shared kernel-or-app target: resolution, the single-tile
harness, and the one unknown-target message every command prints."""

import pytest

from repro.__main__ import main
from repro.chaos.campaign import campaign_points
from repro.cpu import ATTRIBUTION_BUCKETS, Core, STOP_HALT
from repro.mem import MemorySystem
from repro.platform import DEFAULT_PLATFORM
from repro.target import NoHaltError, Target, UnknownTargetError
from repro.telemetry import Telemetry, TimeSeries
from repro.workloads import make_kernel


class TestResolve:
    def test_kernel_matches_exactly(self):
        target = Target.resolve("fir", seed=3)
        assert target.name == "fir"
        assert not target.is_app
        assert target.kernel.seed == 3
        assert target.platform is DEFAULT_PLATFORM

    def test_kernel_names_are_case_sensitive(self):
        with pytest.raises(UnknownTargetError):
            Target.resolve("FIR")

    @pytest.mark.parametrize("name", ["APP1", "app1", "App1"])
    def test_app_matches_case_insensitively(self, name):
        target = Target.resolve(name)
        assert target.name == "APP1"
        assert target.is_app
        assert target.app.name.startswith("APP1")

    def test_unknown_names_both_registries(self):
        with pytest.raises(UnknownTargetError) as excinfo:
            Target.resolve("no-such-thing")
        message = str(excinfo.value)
        assert message.startswith("unknown target 'no-such-thing'")
        assert "'fir'" in message and "'APP1'" in message
        assert isinstance(excinfo.value, ValueError)


class TestKernelHarness:
    def test_fir_matches_a_hand_built_core(self):
        kernel = make_kernel("fir")
        core = Core(kernel.program, MemorySystem(DEFAULT_PLATFORM.mem))
        kernel.setup(core)
        assert core.run(max_instructions=20_000_000).reason == STOP_HALT

        run = Target.resolve("fir").run()
        (tile,) = run.cores
        assert tile.regs == core.regs
        assert run.cycles == tile.cycles == core.cycles
        assert tile.instret == core.instret
        attribution = tile.attribution()
        for bucket in ATTRIBUTION_BUCKETS:
            assert attribution[bucket] == core.attribution()[bucket]
        assert run.outputs() == kernel.result(core)
        assert run.results is None

    def test_epilogue_closes_timeseries_and_recorder(self):
        from repro.critpath import DependencyGraph, DependencyRecorder

        timeseries = TimeSeries(interval=256)
        recorder = DependencyRecorder(DEFAULT_PLATFORM)
        run = Target.resolve("fir").run(
            telemetry=Telemetry(timeseries=timeseries, recorder=recorder)
        )
        totals = timeseries.tile_totals(0)
        assert totals["cycles"] == run.cycles
        assert totals["energy_nj"] > 0
        assert DependencyGraph.from_recorder(recorder).makespan == run.cycles

    def test_non_halting_kernel_raises(self):
        with pytest.raises(NoHaltError) as excinfo:
            Target.resolve("fir").run(max_instructions=10)
        assert excinfo.value.reason == "limit"


class TestChaosNames:
    def test_lower_case_app_is_canonicalized(self):
        points = campaign_points(["app1", "fir"], faults=2, seed=7)
        assert [p["id"] for p in points] == ["APP1/7", "fir/8"]
        assert points[0]["workload"]["target"] == "APP1"

    def test_unknown_target_fails_before_any_point(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "fir", "no-such-thing", "--campaign", "2"])
        assert "unknown target 'no-such-thing'" in str(excinfo.value.code)
        assert "point(s)" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["profile", "no-such-thing"],
    ["critpath", "no-such-thing"],
    ["explain", "no-such-thing"],
    ["verify", "no-such-thing"],
    ["monitor", "no-such-thing"],
    ["app", "no-such-thing"],
    ["chaos", "no-such-thing"],
])
def test_every_command_shares_the_unknown_target_message(argv):
    with pytest.raises(UnknownTargetError) as expected:
        Target.resolve("no-such-thing")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == str(expected.value)
