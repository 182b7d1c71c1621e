"""Differential soak suite (``pytest -m soak``).

Property-based campaigns over randomly drawn injection plans: plans
always survive serialization, zero-fault plans are bit-identical across
both execution engines (and match the golden kernel digests), every campaign outcome lands in the
four-class closed world, and a campaign's JSON report is byte-identical
whether run serially or fanned out over workers.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import (
    InjectionPlan,
    Injector,
    RecoveryParams,
    SITES,
    random_plan,
)
from repro.chaos.campaign import (
    OUTCOMES,
    campaign_to_json,
    run_campaign,
    run_chaos_point,
)
from repro.platform import DEFAULT_PLATFORM
from repro.verify import check_campaign

pytestmark = pytest.mark.soak

seeds = st.integers(min_value=0, max_value=2**31 - 1)
soak = settings(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestPlanProperties:
    @soak
    @given(seed=seeds, n_faults=st.integers(min_value=0, max_value=12))
    def test_random_plans_round_trip_and_validate(self, seed, n_faults):
        plan = random_plan(seed=seed, n_faults=n_faults,
                           cix_sites=[(0, 1), (3, 2)],
                           channels=[(0, 1), (1, 2)])
        plan.validate()
        assert InjectionPlan.from_json(plan.to_json()) == plan
        assert plan.armed == bool(plan.faults)

    @soak
    @given(seed=seeds)
    def test_recovery_presets_round_trip(self, seed):
        plan = random_plan(seed=seed, n_faults=3,
                           recovery=RecoveryParams.full())
        again = InjectionPlan.from_json(plan.to_json())
        assert again.recovery == RecoveryParams.full()

    @soak
    @given(seed=seeds)
    def test_seed_is_the_whole_story(self, seed):
        kwargs = dict(n_faults=6, sites=SITES, channels=[(4, 5)])
        assert random_plan(seed=seed, **kwargs) == \
            random_plan(seed=seed, **kwargs)


class TestZeroFaultIdentity:
    @settings(max_examples=10, deadline=None)
    @given(kernel=st.sampled_from(["fir", "fft", "2dconv"]))
    def test_unarmed_injector_is_unobservable_across_engines(self, kernel):
        from repro.target import Target
        from tests.cpu.test_engine_differential import full_state
        from tests.cpu.test_engine_golden import GOLDEN, digest

        golden = json.loads(GOLDEN.read_text())["kernels"][kernel]
        runs = {}
        for engine in ("instrumented", "fast"):
            injector = Injector(InjectionPlan(name="clean"))
            target = Target.resolve(kernel, platform=DEFAULT_PLATFORM)
            run = target.run(engine=engine, injector=injector)
            result, (core,) = run.outputs(), run.cores
            assert core.halted
            assert injector.events == []
            runs[engine] = (result, core.cycles, core.instret)
            assert digest(full_state(core, target.kernel)) == golden, engine
        assert runs["instrumented"] == runs["fast"]


class TestCampaignProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_every_outcome_in_closed_world(self, seed):
        workload = {"kind": "chaos", "target": "fir", "seed": seed,
                    "faults": 2, "recovery": "full"}
        metrics, _ = run_chaos_point(DEFAULT_PLATFORM, workload)
        assert metrics["outcome"] in OUTCOMES

    def test_serial_and_parallel_reports_are_byte_identical(self):
        kwargs = dict(targets=["fir", "fft", "2dconv"], faults=12, seed=31)
        serial = run_campaign(**kwargs)
        fanned = run_campaign(workers=4, **kwargs)
        assert campaign_to_json(fanned) == campaign_to_json(serial)
        assert check_campaign(serial).ok(strict=True)

    def test_recovered_campaign_has_no_silent_corruption(self):
        report = run_campaign(["fir", "fft"], faults=16, seed=5,
                              recovery="full")
        assert report["errors"] == 0
        assert report["campaign"]["sdc"] == 0
        assert check_campaign(report).ok(strict=True)
