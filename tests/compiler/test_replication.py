"""Tests for const-region replication (remote-LMAU fused loads).

The paper places different arrays in different tiles' scratchpads
(Section III-C's RealBitData/ImagBitData example); our compiler's
equivalent is replicating *read-only* regions into the remote tile so
a fused pattern's second load can run on the remote patch's LMAU.
"""

import pytest

from repro.compiler import profile_kernel
from repro.compiler.driver import ALL_OPTIONS
from repro.core.fusion import FusedConfig
from repro.sim.baselines import compile_kernel_options
from repro.workloads import make_kernel


def best(versions):
    return max(versions.values(), key=lambda c: c.speedup)


@pytest.fixture(scope="module")
def conv_versions():
    """2dconv's {option: CompiledKernel} with and without replication."""
    return tuple(
        compile_kernel_options(
            make_kernel("2dconv"), options=ALL_OPTIONS,
            allow_replication=allow,
        )[1]
        for allow in (True, False)
    )


class TestReplicableDetection:
    def test_profiler_reports_ranges(self):
        kernel = make_kernel("fir")
        profile = profile_kernel(kernel.program, kernel.setup)
        assert profile.mem_ranges
        for lo, hi in profile.mem_ranges.values():
            assert lo <= hi

    def test_const_confined_loads_found(self):
        kernel = make_kernel("fir")
        profile = profile_kernel(kernel.program, kernel.setup)
        const_regions = [r for r, _ in kernel.consts]
        replicable = profile.replicable_loads(const_regions)
        assert replicable  # the tap loads are confined to the h region
        for region in replicable.values():
            assert region.name == "h"

    def test_input_region_loads_not_replicable(self):
        kernel = make_kernel("fir")
        profile = profile_kernel(kernel.program, kernel.setup)
        const_regions = [r for r, _ in kernel.consts]
        replicable = profile.replicable_loads(const_regions)
        # The sample loads walk the (mutable) x region: never replicable.
        sample_pcs = {
            pc for pc, (lo, hi) in profile.mem_ranges.items()
            if lo >= kernel.x.addr and hi < kernel.x.end
        }
        assert sample_pcs.isdisjoint(replicable)


class TestReadOnlyGate:
    def test_mutated_const_region_never_replicable(self):
        # The ifft kernel's feature region is loaded as a "const" but
        # the update passes store back into it; a replica would go
        # stale, so the profiler must refuse it (regression test for a
        # miscompile the bit-exact validator caught).
        kernel = make_kernel("ifft")
        profile = profile_kernel(kernel.program, kernel.setup)
        const_regions = [r for r, _ in kernel.consts]
        replicable = profile.replicable_loads(const_regions)
        assert all(r.name != "feature" for r in replicable.values())

    def test_ifft_compiles_clean_with_replication(self):
        _, compiled = compile_kernel_options(
            make_kernel("ifft"), options=ALL_OPTIONS, allow_replication=True
        )
        assert best(compiled).speedup >= 1.0  # validation inside compile()


class TestReplicationEffects:
    def test_conv_fusion_gains_from_replication(self, conv_versions):
        with_rep, without = conv_versions
        assert best(with_rep).speedup > best(without).speedup

    def test_replicated_regions_recorded(self, conv_versions):
        with_rep, _ = conv_versions
        compiled = best(with_rep)
        assert any(r.name == "coef" for r in compiled.replicated_regions)

    def test_remote_lmau_config_present(self, conv_versions):
        with_rep, _ = conv_versions
        compiled = best(with_rep)
        remote_loads = [
            cfg for cfg in compiled.cfg_table
            if isinstance(cfg, FusedConfig) and cfg.cfg_b.uses_lmau()
        ]
        assert remote_loads

    def test_without_replication_no_remote_lmau(self, conv_versions):
        _, without = conv_versions
        for option_name, compiled in without.items():
            for cfg in compiled.cfg_table:
                if isinstance(cfg, FusedConfig):
                    assert not cfg.cfg_b.uses_lmau(), option_name

    def test_results_still_validate(self, conv_versions):
        # compile() raises MiscompileError on any divergence, so this
        # is implicitly checked; assert the flag explicitly anyway.
        with_rep, _ = conv_versions
        assert best(with_rep).speedup >= 1.0

    def test_stores_never_cross(self, conv_versions):
        with_rep, _ = conv_versions
        from repro.core.config import TMode
        for compiled in with_rep.values():
            for cfg in compiled.cfg_table:
                if isinstance(cfg, FusedConfig):
                    assert cfg.cfg_b.t in (
                        TMode.OFF, TMode.LOAD
                    ), "remote stores are forbidden"
