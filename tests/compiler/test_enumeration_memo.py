"""Enumerate once: the driver searches each hot block once per I/O budget.

Every patch option with the same ``max_outputs`` shares one DFG and one
candidate set; each version's block record must still carry exactly the
provenance a fresh enumeration would have produced.
"""

import pytest

from repro.compiler import driver
from repro.compiler.dfg import DFG
from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, KernelCompiler
from repro.provenance import CompileReport
from repro.provenance.records import EnumerationLog
from repro.workloads import make_kernel

OPTIONS = ALL_OPTIONS + (LOCUS_OPTION,)


@pytest.fixture(scope="module")
def fft_compiled():
    counts = {"dfg": 0, "enumerate": 0}
    patch = pytest.MonkeyPatch()
    real_init = DFG.__init__
    real_enumerate = driver.enumerate_candidates

    def counting_init(self, *args, **kwargs):
        counts["dfg"] += 1
        real_init(self, *args, **kwargs)

    def counting_enumerate(*args, **kwargs):
        counts["enumerate"] += 1
        return real_enumerate(*args, **kwargs)

    patch.setattr(DFG, "__init__", counting_init)
    patch.setattr(driver, "enumerate_candidates", counting_enumerate)
    try:
        report = CompileReport("fft")
        compiler = KernelCompiler(make_kernel("fft"), report=report)
        compiler.compile_options(OPTIONS)
    finally:
        patch.undo()
    return compiler, report, counts


def _budget(compiler, option):
    if option.max_outputs is not None:
        return option.max_outputs
    return compiler.max_outputs


def test_one_search_per_block_and_budget(fft_compiled):
    compiler, _, counts = fft_compiled
    hot = compiler.profile.hot_blocks(compiler.hot_threshold)
    budgets = {_budget(compiler, option) for option in OPTIONS}
    assert len(budgets) == 2
    assert counts == {
        "dfg": len(hot) * len(budgets),
        "enumerate": len(hot) * len(budgets),
    }


def test_every_version_replays_a_fresh_enumeration(fft_compiled):
    compiler, report, _ = fft_compiled
    assert report.accounted()
    for option in OPTIONS:
        version = report.versions[option.name]
        assert version.blocks
        for record in version.blocks:
            block = compiler.kernel.program.basic_blocks()[record.block_index]
            dfg = DFG(
                block,
                spm_only=compiler.profile.spm_only,
                live_out=compiler.block_live_out[block.index],
                replicable=frozenset(compiler.replicable),
            )
            log = EnumerationLog()
            candidates = driver.enumerate_candidates(
                dfg, max_inputs=compiler.max_inputs,
                max_outputs=_budget(compiler, option), observer=log,
            )
            assert not log.truncated  # fft must stay truncation-free
            assert record.enumeration.to_dict() == log.to_dict()
            assert record.enumerated == len(candidates)


def test_versions_own_their_logs(fft_compiled):
    _, report, _ = fft_compiled
    logs = [
        record.enumeration
        for version in report.versions.values() for record in version.blocks
    ]
    assert len({id(log) for log in logs}) == len(logs)
