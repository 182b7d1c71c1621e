"""The one compile store: ``compile_kernel_options``.

Every version is keyed by (kernel, platform, replication, option), so a
caller compiles exactly the versions nobody compiled before it, whatever
option subset, seed or driver asked first.  No count depends on test
order: each test uses a key no other test fills, or first puts what it
relies on into the store itself.
"""

import pytest

from repro.analysis.experiments.ablations import run_ablation_ports
from repro.analysis.experiments.kernels import _suite_tables
from repro.compiler import driver
from repro.compiler.driver import SINGLE_OPTIONS
from repro.platform import DEFAULT_PLATFORM
from repro.sim.baselines import compile_kernel_options
from repro.workloads import make_kernel


@pytest.fixture
def spied(monkeypatch):
    """A log of every compiler built and version compiled:
    ``{"compilers": [(max_inputs, max_outputs)], "compiles": n}``."""
    log = {"compilers": [], "compiles": 0}
    init = driver.KernelCompiler.__init__
    compile_ = driver.KernelCompiler.compile

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        log["compilers"].append((self.max_inputs, self.max_outputs))

    def spy_compile(self, option):
        log["compiles"] += 1
        return compile_(self, option)

    monkeypatch.setattr(driver.KernelCompiler, "__init__", spy_init)
    monkeypatch.setattr(driver.KernelCompiler, "compile", spy_compile)
    return log


def test_subset_then_full_compiles_only_the_missing_options(spied):
    # The stitch machine under a name of its own: a key no other test fills.
    platform = DEFAULT_PLATFORM.derive("compile-store-test")
    kernel = make_kernel("fir")
    _, first = compile_kernel_options(
        kernel, options=SINGLE_OPTIONS[:1], platform=platform
    )
    assert spied["compiles"] == 1
    cycles, full = compile_kernel_options(kernel, platform=platform)
    assert spied["compiles"] == 13
    assert len(spied["compilers"]) == 2
    name = SINGLE_OPTIONS[0].name
    assert full[name] is first[name]
    assert cycles[name] == first[name].cycles
    assert cycles["baseline"] == first[name].baseline_cycles


def test_seeds_share_entries(spied):
    seed_1, seed_7 = make_kernel("fir", seed=1), make_kernel("fir", seed=7)
    assert seed_1.cache_key() == seed_7.cache_key()
    options = SINGLE_OPTIONS[:1]
    cycles_1, compiled_1 = compile_kernel_options(seed_1, options=options)
    before = spied["compiles"]
    cycles_7, compiled_7 = compile_kernel_options(seed_7, options=options)
    assert spied["compiles"] == before
    assert cycles_7 == cycles_1
    name = options[0].name
    assert compiled_7[name] is compiled_1[name]


def test_ports_ablation_compiles_only_its_narrow_side(spied):
    _suite_tables(names=("2dconv",))
    before = spied["compiles"]
    spied["compilers"].clear()
    report = run_ablation_ports(names=("2dconv",))
    assert spied["compilers"] == [(2, 1)]
    assert spied["compiles"] - before == len(SINGLE_OPTIONS)
    assert report.all_hold()
