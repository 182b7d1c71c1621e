"""The compiler profiles, validates and measures on its own platform.

``KernelCompiler(platform=p)`` simulates the unmodified kernel once, in
its profile run, on ``p``.  That run's cycles are every version's
baseline and its output the reference every version is validated
against, so both must equal what a plain run of the kernel on ``p``
reports.  The two platforms differ from the stitch preset in the memory
and the core parameter groups respectively; either one changes every
kernel's cycle count.
"""

import pytest

from repro.compiler.driver import KernelCompiler, SINGLE_OPTIONS
from repro.platform import DEFAULT_PLATFORM
from repro.sim.baselines import compile_kernel_options
from repro.target import Target
from repro.workloads.suite import KERNEL_FACTORIES, make_kernel

PLATFORMS = {
    "dram100": DEFAULT_PLATFORM.derive("dram100", mem={"dram_latency": 100}),
    "branch2": DEFAULT_PLATFORM.derive(
        "branch2", core={"taken_branch_penalty": 2}
    ),
}


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_baseline_is_a_run_on_the_compiler_platform(name, platform):
    config = PLATFORMS[platform]
    compiler = KernelCompiler(make_kernel(name), platform=config)
    run = Target.resolve(name, platform=config).run()
    assert compiler.baseline_cycles == run.cycles
    assert compiler._reference == run.outputs()


def test_default_platform_shares_the_compile_cache_entry():
    kernel = make_kernel("fir")
    options = SINGLE_OPTIONS[:1]
    _, implicit = compile_kernel_options(kernel, options=options)
    _, explicit = compile_kernel_options(
        kernel, options=options, platform=DEFAULT_PLATFORM
    )
    assert explicit is implicit
