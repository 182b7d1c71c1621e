"""Acceptance: the shipped workloads verify clean.

Every kernel of the suite — across all patch options — and every
application's stitch plan must produce zero error-severity diagnostics.
These tests share the compile store with the rest of the suite, so the
marginal cost is one verification sweep, not a recompilation.
"""

import pytest

from repro.verify import verify_app, verify_kernel
from repro.workloads import KERNEL_FACTORIES, make_kernel
from repro.workloads.apps import APP_FACTORIES


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_kernel_verifies_clean_across_all_options(name):
    report = verify_kernel(make_kernel(name))
    assert report.ok(strict=True), report.render()


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_app_verifies_with_zero_errors(name):
    report = verify_app(APP_FACTORIES[name](seed=1))
    assert report.errors() == [], report.render()
    assert report.ok(), report.render()


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_kernel_deep_verifies_clean_across_all_options(name):
    # The abstract interpreter (V800 family) over the body and every
    # compiled artifact: not a single diagnostic, warnings included.
    report = verify_kernel(make_kernel(name), deep=True)
    assert report.ok(strict=True), report.render()


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_app_deep_verifies_clean(name):
    report = verify_app(APP_FACTORIES[name](seed=1), deep=True)
    assert report.ok(strict=True), report.render()
