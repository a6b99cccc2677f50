"""The suite's warning filters: a RuntimeWarning raised in any package module fails the test that sees it."""
import warnings

import pytest


def warn_from(module: str) -> None:
    warnings.warn_explicit("overflow encountered", RuntimeWarning, f"{module}.py", 1, module=module)


@pytest.mark.parametrize("module", ["filmopt", "filmopt.errors", "filmopt.window"])
def test_a_runtime_warning_from_any_package_module_is_an_error(module):
    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        warn_from(module)


def test_a_runtime_warning_from_outside_the_package_only_warns():
    with warnings.catch_warnings(record=True) as seen:  # keeps the suite's filters, records what they show
        warn_from("numpy.core")
    assert [w.category for w in seen] == [RuntimeWarning]
