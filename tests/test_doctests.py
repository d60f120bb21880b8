"""Docstring examples must actually run (README/API credibility check)."""

import doctest

import pytest

import repro
import repro.machine.traceviz as traceviz


@pytest.mark.parametrize(
    "module", [repro, traceviz], ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} should carry runnable examples"
    assert result.failed == 0
