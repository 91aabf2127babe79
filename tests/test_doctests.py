"""The worked examples embedded in the module docstrings stay true."""

import doctest

import pytest

from qproj import (
    errors,
    extnat,
    groupoid,
    k_theory,
    line_bundles,
    oracle,
    projections,
    reports,
)

MODULES = [errors, extnat, projections, k_theory, line_bundles, oracle, groupoid, reports]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
