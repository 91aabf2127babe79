"""Refusals of arguments of the wrong kind or of another ambient index, and
small accessors and verdicts that no sweep reaches."""

import pytest

from qproj import groupoid, k_theory, oracle, projections
from qproj.errors import (DimensionMismatch, ExprSyntaxError, InvalidClass,
                          NotComposable)
from qproj.extnat import INF, ext_to_json
from qproj.groupoid import GroupoidElement, TElement
from qproj.k_theory import K0Vector
from qproj.oracle import IDENTITY, DiagonalPattern, PatternStack, cutoff
from qproj.projections import ProjClass, RhoVector

P1, P2 = ProjClass(1, 0, 1), ProjClass(2, 0, 1)
PATTERN = DiagonalPattern(2, (cutoff(1), IDENTITY))
ELEMENT = GroupoidElement(2, 0, (1, -1), (0, INF))

# name -> (call, error, a fragment of its message)
REFUSALS = {
    "boxplus of a non-class": (lambda: projections.boxplus(P1, "P[0,1]"), InvalidClass,
                               "boxplus needs two projection classes"),
    "normalize at another n": (lambda: projections.normalize([P1], n=2), DimensionMismatch,
                               "expression is over n=1, requested n=2"),
    "rho of a non-class": (lambda: projections.rho("P[0,1]"), InvalidClass,
                           "rho is defined on projection classes"),
    "rank of a non-class": (lambda: projections.rank(None), InvalidClass,
                            "rank is defined on projection classes"),
    "equivalence across n": (lambda: projections.is_equivalent(P1, P2), DimensionMismatch,
                             "ambient indices differ: 1 vs 2"),
    "stable equivalence across n": (lambda: projections.is_stably_equivalent(P1, P2),
                                    DimensionMismatch, "ambient indices differ: 1 vs 2"),
    "parse of bytes": (lambda: projections.parse_expression(b"P[0,1]", 1), ExprSyntaxError,
                       "expression must be a string"),
    "counting vector plus an int": (lambda: RhoVector((0, 1)) + 1, TypeError,
                                    "unsupported operand"),
    "stack of a non-pattern": (lambda: PatternStack((PATTERN, "I")), InvalidClass,
                               "stacks hold diagonal patterns"),
    "encode of a pattern": (lambda: oracle.encode(PATTERN), InvalidClass,
                            "encode is defined on projection classes"),
    "rank of a non-pattern": (lambda: oracle.rank_at(P1, 4), InvalidClass,
                              "expected a pattern or a stack"),
    "K0 vector plus an int": (lambda: K0Vector(1, (1, 0)) + 1, TypeError,
                              "unsupported operand"),
    "K0 vectors across n": (lambda: K0Vector(1, (1, 0)) + K0Vector(2, (1, 0, 0)),
                            DimensionMismatch, "ambient indices differ: 1 vs 2"),
    "K0 vector minus an int": (lambda: K0Vector(1, (1, 0)) - 1, TypeError,
                               "unsupported operand"),
    "restriction of a tuple": (lambda: k_theory.nu_star((1, 0)), InvalidClass,
                               "nu_star is defined on K0 vectors"),
    "JSON of a float": (lambda: ext_to_json(1.5), TypeError, "not an extended natural"),
    "JSON of a bool": (lambda: ext_to_json(True), TypeError, "not an extended natural"),
    "compose with a non-element": (lambda: groupoid.compose(ELEMENT, "g"), NotComposable,
                                   "compose needs two groupoid elements"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused_with_its_error(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


def test_accessors():
    rho = RhoVector((0, 2, INF))
    assert (rho[1], rho[-1]) == (2, INF)
    assert PatternStack((PATTERN, PATTERN)).n == 2
    assert TElement(2, (1, -1), (0, INF)).to_json() == {"x": [1, -1], "w": [0, "inf"]}


def test_exactness_fails_when_the_ideal_image_is_not_killed(monkeypatch):
    # with iota_star planted on level 0 and an empty kernel, the kernel test
    # passes vacuously and the image test is the one that fails
    monkeypatch.setattr(k_theory, "iota_star",
                        lambda n, m: K0Vector(n, (m,) + (0,) * n))
    monkeypatch.setattr(k_theory, "_kernel_basis", lambda H, U: [])
    report = k_theory.check_exactness(1)
    assert not report.passed
    assert report.counterexample == {"kind": "image-not-in-kernel", "vector": [1, 0]}
