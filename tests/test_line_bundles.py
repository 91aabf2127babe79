"""Line bundle decompositions: closed form, peeling recursion, binomial identities."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qproj import line_bundles
from qproj.errors import InvalidClass, OutOfRange, UnsupportedDegree
from qproj.k_theory import K0Vector, nu_star
from qproj.line_bundles import (
    HockeyStickResult,
    LineBundleDecomposition,
    binomial,
    closed_form,
    hockey_stick,
    k0_class,
    recursion_expand,
)

# --- independent oracles -----------------------------------------------------

PASCAL_MAX = 80


def pascal_triangle(rows):
    """Pascal's triangle by repeated addition: no factorials, no comb."""
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


PASCAL = pascal_triangle(PASCAL_MAX)


def peel_by_hand(n, k):
    """Multiset of terminal levels from the recursion, tracked as a worklist."""
    counts = [0] * (n + 1)
    work = [(k, 0)]
    while work:
        kk, jj = work.pop()
        if kk == 0 or jj == n:
            counts[jj] += 1
            continue
        work.append((0, jj))
        work.extend((l, jj + 1) for l in range(1, kk + 1))
    return tuple(counts)


class TestBinomial:
    def test_against_pascal(self):
        for k in range(PASCAL_MAX + 1):
            for j in range(k + 1):
                assert binomial(k, j) == PASCAL[k][j]

    def test_frozen_large_value(self):
        assert binomial(40, 20) == 137846528820

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binomial(3, 4)
        with pytest.raises(OutOfRange):
            binomial(3, -1)
        with pytest.raises(OutOfRange):
            binomial(-1, 0)
        with pytest.raises(OutOfRange):
            binomial(3.0, 1)


class TestClosedForm:
    def test_identity_at_degree_zero(self):
        dec = closed_form(2, 0)
        assert dec.kind == "corner" and dec.m == 0
        assert dec.total_classes() == 1

    def test_corner_depth_is_abs_degree(self):
        dec = closed_form(3, -4)
        assert dec.kind == "corner" and dec.m == 4

    def test_frozen_positive_degrees(self):
        assert closed_form(1, 1).mult == (1, 1)
        assert closed_form(1, 2).mult == (1, 2)
        assert closed_form(2, 3).mult == (1, 3, 6)
        assert closed_form(3, 2).mult == (1, 2, 3, 4)

    def test_multiplicities_match_pascal(self):
        for n in range(1, 5):
            for k in range(1, 12):
                dec = closed_form(n, k)
                assert dec.kind == "multiset"
                for j in range(n + 1):
                    assert dec.mult[j] == PASCAL[k + j - 1][j]

    def test_rejects_bad_args(self):
        with pytest.raises(OutOfRange):
            closed_form(0, 1)
        with pytest.raises(OutOfRange):
            closed_form(2, 1.5)


class TestRecursion:
    def test_hand_expansion_smallest(self):
        # (1, 0) -> (0, 0) + (1, 1); (1, 1) is terminal at n = 1
        assert recursion_expand(1, 1).mult == (1, 1)

    def test_hand_expansion_n2_k2(self):
        # (2,0) -> (0,0)+(1,1)+(2,1); (1,1) -> (0,1)+(1,2); (2,1) -> (0,1)+(1,2)+(2,2)
        assert recursion_expand(2, 2).mult == (1, 2, 3)

    def test_against_worklist_oracle(self):
        for n in range(1, 5):
            for k in range(1, 10):
                assert recursion_expand(n, k).mult == peel_by_hand(n, k)

    def test_equals_closed_form(self):
        for n in range(1, 6):
            for k in range(1, 26):
                assert recursion_expand(n, k) == closed_form(n, k)
        # large degrees, where a recursion quadratic in k would take seconds
        for n, k in ((6, 1000), (2, 5000)):
            assert recursion_expand(n, k) == closed_form(n, k)

    def test_uses_no_binomial(self, monkeypatch):
        """The peeling reference stays independent of the closed form."""
        def refuse(*args):
            raise AssertionError("the peeling recursion computed a binomial")

        monkeypatch.setattr(line_bundles, "binomial", refuse)
        monkeypatch.setattr(math, "comb", refuse)
        for n in range(1, 5):
            for k in range(1, 10):
                assert recursion_expand(n, k).mult == peel_by_hand(n, k)

    @settings(max_examples=40)
    @given(st.integers(1, 7), st.integers(1, 50))
    def test_equals_closed_form_random(self, n, k):
        assert recursion_expand(n, k) == closed_form(n, k)

    def test_needs_positive_degree(self):
        with pytest.raises(OutOfRange):
            recursion_expand(2, 0)
        with pytest.raises(OutOfRange):
            recursion_expand(2, -1)


class TestHockeyStick:
    def test_frozen_example(self):
        assert hockey_stick(3, 4) == HockeyStickResult(10, 10, True)

    def test_base_against_pascal_sum(self):
        for l in range(2, 8):
            for k in range(1, 20):
                lhs = sum(PASCAL[k - m + l - 2][l - 2] for m in range(1, k + 1))
                result = hockey_stick(l, k)
                assert result.lhs == lhs
                assert result.equal

    def test_range_documented(self):
        for l in range(2, 13):
            for k in range(1, 41):
                assert hockey_stick(l, k).equal

    # binomial as given, off by one at j == 1, and wrong at C(12, 3) only,
    # which for l = 4 is the base closed form at k = 10 and a shifted tail's
    # at every larger k
    BINOMIALS = {
        "exact": lambda real: real,
        "off-at-1": lambda real: lambda k, j: real(k, j) + (j == 1),
        "off-at-12-3": lambda real: lambda k, j: real(k, j) + ((k, j) == (12, 3)),
    }

    @pytest.mark.parametrize("variant", sorted(BINOMIALS))
    def test_matches_double_loop(self, monkeypatch, variant):
        """The running sum gives the result of recomputing every tail."""
        binom = self.BINOMIALS[variant](line_bundles.binomial)
        monkeypatch.setattr(line_bundles, "binomial", binom)

        def reference(l, k):
            lhs = sum(binom(k - m + l - 2, l - 2) for m in range(1, k + 1))
            rhs = binom(k + l - 2, l - 1)
            equal = lhs == rhs
            for i in range(1, k + 1):
                tail = sum(binom(k - m + l - 2, l - 2) for m in range(i, k + 1))
                if tail != binom(k - i + l - 1, l - 1):
                    equal = False
                    break
            return HockeyStickResult(lhs, rhs, equal)

        verdicts = set()
        for l in range(2, 13):
            for k in range(1, 41):
                assert hockey_stick(l, k) == reference(l, k), (l, k)
                verdicts.add(reference(l, k).equal)
        assert verdicts == ({True} if variant == "exact" else {True, False})

    def test_binomial_calls_linear_in_k(self, monkeypatch):
        calls = []
        real = line_bundles.binomial

        def counted(k, j):
            calls.append((k, j))
            return real(k, j)

        monkeypatch.setattr(line_bundles, "binomial", counted)
        for l in range(2, 13):
            for k in range(1, 41):
                calls.clear()
                hockey_stick(l, k)
                assert len(calls) <= 2 * k + 1, (l, k, len(calls))

    def test_rejects_degenerate(self):
        with pytest.raises(OutOfRange):
            hockey_stick(1, 5)
        with pytest.raises(OutOfRange):
            hockey_stick(3, 0)


class TestK0Class:
    def test_frozen_values(self):
        assert k0_class(2, 0) == K0Vector(2, (1, 0, 0))
        assert k0_class(2, -1) == K0Vector(2, (1, -1, 0))
        assert k0_class(2, 3) == K0Vector(2, (1, 3, 6))
        assert k0_class(1, -1) == K0Vector(1, (1, -1))

    def test_positive_matches_closed_form(self):
        for n in range(1, 5):
            for k in range(1, 10):
                assert k0_class(n, k).coords == closed_form(n, k).mult

    @pytest.mark.parametrize("n", [*range(1, 8), 3000])
    def test_one_formula_for_every_supported_degree(self, n):
        # c_j(k) = k(k+1)...(k+j-1)/j! is the binomial multiset for k >= 1,
        # the identity at k = 0 and the alternating corner class at k = -1
        assert k0_class(n, 0).coords == (1,) + (0,) * n
        assert k0_class(n, -1).coords == (1, -1) + (0,) * (n - 1)
        for k in range(1, 30):
            assert k0_class(n, k).coords == closed_form(n, k).mult, (n, k)

    def test_restriction_consistency(self):
        for n in range(2, 6):
            for k in range(0, 26):
                assert nu_star(k0_class(n, k)) == k0_class(n - 1, k)

    def test_deep_negative_unsupported(self):
        with pytest.raises(UnsupportedDegree):
            k0_class(2, -2)
        with pytest.raises(UnsupportedDegree):
            k0_class(2, -10)


class TestContainers:
    def test_total_classes(self):
        assert closed_form(2, -5).total_classes() == 1
        assert closed_form(2, 3).total_classes() == 10

    def test_json_round_trip(self):
        assert [dec.to_json() for dec in (closed_form(2, -3), closed_form(2, 0),
                                          closed_form(3, 4))] == [
            {"n": 2, "k": -3, "kind": "corner", "m": 3},
            {"n": 2, "k": 0, "kind": "corner", "m": 0},
            {"n": 3, "k": 4, "kind": "multiset", "mult": [1, 4, 10, 20]}]

    def test_mult_exactly_at_positive_degrees(self):
        # the degree fixes the kind: a corner for k <= 0, multiplicities
        # over every level for k >= 1
        for n, k, mult in [(1, 5, None), (1, -2, (1, 1)), (2, 0, (1, 0, 0)),
                           (2, 1, (1, 0)), (2, 1, (1, 0, 0, 0))]:
            with pytest.raises(InvalidClass):
                LineBundleDecomposition(n, k, mult)
        dec = LineBundleDecomposition(1, 1, [1, 1])
        assert dec.mult == (1, 1) and hash(dec) == hash(LineBundleDecomposition(1, 1, (1, 1)))
        assert (dec.kind, dec.m) == ("multiset", None)
        corner = LineBundleDecomposition(2, -3)
        assert (corner.kind, corner.m, corner.mult) == ("corner", 3, None)
        with pytest.raises(AttributeError):
            corner.m = 4
