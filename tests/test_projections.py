"""Projection normal forms, the diagonal-sum monoid, and the counting vector."""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from qproj.errors import (
    DimensionMismatch,
    ExprSyntaxError,
    InvalidClass,
    integer,
)
from qproj.extnat import INF, is_finite
from qproj.projections import (
    ProjClass,
    RhoVector,
    boxplus,
    is_equivalent,
    is_stably_equivalent,
    normalize,
    normalize_expression,
    parse_expression,
    rank,
    rho,
    zero_class,
)


def sum_rule(a, b):
    """The expected diagonal sum, restated from the classification."""
    if a.is_zero:
        return (b.j, b.k)
    if b.is_zero:
        return (a.j, a.k)
    if a.j == b.j:
        return (a.j, a.k + b.k)
    low = a if a.j < b.j else b
    return (low.j, low.k)


def small_classes(n, k_max):
    yield zero_class(n)
    for j in range(n + 1):
        for k in range(1, k_max + 1):
            yield ProjClass(n, j, k)


# strategy: a class over a shared ambient index
def classes(n):
    nonzero = st.tuples(st.integers(0, n), st.integers(1, 10 ** 6)).map(
        lambda t: ProjClass(n, t[0], t[1])
    )
    return st.one_of(st.just(zero_class(n)), nonzero)


class TestNormalForm:
    def test_accepts_valid(self):
        p = ProjClass(3, 2, 5)
        assert (p.n, p.j, p.k) == (3, 2, 5)
        assert not p.is_zero

    def test_zero_class_spelling(self):
        z = zero_class(4)
        assert z.is_zero and (z.j, z.k) == (0, 0)
        with pytest.raises(InvalidClass):
            ProjClass(4, 2, 0)  # P[2,0] is not a normal form

    def test_level_range(self):
        with pytest.raises(InvalidClass):
            ProjClass(2, 3, 1)
        with pytest.raises(InvalidClass):
            ProjClass(2, -1, 1)
        with pytest.raises(InvalidClass):
            ProjClass(-1, 0, 1)
        with pytest.raises(InvalidClass):
            ProjClass(2, 0, -1)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidClass):
            ProjClass(2, 1, 1.0)
        with pytest.raises(InvalidClass):
            ProjClass(2, True, 1)

    def test_immutable(self):
        p = ProjClass(2, 1, 1)
        with pytest.raises(AttributeError):
            p.k = 3

    def test_str_and_json(self):
        p = ProjClass(3, 1, 2)
        assert str(p) == "P[1,2]"
        assert p.to_json() == {"n": 3, "j": 1, "k": 2}
        assert ProjClass(**p.to_json()) == p


class Count(int):
    """An int subclass: accepted wherever an int is, but not by exact type."""


# bools, floats, None, negatives, big ints, an int subclass and INF, with
# small ints so that triples of them also reach j > n and P[j,0]
GRID = [True, 1.5, None, -1, 0, 1, 2, 2 ** 70, Count(1), INF]


def reference_class_check(n, j, k):
    """ProjClass's validation before its one-test accept, check by check."""
    n = integer(n, "ambient index n", 0)
    j = integer(j, "level j")
    if not 0 <= j <= n:
        raise InvalidClass(f"level j={j} outside 0..{n}")
    if integer(k, "multiplicity k", 0) == 0 and j != 0:
        raise InvalidClass(
            f"P[{j},0] is not a normal form; the zero class is P[0,0]"
        )


def reference_vector_check(entries):
    """RhoVector's validation before its one-test accept, entry by entry."""
    if not entries:
        raise DimensionMismatch("a counting vector needs at least one level")
    for e in entries:
        if is_finite(e):
            integer(e, "finite counting entry", 0)


def outcome(make, *args):
    """None when ``make(*args)`` accepts them, else the error's class and text."""
    try:
        make(*args)
    except (InvalidClass, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return None


class TestValueValidation:
    def test_class_grid(self):
        for args in itertools.product(GRID, repeat=3):
            want = outcome(reference_class_check, *args)
            assert outcome(ProjClass, *args) == want, args
            if want is None:
                p = ProjClass(*args)
                assert (p.n, p.j, p.k) == args
        assert outcome(ProjClass, 1, 2, 1) == (InvalidClass, "level j=2 outside 0..1")
        assert outcome(ProjClass, 2, 1, 0) == (
            InvalidClass, "P[1,0] is not a normal form; the zero class is P[0,0]")
        assert outcome(ProjClass, Count(2), Count(1), Count(1)) is None

    def test_vector_grid(self):
        cases = [()] + [(e,) for e in GRID] + list(itertools.product(GRID, repeat=2))
        for entries in cases:
            want = outcome(reference_vector_check, entries)
            assert outcome(RhoVector, entries) == want, entries
            assert outcome(RhoVector, list(entries)) == want, entries
            if want is None:
                assert RhoVector(entries).entries == entries
        assert outcome(RhoVector, (0, -1)) == (
            InvalidClass, "finite counting entry must be an integer >= 0, got -1")

    @pytest.mark.parametrize("value", [ProjClass(3, 1, 2), RhoVector((0, 2, INF))],
                             ids=["class", "vector"])
    def test_survives_pickle_and_copy(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                     copy.copy(value)):
            assert twin == value and type(twin) is type(value)
            assert hash(twin) == hash(value)
        assert pickle.loads(pickle.dumps(RhoVector((INF,)))).entries[0] is INF
        field = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))


class TestBoxplus:
    def test_matches_rule_exhaustively(self):
        for n in range(4):
            stock = list(small_classes(n, 6))
            for a in stock:
                for b in stock:
                    c = boxplus(a, b)
                    assert (c.j, c.k) == sum_rule(a, b), (a, b)

    def test_zero_is_identity(self):
        p = ProjClass(2, 1, 4)
        assert boxplus(p, zero_class(2)) == p
        assert boxplus(zero_class(2), p) == p

    def test_same_level_adds(self):
        assert boxplus(ProjClass(3, 2, 3), ProjClass(3, 2, 4)) == ProjClass(3, 2, 7)

    def test_absorption(self):
        # the lower level swallows the higher, regardless of multiplicities
        assert boxplus(ProjClass(3, 1, 2), ProjClass(3, 2, 500)) == ProjClass(3, 1, 2)
        assert boxplus(ProjClass(3, 3, 9), ProjClass(3, 0, 1)) == ProjClass(3, 0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            boxplus(ProjClass(2, 1, 1), ProjClass(3, 1, 1))

    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(classes(n), classes(n))))
    def test_commutative(self, pair):
        a, b = pair
        assert boxplus(a, b) == boxplus(b, a)

    @given(st.integers(0, 6).flatmap(
        lambda n: st.tuples(classes(n), classes(n), classes(n))))
    def test_associative(self, triple):
        a, b, c = triple
        assert boxplus(boxplus(a, b), c) == boxplus(a, boxplus(b, c))


class TestNormalize:
    def test_frozen_example(self):
        # P[3,1] is absorbed, the two level-1 terms add
        terms = [ProjClass(3, 3, 1), ProjClass(3, 1, 2), ProjClass(3, 1, 1)]
        assert normalize(terms) == ProjClass(3, 1, 3)

    def test_free_terms_add_through_compact(self):
        terms = [ProjClass(1, 0, 1), ProjClass(1, 1, 9), ProjClass(1, 0, 1)]
        assert normalize(terms) == ProjClass(1, 0, 2)

    def test_empty_sum(self):
        assert normalize([], n=3) == zero_class(3)
        with pytest.raises(DimensionMismatch):
            normalize([])

    @given(st.integers(0, 5).flatmap(
        lambda n: st.lists(classes(n), min_size=1, max_size=6)))
    def test_order_invariance(self, terms):
        assert normalize(terms) == normalize(list(reversed(terms)))


class TestRho:
    def test_frozen_values(self):
        assert rho(ProjClass(3, 2, 3)).entries == (0, 0, 3, INF)
        assert rho(ProjClass(3, 0, 4)).entries == (4, INF, INF, INF)
        assert rho(ProjClass(3, 3, 1)).entries == (0, 0, 0, 1)
        assert rho(zero_class(3)).entries == (0, 0, 0, 0)

    def test_zero_vs_identity_distinguished(self):
        # the zero class and nothing else has an all-zero vector
        assert rho(zero_class(2)) != rho(ProjClass(2, 2, 1))

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(classes(n), classes(n))))
    def test_additive(self, pair):
        a, b = pair
        assert rho(a) + rho(b) == rho(boxplus(a, b))

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(classes(n), classes(n))))
    def test_injective(self, pair):
        a, b = pair
        assert (rho(a) == rho(b)) == ((a.j, a.k) == (b.j, b.k))

    def test_vector_addition_saturates(self):
        v = RhoVector((0, 2, INF)) + RhoVector((3, INF, 4))
        assert v.entries == (3, INF, INF)

    def test_vector_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RhoVector((1, 2)) + RhoVector((1, 2, 3))

    def test_vector_entries_validated(self):
        with pytest.raises(InvalidClass):
            RhoVector((1, -2))
        with pytest.raises(InvalidClass):
            RhoVector((1, 2.5))

    def test_vector_json_round_trip(self):
        v = RhoVector((0, 3, INF))
        assert v.to_json() == [0, 3, "inf"]


class TestRankAndEquivalence:
    def test_rank(self):
        assert rank(ProjClass(3, 0, 7)) == 7
        assert rank(ProjClass(3, 2, 7)) == 0
        assert rank(zero_class(3)) == 0

    def test_stably_equivalent_iff_same_rank(self):
        # the even K-group of the sphere is free of rank one: a class is its rank
        for n in range(3):
            for a in small_classes(n, 4):
                for b in small_classes(n, 4):
                    assert is_stably_equivalent(a, b) == (rank(a) == rank(b)), (a, b)

    def test_stable_but_not_equivalent(self):
        a, b = ProjClass(2, 1, 3), ProjClass(2, 2, 5)
        assert is_stably_equivalent(a, b)  # both vanish in the K-group
        assert not is_equivalent(a, b)

    def test_cancellation_failure_witness(self):
        # two inequivalent compact classes with the same sum against a free one
        unit = ProjClass(2, 0, 1)
        a, b = ProjClass(2, 1, 1), ProjClass(2, 2, 1)
        assert boxplus(a, unit) == boxplus(b, unit) == unit
        assert not is_equivalent(a, b)

    def test_cancellation_at_positive_rank(self):
        a, b = ProjClass(2, 0, 2), ProjClass(2, 0, 3)
        for c in small_classes(2, 5):
            assert (boxplus(a, c) == boxplus(b, c)) == is_equivalent(a, b)


class TestParser:
    def test_basic(self):
        got = parse_expression("P[3,1] (+) P[1,2]", 3)
        assert got == [ProjClass(3, 3, 1), ProjClass(3, 1, 2)]

    def test_whitespace_insensitive(self):
        a = parse_expression("P[1,2](+)P[0,3]", 2)
        b = parse_expression("  P[ 1 , 2 ]   (+)   P[0, 3]  ", 2)
        assert a == b

    def test_single_term(self):
        assert parse_expression("P[0,0]", 2) == [zero_class(2)]

    def test_normalize_expression(self):
        assert normalize_expression("P[3,1] (+) P[1,2] (+) P[1,1]", 3) \
            == ProjClass(3, 1, 3)

    def test_syntax_errors(self):
        for bad in ["", "   ", "P[1,2] (+)", "P[1,2] + P[0,1]", "Q[1,2]",
                    "P[1]", "P[1,2,3]", "P[-1,2]"]:
            with pytest.raises(ExprSyntaxError):
                parse_expression(bad, 3)

    def test_semantic_errors(self):
        with pytest.raises(InvalidClass):
            parse_expression("P[5,1]", 2)  # level out of range
        with pytest.raises(InvalidClass):
            parse_expression("P[1,0]", 2)  # not a normal form

    def test_round_trip_through_str(self):
        for n in range(3):
            for p in small_classes(n, 3):
                assert parse_expression(str(p), n) == [p]
