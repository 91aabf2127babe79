"""Truncated diagonal operator patterns as an independent numeric route."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qproj.errors import (
    CutoffTooSmall,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidClass,
    OutOfRange,
)
from qproj.extnat import INF
from qproj.oracle import (
    IDENTITY,
    DiagonalPattern,
    PatternStack,
    boxplus_patterns,
    complement,
    cutoff,
    encode,
    face,
    rank_at,
    rho_numeric,
)
from qproj.projections import ProjClass, boxplus, rho, zero_class


def count_lattice_points(pattern, N):
    """Rank by brute force: walk the truncated basis grid and count the
    points every axis factor keeps.  Only feasible for tiny N and n."""
    total = 0
    for layer in (pattern.patterns if isinstance(pattern, PatternStack)
                  else (pattern,)):
        kept = 0
        for point in itertools.product(range(N), repeat=layer.n):
            ok = True
            for i, f in enumerate(layer.factors):
                if f == IDENTITY:
                    continue
                if f[0] == "P" and not point[i] < f[1]:
                    ok = False
                    break
                if f[0] == "Pc" and point[i] < f[1]:
                    ok = False
                    break
            if ok:
                kept += 1
        total += kept * layer.copies
    return total


class TestFactors:
    def test_constructors(self):
        assert cutoff(3) == ("P", 3)
        assert complement(2) == ("Pc", 2)
        with pytest.raises(InvalidClass):
            cutoff(0)
        with pytest.raises(InvalidClass):
            complement(-1)

    def test_pattern_validation(self):
        with pytest.raises(DimensionMismatch):
            DiagonalPattern(2, (IDENTITY,))
        with pytest.raises(InvalidClass):
            DiagonalPattern(1, (("X", 2),))
        with pytest.raises(InvalidClass):
            DiagonalPattern(1, (["P", 2],))
        with pytest.raises(InvalidClass):
            DiagonalPattern(1, (IDENTITY,), copies=-1)

    def test_stack_validation(self):
        a = DiagonalPattern(1, (IDENTITY,))
        b = DiagonalPattern(2, (IDENTITY, IDENTITY))
        with pytest.raises(DimensionMismatch):
            PatternStack((a, b))
        with pytest.raises(InvalidClass):
            PatternStack(())


class TestEncode:
    def test_zero_class_is_annihilated(self):
        pat = encode(zero_class(2))
        assert pat.is_annihilated
        assert rank_at(pat, 50) == 0

    def test_free_classes_stack_identities(self):
        pat = encode(ProjClass(2, 0, 3))
        assert pat.factors == (IDENTITY, IDENTITY) and pat.copies == 3

    def test_compact_classes(self):
        assert encode(ProjClass(2, 1, 2)).factors == (("P", 2), IDENTITY)
        assert encode(ProjClass(2, 2, 3)).factors == (("P", 1), ("P", 3))
        assert encode(ProjClass(3, 2, 5)).factors == (("P", 1), ("P", 5), IDENTITY)


class TestRank:
    def test_frozen_values(self):
        assert rank_at(encode(ProjClass(2, 1, 2)), 5) == 10
        assert rank_at(encode(ProjClass(2, 2, 3)), 5) == 3
        assert rank_at(encode(ProjClass(2, 0, 2)), 5) == 50

    def test_against_lattice_count(self):
        patterns = [
            encode(ProjClass(2, 1, 2)),
            encode(ProjClass(2, 2, 3)),
            encode(ProjClass(3, 2, 2)),
            DiagonalPattern(2, (complement(2), IDENTITY)),
            DiagonalPattern(3, (complement(1), cutoff(2), IDENTITY), copies=2),
        ]
        for pat in patterns:
            for N in (1, 2, 3, 5):
                assert rank_at(pat, N) == count_lattice_points(pat, N), (pat, N)

    def test_cutoff_saturates(self):
        pat = encode(ProjClass(1, 1, 4))
        # rank freezes once N passes the multiplicity
        assert rank_at(pat, 4) == rank_at(pat, 10) == rank_at(pat, 100) == 4


class TestFace:
    def test_identity_axis_survives(self):
        pat = DiagonalPattern(2, (cutoff(3), IDENTITY), copies=2)
        restricted = face(pat)
        assert restricted.factors == (cutoff(3),) and restricted.copies == 2

    def test_cutoff_axis_annihilates(self):
        pat = DiagonalPattern(2, (IDENTITY, cutoff(3)))
        assert face(pat).is_annihilated

    def test_complement_axis_survives(self):
        pat = DiagonalPattern(1, (complement(2),), copies=3)
        restricted = face(pat)
        assert restricted.n == 0 and restricted.copies == 3

    def test_no_axis_left(self):
        with pytest.raises(DimensionTooSmall):
            face(DiagonalPattern(0, ()))

    def test_face_rank_is_rank_limit(self):
        # an identity axis contributes a factor N; the face removes it
        pat = encode(ProjClass(2, 1, 2))
        assert rank_at(face(pat), 7) * 7 == rank_at(pat, 7)


class TestRhoNumeric:
    def test_matches_symbolic_frozen(self):
        assert rho_numeric(encode(ProjClass(2, 1, 2))).entries == (0, 2, INF)
        assert rho_numeric(encode(ProjClass(2, 0, 2))).entries == (2, INF, INF)
        assert rho_numeric(encode(ProjClass(2, 2, 3))).entries == (0, 0, 3)
        assert rho_numeric(encode(zero_class(2))).entries == (0, 0, 0)

    def test_matches_symbolic_sweep(self):
        for n in range(1, 4):
            stock = [zero_class(n)] + [ProjClass(n, j, k)
                                       for j in range(n + 1)
                                       for k in range(1, 7)]
            for p in stock:
                assert rho_numeric(encode(p), 8, 16) == rho(p), p

    def test_additive_over_stacks(self):
        a, b = ProjClass(2, 1, 2), ProjClass(2, 2, 4)
        stack = boxplus_patterns(encode(a), encode(b))
        assert rank_at(stack, 6) == rank_at(encode(a), 6) + rank_at(encode(b), 6)
        assert rho_numeric(stack) == rho(a) + rho(b)
        assert rho_numeric(stack) == rho(boxplus(a, b))

    def test_stack_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            boxplus_patterns(encode(zero_class(1)), encode(zero_class(2)))

    def test_cutoff_ordering_enforced(self):
        pat = encode(ProjClass(1, 1, 1))
        with pytest.raises(OutOfRange):
            rho_numeric(pat, 16, 8)
        with pytest.raises(OutOfRange):
            rho_numeric(pat, 16, 16)
        with pytest.raises(TypeError):
            rho_numeric(pat, 8, 16, 32)  # no third cutoff

    def test_guard_catches_accidental_agreement(self):
        # N - 20 is 0 at both cutoffs 8 and 16, but 12 at 32: read naively
        # this would report a finite rank of 0; the depth 20 above the first
        # cutoff guards against it by refusing
        pat = DiagonalPattern(1, (complement(20),))
        with pytest.raises(CutoffTooSmall):
            rho_numeric(pat, 8, 16)
        with pytest.raises(CutoffTooSmall):
            rho_numeric(pat)  # default cutoffs 8 and 16
        assert rho_numeric(pat, 20, 21).entries == (1, INF)

    def test_multiplicity_above_cutoff_needs_bigger_window(self):
        # the level multiplicity 10 exceeds the first cutoff 8, so the
        # rank still moves between the cutoffs: refused, not misread as
        # infinite; with honest cutoffs the verdict is finite
        p = ProjClass(1, 1, 10)
        with pytest.raises(CutoffTooSmall):
            rho_numeric(encode(p), 8, 16)
        assert rho_numeric(encode(p), 16, 32) == rho(p)

    @settings(max_examples=300)
    @given(st.data())
    def test_answered_exactly_or_refused(self, data):
        # multiplicities below, at and above each cutoff, alone or stacked
        n1 = data.draw(st.sampled_from((1, 2, 4, 8)))
        n2 = data.draw(st.integers(n1 + 1, 3 * n1 + 1))
        n = data.draw(st.integers(1, 3))
        # multiplicities near each cutoff, and near 2 * n2, past both
        near = st.tuples(st.sampled_from((n1, n2, 2 * n2)), st.integers(-2, 2))
        classes = [ProjClass(n, data.draw(st.integers(0, n)), max(1, c + d))
                   for c, d in data.draw(st.lists(near, min_size=1, max_size=2))]
        pattern = encode(classes[0])
        for p in classes[1:]:
            pattern = boxplus_patterns(pattern, encode(p))
        # only a level j >= 1 puts its multiplicity into a factor's depth
        if max(p.k if p.j else 0 for p in classes) > n1:
            with pytest.raises(CutoffTooSmall):
                rho_numeric(pattern, n1, n2)
        else:
            expected = rho(classes[0])
            for p in classes[1:]:
                expected = expected + rho(p)
            assert rho_numeric(pattern, n1, n2) == expected


    @settings(max_examples=300)
    @given(st.data())
    def test_two_cutoffs_decide_every_larger_one(self, data):
        # what rho_numeric relies on to consult no third cutoff: when every
        # live factor is at most n1 deep, agreement at n1 and n2 means the
        # rank is the same at every N from n1 on (checked up to 3 * n2)
        n1 = data.draw(st.integers(1, 8))
        n2 = data.draw(st.integers(n1 + 1, 3 * n1 + 1))
        n = data.draw(st.integers(1, 3))
        shallow = st.integers(1, n1)
        factor = st.one_of(st.just(IDENTITY), shallow.map(cutoff),
                           shallow.map(complement))
        live = st.builds(DiagonalPattern, st.just(n),
                         st.lists(factor, min_size=n, max_size=n).map(tuple),
                         st.integers(1, 3))
        # a layer with no copies may be deeper: it counts for nothing
        dead = st.builds(DiagonalPattern, st.just(n),
                         st.lists(st.integers(1, 4 * n2).map(complement),
                                  min_size=n, max_size=n).map(tuple), st.just(0))
        stack = PatternStack(tuple(data.draw(
            st.lists(st.one_of(live, dead), min_size=1, max_size=3))))
        same = {rank_at(stack, N) for N in range(n1, 3 * n2 + 1)}
        assert (rank_at(stack, n1) == rank_at(stack, n2)) == (len(same) == 1)


class TestSerialization:
    def test_pattern_round_trip(self):
        pat = DiagonalPattern(3, (cutoff(2), IDENTITY, complement(4)), copies=2)
        blob = pat.to_json()
        assert blob == {"n": 3, "factors": [{"P": 2}, "I", {"Pc": 4}], "copies": 2}

    def test_stack_serializes_layers(self):
        stack = boxplus_patterns(encode(ProjClass(1, 1, 2)), encode(ProjClass(1, 0, 1)))
        blob = stack.to_json()
        assert len(blob["stack"]) == 2
