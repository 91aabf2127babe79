"""Level-basis K-group vectors and the exact integer linear algebra under them."""

import pytest
from hypothesis import given, strategies as st

from qproj.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    InvalidClass,
)
from qproj.k_theory import (
    K0Vector,
    _column_echelon,
    _in_span,
    _kernel_basis,
    _solve_int,
    check_exactness,
    generator,
    iota_star,
    nu_star,
)


def int_det(rows):
    """Exact determinant by cofactor expansion; fine at these sizes."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    total = 0
    for c in range(m):
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * int_det(minor)
    return total


def int_matmul(a, b):
    """Exact integer matrix product of two lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def twin_loop_echelon(rows):
    """Column echelon reduction keeping separate H and U in step, column by column.

    The reference for ``_column_echelon``: the same operations in the same
    order, each applied by one loop over H and one over U.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_sub(dst, src, q):
        for r in range(nrows):
            H[r][dst] -= q * H[r][src]
        for r in range(ncols):
            U[r][dst] -= q * U[r][src]

    def col_swap(a, b):
        for r in range(nrows):
            H[r][a], H[r][b] = H[r][b], H[r][a]
        for r in range(ncols):
            U[r][a], U[r][b] = U[r][b], U[r][a]

    def col_negate(c):
        for r in range(nrows):
            H[r][c] = -H[r][c]
        for r in range(ncols):
            U[r][c] = -U[r][c]

    pivot_col = 0
    for r in range(nrows):
        if pivot_col >= ncols:
            break
        while True:
            live = [c for c in range(pivot_col, ncols) if H[r][c] != 0]
            if not live:
                break
            if len(live) == 1:
                c = live[0]
                if c != pivot_col:
                    col_swap(c, pivot_col)
                if H[r][pivot_col] < 0:
                    col_negate(pivot_col)
                pivot_col += 1
                break
            live.sort(key=lambda c: abs(H[r][c]))
            small, other = live[0], live[1]
            q = H[r][other] // H[r][small]
            col_sub(other, small, q)
    return H, U


def assert_column_echelon(H):
    """Positive pivots, one column further right per pivot row, each alone to its right."""
    col = 0
    for row in H:
        if col < len(row) and row[col] != 0:
            assert row[col] > 0
            col += 1
        # a pivot row is zero right of its pivot, any other row from the next pivot column on
        assert not any(row[col:])


class TestVectors:
    def test_construction_and_equality(self):
        v = K0Vector(2, (1, -2, 3))
        assert v.n == 2 and v.coords == (1, -2, 3)
        assert v == K0Vector(2, (1, -2, 3))
        assert v != K0Vector(2, (1, -2, 4))

    def test_length_must_match(self):
        with pytest.raises(DimensionMismatch):
            K0Vector(2, (1, 2))

    def test_arithmetic(self):
        a = K0Vector(1, (1, 2))
        b = K0Vector(1, (5, -1))
        assert (a + b).coords == (6, 1)
        assert (a - b).coords == (-4, 3)
        assert (-a).coords == (-1, -2)
        assert (a - a).is_zero

    def test_json_round_trip(self):
        v = K0Vector(2, (0, 7, -3))
        assert v.to_json() == {"n": 2, "coords": [0, 7, -3]}
        assert K0Vector(**v.to_json()) == v

    def test_generator(self):
        assert generator(3, 1).coords == (0, 1, 0, 0)
        with pytest.raises(IndexOutOfRange):
            generator(3, 4)
        with pytest.raises(IndexOutOfRange):
            generator(3, -1)

    def test_nu_star_drops_last(self):
        assert nu_star(K0Vector(3, (4, -2, 7, 1))) == K0Vector(2, (4, -2, 7))
        with pytest.raises(DimensionTooSmall):
            nu_star(K0Vector(0, (5,)))

    def test_iota_star_lands_on_top_level(self):
        assert iota_star(3, 5).coords == (0, 0, 0, 5)
        assert iota_star(1, -2).coords == (0, -2)
        with pytest.raises(DimensionTooSmall):
            iota_star(0, 1)


class TestEchelon:
    # frozen matrices with known reductions
    CASES = [
        [[2, 4], [0, 1]],
        [[1, 2, 3], [4, 5, 6]],
        [[6, 10, 15]],
        [[0, 0], [0, 0]],
        [[3, 0], [0, 5], [7, 11]],
    ]

    @pytest.mark.parametrize("rows", CASES)
    def test_transform_is_recorded(self, rows):
        H, U = _column_echelon(rows)
        assert int_matmul(rows, U) == H

    @pytest.mark.parametrize("rows", CASES)
    def test_matches_twin_loop_reference(self, rows):
        H, U = _column_echelon(rows)
        assert (H, U) == twin_loop_echelon(rows)
        assert_column_echelon(H)

    @pytest.mark.parametrize("rows", CASES)
    def test_transform_is_unimodular(self, rows):
        _, U = _column_echelon(rows)
        assert abs(int_det(U)) == 1

    def test_gcd_lands_in_pivot(self):
        H, _ = _column_echelon([[6, 10, 15]])
        # one pivot equal to gcd(6, 10, 15) = 1, rest of the row zero
        assert H[0][0] == 1 and H[0][1] == 0 and H[0][2] == 0

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=2, max_size=4))
    def test_random_matrices(self, rows):
        H, U = _column_echelon(rows)
        assert int_matmul(rows, U) == H
        assert abs(int_det(U)) == 1
        assert_column_echelon(H)
        assert (H, U) == twin_loop_echelon(rows)


class TestSolve:
    def test_known_solution(self):
        assert _solve_int(*_column_echelon([[2, 0], [0, 3]]), [4, 9]) == [2, 3]

    def test_divisibility_obstruction(self):
        assert _solve_int(*_column_echelon([[2]]), [3]) is None

    def test_inconsistent(self):
        assert _solve_int(*_column_echelon([[1, 1], [1, 1]]), [0, 1]) is None

    def test_underdetermined(self):
        x = _solve_int(*_column_echelon([[1, 1]]), [5])
        assert x is not None and x[0] + x[1] == 5

    def test_kernel_of_projection(self):
        # dropping the last coordinate of Z^3: kernel is the last axis
        rows = [[1, 0, 0], [0, 1, 0]]
        basis = _kernel_basis(*_column_echelon(rows))
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == 0 and v[1] == 0 and abs(v[2]) == 1

    def test_full_rank_kernel_is_trivial(self):
        assert _kernel_basis(*_column_echelon([[2, 1], [1, 1]])) == []

    def test_in_span(self):
        assert _in_span([[2, 0], [0, 3]], [4, 3])
        assert not _in_span([[2, 0]], [1, 0])
        assert _in_span([], [0, 0])
        assert not _in_span([], [1, 0])


class TestExactness:
    def test_vacuous_base(self):
        report = check_exactness(0)
        assert report.passed
        assert report.params == {"n": 0, "applicable": False}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_at_each_size(self, n):
        report = check_exactness(n)
        assert report.passed, report.to_json()
        assert report.params["kernel_rank"] == 1
        assert report.domain_size == n + 1
        assert report.image_size == n

    def test_restriction_kills_exactly_the_ideal(self):
        # direct spot check, independent of the solver machinery
        n = 3
        assert nu_star(iota_star(n, 5)).is_zero
        for j in range(n):
            assert not nu_star(generator(n, j)).is_zero

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidClass):
            check_exactness(-1)
        with pytest.raises(InvalidClass):
            check_exactness(2.0)
