"""Even K-theory bookkeeping for quantum projective spaces.

The even K-group of the quantum projective n-space is free abelian of
rank n + 1, with one basis class per level: the level-0 generator is the
identity, the level-j generator for j >= 1 is the class of the
multiplicity-one projection at that level.  Coordinates throughout are
taken in this basis.

Two structural maps are implemented.  Restriction to the projective
(n-1)-space, ``nu_star``, kills the deepest level and keeps the basis
otherwise, so in coordinates it drops the last entry.  The inclusion of
the ideal of the deepest stratum, ``iota_star``, plants its copy of Z on
the last basis vector.  ``check_exactness`` verifies by direct integer
subgroup computation that kernel(nu_star) = image(iota_star) and that
nu_star is onto, which is the entire content of the six-term sequence
here because the odd groups vanish.
"""

from __future__ import annotations

from .errors import (DimensionMismatch, DimensionTooSmall, IndexOutOfRange, InvalidClass,
                     Value, integer)

__all__ = [
    "K0Vector",
    "generator",
    "nu_star",
    "iota_star",
    "check_exactness",
]


class K0Vector(Value):
    """Element of the even K-group of the projective n-space, in coordinates.

    ``coords`` has length n + 1, one integer per level 0..n.

    >>> K0Vector(2, (1, -1, 0)) + K0Vector(2, (0, 1, 3))
    K0Vector(n=2, coords=(1, 0, 3))
    """

    __slots__ = ("n", "coords")

    def __init__(self, n, coords):
        n = integer(n, "ambient index", 0)
        coords = tuple(coords)
        if len(coords) != n + 1:
            raise DimensionMismatch(
                f"need {n + 1} coordinates over n={n}, got {len(coords)}"
            )
        for c in coords:
            integer(c, "coordinate")
        self._store("n", n)
        self._store("coords", coords)

    def __add__(self, other):
        if not isinstance(other, K0Vector):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"ambient indices differ: {self.n} vs {other.n}")
        return K0Vector(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return K0Vector(self.n, tuple(-c for c in self.coords))

    def __sub__(self, other):
        if not isinstance(other, K0Vector):
            return NotImplemented
        return self + (-other)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def to_json(self):
        return {"n": self.n, "coords": list(self.coords)}


def generator(n, j):
    """The level-j basis class of the even K-group over n."""
    integer(n, "ambient index", 0)
    integer(j, "level j", 0, n, IndexOutOfRange)
    return K0Vector(n, tuple(1 if i == j else 0 for i in range(n + 1)))


def nu_star(v):
    """Restriction to the projective (n-1)-space: drop the last coordinate."""
    if not isinstance(v, K0Vector):
        raise InvalidClass("nu_star is defined on K0 vectors")
    if v.n == 0:
        raise DimensionTooSmall("no projective space below n=1 to restrict to")
    return K0Vector(v.n - 1, v.coords[:-1])


def iota_star(n, m):
    """Image of m under the inclusion of the deepest-stratum ideal: m on level n."""
    integer(n, "the ideal inclusion's ambient index", 1, error=DimensionTooSmall)
    integer(m, "the K-class of the ideal side")
    return K0Vector(n, (0,) * n + (m,))


# ---------------------------------------------------------------------------
# Exact integer linear algebra.  Column-style echelon reduction over Z with a
# recorded unimodular transform; each column of A is reduced stacked on the
# matching column of the identity, so one list operation moves both.  A
# matrix is reduced once, and its kernel and every A x = b are read from
# that one reduction.


def _column_echelon(rows):
    """Reduce A by unimodular column operations.

    Returns (H, U) with A @ U = H, U unimodular, and H in column echelon
    form: pivots move left, entries right of a pivot in its row are zero.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    # column c of A, then column c of the identity
    cols = [[row[c] for row in rows] + [1 if i == c else 0 for i in range(ncols)]
            for c in range(ncols)]
    pivot_col = 0
    for r in range(nrows):
        if pivot_col >= ncols:
            break
        while True:
            live = [c for c in range(pivot_col, ncols) if cols[c][r] != 0]
            if not live:
                break
            if len(live) == 1:
                c = live[0]
                cols[c], cols[pivot_col] = cols[pivot_col], cols[c]
                if cols[pivot_col][r] < 0:
                    cols[pivot_col] = [-x for x in cols[pivot_col]]
                pivot_col += 1
                break
            # Euclid on the two smallest magnitudes in this row
            live.sort(key=lambda c: abs(cols[c][r]))
            small, other = live[0], live[1]
            q = cols[other][r] // cols[small][r]
            cols[other] = [x - q * y for x, y in zip(cols[other], cols[small])]
    H = [[col[r] for col in cols] for r in range(nrows)]
    U = [[col[nrows + r] for col in cols] for r in range(ncols)]
    return H, U


def _kernel_basis(H, U):
    """Integer basis of {x : A x = 0} as column vectors, from A's reduction (H, U)."""
    return [[row[c] for row in U] for c in range(len(U)) if not any(row[c] for row in H)]


def _solve_int(H, U, b):
    """One integer solution x of A x = b from A's reduction (H, U), or None.

    Solves H y = b down the pivots, then x = U y.  A pivot column is zero
    above its pivot row, so each step updates only the rows from the
    pivot down, and a zero quotient updates none.  Each row's residue is
    zeroed or checked in its own step, so none is left over after the loop."""
    nrows, ncols = len(H), len(U)
    residue = list(b)
    y = {}  # the nonzero entries of y, by column
    col = 0
    for r in range(nrows):
        if col < ncols and H[r][col] != 0:
            q, rest = divmod(residue[r], H[r][col])
            if rest:
                return None
            if q:
                y[col] = q
                for rr in range(r, nrows):
                    residue[rr] -= q * H[rr][col]
            col += 1
        elif residue[r] != 0:
            return None
    return [sum(row[c] * q for c, q in y.items()) for row in U]


def _in_span(vectors, target):
    """Whether target lies in the integer span of the given column vectors."""
    if not vectors:
        return all(t == 0 for t in target)
    rows = [[vec[r] for vec in vectors] for r in range(len(target))]
    return _solve_int(*_column_echelon(rows), target) is not None


def check_exactness(n):
    """Verify exactness at the middle of restriction against ideal inclusion.

    Builds the matrix of nu_star from its action on the basis and reduces
    it once.  From that reduction it reads an integer kernel basis, checked
    against image(iota_star) by mutual containment, and solves for every
    target generator to check that nu_star is onto.  n = 0 has nothing to
    restrict to and passes vacuously.
    """
    from .reports import VerifyReport

    if integer(n, "ambient index", 0) == 0:
        return VerifyReport(
            check="k0-exactness",
            params={"n": 0, "applicable": False},
            passed=True,
        )

    # matrix of nu_star, columns indexed by source basis classes
    columns = [nu_star(generator(n, j)).coords for j in range(n + 1)]
    rows = [[columns[c][r] for c in range(n + 1)] for r in range(n)]

    reduced = _column_echelon(rows)
    kernel = _kernel_basis(*reduced)
    iota_gens = [list(iota_star(n, 1).coords)]

    counterexample = None
    # kernel of the restriction is contained in the ideal image
    for vec in kernel:
        if not _in_span(iota_gens, vec):
            counterexample = {"kind": "kernel-not-in-image", "vector": vec}
            break
    # the ideal image is killed by the restriction
    if counterexample is None:
        for gen in iota_gens:
            image = [sum(rows[r][c] * gen[c] for c in range(n + 1)) for r in range(n)]
            if any(image):
                counterexample = {"kind": "image-not-in-kernel", "vector": gen}
                break
    # the restriction is onto
    if counterexample is None:
        for j in range(n):
            e_j = [1 if r == j else 0 for r in range(n)]
            if _solve_int(*reduced, e_j) is None:
                counterexample = {"kind": "not-surjective", "target-level": j}
                break

    return VerifyReport(
        check="k0-exactness",
        params={"n": n, "applicable": True, "kernel_rank": len(kernel)},
        passed=counterexample is None,
        domain_size=n + 1,
        image_size=n,
        counterexample=counterexample,
    )
