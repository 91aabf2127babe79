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

from dataclasses import dataclass

from .errors import DimensionMismatch, DimensionTooSmall, IndexOutOfRange, InvalidClass
from .reports import VerifyReport

__all__ = [
    "K0Vector",
    "generator",
    "nu_star",
    "iota_star",
    "check_exactness",
]


@dataclass(frozen=True)
class K0Vector:
    """Element of the even K-group of the projective n-space, in coordinates.

    ``coords`` has length n + 1, one integer per level 0..n.

    >>> K0Vector(2, (1, -1, 0)) + K0Vector(2, (0, 1, 3))
    K0Vector(n=2, coords=(1, 0, 3))
    """

    n: int
    coords: tuple

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InvalidClass(f"ambient index must be an integer >= 0, got {n!r}")
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != n + 1:
            raise DimensionMismatch(
                f"need {n + 1} coordinates over n={n}, got {len(coords)}"
            )
        for c in coords:
            if isinstance(c, bool) or not isinstance(c, int):
                raise InvalidClass(f"coordinates must be integers, got {c!r}")

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

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(obj["n"], tuple(obj["coords"]))
        except (KeyError, TypeError) as exc:
            raise InvalidClass(f"malformed vector record: {obj!r}") from exc


def generator(n, j):
    """The level-j basis class of the even K-group over n."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidClass(f"ambient index must be an integer >= 0, got {n!r}")
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j <= n:
        raise IndexOutOfRange(f"level j={j!r} outside 0..{n}")
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DimensionTooSmall(f"the ideal inclusion needs n >= 1, got {n!r}")
    if isinstance(m, bool) or not isinstance(m, int):
        raise InvalidClass(f"the K-class of the ideal side is an integer, got {m!r}")
    return K0Vector(n, (0,) * n + (m,))


# ---------------------------------------------------------------------------
# Exact integer linear algebra.  Column-style echelon reduction over Z with a
# recorded unimodular transform; enough to compute kernels and solve A x = b
# for integer x on the small matrices that occur here.


def _column_echelon(rows):
    """Reduce A by unimodular column operations.

    Returns (H, U) with A @ U = H, U unimodular, and H in column echelon
    form: pivots move left, entries right of a pivot in its row are zero.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_sub(dst, src, q):
        # column dst -= q * column src, in both H and U
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
            # Euclid on the two smallest magnitudes in this row
            live.sort(key=lambda c: abs(H[r][c]))
            small, other = live[0], live[1]
            q = H[r][other] // H[r][small]
            col_sub(other, small, q)
    return H, U


def _kernel_basis(rows):
    """Integer basis of {x : A x = 0} as a list of column vectors."""
    H, U = _column_echelon(rows)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    basis = []
    for c in range(ncols):
        if all(H[r][c] == 0 for r in range(nrows)):
            basis.append([U[r][c] for r in range(ncols)])
    return basis


def _solve_int(rows, b):
    """One integer solution x of A x = b, or None if none exists."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    H, U = _column_echelon(rows)
    residue = list(b)
    y = [0] * ncols
    col = 0
    for r in range(nrows):
        if col < ncols and H[r][col] != 0:
            if residue[r] % H[r][col] != 0:
                return None
            q = residue[r] // H[r][col]
            y[col] = q
            for rr in range(nrows):
                residue[rr] -= q * H[rr][col]
            col += 1
        elif residue[r] != 0:
            return None
    if any(residue):
        return None
    return [sum(U[i][c] * y[c] for c in range(ncols)) for i in range(ncols)]


def _in_span(vectors, target):
    """Whether target lies in the integer span of the given column vectors."""
    if not vectors:
        return all(t == 0 for t in target)
    rows = [[vec[r] for vec in vectors] for r in range(len(target))]
    return _solve_int(rows, target) is not None


def check_exactness(n):
    """Verify exactness at the middle of restriction against ideal inclusion.

    Builds the matrix of nu_star from its action on the basis, computes an
    integer kernel basis, and checks kernel = image(iota_star) by mutual
    containment, plus surjectivity of nu_star by solving for every target
    generator.  n = 0 has nothing to restrict to and passes vacuously.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidClass(f"ambient index must be an integer >= 0, got {n!r}")
    if n == 0:
        return VerifyReport(
            check="k0-exactness",
            params={"n": 0, "applicable": False},
            passed=True,
        )

    # matrix of nu_star, columns indexed by source basis classes
    columns = [nu_star(generator(n, j)).coords for j in range(n + 1)]
    rows = [[columns[c][r] for c in range(n + 1)] for r in range(n)]

    kernel = _kernel_basis(rows)
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
            if _solve_int(rows, e_j) is None:
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
