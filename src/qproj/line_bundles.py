"""Line bundle classes over quantum projective spaces.

The degree-k line bundle over the quantum projective n-space, viewed as
a finitely generated projective module, decomposes into the standard
projection stock.  Non-positive degrees are a single corner projection:
the identity with the first |k| basis states of the first tensor axis
removed (|k| = 0 meaning the identity itself).  Positive degrees spread
out over all levels with binomial multiplicities:

    mult[j] = C(k + j - 1, j)   for levels j = 0..n.

The closed form is reproduced independently by a peeling recursion that
strips one unit of degree at a time:

    (k, j)  ->  (0, j)  +  sum over l = 1..k of (l, j + 1)

with every stratum at the deepest level collapsing to a single terminal
class.  ``recursion_expand`` fills the strata (1..k, j) level by level,
from the deepest level up, with running sums and no binomial; it keeps no
state between calls.  The tail sums that make the two agree are
hockey-stick binomial identities, checked exactly by ``hockey_stick``.

>>> closed_form(2, 2).mult
(1, 2, 3)
>>> recursion_expand(2, 2) == closed_form(2, 2)
True
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidClass, OutOfRange, UnsupportedDegree, Value, integer

__all__ = [
    "binomial",
    "LineBundleDecomposition",
    "closed_form",
    "recursion_expand",
    "hockey_stick",
    "HockeyStickResult",
    "k0_class",
]


def binomial(k, j):
    """Exact binomial coefficient C(k, j) = k! / (j! (k-j)!), arbitrary size."""
    k = integer(k, "binomial k", error=OutOfRange)
    return math.comb(k, integer(j, "binomial index j", 0, k, OutOfRange))


class LineBundleDecomposition(Value):
    """Decomposition of the degree-k line bundle into the projection stock.

    For k <= 0 it is a single corner projection of depth m = -k (m = 0
    meaning the identity) and ``mult`` is None; for k >= 1 it is a multiset
    of level classes, ``mult`` giving one multiplicity per level 0..n.
    """

    __slots__ = ("n", "k", "mult")

    def __init__(self, n, k, mult=None):
        n = integer(n, "ambient index", 1)
        if (integer(k, "degree") <= 0) != (mult is None):
            raise InvalidClass("a degree k <= 0 has no multiplicities, and k >= 1 needs "
                               f"them; got k={k}, mult={mult!r}")
        if mult is not None:
            mult = tuple(mult)
            if len(mult) != n + 1:
                raise InvalidClass(f"need {n + 1} multiplicities over n={n}, got {len(mult)}")
            for c in mult:
                integer(c, "multiplicity", 0)
        self._store("n", n)
        self._store("k", k)
        self._store("mult", mult)

    @property
    def kind(self):
        return "corner" if self.k <= 0 else "multiset"

    @property
    def m(self):
        """The corner depth -k, or None for a multiset."""
        return -self.k if self.k <= 0 else None

    def total_classes(self):
        """Number of elementary summands in the decomposition."""
        return 1 if self.mult is None else sum(self.mult)

    def to_json(self):
        fields = {"m": self.m} if self.mult is None else {"mult": list(self.mult)}
        return {"n": self.n, "k": self.k, "kind": self.kind, **fields}


def _check_bundle_args(n, k):
    integer(n, "ambient index", 1, error=OutOfRange)
    integer(k, "degree", error=OutOfRange)


def closed_form(n, k):
    """Decomposition of the degree-k bundle over the projective n-space.

    Degrees k <= 0 give the corner projection of depth |k|; positive
    degrees give the binomial multiset.
    """
    _check_bundle_args(n, k)
    if k <= 0:
        return LineBundleDecomposition(n, k)
    return LineBundleDecomposition(n, k, [binomial(k + j - 1, j) for j in range(n + 1)])


def recursion_expand(n, k):
    """Expand the degree-k bundle by repeated peeling; k >= 1 required.

    Agrees with the binomial closed form; the agreement is exactly the
    family of hockey-stick identities.
    """
    _check_bundle_args(n, k)
    if k < 1:
        raise OutOfRange(f"the peeling recursion starts at degree >= 1, got {k}")
    # strata[l - 1] counts the terminal classes reached from stratum (l, j),
    # for l = 1..k, filled from the deepest level j = n up to j = 0
    strata = [[0] * n + [1]] * k
    for j in reversed(range(n)):
        # (l, j) -> (0, j) + (1, j + 1) + ... + (l, j + 1), a running sum
        running = [1 if i == j else 0 for i in range(n + 1)]
        strata = [running := [a + b for a, b in zip(running, below)] for below in strata]
    return LineBundleDecomposition(n, k, strata[-1])


HockeyStickResult = namedtuple("HockeyStickResult", "lhs rhs equal")


def hockey_stick(l, k):
    """Exact check of the tail-sum binomial identity and all its shifts.

    The base identity is

        sum over m = 1..k of C(k - m + l - 2, l - 2)  ==  C(k + l - 2, l - 1)

    and for every starting point 1 <= i <= k the shifted tail satisfies

        sum over m = i..k of C(k - m + l - 2, l - 2)  ==  C(k - i + l - 1, l - 1).

    Returns the base (lhs, rhs) and whether base and all shifts hold.

    >>> hockey_stick(3, 4)
    HockeyStickResult(lhs=10, rhs=10, equal=True)
    """
    integer(l, "hockey-stick l", 2, error=OutOfRange)
    integer(k, "hockey-stick k", 1, error=OutOfRange)
    # one running sum from m = k down: after adding term i it is the tail
    # from i, and the tail from 1 is the base sum
    tail, equal = 0, True
    for i in range(k, 0, -1):
        tail += binomial(k - i + l - 2, l - 2)
        closed = binomial(k - i + l - 1, l - 1)
        equal = equal and tail == closed
    return HockeyStickResult(tail, closed, equal)


def k0_class(n, k):
    """Even K-class of the degree-k bundle in the level basis, for k >= -1.

    Its level-j coordinate is c_j(k) = k(k+1)...(k+j-1) / j!.  For k >= 1
    that is the binomial multiplicity C(k + j - 1, j); it gives the
    identity at k = 0 and the alternating corner class at k = -1.  Deeper
    negative degrees involve composite corner projections with no
    expansion in the level basis here, so they are rejected.

    >>> [k0_class(3, k).coords for k in (2, 0, -1)]
    [(1, 2, 3, 4), (1, 0, 0, 0), (1, -1, 0, 0)]
    """
    from .k_theory import K0Vector
    _check_bundle_args(n, k)
    if k <= -2:
        raise UnsupportedDegree(
            f"no level-basis expansion is provided for degree {k} <= -2"
        )
    # c_{j+1} = c_j (k + j) / (j + 1), an exact division at every step
    coords = [1]
    for j in range(n):
        coords.append(coords[-1] * (k + j) // (j + 1))
    return K0Vector(n, coords)
