"""Projection classes over quantum odd-dimensional sphere algebras.

Up to equivalence, the projections over the coordinate algebra of the
quantum (2n+1)-sphere form a very small stock of normal forms P[j, k]:
an ambient index n >= 0, a level j in 0..n, and a multiplicity k >= 1,
together with the zero class P[0, 0].  Levels j >= 1 are the compact
directions: they die in K-theory but are still mutually inequivalent.

The diagonal sum (+) of two projections stays in the stock, making the
classes a commutative monoid:

* the zero class is the identity,
* P[j, k] (+) P[j, k']  =  P[j, k + k'],
* P[j, k] (+) P[j', k'] =  P[j, k]   whenever 0 <= j < j' (absorption).

Absorption is what breaks cancellation: adding a rank-one free class to
two different compact classes gives the same sum.  The counting vector
``rho`` repairs the bookkeeping.  Its entry at level l is

    rho_l(P[j, k]) = 0    if j > l,
                     k    if j = l,
                     inf  if j < l,

and the all-zero vector for the zero class.  Entrywise saturating
addition makes ``rho`` an injective monoid homomorphism, so equality of
rho vectors decides equivalence and the absorption rule becomes ordinary
arithmetic with an absorbing infinity.

>>> a = ProjClass(3, 1, 2)
>>> b = ProjClass(3, 2, 5)
>>> boxplus(a, b)
ProjClass(n=3, j=1, k=2)
>>> rho(a) + rho(b) == rho(boxplus(a, b))
True
"""

from __future__ import annotations

import operator
import re
from .errors import DimensionMismatch, ExprSyntaxError, InvalidClass, Value, integer
from .extnat import INF, ext_to_json, is_finite

__all__ = [
    "ProjClass",
    "RhoVector",
    "zero_class",
    "boxplus",
    "normalize",
    "rho",
    "rank",
    "is_equivalent",
    "is_stably_equivalent",
    "parse_expression",
    "normalize_expression",
]


class ProjClass(Value):
    """Normal form of a projection class: ambient n, level j, multiplicity k.

    Instances are immutable value objects.  The zero class is spelled
    (j, k) = (0, 0); a zero multiplicity at a level j >= 1 is rejected
    instead of silently collapsed, so every class has exactly one
    accepted spelling.

    >>> ProjClass(2, 1, 3)
    ProjClass(n=2, j=1, k=3)
    >>> ProjClass(2, 3, 1)
    Traceback (most recent call last):
        ...
    qproj.errors.InvalidClass: level j=3 outside 0..2
    """

    __slots__ = ("n", "j", "k")

    def __init__(self, n, j, k):
        # a normal form of exact ints in one test; anything else is accepted
        # or refused by the checks below
        if not (type(n) is int and type(j) is int and type(k) is int
                and 0 <= j <= n and (k >= 1 or j == k == 0)):
            n = integer(n, "ambient index n", 0)
            j = integer(j, "level j")
            if not 0 <= j <= n:
                raise InvalidClass(f"level j={j} outside 0..{n}")
            if integer(k, "multiplicity k", 0) == 0 and j != 0:
                raise InvalidClass(
                    f"P[{j},0] is not a normal form; the zero class is P[0,0]"
                )
        self._store("n", n)
        self._store("j", j)
        self._store("k", k)

    @property
    def is_zero(self):
        return self.k == 0

    def __str__(self):
        return f"P[{self.j},{self.k}]"

    def to_json(self):
        return {"n": self.n, "j": self.j, "k": self.k}


class RhoVector(Value):
    """Counting vector indexed by levels 0..n, entries in Z>=0 or inf.

    Addition is entrywise and saturates at infinity, mirroring the
    diagonal sum of projections.

    >>> RhoVector((0, 2, INF)) + RhoVector((0, 0, 5))
    RhoVector((0, 2, inf))
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        if type(entries) is not tuple:
            entries = tuple(entries)
        if not entries:
            raise DimensionMismatch("a counting vector needs at least one level")
        for e in entries:
            if e is INF or type(e) is int and e >= 0:  # the common entries
                continue
            if is_finite(e):
                integer(e, "finite counting entry", 0)
        self._store("entries", entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __add__(self, other):
        if not isinstance(other, RhoVector):
            return NotImplemented
        if len(self.entries) != len(other.entries):
            raise DimensionMismatch(
                f"cannot add counting vectors of lengths "
                f"{len(self.entries)} and {len(other.entries)}"
            )
        return RhoVector(tuple(map(operator.add, self.entries, other.entries)))

    def __repr__(self):
        return f"RhoVector(({', '.join(repr(e) for e in self.entries)}))"

    def to_json(self):
        return [ext_to_json(e) for e in self.entries]


def zero_class(n):
    """The identity of the diagonal-sum monoid over ambient index n."""
    return ProjClass(n, 0, 0)


def boxplus(a, b):
    """Diagonal sum of two classes in normal form.

    Absorption sends the pair to the operand with the smaller level when
    the levels differ; equal levels add multiplicities; the zero class
    is neutral.
    """
    if not isinstance(a, ProjClass) or not isinstance(b, ProjClass):
        raise InvalidClass("boxplus needs two projection classes")
    if a.n != b.n:
        raise DimensionMismatch(f"ambient indices differ: {a.n} vs {b.n}")
    if not a.k:
        return b
    if not b.k:
        return a
    if a.j == b.j:
        return ProjClass(a.n, a.j, a.k + b.k)
    # absorption: the lower level swallows the higher one
    return a if a.j < b.j else b


def normalize(classes, n=None):
    """Fold a sequence of classes with boxplus into a single normal form.

    The empty fold is the zero class; its ambient index must then be
    supplied explicitly.
    """
    classes = list(classes)
    if not classes:
        if n is None:
            raise DimensionMismatch("empty sum needs an explicit ambient index")
        return zero_class(n)
    if n is not None and classes[0].n != n:
        raise DimensionMismatch(
            f"expression is over n={classes[0].n}, requested n={n}"
        )
    acc = classes[0]
    for item in classes[1:]:
        acc = boxplus(acc, item)
    return acc


def rho(p):
    """Counting vector of a class: 0 below its level, k at it, inf above.

    The zero class counts zero at every level.

    >>> rho(ProjClass(3, 2, 3))
    RhoVector((0, 0, 3, inf))
    """
    if not isinstance(p, ProjClass):
        raise InvalidClass("rho is defined on projection classes")
    if p.is_zero:
        return RhoVector((0,) * (p.n + 1))
    entries = []
    for level in range(p.n + 1):
        if p.j > level:
            entries.append(0)
        elif p.j == level:
            entries.append(p.k)
        else:
            entries.append(INF)
    return RhoVector(entries)


def rank(p):
    """Free rank of a class: k at level 0, otherwise 0.

    This is also the class in the even K-group of the sphere algebra: that
    group is free of rank one, generated by the identity, and every level
    j >= 1 class vanishes in it.
    """
    if not isinstance(p, ProjClass):
        raise InvalidClass("rank is defined on projection classes")
    return p.k if p.j == 0 else 0


def is_equivalent(a, b):
    """Murray-von Neumann equivalence: identical classification data."""
    if a.n != b.n:
        raise DimensionMismatch(f"ambient indices differ: {a.n} vs {b.n}")
    return (a.j, a.k) == (b.j, b.k)


def is_stably_equivalent(a, b):
    """Stable equivalence: the same class in the even K-group."""
    if a.n != b.n:
        raise DimensionMismatch(f"ambient indices differ: {a.n} vs {b.n}")
    return rank(a) == rank(b)


_TERM = re.compile(r"P\[(\d+),(\d+)\]\Z")


def parse_expression(text, n):
    """Parse ``P[j,k] (+) P[j,k] (+) ...`` into classes over ambient n.

    Whitespace is insignificant anywhere in the expression.

    >>> parse_expression("P[3,1] (+) P[1,2]", 3)
    [ProjClass(n=3, j=3, k=1), ProjClass(n=3, j=1, k=2)]
    """
    if not isinstance(text, str):
        raise ExprSyntaxError("expression must be a string")
    compact = "".join(text.split())
    if not compact:
        raise ExprSyntaxError("empty expression")
    terms = compact.split("(+)")
    classes = []
    for term in terms:
        m = _TERM.match(term)
        if m is None:
            raise ExprSyntaxError(f"bad term {term!r}, expected P[j,k]")
        classes.append(ProjClass(n, int(m.group(1)), int(m.group(2))))
    return classes


def normalize_expression(text, n):
    """Parse an expression and fold it to a single normal form."""
    return normalize(parse_expression(text, n), n=n)
