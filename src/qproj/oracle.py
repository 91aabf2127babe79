"""Numeric cross-checks with truncated diagonal operators.

Every projection class has a diagonal representative on a tensor power of
l2(Z>=0): each tensor axis carries the identity, the rank-m cutoff P(m)
(ones on the first m basis states), or its complement Pc(m) = 1 - P(m).
The level-j multiplicity-k class corresponds to j - 1 axes of P(1), one
axis of P(k) and identity on the rest; level 0 stacks k copies of the
identity pattern.

Truncating every axis to the first N basis states turns rank into lattice
point counting, so the truncated rank of a pattern is a product

    copies * prod over axes of  (N | min(m, N) | max(N - m, 0)).

The face restriction evaluates the last axis at the boundary point at
infinity: identity and complement axes survive (the axis is dropped),
a finite cutoff axis annihilates the whole pattern.  Comparing truncated
ranks at two growing cutoffs separates finite limit ranks from infinite
ones once the cutoffs reach every factor's depth (a deeper factor is
refused); iterating faces then reproduces the symbolic counting vector
level by level.

>>> from .projections import ProjClass
>>> p = encode(ProjClass(2, 1, 2))
>>> rank_at(p, 5)
10
>>> rho_numeric(p)
RhoVector((0, 2, inf))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import CutoffTooSmall, DimensionMismatch, DimensionTooSmall, InvalidClass, OutOfRange
from .extnat import INF
from .projections import ProjClass, RhoVector

__all__ = [
    "IDENTITY",
    "cutoff",
    "complement",
    "DiagonalPattern",
    "PatternStack",
    "Truncation",
    "encode",
    "rank_at",
    "face",
    "boxplus_patterns",
    "rho_numeric",
]

# Axis factors are tagged tuples: ("I",), ("P", m) or ("Pc", m) with m >= 1.
IDENTITY = ("I",)


def cutoff(m):
    """The rank-m diagonal cutoff factor P(m)."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise InvalidClass(f"cutoff rank must be an integer >= 1, got {m!r}")
    return ("P", m)


def complement(m):
    """The complement factor 1 - P(m)."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise InvalidClass(f"complement depth must be an integer >= 1, got {m!r}")
    return ("Pc", m)


def _check_factor(f):
    if f == IDENTITY:
        return
    if (
        isinstance(f, tuple)
        and len(f) == 2
        and f[0] in ("P", "Pc")
        and isinstance(f[1], int)
        and not isinstance(f[1], bool)
        and f[1] >= 1
    ):
        return
    raise InvalidClass(f"bad axis factor {f!r}")


@dataclass(frozen=True)
class Truncation:
    """Cutoff parameter: keep the first N basis states on every axis."""

    N: int

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, int) or self.N < 1:
            raise OutOfRange(f"truncation cutoff must be an integer >= 1, got {self.N!r}")


@dataclass(frozen=True)
class DiagonalPattern:
    """A diagonal projection on ``copies`` stacked tensor powers.

    ``factors`` lists one axis factor per tensor slot; ``copies`` is the
    number of identical layers stacked diagonally, with 0 meaning the
    zero (annihilated) pattern.
    """

    n: int
    factors: tuple
    copies: int = 1

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise InvalidClass(f"axis count must be an integer >= 0, got {self.n!r}")
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if len(factors) != self.n:
            raise DimensionMismatch(
                f"expected {self.n} axis factors, got {len(factors)}"
            )
        for f in factors:
            _check_factor(f)
        if isinstance(self.copies, bool) or not isinstance(self.copies, int) or self.copies < 0:
            raise InvalidClass(f"copies must be an integer >= 0, got {self.copies!r}")

    @property
    def is_annihilated(self):
        return self.copies == 0

    def to_json(self):
        encoded = []
        for f in self.factors:
            if f == IDENTITY:
                encoded.append("I")
            else:
                encoded.append({f[0]: f[1]})
        return {"n": self.n, "factors": encoded, "copies": self.copies}

    @classmethod
    def from_json(cls, obj):
        factors = []
        for f in obj.get("factors", ()):
            if f == "I":
                factors.append(IDENTITY)
            elif isinstance(f, dict) and len(f) == 1:
                tag, m = next(iter(f.items()))
                factors.append((tag, m))
            else:
                raise InvalidClass(f"bad serialized factor {f!r}")
        return cls(n=obj["n"], factors=tuple(factors), copies=obj.get("copies", 1))


@dataclass(frozen=True)
class PatternStack:
    """A formal diagonal sum of patterns over the same axis count."""

    patterns: tuple

    def __post_init__(self):
        patterns = tuple(self.patterns)
        object.__setattr__(self, "patterns", patterns)
        if not patterns:
            raise InvalidClass("a stack needs at least one pattern")
        for p in patterns:
            if not isinstance(p, DiagonalPattern):
                raise InvalidClass(f"stacks hold diagonal patterns, got {p!r}")
        first = patterns[0].n
        for p in patterns[1:]:
            if p.n != first:
                raise DimensionMismatch("stacked patterns must share the axis count")

    @property
    def n(self):
        return self.patterns[0].n

    def to_json(self):
        return {"stack": [p.to_json() for p in self.patterns]}


def encode(p):
    """Diagonal pattern of a projection class in normal form."""
    if not isinstance(p, ProjClass):
        raise InvalidClass("encode is defined on projection classes")
    if p.is_zero:
        return DiagonalPattern(n=p.n, factors=(IDENTITY,) * p.n, copies=0)
    if p.j == 0:
        return DiagonalPattern(n=p.n, factors=(IDENTITY,) * p.n, copies=p.k)
    factors = (cutoff(1),) * (p.j - 1) + (cutoff(p.k),) + (IDENTITY,) * (p.n - p.j)
    return DiagonalPattern(n=p.n, factors=factors, copies=1)


def _layers(pattern_or_stack):
    if isinstance(pattern_or_stack, DiagonalPattern):
        return (pattern_or_stack,)
    if isinstance(pattern_or_stack, PatternStack):
        return pattern_or_stack.patterns
    raise InvalidClass(f"expected a pattern or a stack, got {pattern_or_stack!r}")


def _cutoff_value(N):
    if isinstance(N, Truncation):
        return N.N
    Truncation(N)  # validates
    return N


def rank_at(pattern_or_stack, N):
    """Rank of the pattern truncated to the first N states on every axis."""
    N = _cutoff_value(N)
    total = 0
    for layer in _layers(pattern_or_stack):
        r = layer.copies
        for f in layer.factors:
            if f == IDENTITY:
                r *= N
            elif f[0] == "P":
                r *= min(f[1], N)
            else:
                r *= max(N - f[1], 0)
        total += r
    return total


def _face_one(layer):
    if layer.n < 1:
        raise DimensionTooSmall("no axis left to restrict")
    last = layer.factors[-1]
    if last != IDENTITY and last[0] == "P":
        # a finite cutoff vanishes at the boundary: the pattern dies
        return DiagonalPattern(n=layer.n - 1, factors=layer.factors[:-1], copies=0)
    return DiagonalPattern(n=layer.n - 1, factors=layer.factors[:-1], copies=layer.copies)


def face(pattern_or_stack):
    """Restrict to the boundary of the last axis, dropping that axis."""
    if isinstance(pattern_or_stack, DiagonalPattern):
        return _face_one(pattern_or_stack)
    return PatternStack(tuple(_face_one(p) for p in _layers(pattern_or_stack)))


def boxplus_patterns(a, b):
    """Formal diagonal sum: rank_at and rho_numeric are additive over it."""
    layers = _layers(a) + _layers(b)
    if len({p.n for p in layers}) > 1:
        raise DimensionMismatch("summed patterns must share the axis count")
    return PatternStack(layers)


def rho_numeric(pattern_or_stack, n1=8, n2=16, guard=None):
    """Counting vector computed from truncated ranks alone.

    Level l uses n - l face restrictions, then compares ranks at the two
    cutoffs: agreement means the finite limit rank, growth means
    infinity.  Once every cutoff is at least the depth m of every factor
    of a live layer, each layer's truncated rank is a constant or grows
    strictly with N, so the comparison is exact; a deeper factor raises
    CutoffTooSmall instead of being misread.  Faces only drop factors, so
    checking the pattern once covers every level.  A rank that agrees at
    the two cutoffs is then the same at every larger one, so no further
    cutoff is consulted; the guard (default 2 * n2) is still validated and
    must exceed n2.
    """
    n1 = _cutoff_value(n1)
    n2 = _cutoff_value(n2)
    if n1 >= n2:
        raise OutOfRange(f"cutoffs must increase, got {n1} >= {n2}")
    guard = 2 * n2 if guard is None else _cutoff_value(guard)
    if guard <= n2:
        raise OutOfRange(f"guard cutoff must exceed {n2}, got {guard}")

    layers = _layers(pattern_or_stack)
    depth = max((f[1] for layer in layers if layer.copies
                 for f in layer.factors if f != IDENTITY), default=0)
    if depth > n1:
        raise CutoffTooSmall(
            f"a factor of depth {depth} exceeds the first cutoff {n1}; raise the cutoffs"
        )
    n = layers[0].n
    entries = [None] * (n + 1)
    current = pattern_or_stack
    for level in range(n, -1, -1):
        r1 = rank_at(current, n1)
        entries[level] = r1 if r1 == rank_at(current, n2) else INF
        if level > 0:
            current = face(current)
    return RhoVector(entries)
