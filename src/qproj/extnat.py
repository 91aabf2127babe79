"""Extended natural numbers: non-negative integers with an absorbing infinity.

The counting invariants in this package take values in Z>=0 together with
a single point at infinity.  Addition saturates: inf + t = inf for every t,
including negative translation amounts.  The point at infinity is a tagged
object, never an integer sentinel, so a finite count can never be mistaken
for an infinite one.
"""

from __future__ import annotations

import functools

__all__ = ["INF", "Infinity", "is_finite", "ext_to_json"]


@functools.total_ordering
class Infinity:
    """The absorbing point adjoined to the non-negative integers.

    A single shared instance ``INF`` is created at import time.  Arithmetic
    with ints works from either side and always returns ``INF``; comparisons
    place it strictly above every integer.

    >>> INF + 7
    inf
    >>> 7 + INF
    inf
    >>> INF > 10**100
    True
    >>> INF == INF
    True
    """

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    # Saturating addition; subtraction is deliberately not defined.
    def __add__(self, other):
        if isinstance(other, (int, Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash(("qproj", "inf"))

    def __lt__(self, other):
        if isinstance(other, (int, Infinity)):
            return False
        return NotImplemented

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        # keeps the singleton property across pickling
        return (Infinity, ())


INF = Infinity()


def is_finite(value):
    """True for plain integers, False for the point at infinity."""
    return not isinstance(value, Infinity)


def ext_to_json(value):
    """Serialize an extended natural: an int stays an int, INF becomes "inf"."""
    if isinstance(value, Infinity):
        return "inf"
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an extended natural: {value!r}")
    return value

