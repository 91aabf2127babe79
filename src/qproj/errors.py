"""Error types raised by the calculator modules, the one integer check, and
the base of the immutable value classes."""

from __future__ import annotations

import operator


class QprojError(Exception):
    """Base class for all package-specific errors."""


class InvalidClass(QprojError, ValueError):
    """Projection-class data outside the accepted normal forms."""


class DimensionMismatch(QprojError, ValueError):
    """Operands live over different ambient indices or vector lengths."""


class IndexOutOfRange(QprojError, ValueError):
    """A basis or level index outside 0..n."""


class DimensionTooSmall(QprojError, ValueError):
    """The requested restriction needs a strictly positive ambient index."""


class OutOfRange(QprojError, ValueError):
    """A numeric argument outside the domain of a combinatorial operation."""


class UnsupportedDegree(QprojError, ValueError):
    """A line-bundle degree for which no class formula is provided."""


class ExprSyntaxError(QprojError, ValueError):
    """Malformed diagonal-sum expression text."""


class NotInGroupoid(QprojError, ValueError):
    """A triple that fails the membership constraints of its groupoid."""


class NotComposable(QprojError, ValueError):
    """Source and target units do not match up for composition."""


class DegreeNonZero(QprojError, ValueError):
    """An operation defined only on the degree-zero part."""


class WrongStratum(QprojError, ValueError):
    """An element outside the stratum a structural map is defined on."""


class CutoffTooSmall(QprojError, ArithmeticError):
    """Cutoffs too small to read a pattern's truncated ranks exactly."""


def integer(value, what, lo=None, hi=None, error=InvalidClass):
    """``value`` if it is an int, not a bool, within lo..hi; else raise ``error``.

    >>> integer(3, "level", 0, 2)
    Traceback (most recent call last):
        ...
    qproj.errors.InvalidClass: level must be an integer in 0..2, got 3
    """
    if ((type(value) is int or isinstance(value, int) and not isinstance(value, bool))
            and (lo is None or lo <= value) and (hi is None or value <= hi)):
        return value
    if lo is None:
        bounds = "" if hi is None else f" <= {hi}"
    else:
        bounds = f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise error(f"{what} must be an integer{bounds}, got {value!r}")


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in ``__slots__``, in the order its
    constructor takes them, each constructor parameter named as its field.
    Its ``__init__`` checks and normalizes the arguments and stores each
    field with ``self._store(name, value)``, the one way past the refusing
    ``__setattr__``.  So every value is built by its own validating
    constructor: directly, by ``replace`` and by unpickling or copying
    (``__reduce__``).  Two values are equal when they are of the same class
    with equal fields, and the hash follows the fields.

    >>> class Pair(Value):
    ...     __slots__ = ("a", "b")
    ...     def __init__(self, a, b=0):
    ...         self._store("a", integer(a, "a"))
    ...         self._store("b", integer(b, "b"))
    >>> Pair(1).replace(b=2)
    Pair(a=1, b=2)
    >>> Pair(1).a = 3
    Traceback (most recent call last):
        ...
    AttributeError: Pair is immutable: cannot set 'a'
    """

    __slots__ = ()
    _store = object.__setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields in one C call, for the comparisons of the hot loops; a
        # single field is returned bare
        cls._key = operator.attrgetter(*cls.__slots__)

    def _fields(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(self._fields().values())

    def replace(self, **changes):
        """A copy with the given fields changed, checked by the constructor."""
        return type(self)(**{**self._fields(), **changes})
