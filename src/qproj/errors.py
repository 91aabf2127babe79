"""Error types raised by the calculator modules."""

from __future__ import annotations


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
    """Truncation cutoffs too small to read a pattern's ranks exactly."""
