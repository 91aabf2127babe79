"""Calculators for projection classes over quantum sphere algebras.

The package classifies projections over the coordinate algebras of odd
quantum spheres, together with the line bundles they induce over quantum
projective spaces, and verifies the structural statements behind the
classification:

* ``projections``  -- normal forms P[j, k], the diagonal-sum monoid, and
  the saturating counting vector that makes equivalence decidable;
* ``k_theory``     -- the free even K-group in the level basis, the
  restriction and inclusion maps, and an exact integer exactness check;
* ``line_bundles`` -- powers of the tautological bundle: binomial closed
  form, peeling recursion, tail-sum identities, K-group classes;
* ``groupoid``     -- the translation groupoid presentation, its strata,
  the structural bijections between them, and windowed exhaustive
  verification of partitions and bijections;
* ``oracle``       -- finite-dimensional truncations of the diagonal
  operator patterns, giving an independent numeric route to the counting
  vector;
* ``suite``        -- every check family bundled behind one entry point;
* ``cli``          -- the ``qproj`` command line front end.

Only ``groupoid`` and ``suite`` need numpy or a process pool, so the
groupoid names and ``run_all`` are resolved on first use: ``import
qproj`` and the calculators load neither, while ``qproj.<name>``,
``__all__`` and ``from qproj import *`` work as for any other name.
"""

import importlib

from .errors import (
    CutoffTooSmall,
    DegreeNonZero,
    DimensionMismatch,
    DimensionTooSmall,
    ExprSyntaxError,
    IndexOutOfRange,
    InvalidClass,
    NotComposable,
    NotInGroupoid,
    OutOfRange,
    QprojError,
    UnsupportedDegree,
    WrongStratum,
)
from .extnat import INF, Infinity, is_finite
from .k_theory import K0Vector, check_exactness, generator, iota_star, nu_star
from .line_bundles import (
    BundleDescriptor,
    LineBundleDecomposition,
    binomial,
    closed_form,
    hockey_stick,
    k0_class,
    recursion_expand,
)
from .oracle import DiagonalPattern, PatternStack, Truncation, encode, rho_numeric
from .projections import (
    ProjClass,
    RhoVector,
    boxplus,
    is_equivalent,
    is_stably_equivalent,
    k0_sphere_class,
    normalize,
    normalize_expression,
    parse_expression,
    rank,
    rho,
    zero_class,
)
from .reports import VerifyReport

# Name -> submodule for the names resolved on first use (PEP 562).
_LAZY = {
    **dict.fromkeys(
        ("GroupoidElement", "TElement", "Window", "canonicalize", "compose",
         "enumerate_stratum", "gamma_iso", "gamma_iso_inv", "t_iso", "theta_neg",
         "theta_peel", "theta_shift", "theta_terminal", "verify_bijection",
         "verify_partition", "verify_terminal_counts"),
        "groupoid"),
    "run_all": "suite",
}

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Infinity",
    "is_finite",
    "QprojError",
    "InvalidClass",
    "DimensionMismatch",
    "DimensionTooSmall",
    "IndexOutOfRange",
    "OutOfRange",
    "UnsupportedDegree",
    "ExprSyntaxError",
    "NotInGroupoid",
    "NotComposable",
    "DegreeNonZero",
    "WrongStratum",
    "CutoffTooSmall",
    "ProjClass",
    "RhoVector",
    "zero_class",
    "boxplus",
    "normalize",
    "rho",
    "rank",
    "k0_sphere_class",
    "is_equivalent",
    "is_stably_equivalent",
    "parse_expression",
    "normalize_expression",
    "K0Vector",
    "generator",
    "nu_star",
    "iota_star",
    "check_exactness",
    "binomial",
    "BundleDescriptor",
    "LineBundleDecomposition",
    "closed_form",
    "recursion_expand",
    "hockey_stick",
    "k0_class",
    "GroupoidElement",
    "TElement",
    "Window",
    "canonicalize",
    "compose",
    "gamma_iso",
    "gamma_iso_inv",
    "t_iso",
    "theta_neg",
    "theta_shift",
    "theta_peel",
    "theta_terminal",
    "enumerate_stratum",
    "verify_bijection",
    "verify_partition",
    "verify_terminal_counts",
    "Truncation",
    "DiagonalPattern",
    "PatternStack",
    "encode",
    "rho_numeric",
    "VerifyReport",
    "run_all",
    "__version__",
]


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY.values():
        # `qproj.groupoid` and `qproj.suite`, which `import qproj` no longer loads
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
