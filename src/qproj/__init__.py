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

Every public name is resolved on first use (PEP 562), from the one table
below of the names each submodule exports: ``import qproj`` loads no
submodule, so the calculators load neither the oracle nor the groupoid
engine, while ``qproj.<name>``, ``__all__`` and ``from qproj import *``
work as for an eagerly imported name.  No submodule imports numpy.
"""

import importlib

# Submodule -> the public names it exports; each public name is listed once.
_EXPORTS = {
    "extnat": ("INF", "Infinity", "is_finite"),
    "errors": ("QprojError", "InvalidClass", "DimensionMismatch", "DimensionTooSmall",
               "IndexOutOfRange", "OutOfRange", "UnsupportedDegree", "ExprSyntaxError",
               "NotInGroupoid", "NotComposable", "DegreeNonZero", "WrongStratum",
               "CutoffTooSmall"),
    "projections": ("ProjClass", "RhoVector", "zero_class", "boxplus", "normalize", "rho",
                    "rank", "is_equivalent", "is_stably_equivalent", "parse_expression",
                    "normalize_expression"),
    "k_theory": ("K0Vector", "generator", "nu_star", "iota_star", "check_exactness"),
    "line_bundles": ("binomial", "LineBundleDecomposition", "closed_form",
                     "recursion_expand", "hockey_stick", "k0_class"),
    "groupoid": ("GroupoidElement", "TElement", "canonicalize", "compose",
                 "gamma_iso", "gamma_iso_inv", "t_iso", "theta_neg", "theta_shift",
                 "theta_peel", "theta_terminal", "enumerate_stratum", "verify_bijection",
                 "verify_partition", "verify_terminal_counts"),
    "oracle": ("DiagonalPattern", "PatternStack", "encode", "rho_numeric"),
    "reports": ("VerifyReport",),
    "suite": ("run_all",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
