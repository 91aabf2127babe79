"""Every integer argument refuses a bool, a float and an out-of-range int
with its own error class."""

import pytest

from qproj import groupoid, k_theory, line_bundles, oracle, projections, suite
from qproj.errors import (
    DimensionTooSmall,
    IndexOutOfRange,
    InvalidClass,
    NotInGroupoid,
    OutOfRange,
    UnsupportedDegree,
    WrongStratum,
)
from qproj.extnat import INF

G = groupoid.canonicalize(2, 2, (0, 1), (1, 3))
PATTERN = oracle.encode(projections.ProjClass(2, 1, 2))
STACK = oracle.boxplus_patterns(PATTERN, oracle.encode(projections.ProjClass(2, 0, 1)))

# name: (call of the argument, an out-of-range int or None when the argument
# has no bound, the error class for a non-integer, the one for that int)
SITES = {
    "canonicalize degree": (lambda v: groupoid.canonicalize(1, v, (0,), (0,)),
                            None, InvalidClass, None),
    "canonicalize offset": (lambda v: groupoid.canonicalize(1, 0, (v,), (5,)),
                            None, InvalidClass, None),
    "canonicalize source": (lambda v: groupoid.canonicalize(1, 0, (0,), (v,)),
                            -1, InvalidClass, NotInGroupoid),
    "element n": (lambda v: groupoid.GroupoidElement(v, 0, (0,), (INF,)),
                  0, InvalidClass, InvalidClass),
    "element source": (lambda v: groupoid.GroupoidElement(1, 0, (0,), (v,)),
                       -1, InvalidClass, NotInGroupoid),
    "enumerate_stratum n": (lambda v: groupoid.enumerate_stratum(v, 0, window=1),
                            0, InvalidClass, InvalidClass),
    "enumerate_stratum k": (lambda v: groupoid.enumerate_stratum(1, v, window=1),
                            None, InvalidClass, None),
    "enumerate_stratum j": (lambda v: groupoid.enumerate_stratum(1, 0, v, window=1),
                            2, InvalidClass, OutOfRange),
    "enumerate_stratum window": (lambda v: groupoid.enumerate_stratum(1, 0, window=v),
                                 0, OutOfRange, OutOfRange),
    "verify_partition n": (lambda v: groupoid.verify_partition(v, 1, 0, 1),
                           0, InvalidClass, InvalidClass),
    "verify_partition k": (lambda v: groupoid.verify_partition(1, v, 0, 1),
                           0, InvalidClass, OutOfRange),
    "verify_partition j": (lambda v: groupoid.verify_partition(1, 1, v, 1),
                           1, InvalidClass, OutOfRange),
    "verify_partition window": (lambda v: groupoid.verify_partition(1, 1, 0, v),
                                0, OutOfRange, OutOfRange),
    "verify_bijection n": (lambda v: groupoid.verify_bijection("t", v, window=1),
                           0, InvalidClass, InvalidClass),
    "verify_bijection k": (lambda v: groupoid.verify_bijection("theta-neg", 1, k=v,
                                                               window=1),
                           1, InvalidClass, OutOfRange),
    "verify_bijection j": (lambda v: groupoid.verify_bijection("theta-shift", 2, k=1,
                                                               j=v, window=1),
                           2, InvalidClass, OutOfRange),
    "verify_bijection l": (lambda v: groupoid.verify_bijection("theta-peel", 2, k=2,
                                                               j=0, l=v, window=1),
                           2, InvalidClass, OutOfRange),
    "verify_bijection window": (lambda v: groupoid.verify_bijection("t", 1, window=v),
                                0, OutOfRange, OutOfRange),
    "theta_neg k": (lambda v: groupoid.theta_neg(G, v), 1, InvalidClass, WrongStratum),
    "theta_terminal l": (lambda v: groupoid.theta_terminal(G, v),
                         0, InvalidClass, WrongStratum),
    "terminal tally n": (lambda v: groupoid.windowed_terminal_counts(v, 1, 1),
                         0, InvalidClass, InvalidClass),
    "terminal tally k": (lambda v: groupoid.windowed_terminal_counts(1, v, 1),
                         0, InvalidClass, OutOfRange),
    "terminal tally window": (lambda v: groupoid.windowed_terminal_counts(1, 1, v),
                              0, OutOfRange, OutOfRange),
    "terminal counts window": (lambda v: groupoid.verify_terminal_counts(1, 1, v),
                               0, OutOfRange, OutOfRange),
    "groupoid_checks window": (lambda v: suite.groupoid_checks(1, window=v),
                               0, OutOfRange, OutOfRange),
    "ProjClass n": (lambda v: projections.ProjClass(v, 0, 1),
                    -1, InvalidClass, InvalidClass),
    "ProjClass j": (lambda v: projections.ProjClass(2, v, 1),
                    3, InvalidClass, InvalidClass),
    "ProjClass k": (lambda v: projections.ProjClass(2, 0, v),
                    -1, InvalidClass, InvalidClass),
    "zero_class n": (projections.zero_class, -1, InvalidClass, InvalidClass),
    "RhoVector entry": (lambda v: projections.RhoVector((0, v)),
                        -1, InvalidClass, InvalidClass),
    "K0Vector n": (lambda v: k_theory.K0Vector(v, (0,)), -1, InvalidClass, InvalidClass),
    "K0Vector coordinate": (lambda v: k_theory.K0Vector(0, (v,)),
                            None, InvalidClass, None),
    "generator n": (lambda v: k_theory.generator(v, 0), -1, InvalidClass, InvalidClass),
    "generator j": (lambda v: k_theory.generator(2, v),
                    3, IndexOutOfRange, IndexOutOfRange),
    "iota_star n": (lambda v: k_theory.iota_star(v, 1),
                    0, DimensionTooSmall, DimensionTooSmall),
    "iota_star m": (lambda v: k_theory.iota_star(2, v), None, InvalidClass, None),
    "check_exactness n": (k_theory.check_exactness, -1, InvalidClass, InvalidClass),
    "binomial k": (lambda v: line_bundles.binomial(v, 0), -1, OutOfRange, OutOfRange),
    "binomial j": (lambda v: line_bundles.binomial(3, v), 4, OutOfRange, OutOfRange),
    "decomposition n": (lambda v: line_bundles.LineBundleDecomposition(v, 0),
                        0, InvalidClass, InvalidClass),
    # a degree k >= 1 needs multiplicities, so a corner has k <= 0
    "decomposition degree": (lambda v: line_bundles.LineBundleDecomposition(1, v),
                             1, InvalidClass, InvalidClass),
    "multiplicity": (lambda v: line_bundles.LineBundleDecomposition(1, 1, (1, v)),
                     -1, InvalidClass, InvalidClass),
    "closed_form n": (lambda v: line_bundles.closed_form(v, 1), 0, OutOfRange, OutOfRange),
    "closed_form k": (lambda v: line_bundles.closed_form(1, v), None, OutOfRange, None),
    "recursion_expand n": (lambda v: line_bundles.recursion_expand(v, 1),
                           0, OutOfRange, OutOfRange),
    "recursion_expand k": (lambda v: line_bundles.recursion_expand(1, v),
                           0, OutOfRange, OutOfRange),
    "k0_class n": (lambda v: line_bundles.k0_class(v, 1), 0, OutOfRange, OutOfRange),
    "k0_class k": (lambda v: line_bundles.k0_class(1, v), -2, OutOfRange, UnsupportedDegree),
    "hockey_stick l": (lambda v: line_bundles.hockey_stick(v, 3), 1, OutOfRange, OutOfRange),
    "hockey_stick k": (lambda v: line_bundles.hockey_stick(3, v), 0, OutOfRange, OutOfRange),
    "cutoff m": (oracle.cutoff, 0, InvalidClass, InvalidClass),
    "complement m": (oracle.complement, 0, InvalidClass, InvalidClass),
    "factor depth": (lambda v: oracle.DiagonalPattern(1, (("P", v),)),
                     0, InvalidClass, InvalidClass),
    "pattern n": (lambda v: oracle.DiagonalPattern(v, ()), -1, InvalidClass, InvalidClass),
    "pattern copies": (lambda v: oracle.DiagonalPattern(0, (), copies=v),
                       -1, InvalidClass, InvalidClass),
    "rank_at N": (lambda v: oracle.rank_at(PATTERN, v), 0, OutOfRange, OutOfRange),
    "Truncation": (lambda v: oracle.rank_at(STACK, v), 0, OutOfRange, OutOfRange),
    "rho_numeric n1": (lambda v: oracle.rho_numeric(PATTERN, n1=v), 0, OutOfRange, OutOfRange),
    "rho_numeric n2": (lambda v: oracle.rho_numeric(PATTERN, n2=v), 0, OutOfRange, OutOfRange),
}

CASES = [pytest.param(call, value, error, id=f"{name}={value!r}")
         for name, (call, bad_int, not_int, out_of_range) in SITES.items()
         for value, error in ((True, not_int), (1.5, not_int), (bad_int, out_of_range))
         if value is not None]


@pytest.mark.parametrize("call, value, error", CASES)
def test_refused_with_its_error_class(call, value, error):
    with pytest.raises(error):
        call(value)

