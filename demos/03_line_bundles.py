"""
Line bundles over quantum projective space
==========================================

The degree-k line bundle over the quantum projective n-space decomposes
into the standard projection stock.  For k >= 1 the answer is a binomial
multiset; for k <= 0 it is a single corner projection of depth |k|.  A
peeling recursion reproduces the positive-degree multiset one step at a
time, and the agreement between the two is exactly the hockey-stick
family of binomial identities.
"""

from qproj import binomial, closed_form, hockey_stick, k0_class, recursion_expand

# 1. Closed-form decompositions
# -----------------------------
n = 2
for k in (1, 2, 3, 4):
    d = closed_form(n, k)
    print("degree %2d over n=%d:" % (k, n), d.mult,
          " (%d classes total)" % d.total_classes())

# The multiplicity at level j is C(k+j-1, j), so each column of the
# table above is a diagonal of Pascal's triangle.
print("check level-2 column:", [binomial(k + 1, 2) for k in (1, 2, 3, 4)])

# Nonpositive degrees are a single corner projection.
for k in (0, -1, -3):
    d = closed_form(n, k)
    print("degree %2d over n=%d: corner projection of depth %d" % (k, n, d.m))

# 2. The peeling recursion
# ------------------------
# recursion_expand peels one summand off at a time until only terminal
# classes remain, then tallies what it reached.  The tally must equal the
# closed form, and does.
print()
for k in (1, 3, 5):
    via_recursion = recursion_expand(n, k)
    via_formula = closed_form(n, k)
    print("degree %d: recursion %s  closed form %s  equal: %s"
          % (k, via_recursion.mult, via_formula.mult,
             via_recursion == via_formula))

# 3. Hockey-stick identities
# --------------------------
# Summand-by-summand, the recursion proves tail-sum binomial identities.
# hockey_stick(l, k) checks the base identity and every shifted tail
# exactly, returning both sides of the base case.
print()
for l, k in ((3, 4), (5, 10), (7, 25)):
    r = hockey_stick(l, k)
    print("l=%d k=%2d:  lhs=%6d  rhs=%6d  all shifts hold: %s"
          % (l, k, r.lhs, r.rhs, r.equal))

# 4. K-classes
# ------------
# k0_class writes the bundle class in the level basis of the even
# K-group.  A bundle is named by the two integers (n, k), and each
# computation takes them directly.
print()
print("bundle n=3, degree 4:")
print("  K-class:      ", k0_class(3, 4))
print("  decomposition:", closed_form(3, 4).mult)
print("  via recursion:", recursion_expand(3, 4).mult)

# Degree -1 also has a K-class (the alternating corner class); deeper
# negative degrees have no expansion in the level basis and are refused.
print("degree -1 K-class over n=3:", k0_class(3, -1))

# Big inputs stay exact: everything here is integer arithmetic.
print("C(40, 20) =", binomial(40, 20))
