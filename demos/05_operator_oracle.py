"""
A numeric oracle from truncated operator ranks
==============================================

The classification data of a projection class can be recovered without
any algebra: realize the class as a diagonal pattern on a lattice of
basis states, truncate to finitely many states per axis, and watch how
the rank grows as the truncation widens.  Entries that stabilize give
finite invariant values; entries that keep growing signal an infinite
one.  This script shows the encoding, the rank counts, and how cutoffs
too small for a pattern are refused.
"""

from qproj import CutoffTooSmall, ProjClass, encode, rho, rho_numeric
from qproj.oracle import (boxplus_patterns, complement, face, rank_at,
                          DiagonalPattern)

# 1. Encoding a class as a diagonal pattern
# -----------------------------------------
# encode turns the normal form P[j,k] into a tensor pattern: j cutoff
# factors, identity factors on the remaining axes, k copies.
p = ProjClass(2, 1, 2)
pat = encode(p)
print("class", p, "encodes as", pat)

# 2. Truncated ranks
# ------------------
# rank_at counts lattice points under the pattern with N states per
# axis.  Identity axes contribute a factor N each, so any identity axis
# makes the rank grow without bound.
for N in (5, 10, 20):
    print("rank at N=%2d: %4d" % (N, rank_at(pat, N)))

# A level-0 class is pure identity and grows like N^n times k.
full = encode(ProjClass(2, 0, 3))
print("level-0 class, N=10:", rank_at(full, 10))

# 3. Reading the invariant off the ranks
# --------------------------------------
# rho_numeric compares ranks at two cutoffs: stable counts
# become finite entries, growth becomes inf.  It must agree with the
# algebraic invariant, and the verification suite sweeps that agreement
# over a grid of classes.
print()
print("algebraic rho:", rho(p))
print("numeric  rho:", rho_numeric(pat))

# Patterns add formally, and both rank_at and rho_numeric are additive
# over the sum, mirroring boxplus upstairs.
stack = boxplus_patterns(pat, encode(ProjClass(2, 2, 1)))
print("stacked rho:", rho_numeric(stack))

# 4. Boundary restriction
# -----------------------
# face drops the last axis.  A trailing identity axis disappears
# harmlessly; a trailing cutoff axis kills the class, mirroring how the
# deepest stratum collapses under restriction.
print()
print("face of", pat, "is", face(pat))

# 5. When the cutoffs are too small, and how they are refused
# ------------------------------------------------------------
# The method is honest only above the scale of the pattern: once every
# cutoff reaches the depth of every factor, a truncated rank is either
# constant or strictly growing, so comparing two cutoffs is exact.  A
# depth-20 complement factor would look like rank 0 at cutoffs 8 and 16;
# rho_numeric refuses to answer instead.
wide = DiagonalPattern(1, (complement(20),))
try:
    rho_numeric(wide, 8, 16)
except CutoffTooSmall as err:
    print("refused:", err)
print("with room to breathe:", rho_numeric(wide, 32, 64, guard=128))

# A multiplicity larger than the first cutoff would be misread as growth,
# so it is refused the same way; cutoffs above it give the exact answer.
deep = encode(ProjClass(1, 1, 10))
print("true rho:", rho(ProjClass(1, 1, 10)))
try:
    rho_numeric(deep, 8, 16)
except CutoffTooSmall as err:
    print("cutoffs ( 8, 16): refused:", err)
print("cutoffs (16, 32):", rho_numeric(deep, 16, 32))
