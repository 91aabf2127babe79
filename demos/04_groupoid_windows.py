"""
The path groupoid behind the strata: windows, maps, verification
================================================================

Projection strata are mirrored by a groupoid whose elements are triples
(z, x, w): an integer degree z, an offset vector x, and a unit window w
with entries in {0, 1, 2, ..., inf}.  The structural maps between strata
(shifting degree, peeling a summand, collapsing at the deepest level)
become explicit bijections between groupoid strata, and because each map
shifts windows by a fixed amount, the bijections can be verified exactly
on finite windows.
"""

from qproj import (INF, canonicalize, compose, enumerate_stratum,
                   gamma_iso, gamma_iso_inv, theta_neg, theta_peel,
                   theta_shift, theta_terminal, verify_bijection,
                   verify_partition)

# 1. Elements and the membership rules
# ------------------------------------
# canonicalize builds an element over ambient index n, checking the
# membership constraints: after the first infinite window entry the
# offsets are pinned, and offsets can never push a finite window entry
# negative.
e = canonicalize(2, 1, (0, -1), (3, INF))
print("element:", e)
print("source window:", e.source(), "  target window:", e.target())

# An all-finite window leaves the degree completely free.
f = canonicalize(2, 7, (2, 0), (1, 5))
print("free-degree element:", f)

# Violations raise immediately.  Here the offset would close the degree
# at the wrong value.
from qproj import NotInGroupoid
try:
    canonicalize(2, 2, (0, -1), (3, INF))
except NotInGroupoid as err:
    print("rejected:", err)

# 2. Composition
# --------------
# Two elements compose when the source window of the first matches the
# target window of the second; degrees and offsets add, the window comes
# from the second factor.
g = canonicalize(1, 1, (2,), (3,))
h = canonicalize(1, 0, (1,), (2,))
print()
print("g =", g, "  source:", g.source())
print("h =", h, "  target:", h.target())
print("g o h =", compose(g, h))

# 3. Enumerating a stratum through a window
# -----------------------------------------
# enumerate_stratum(n, k, j, window) lists every element of the (k, j)
# stratum whose window data fits in the given box.  The counts grow
# quickly, so a listing is capped at 2**18 positions per block; the
# verifiers below count rows instead of listing them.
print()
for W in (2, 3, 4):
    els = enumerate_stratum(2, 1, 0, W)
    print("stratum (k=1, j=0) over n=2, window %d: %5d elements" % (W, len(els)))

# 4. The structural maps
# ----------------------
# Four theta maps move between strata.  Each one preserves the target
# window, so the same picture works before and after.
a = canonicalize(1, -1, (3,), (2,))
print()
print("theta_neg sends", a, "to", theta_neg(a, -1))

b = canonicalize(2, 2, (1, -3), (0, 5))
print("theta_shift sends", b, "to", theta_shift(b, 2, 1))

c = canonicalize(2, 2, (0, 1), (1, 3))
print("theta_peel sends", c, "to", theta_peel(c, 2, 0, 1))

d = canonicalize(2, 3, (1, 2), (0, 0))
print("theta_terminal sends", d, "to", theta_terminal(d, 3))

# gamma_iso passes to the primed variant and back.
print("gamma_iso sends", a, "to", gamma_iso(a))
print("and gamma_iso_inv returns", gamma_iso_inv(gamma_iso(a)))

# 5. Windowed verification
# ------------------------
# verify_bijection checks on paired windows that the map carries the
# domain stratum one to one onto the image stratum.  It decides this axis
# by axis, from one pair table per coordinate range, and lists no element;
# the report carries sizes and a counterexample slot (empty on success).
print()
for map_id, kwargs in (("theta-neg", dict(k=-2)),
                       ("theta-shift", dict(k=2, j=1)),
                       ("theta-peel", dict(k=2, j=0, l=1)),
                       ("gamma", dict(k=1))):
    rep = verify_bijection(map_id, n=2, window=4, **kwargs)
    print(rep.line())

# verify_partition checks that peeling tiles a stratum exactly: the
# (k, j) stratum is the disjoint union of the images of its peels.
rep = verify_partition(2, 2, 0, window=4)
print(rep.line())
