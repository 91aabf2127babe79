"""Windowed verification desk for the path groupoid behind the sphere algebras.

Elements carry a degree z in Z, an offset vector x in Z^n, and a source
point w in the closed positive cone: n entries, each a non-negative
integer or inf, with everything after the first inf collapsed to inf
(the canonical form).  The target is x + w.  Membership forces the
offsets at and after the first infinite position: there

    x[p] = -z - (x[0] + ... + x[p-1]),    x[p+1] = ... = x[n-1] = 0,

and every finite coordinate of the target must stay non-negative.
Composition matches source to target and adds degrees and offsets.

Two variant element kinds appear as codomains of structural bijections.
The "primed" kind (image of the degree-shear gamma_iso) of degree z is
the plain element of degree z - x[0], so it forces

    w[0] = inf  =>  z = 0 and x[1] = ... = x[n-1] = 0,
    w[p] = inf, p >= 1  =>  x[p] = -z - (x[1] + ... + x[p-1]), rest 0,

and the degree-free kind (image of t_iso on the degree-zero part) drops
z and keeps the plain rule with z = 0.  In windows, likewise, the primed
rows of degree z + x[0] are the plain degree-z rows with the degree read
as z + x[0].

Four stratum bijections drive the line-bundle recursion.  Three of them
pay d units of degree against one source coordinate j, adding d to x[j]
and taking d from w[j]: theta_neg pays a non-positive degree into the
first source coordinate; theta_shift pays all k units against a source
coordinate that has at least k to give; theta_peel pays only the l units
of a source l, which drops to zero.  theta_terminal forgets the degree
once every source coordinate is pinned to zero.  All four preserve the
target.

Verification covers windowed strata exhaustively without listing their
elements.  A window splits into blocks by the position p of the first
infinite source coordinate, each a product of per-coordinate tables of
(offset, source) pairs cut by the forced offset, and a structural map
acts on one table; so ``_image_check`` decides each check axis by axis,
in Python ints.  The element-level enumeration lists the rows of the
same blocks, so the window rules are written once.  The partition of a
stratum into its k + 1 pieces and each structural map are rows of one
table of sources (windows under actions) and codomain windows, checked
by one body.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple

from .errors import (
    DegreeNonZero,
    InvalidClass,
    NotComposable,
    NotInGroupoid,
    OutOfRange,
    Value,
    WrongStratum,
    integer,
)
from .extnat import INF, ext_to_json, is_finite
from .reports import VerifyReport
from .suite import DEFAULT_TALLY_WINDOW, DEFAULT_WINDOW

__all__ = [
    "GroupoidElement",
    "TElement",
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
    "verify_partition",
    "verify_bijection",
    "windowed_terminal_counts",
    "verify_terminal_counts",
    "MAP_IDS",
]


def _collapse(w):
    """Propagate the first inf rightwards; reject negative finite entries."""
    out = []
    seen_inf = False
    for entry in w:
        if seen_inf:
            out.append(INF)
            continue
        if not is_finite(entry):
            seen_inf = True
            out.append(INF)
            continue
        if integer(entry, "source coordinate") < 0:
            raise NotInGroupoid(f"source coordinates are >= 0 or inf, got {entry}")
        out.append(entry)
    return tuple(out)


def _first_inf(w):
    for i, entry in enumerate(w):
        if not is_finite(entry):
            return i
    return len(w)


def _validate_member(n, z, x, w, primed):
    """Membership of a canonical triple; raises NotInGroupoid on failure.
    A primed triple is checked as the plain one of degree z - x[0]."""
    p = _first_inf(w)
    degree = z - x[0] if primed else z
    if p < n:
        forced = -degree - sum(x[:p])
        if x[p] != forced:
            raise NotInGroupoid(f"offset {p} must close the degree: expected {forced}")
        if any(x[p + 1:]):
            raise NotInGroupoid("offsets past the first infinite coordinate must vanish")
    for i in range(p):
        if x[i] + w[i] < 0:
            raise NotInGroupoid(
                f"target coordinate {i} leaves the positive cone: {x[i]} + {w[i]} < 0"
            )


class GroupoidElement(Value):
    """A canonical groupoid element; build through ``canonicalize``.

    Direct construction re-validates, so no invalid element can exist.
    """

    __slots__ = ("n", "z", "x", "w", "primed")

    def __init__(self, n, z, x, w, primed=False):
        n = integer(n, "coordinate count", 1)
        z = integer(z, "degree")
        if not isinstance(primed, bool):
            raise InvalidClass(f"primed must be true or false, got {primed!r}")
        x = tuple(integer(v, "offset") for v in x)
        w = tuple(w)
        if len(x) != n or len(w) != n:
            raise InvalidClass(f"need {n} offsets and {n} source coordinates")
        if w != _collapse(w):
            raise NotInGroupoid("source is not in canonical form; use canonicalize")
        _validate_member(n, z, x, w, primed)
        self._store("n", n)
        self._store("z", z)
        self._store("x", x)
        self._store("w", w)
        self._store("primed", primed)

    def source(self):
        return self.w

    def target(self):
        return tuple(xv + wv for xv, wv in zip(self.x, self.w))

    def __str__(self):
        tag = "'" if self.primed else ""
        return f"({self.z}, {self.x}, {self.w}){tag}"

    def to_json(self):
        record = _element_json((self.z, self.x, self.w))
        return {**record, "primed": True} if self.primed else record


class TElement(Value):
    """A degree-free element: the plain membership rule at degree zero."""

    __slots__ = ("n", "x", "w")

    def __init__(self, n, x, w):
        probe = GroupoidElement(n, 0, x, w)
        self._store("n", probe.n)
        self._store("x", probe.x)
        self._store("w", probe.w)

    source = GroupoidElement.source
    target = GroupoidElement.target

    def to_json(self):
        return {"x": list(self.x), "w": [ext_to_json(v) for v in self.w]}


def canonicalize(n, z, x, w, primed=False):
    """Collapse the source tail after its first inf, then validate membership.

    >>> canonicalize(2, 0, (1, -1), (0, INF)).w
    (0, inf)
    """
    w = _collapse(w)
    return GroupoidElement(n=n, z=z, x=tuple(x), w=w, primed=primed)


def compose(g, h):
    """Compose two arrows: needs g.source() == h.target(); degrees and offsets add."""
    if not isinstance(g, GroupoidElement) or not isinstance(h, GroupoidElement):
        raise NotComposable("compose needs two groupoid elements")
    if g.n != h.n or g.primed != h.primed:
        raise NotComposable("elements live in different groupoids")
    if g.source() != h.target():
        raise NotComposable(
            f"source {g.source()} does not match target {h.target()}"
        )
    return GroupoidElement(
        n=g.n,
        z=g.z + h.z,
        x=tuple(a + b for a, b in zip(g.x, h.x)),
        w=h.w,
        primed=g.primed,
    )


def _map_element(map_id, g, k=None, j=None, l=None, wrong=WrongStratum, miss=None):
    """Apply one map's row of ``_check_setup`` to a single element.

    The window is the smallest that holds g, so g is in the domain window
    exactly when it is in the map's domain.  A wrong variant or parameter
    raises ``wrong``, a domain miss ``miss`` (default ``wrong``).
    """
    if not isinstance(g, GroupoidElement) or g.primed:
        raise wrong(f"{map_id} is defined on plain elements")
    W = max([1] + [abs(v) for v in g.x] + [v for v in g.w if is_finite(v)])
    [(dom, action)], cod = _check_setup(map_id, g.n, k, j, l, W, refuse=wrong)
    raw = (g.z, g.x, g.w)
    if not _in_box(dom, raw):
        raise (miss or wrong)(f"{g} is outside the domain of {map_id}")
    z, x, w = action.row(raw)
    return GroupoidElement(n=g.n, z=z, x=x, w=w, primed=cod.shear)


def gamma_iso(g):
    """Shear the degree by the first offset; lands in the primed groupoid."""
    # gamma is defined at every degree: take the one g has
    return _map_element("gamma", g, k=getattr(g, "z", None), wrong=InvalidClass)


def gamma_iso_inv(g):
    """Inverse shear, from the primed groupoid back to the plain one."""
    if not isinstance(g, GroupoidElement) or not g.primed:
        raise InvalidClass("gamma_iso_inv is defined on primed elements")
    return GroupoidElement(n=g.n, z=g.z - g.x[0], x=g.x, w=g.w, primed=False)


def t_iso(g):
    """Forget the degree on the degree-zero part."""
    h = _map_element("t", g, wrong=InvalidClass, miss=DegreeNonZero)
    return TElement(n=h.n, x=h.x, w=h.w)


def theta_neg(g, k):
    """Trade non-positive degree k for depth in the first source coordinate."""
    return _map_element("theta-neg", g, k=k)


def theta_shift(g, k, j):
    """Remove all k units of degree against source coordinate j."""
    return _map_element("theta-shift", g, k=k, j=j)


def theta_peel(g, k, j, l):
    """Pay out l < k units of degree against source coordinate j, whose source l
    drops to zero."""
    return _map_element("theta-peel", g, k=k, j=j, l=l)


def theta_terminal(g, l):
    """Forget a positive degree once every source coordinate is pinned to 0."""
    return _map_element("theta-terminal", g, l=l)


# ---------------------------------------------------------------------------
# Windowed enumeration.


class _Range(namedtuple("_Range", "x_lo x_hi w_lo w_hi w_inf")):
    """The rows of one coordinate of a window: offsets x_lo..x_hi, finite
    sources w_lo..w_hi, and an infinite source when ``w_inf``.  The first
    four fields are the range of the coordinate's pair table."""

    __slots__ = ()


class _WindowSpec(Value):
    """One stratum window: its degree z and one ``_Range`` per coordinate.

    ``shear`` marks the codomain of gamma_iso: its rows are primed elements
    whose degree is z + x[0] instead of the constant z.  Their offsets and
    sources are those of the plain degree-z window's rows, so the forced
    offset is -z - (x[0] + ... + x[p-1]) either way.
    """

    __slots__ = ("z", "ranges", "shear")

    def __init__(self, z, ranges, shear=False):
        for c, r in enumerate(ranges):
            if r.w_lo < 0:
                raise OutOfRange(f"window sources are non-negative, got w_lo={r.w_lo} "
                                 f"at coordinate {c}")
        self._store("z", z)
        self._store("ranges", ranges)
        self._store("shear", shear)

    @property
    def n(self):
        return len(self.ranges)


def _stratum_spec(n, z, W, pins=0, shear=False):
    """The degree-z window of offsets in -W..W and sources in 0..W or inf,
    the first ``pins`` sources pinned to 0."""
    pinned, free = _Range(-W, W, 0, 0, False), _Range(-W, W, 0, W, True)
    return _WindowSpec(z, (pinned,) * pins + (free,) * (n - pins), shear)


def _in_box(spec, raw):
    """Whether a member row lies in the window's degree, offset and source
    ranges; the window is a ``_check_setup`` domain, never sheared."""
    z, x, w = raw
    return (z == spec.z
            and all(r.x_lo <= v <= r.x_hi and (r.w_lo <= u <= r.w_hi if is_finite(u)
                                               else r.w_inf)
                    for v, u, r in zip(x, w, spec.ranges)))


def _put(values, c, value):
    return values[:c] + (value,) + values[c + 1:]


def _recoord(spec, c, dx, w_range, z=None):
    """``spec`` with coordinate c's offset range shifted by dx and its source
    range replaced by ``w_range`` = (lo, hi, inf_ok), at degree z (default:
    the window's)."""
    r = spec.ranges[c]
    return spec.replace(z=spec.z if z is None else z,
                        ranges=_put(spec.ranges, c, _Range(r.x_lo + dx, r.x_hi + dx, *w_range)))


def _iter_raw(spec):
    """Element-level enumeration of a window: raw (z, x, w) rows, block by
    block, each block in position order.  A block of more than ``_LIMIT``
    positions is refused before any row is listed."""
    blocks, sizes = _blocks(spec), [_axis_size(*r[:4]) for r in spec.ranges]
    size = max(math.prod(sizes[:p]) for p in blocks)
    if size > _LIMIT:
        raise OutOfRange(f"a window block of {size} positions exceeds the limit "
                         f"of {_LIMIT}; use a smaller window")
    pairs = [[(w, x) for w, lo, hi in _table(*r[:4]) for x in range(lo, hi + 1)]
             for r in spec.ranges]
    for p, (lo, hi) in blocks.items():
        for row in itertools.product(*pairs[:p]):
            if lo <= sum(x for _, x in row) <= hi:
                yield _raw(spec, p, row)


def enumerate_stratum(n, k, j=0, window=DEFAULT_WINDOW):
    """All canonical degree-k elements with the first j source coordinates 0,
    finite source entries at most W and offsets at most W in magnitude."""
    n = integer(n, "coordinate count", 1)
    k = integer(k, "degree")
    j = integer(j, "level")
    if not 0 <= j <= n:
        raise OutOfRange(f"level j={j} outside 0..{n}")
    W = integer(window, "window bound", 1, error=OutOfRange)
    spec = _stratum_spec(n, k, W, pins=j)
    return [GroupoidElement(n, *raw) for raw in _iter_raw(spec)]


# --- pair tables and blocks ---------------------------------------------------

# Most pairs one pair table, and most positions one block that
# ``enumerate_stratum`` lists, may have.
_LIMIT = 2 ** 18


def _axis_size(x_lo, x_hi, w_lo, w_hi):
    """Pairs in ``_table(x_lo, x_hi, w_lo, w_hi)``, counted in closed form:
    x_hi + w + 1 (where positive) for each w below -x_lo, and
    x_hi - x_lo + 1 for every other w.  More than ``_LIMIT`` are refused."""
    a, b = max(w_lo, -x_hi), min(w_hi, -x_lo - 1)
    short = (b - a + 1) * (2 * x_hi + 2 + a + b) // 2 if a <= b else 0
    size = short + max(w_hi - max(w_lo, -x_lo) + 1, 0) * max(x_hi - x_lo + 1, 0)
    if size > _LIMIT:
        raise OutOfRange(f"a window coordinate of {size} pairs exceeds the limit "
                         f"of {_LIMIT}; use a smaller window")
    return size


def _table(x_lo, x_hi, w_lo, w_hi):
    """The pair table of one coordinate: every (x, w) with w_lo <= w <= w_hi
    and max(x_lo, -w) <= x <= x_hi, ordered by w, then x, as one run
    (w, first x, last x) per w that has a pair.  The caller sizes it with
    ``_axis_size`` first."""
    ws = range(max(w_lo, -x_hi), w_hi + 1) if x_lo <= x_hi else ()
    return tuple((w, max(x_lo, -w), x_hi) for w in ws)


def _blocks(spec):
    """The blocks of a window: for each p where the window has rows whose
    first infinite source coordinate is p, the range (lo, hi) of their sum
    x[0] + ... + x[p-1].  The forced offset -z - sum lies in coordinate p's
    offset range and every later offset is 0; at p = n the range holds
    every sum the tables make."""
    rs, n = spec.ranges, spec.n
    return {p: (-spec.z - rs[p].x_hi, -spec.z - rs[p].x_lo) if p < n else
            (sum(r.x_lo for r in rs), sum(r.x_hi for r in rs))
            for p in range(n + 1)
            if (p == n or rs[p].w_inf) and all(r.x_lo <= 0 <= r.x_hi for r in rs[p + 1:])}


def _raw(spec, p, pairs):
    """The raw (z, x, w) row of block p whose coordinates before p are the
    (w, x) ``pairs``; its forced offset may lie outside the window."""
    n = spec.n
    x = [v for _, v in pairs] + [0] * (n - p)
    if p < n:  # before the degree: at p = 0, x[0] is the forced offset
        x[p] = -spec.z - sum(x[:p])
    z = spec.z + x[0] if spec.shear else spec.z
    return z, tuple(x), tuple(w for w, _ in pairs) + (INF,) * (n - p)


def _count(spec, blocks, sizes):
    """The number of rows of a window, in exact packed-integer products,
    given the ``_axis_size`` of each of its coordinates.

    ``sums`` counts the pair prefixes by offset sum, one B-bit digit per
    sum from ``start`` on.  A digit counts a subset of the window's
    prefixes, so it stays below 2**(B - 1) and no product carries.
    Coordinate p multiplies ``sums`` by the polynomial of its pair table,
    whose digit at x counts the sources x pairs with: each full run
    (w >= -x_lo) adds the digits 1 over x_lo..x_hi, and the short runs
    (w below -x_lo) add them over -w..x_hi.  A block's rows are the digit
    sum of its window of digits, which is that window's residue modulo
    2**B - 1, since 2**B is 1 there and the sum is smaller."""
    B = math.prod(size or 1 for size in sizes).bit_length() + 1
    X = 1 << B

    def ones(m):  # the digits 1, ..., 1: m of them
        return ((1 << B * m) - 1) // (X - 1)

    total, start, sums = 0, 0, 1
    for p in range(spec.n + 1):
        if p in blocks:
            lo, hi = max(blocks[p][0], start), blocks[p][1]
            if lo <= hi:
                total += (sums >> B * (lo - start) & (1 << B * (hi - lo + 1)) - 1) % (X - 1)
        if p == spec.n or not sizes[p]:
            return total
        x_lo, x_hi, w_lo, w_hi, _ = spec.ranges[p]
        first = max(x_lo, -w_hi)
        full = max(w_hi - max(w_lo, -x_lo) + 1, 0)
        table = full * ones(x_hi - x_lo + 1) << B * (x_lo - first) if full else 0
        a, b = max(w_lo, -x_hi), min(w_hi, -x_lo - 1)
        if a <= b:  # the runs -w..x_hi for w = a..b, summed in closed form
            m, span = b - a + 1, x_hi - first + 1
            table += ((m << B * span) - (ones(m) << B * (-b - first))) // (X - 1)
        start, sums = start + first, sums * table


class _Action(Value):
    """Per-coordinate form of a structural map: a translation.

    Coordinate ``coord`` gets ``dx`` added to its offset and ``dw`` to its
    source (inf stays inf); every other coordinate is copied.  The target
    stays when dx + dw = 0.  The image degree is ``z``, plus the first
    offset with ``shear``.
    """

    __slots__ = ("z", "coord", "dx", "dw", "shear")

    def __init__(self, z, coord=0, dx=0, dw=0, shear=False):
        self._store("z", integer(z, "image degree", error=OutOfRange))
        self._store("coord", integer(coord, "translated coordinate", 0, error=OutOfRange))
        self._store("dx", integer(dx, "offset translation", error=OutOfRange))
        self._store("dw", integer(dw, "source translation", error=OutOfRange))
        self._store("shear", shear)

    def row(self, raw):
        """The image of one raw row."""
        z, x, w = raw
        c = self.coord
        x = _put(x, c, x[c] + self.dx)
        w = _put(w, c, w[c] + self.dw)
        return (self.z + raw[1][0] if self.shear else self.z, x, w)

    def box(self, spec):
        """The window this action carries ``spec`` to: coordinate c's offset
        range shifted by dx, its source range by dw, and the action's
        degree."""
        c = self.coord
        r = spec.ranges[c]
        w_range = (r.w_lo + self.dw, r.w_hi + self.dw, r.w_inf)
        return _recoord(spec, c, self.dx, w_range, self.z)


def _degree_gap(a, t, x0):
    """The degree of the image under action a of a row with first offset
    x0, less the degree that window t derives from the image's first
    offset: zero when they agree."""
    x0_image = x0 + a.dx if a.coord == 0 else x0
    return (a.z + x0 if a.shear else a.z) - (t.z + x0_image if t.shear else t.z)


# --- the per-axis image check -------------------------------------------------


def _first(axes, lo, hi):
    """The first row in position order, as its (w, x) pairs, with one pair
    from each axis and an offset sum in lo..hi; None if there is none.  An
    axis is a list of runs (w, first x, last x) in table order.  Coordinate
    by coordinate, it takes the first pair from which the sorted sums of
    the later axes can still reach the range."""
    reach = [[0]]
    for runs in reversed(axes[1:]):
        xs = {x for _, a, b in runs for x in range(a, b + 1)}
        reach.append(sorted({s + x for s in reach[-1] for x in xs}))
    pairs = []
    for runs, sums in zip(axes, reversed(reach)):
        pair = next(((w, x) for w, a, b in runs for x in range(a, b + 1)
                     if (i := bisect.bisect_left(sums, lo - x)) < len(sums)
                     and sums[i] <= hi - x), None)
        if pair is None:
            return None
        pairs.append(pair)
        lo, hi = lo - pair[1], hi - pair[1]
    return pairs if lo <= 0 <= hi else None


def _without(span, cut):
    """The parts of the range ``span`` outside the range ``cut``."""
    (lo, hi), (a, b) = span, cut
    return [r for r in ((lo, min(hi, a - 1)), (max(lo, b + 1), hi)) if r[0] <= r[1]]


def _carry(a, t, i, runs):
    """Split the runs of a source pair table at coordinate i by whether
    action a carries each pair to a pair of t's table i, at i = 0 with the
    degree that t gives the image: the runs it loses, and the image runs
    of the rest."""
    r = t.ranges[i]
    dx = a.dx if i == a.coord else 0
    lost, images = [], []
    for w, lo, hi in runs:
        v = w + a.dw if i == a.coord else w
        first, last = max(lo, r.x_lo - dx, -v - dx), min(hi, r.x_hi - dx)
        if not r.w_lo <= v <= r.w_hi:
            last = first - 1
        if i == 0:  # the degree gap moves with x[0] by a.shear - t.shear
            gap, slope = _degree_gap(a, t, first), a.shear - t.shear
            first, last = ((max(first, first - gap * slope), min(last, first - gap * slope))
                           if slope else (first, last if not gap else first - 1))
        lost += [(w, *s) for s in _without((lo, hi), (first, last))] if first <= last else [
            (w, lo, hi)]
        images += [(v, first + dx, last + dx)] if first <= last else []
    return lost, images


def _cover(runs, images):
    """Split the runs of a pair table by how many image runs hold each
    pair: the runs none holds, those held at least once, and those held
    at least twice."""
    edges = {}
    for w, a, b in images:
        edges.setdefault(w, []).extend(((a, 1), (b + 1, -1)))
    missed, hit, twice = [], [], []
    for w, lo, hi in runs:
        depth, x = 0, lo
        for at, step in sorted(edges.get(w, ())) + [(hi + 1, 0)]:
            if at > x:
                (hit if depth else missed).append((w, x, at - 1))
                if depth > 1:
                    twice.append((w, x, at - 1))
                x = at
            depth += step
    return missed, hit, twice


def _split_coordinate(sources):
    """The one coordinate whose source range the windows of ``sources``
    differ in, or None.  Any list whose windows differ in more, or whose
    actions differ, is refused."""
    (s, a), *rest = sources
    differ = {i for t, _ in rest for i, (r, q) in enumerate(zip(t.ranges, s.ranges)) if r != q}
    if len(differ) > 1 or any((b, t.z, t.shear, [r[:2] for r in t.ranges])
                              != (a, s.z, s.shear, [r[:2] for r in s.ranges]) for t, b in rest):
        raise OutOfRange("the sources of one image check may differ in one "
                         "coordinate's source range only")
    return min(differ, default=None)


def _image_check(sources, cod):
    """Map every (window, action) source into the window ``cod``, axis by axis.

    Block p of a window is the product of its pair tables before p, cut to
    the rows whose offset sum lies in one range (``_blocks``).  An action
    changes one coordinate, so a row's image is the tuple of its pairs'
    images (``_carry``), and its sum moves by dx when that coordinate is
    before p.  The sources differ at most in one coordinate j's source
    range (``_split_coordinate``), so a codomain row whose sum is a kept
    image sum is hit by the product over its pairs of the source pairs that
    reach each (``_cover``, over every source at j), times the number of
    sources with block p when j >= p.  The rest of a block is one scalar
    test.  So each failure kind is a row with given pair sets and sum
    ranges, found by ``_first``, and each window's count of rows is read
    from exact products of packed-digit polynomials, one per pair table
    (``_count``).

    Returns the number of source rows, the number of codomain rows, and
    the first raw row of each failure kind: "moved" (a source row whose
    target the action changes), "outside" (the image of a source row that
    is not a codomain row), "collision" and "uncovered" (codomain rows hit
    twice or more, and not at all).  First is by p, then by source, then in
    position order (w[0], x[0], w[1], x[1], ...).
    """
    j = _split_coordinate(sources)
    (s, a), t, c, n = sources[0], cod, sources[0][1].coord, cod.n
    windows = [(t, None), *sources]
    sizes = {key: _axis_size(*key) for key in dict.fromkeys(
        r[:4] for spec, _ in windows for r in spec.ranges)}
    tables = {key: _table(*key) for key in sizes}
    blocks = [_blocks(spec) for spec, _ in windows]
    carried = {(i, r): _carry(a, t, i, tables[r[:4]]) for i, r in dict.fromkeys(
        (i, r) for spec, _ in sources for i, r in enumerate(spec.ranges))}
    covers = [_cover(tables[t.ranges[i][:4]], [
        image for spec, _ in (sources if i == j else sources[:1])
        for image in carried[i, spec.ranges[i]][1]]) for i in range(n)]
    found = {}

    def note(kind, spec, p, axes, span, swaps=(), spans=(), image=lambda raw: raw):
        """Record as ``kind`` the first row of block p of ``spec``, over the
        rows with axis i swapped for the runs of an (i, runs) of ``swaps``
        and sum in ``span``, and those with no swap and sum in ``spans``."""
        queries = [(axes[:i] + [runs] + axes[i + 1:], span) for i, runs in swaps if runs]
        rows = [row for x, (lo, hi) in queries + [(axes, r) for r in spans]
                if kind not in found and (row := _first(x, lo, hi)) is not None]
        if rows:
            found[kind] = image(_raw(spec, p, min(rows)))

    for p in range(n + 1):
        have = [(spec, b[p]) for (spec, _), b in zip(sources, blocks[1:]) if p in b]
        kept, box = have[0][1] if have else None, blocks[0].get(p)
        shift = a.dx if c < p else 0
        fits = (box and not (c > p and a.dx)  # stays in the tail
                and (p == n or not t.z - s.z + a.dx)  # the forced offset is t's
                and (p or not _degree_gap(a, t, -s.z)))  # the p = 0 degree is t's
        for spec, _ in have:
            axes = [tables[r[:4]] for r in spec.ranges[:p]]
            if c < p and a.dx + a.dw:  # a finite target, translated
                note("moved", spec, p, axes, kept, spans=[kept])
            lost = [(i, carried[i, r][0]) for i, r in enumerate(spec.ranges[:p])]
            note("outside", spec, p, axes, kept, lost if fits else (), _without(
                kept, (box[0] - shift, box[1] - shift)) if fits else [kept], a.row)
        if not box:
            continue
        axes = [tables[r[:4]] for r in t.ranges[:p]]
        times = len(have) if j is None or j >= p else min(len(have), 1)
        # the sums of the images that land in the box; (1, 0) is the empty range
        image = (kept[0] + shift, kept[1] + shift) if fits and times else (1, 0)
        note("uncovered", t, p, axes, box, [(i, cover[0]) for i, cover in enumerate(covers[:p])],
             _without(box, image))
        both = (max(box[0], image[0]), min(box[1], image[1]))
        note("collision", t, p, [cover[1] for cover in covers[:p]], both,
             [(i, cover[2]) for i, cover in enumerate(covers[:p])] if times == 1 else (),
             [both] if times > 1 else ())
    counts = [_count(spec, b, [sizes[r[:4]] for r in spec.ranges])
              for (spec, _), b in zip(windows, blocks)]
    return sum(counts[1:]), counts[0], found


def _element_json(raw):
    z, x, w = raw
    return {"z": z, "x": list(x), "w": [ext_to_json(v) for v in w]}


def _counterexample(found, kinds):
    """The first failure in precedence order, named by ``kinds``."""
    for kind, name in kinds:
        if kind in found:
            return {"kind": name, "element": _element_json(found[kind])}
    return None


# --- partition and bijection checks -----------------------------------------

# The parameters each check takes, of k, j and l: the partition, then each
# structural map.
_PARAMETERS = {
    "partition": "kj",
    "theta-neg": "k",
    "theta-shift": "kj",
    "theta-peel": "kjl",
    "theta-terminal": "l",
    "gamma": "k",
    "t": "",
}
MAP_IDS = tuple(_PARAMETERS)[1:]


def _cut(spec, j):
    """The k + 1 pieces of a degree-k window cut along source coordinate j:
    the piece with at least k to give (inf included), then each shortfall
    l = 0..k-1, by narrowing coordinate j's source range."""
    k, r = spec.z, spec.ranges[j]
    return [_recoord(spec, j, 0, (k, r.w_hi, r.w_inf))] + [
        _recoord(spec, j, 0, (l, min(l, r.w_hi), False)) for l in range(k)]


def _partition_setup(n, k, j, W):
    """The full degree-k, level-j window and its k + 1 pieces.  The full
    window's distinct ranges up to the cut coordinate j are sized first, in
    the order ``_image_check`` sizes them, so a k too large for the limit
    is refused before the pieces are built, with the same message."""
    full = _recoord(_stratum_spec(n, k, W, pins=j), j, 0, (0, k + W, True))
    for key in dict.fromkeys(r[:4] for r in full.ranges[:j + 1]):
        _axis_size(*key)
    return full, _cut(full, j)


def _check_setup(kind, n, k, j, l, W, refuse=OutOfRange):
    """The one description of each check: its parameter domain, its sources
    as (window, action) pairs, and its codomain window.

    A map's one source is its domain window under its per-coordinate
    action; the partition's sources are the k + 1 pieces of the full
    window under the identity, and its codomain is the full window.  The
    element maps (``theta_*``, ``gamma_iso``, ``t_iso``), the checks and
    the terminal tally all read it.  Every window is a stratum window, or
    one with a single coordinate's range changed by ``_recoord``.  Windows
    are paired so the map carries the domain box exactly onto the codomain
    box: the action's ``box`` of the domain window is the codomain window
    (gamma's up to its shear flag), because whatever shift the map applies
    to a coordinate is also applied to that coordinate's range.  A
    parameter outside the check's domain, or one the check does not take
    given as anything but None, raises ``refuse`` naming the check and the
    parameter.

    The t row joins the degree-0 window to itself by the identity action,
    because ``TElement`` rows are exactly the plain degree-0 rows; its
    check can fail only if the engine is broken.
    """
    def param(name, value, lo=-math.inf, hi=math.inf):
        if not lo <= integer(value, name) <= hi:
            raise refuse(f"{kind} needs {lo} <= {name} <= {hi}, got {name}={value}")
        return value

    for name, value in zip("kjl", (k, j, l)):
        if value is not None and name not in _PARAMETERS[kind]:
            raise refuse(f"{kind} takes no parameter {name}, got {name}={value}")

    if kind == "partition":
        k, j = param("k", k, lo=1), param("j", j, lo=0, hi=n - 1)
        full, pieces = _partition_setup(n, k, j, W)
        return [(piece, _Action(z=k)) for piece in pieces], full

    if kind in ("theta-neg", "theta-shift", "theta-peel"):
        # pay d units of degree against source coordinate j, leaving k - d:
        # theta-neg pays d = k <= 0 at j = 0 from every source, theta-shift
        # d = k from a source >= k, theta-peel d = l from the source l
        neg, peel = kind == "theta-neg", kind == "theta-peel"
        k = param("k", k, hi=0) if neg else param("k", k, lo=1)
        j = 0 if neg else param("j", j, lo=0, hi=n - 1)
        d = param("l", l, lo=0, hi=k - 1) if peel else k
        lo, hi, inf = (d, d, False) if peel else (max(d, 0), max(d, 0) + W, True)
        dom = _recoord(_stratum_spec(n, k, W, pins=j), j, 0, (lo, hi, inf))
        cod = _recoord(_stratum_spec(n, k - d, W, pins=j), j, d, (lo - d, hi - d, inf))
        return [(dom, _Action(z=k - d, coord=j, dx=d, dw=-d))], cod

    if kind == "theta-terminal":
        l = param("l", l, lo=1)
        dom = _stratum_spec(n, l, W, pins=n)
        cod = _stratum_spec(n, 0, W, pins=n)
        return [(dom, _Action(z=0))], cod

    if kind == "gamma":
        k = param("k", k)
        dom = _stratum_spec(n, k, W)
        cod = _stratum_spec(n, k, W, shear=True)
        return [(dom, _Action(z=k, shear=True))], cod

    dom = _stratum_spec(n, 0, W)  # t
    return [(dom, _Action(z=0))], dom


# Each record's names of the failure kinds of ``_image_check``, in precedence order.
_FAILURE_NAMES = {
    "partition": (("collision", "overlap"), ("uncovered", "gap"), ("outside", "spill")),
    "bijection": (("moved", "target-moved"), ("collision", "collision"),
                  ("outside", "image-outside-codomain"),
                  ("uncovered", "codomain-not-covered")),
}


def _verify(kind, n, k, j, l, window=DEFAULT_WINDOW, kinds=_PARAMETERS):
    """One check of a kind in ``kinds``: its sources ranked into its codomain
    by one image check.  A partition records the full window as its domain
    and the pieces as its image.  A record with no failing row still fails,
    as a size mismatch, when its two row counts differ."""
    n = integer(n, "coordinate count", 1)
    W = integer(window, "window bound", 1, error=OutOfRange)
    if kind not in kinds:
        raise OutOfRange(f"unknown map id {kind!r}; expected one of {tuple(kinds)}")
    rows, size, found = _image_check(*_check_setup(kind, n, k, j, l, W))
    if kind == "partition":  # the full window is the domain, the pieces the image
        check, params, rows, size = kind, {"n": n, "k": k, "j": j, "W": W}, size, rows
    else:
        check, params = "bijection", {"map": kind, "n": n, "k": k, "j": j, "l": l, "W": W}
    counterexample = _counterexample(found, _FAILURE_NAMES[check])
    if counterexample is None and rows != size:
        counterexample = {"kind": "size-mismatch"}
    return VerifyReport(check, params, counterexample is None, domain_size=rows,
                        image_size=size, counterexample=counterexample)


def verify_bijection(map_id, n, k=None, j=None, l=None, window=DEFAULT_WINDOW):
    """Exhaustively check one structural map on paired windows.

    The image must hit the independently described codomain window exactly
    once each, and every element must keep its target.
    """
    return _verify(map_id, n, k, j, l, window, kinds=MAP_IDS)


def verify_partition(n, k, j, window=DEFAULT_WINDOW):
    """Check that a windowed stratum splits exactly into its k + 1 pieces.

    The degree-k, level-j stratum is cut along source coordinate j: one
    piece with at least k to give (including inf), and one pinned piece
    per shortfall l = 0..k-1.  Pieces are ranked into the full window and
    must cover it with no overlap and no gap.
    """
    return _verify("partition", n, k, j, None, window)


# --- terminal tally ---------------------------------------------------------


def windowed_terminal_counts(n, k, window=DEFAULT_TALLY_WINDOW):
    """Peel a windowed degree-k start stratum down to terminal pieces.

    Each node of the peeling tree, a window of degree kk at level jj, is
    cut along source coordinate jj into the piece with at least kk to give
    and one piece per shortfall l; each piece is pushed by its map's action
    into the box the action carries it to (a theta-peel box is the next
    node).  Every cut and push is one exact image check.  Returns the
    number of terminal degree-zero copies reached at every level (they do
    not depend on the window) and the terminal-counts record, which fails
    on an element lost or duplicated along the way, then on counts other
    than ``line_bundles.recursion_expand(n, k).mult``.
    """
    from . import line_bundles

    n = integer(n, "coordinate count", 1)
    k = integer(k, "degree")
    if k < 1:
        raise OutOfRange(f"the peeling starts at degree >= 1, got {k}")
    W = integer(window, "window bound", 1, error=OutOfRange)
    counts = [0] * (n + 1)
    image_size = 0
    checked = []  # (rows, size, found) of every image check

    def check(sources, box):
        checked.append(_image_check(sources, box))
        return checked[-1][1]

    def push(piece, map_id, kk=None, jj=None, l=None):
        """The box the map's action carries ``piece`` to, and its size."""
        [(_, action)], _ = _check_setup(map_id, n, kk, jj, l, W)
        box = action.box(piece)
        return box, check([(piece, action)], box)

    def expand(node, jj):
        """Cut and push one node and its subtree; returns the node's size."""
        nonlocal image_size
        kk = node.z
        if jj == n:
            counts[n] += 1
            image_size += push(node, "theta-terminal", l=kk)[1]
            return None
        counts[jj] += 1
        above, *shortfalls = pieces = _cut(node, jj)
        size = check([(piece, _Action(z=kk)) for piece in pieces], node)
        image_size += push(above, "theta-shift", kk, jj)[1]
        for l, piece in enumerate(shortfalls):
            expand(push(piece, "theta-peel", kk, jj, l)[0], jj + 1)
        return size

    domain_size = expand(_stratum_spec(n, k, W), 0)
    counts, expected = tuple(counts), line_bundles.recursion_expand(n, k).mult
    if image_size != domain_size or any(found or rows != size for rows, size, found in checked):
        counterexample = {"kind": "element-count-drift"}
    elif counts != expected:
        counterexample = {"kind": "multiplicity-mismatch", "counts": list(counts),
                          "expected": list(expected)}
    else:
        counterexample = None
    report = VerifyReport("terminal-counts", {"n": n, "k": k, "W": W},
                          counterexample is None, domain_size=domain_size,
                          image_size=image_size, counterexample=counterexample)
    return counts, report


def verify_terminal_counts(n, k, window=DEFAULT_TALLY_WINDOW):
    """The terminal-counts record of ``windowed_terminal_counts``."""
    return windowed_terminal_counts(n, k, window)[1]
