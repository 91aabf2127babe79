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
The "primed" kind (image of the degree-shear gamma_iso) forces instead

    w[0] = inf  =>  z = 0 and x[1] = ... = x[n-1] = 0,
    w[p] = inf, p >= 1  =>  x[p] = -z - (x[1] + ... + x[p-1]), rest 0,

and the degree-free kind (image of t_iso on the degree-zero part) drops
z and keeps the plain rule with z = 0.

Four stratum bijections drive the line-bundle recursion: theta_neg
trades a non-positive degree for depth in the first source coordinate;
theta_shift removes k units of degree against a source coordinate that
has at least k to give; theta_peel pays out only part of the degree and
pins the coordinate to zero; theta_terminal forgets the degree once
every source coordinate is pinned.  All four preserve the target.

Verification covers windowed strata exhaustively without listing their
elements.  A window splits into blocks by the position p of the first
infinite source coordinate, and each block is the product of small
per-coordinate tables of (offset, source) pairs, the offset at p being
forced.  An element's exact position in its block is the mixed-radix
number of its table indices.  A structural map acts on one coordinate,
so it is applied to the tables; looking the image pairs up in the
codomain's tables and summing over the product gives the codomain
position of every image at once.  The windows of one check share one
read-only table per distinct range, and each source coordinate is looked
up once per check, not once per block; a coordinate the map leaves alone
on the codomain's own table is its own lookup.  The map is a bijection
when the image positions, marked in a one-byte hit map, equal the
codomain's membership indicator and the number of images placed equals
the number of codomain rows, so that no position is hit twice.  No row
is packed, sorted or limited by a field width.  The element-level
enumeration unranks the flagged positions of the same blocks, so the
window rules are written once.  Every walk of a block goes through its
parts: runs of consecutive positions, at most ``_CHUNK`` of them, each
ranked, unranked and flagged as a block of its own, so arrays of ranks
and offsets are bounded by a part and only the one-byte maps of a
codomain block by the block.  Block sizes are counted before any table
is built, so a window too large to rank is refused first.  The partition
of a stratum into its k + 1 pieces and each structural map are rows of
one table of sources (windows under actions) and codomain windows,
checked by one body.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegreeNonZero,
    InvalidClass,
    NotComposable,
    NotInGroupoid,
    OutOfRange,
    WrongStratum,
    integer,
)
from .extnat import INF, ext_from_json, ext_to_json, is_finite
from .reports import VerifyReport

__all__ = [
    "GroupoidElement",
    "TElement",
    "Window",
    "canonicalize",
    "compose",
    "gamma_iso",
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
    """Membership of a canonical triple; raises NotInGroupoid on failure."""
    p = _first_inf(w)
    if primed and p == 0:
        if z != 0:
            raise NotInGroupoid("an everywhere-infinite source forces degree 0")
        if any(x[1:]):
            raise NotInGroupoid("offsets past the first coordinate must vanish")
    elif p < n:
        # the primed kind leaves x[0] out of the sum
        forced = -z - sum(x[int(primed):p])
        if x[p] != forced:
            raise NotInGroupoid(f"offset {p} must close the degree: expected {forced}")
        if any(x[p + 1:]):
            raise NotInGroupoid("offsets past the first infinite coordinate must vanish")
    for i in range(p):
        if x[i] + w[i] < 0:
            raise NotInGroupoid(
                f"target coordinate {i} leaves the positive cone: {x[i]} + {w[i]} < 0"
            )


@dataclass(frozen=True)
class GroupoidElement:
    """A canonical groupoid element; build through ``canonicalize``.

    Direct construction re-validates, so no invalid element can exist.
    """

    n: int
    z: int
    x: tuple
    w: tuple
    primed: bool = False

    def __post_init__(self):
        n = integer(self.n, "coordinate count", 1)
        z = integer(self.z, "degree")
        x = tuple(integer(v, "offset") for v in self.x)
        w = tuple(self.w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        if len(x) != n or len(w) != n:
            raise InvalidClass(f"need {n} offsets and {n} source coordinates")
        for entry in w:
            if is_finite(entry):
                if integer(entry, "source coordinate") < 0:
                    raise NotInGroupoid(f"source coordinates are >= 0 or inf, got {entry}")
        if w != _collapse(w):
            raise NotInGroupoid("source is not in canonical form; use canonicalize")
        _validate_member(n, z, x, w, self.primed)

    def source(self):
        return self.w

    def target(self):
        return tuple(xv + wv for xv, wv in zip(self.x, self.w))

    def __str__(self):
        tag = "'" if self.primed else ""
        return f"({self.z}, {self.x}, {self.w}){tag}"

    def to_json(self):
        record = {
            "z": self.z,
            "x": list(self.x),
            "w": [ext_to_json(v) for v in self.w],
        }
        if self.primed:
            record["primed"] = True
        return record

    @classmethod
    def from_json(cls, obj):
        return canonicalize(
            len(obj["x"]),
            obj["z"],
            tuple(obj["x"]),
            tuple(ext_from_json(v) for v in obj["w"]),
            primed=bool(obj.get("primed", False)),
        )


@dataclass(frozen=True)
class TElement:
    """A degree-free element: the plain membership rule at degree zero."""

    n: int
    x: tuple
    w: tuple

    def __post_init__(self):
        probe = GroupoidElement(self.n, 0, self.x, self.w)
        object.__setattr__(self, "x", probe.x)
        object.__setattr__(self, "w", probe.w)

    def source(self):
        return self.w

    def target(self):
        return tuple(xv + wv for xv, wv in zip(self.x, self.w))

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
    return GroupoidElement(n=g.n, z=z, x=x, w=w, primed=cod.variant == "primed")


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
    """Pay out l < k units of degree and pin source coordinate j to zero."""
    return _map_element("theta-peel", g, k=k, j=j, l=l)


def theta_terminal(g, l):
    """Forget a positive degree once every source coordinate is pinned to 0."""
    return _map_element("theta-terminal", g, l=l)


# ---------------------------------------------------------------------------
# Windowed enumeration.


@dataclass(frozen=True)
class Window:
    """Finite enumeration bound: source entries in [0, W], offsets in [-W, W]."""

    W: int

    def __post_init__(self):
        integer(self.W, "window bound", 1, error=OutOfRange)


def _window_value(window):
    return window.W if isinstance(window, Window) else Window(window).W


@dataclass(frozen=True)
class _WindowSpec:
    """Per-coordinate enumeration ranges for one stratum window.

    ``shear`` marks the codomain of gamma_iso, where the degree of a row
    is z + x[0] instead of the constant z.
    """

    n: int
    z: int
    w_lo: tuple
    w_hi: tuple
    w_inf: tuple
    x_lo: tuple
    x_hi: tuple
    variant: str = "plain"
    shear: bool = False


def _stratum_spec(n, z, W, pins=0, w_over=None, x_over=None, variant="plain", shear=False):
    w_lo = [0] * n
    w_hi = [W] * n
    w_inf = [True] * n
    for i in range(pins):
        w_hi[i] = 0
        w_inf[i] = False
    for i, (lo, hi, inf_ok) in (w_over or {}).items():
        w_lo[i], w_hi[i], w_inf[i] = lo, hi, inf_ok
    x_lo = [-W] * n
    x_hi = [W] * n
    for i, (lo, hi) in (x_over or {}).items():
        x_lo[i], x_hi[i] = lo, hi
    return _WindowSpec(
        n=n, z=z,
        w_lo=tuple(w_lo), w_hi=tuple(w_hi), w_inf=tuple(w_inf),
        x_lo=tuple(x_lo), x_hi=tuple(x_hi),
        variant=variant, shear=shear,
    )


def _in_box(spec, raw):
    """Whether a member row lies in the window's degree, offset and source
    ranges; pure Python, one row."""
    z, x, w = raw
    return (z == (spec.z + x[0] if spec.shear else spec.z)
            and all(lo <= v <= hi for v, lo, hi in zip(x, spec.x_lo, spec.x_hi))
            and all(lo <= v <= hi if is_finite(v) else inf_ok
                    for v, lo, hi, inf_ok in zip(w, spec.w_lo, spec.w_hi, spec.w_inf)))


def _put(values, c, value):
    return values[:c] + (value,) + values[c + 1:]


def _recoord(spec, c, z, dx, w_range):
    """``spec`` at degree z, with coordinate c's offset range shifted by dx
    and its source range replaced by ``w_range`` = (lo, hi, inf_ok)."""
    lo, hi, inf_ok = w_range
    return replace(spec, z=z,
                   x_lo=_put(spec.x_lo, c, spec.x_lo[c] + dx),
                   x_hi=_put(spec.x_hi, c, spec.x_hi[c] + dx),
                   w_lo=_put(spec.w_lo, c, lo), w_hi=_put(spec.w_hi, c, hi),
                   w_inf=_put(spec.w_inf, c, inf_ok))


def _iter_raw(spec):
    """Element-level enumeration of a window: raw (z, x, w) tuples, block by
    block, each block in position order."""
    for block in _blocks(spec).values():
        for part in block.parts():
            yield from part.rows(np.flatnonzero(part.indicator()))


def _element_from_raw(raw, variant):
    z, x, w = raw
    return GroupoidElement(n=len(x), z=z, x=x, w=w, primed=(variant == "primed"))


def enumerate_stratum(n, k, j=0, window=8):
    """All canonical degree-k elements with the first j source coordinates 0,
    finite source entries at most W and offsets at most W in magnitude."""
    n = integer(n, "coordinate count", 1)
    k = integer(k, "degree")
    j = integer(j, "level")
    if not 0 <= j <= n:
        raise OutOfRange(f"level j={j} outside 0..{n}")
    W = _window_value(window)
    spec = _stratum_spec(n, k, W, pins=j)
    return [_element_from_raw(raw, "plain") for raw in _iter_raw(spec)]


# --- exact ranking over pair tables -------------------------------------------

# Largest |offset|, source or degree a window may hold.  Sums over a block's
# free coordinates then stay far inside int64, so no rank or offset wraps.
_VALUE_LIMIT = 2 ** 40

# Most positions one part of a block may have.  Every int64 array of ranks
# or offsets that a check builds is the size of one part.
_CHUNK = 2 ** 18

# Most positions one block may have.  A check keeps a one-byte hit map and a
# one-byte indicator of each codomain block, and one byte more of hit counts
# when the block fails, so this keeps one check under about 1.6 GB.
_BLOCK_LIMIT = 2 ** 29


class _Axis:
    """Pair table of one finite source coordinate.

    Every (x, w) with w_lo <= w <= w_hi and max(x_lo, -w) <= x <= x_hi,
    ordered by w, then x.
    """

    def __init__(self, x_lo, x_hi, w_lo, w_hi):
        w = np.arange(w_lo, w_hi + 1, dtype=np.int64)
        self.start = np.maximum(x_lo, -w)
        lens = np.maximum(x_hi - self.start + 1, 0)
        self.base = np.cumsum(lens) - lens
        self.x_hi, self.w_lo = x_hi, w_lo
        self.w = np.repeat(w, lens)
        self.x = (np.arange(len(self.w), dtype=np.int64)
                  + np.repeat(self.start - self.base, lens))
        for table in (self.x, self.w, self.start, self.base):
            table.setflags(write=False)  # one table serves every window of a check
        self.size = len(self.w)
        self.first = 0  # index of the first entry in the whole table

    def index(self, x, w):
        """Table index of each pair (x[i], w[i]); -1 where the pair is absent."""
        row = w - self.w_lo
        inside = (row >= 0) & (row < len(self.start))
        row = np.where(inside, row, 0)
        start = self.start[row]
        inside &= (x >= start) & (x <= self.x_hi)
        return np.where(inside, self.base[row] + x - start, -1)


class _Run(_Axis):
    """Entries lo..hi-1 of a pair table, hi cut at its end, as a table of
    their own."""

    def __init__(self, table, lo, hi):
        vars(self).update(vars(table))
        hi = min(hi, table.size)
        self.x, self.w, self.size = table.x[lo:hi], table.w[lo:hi], hi - lo
        self.first = table.first + lo

    def index(self, x, w):
        index = super().index(x, w) - self.first
        return np.where((index >= 0) & (index < self.size), index, -1)


def _outer(terms, start=0):
    """Mixed-radix outer sum of per-coordinate terms, coordinate 0 slowest,
    plus ``start``."""
    total = np.array([start], dtype=np.int64)
    for term in terms:
        total = np.add.outer(total, term)
    return total.ravel()


def _forced_coefs(spec, p):
    """Coefficient of each free offset x[i], i < p, in minus the forced offset.

    The forced offset of a block is -z - sum(coef[i] * x[i]); the shear
    moves the row degree z + x[0] into the first coefficient.
    """
    if p == 0:
        return []
    return [int(spec.variant != "primed") + int(spec.shear)] + [1] * (p - 1)


class _Block:
    """The rows of one window whose first infinite source coordinate is p.

    A position in the block is the mixed-radix number of its free
    coordinates' pair-table indices, coordinate 0 slowest; the forced
    offset and the tail follow from them.  The primed window's p = 0 block
    is indexed by its first offset alone.  ``indicator`` flags the
    positions that are rows of the window.  A part of a block is a block
    whose pair tables are runs of the block's; ``start`` is its first
    position in the block.
    """

    def __init__(self, spec, p, axes, start=0):
        self.spec, self.p, self.start = spec, p, start
        self.by_x0 = spec.variant == "primed" and p == 0
        if self.by_x0:
            self.axes = ()
            self.x0 = np.arange(spec.x_lo[0], spec.x_hi[0] + 1, dtype=np.int64)
            self.shape = (len(self.x0),)
        else:
            self.axes = tuple(axes[:p])
            self.shape = tuple(a.size for a in self.axes)
        self.size = math.prod(self.shape)
        self.strides = [math.prod(self.shape[i + 1:]) for i in range(len(self.axes))]

    def parts(self):
        """The block as consecutive parts of at most ``_CHUNK`` positions, in
        position order.  Coordinate d is the slowest whose stride is at most
        ``_CHUNK``: a part takes one entry of each slower coordinate and a
        run of entries of d.  A block of at most ``_CHUNK`` positions, or
        one without pair tables, is its own one part."""
        if self.size <= _CHUNK or not self.axes:
            yield self
            return
        d = next(i for i, stride in enumerate(self.strides) if stride <= _CHUNK)
        step = _CHUNK // self.strides[d]
        choices = [[_Run(a, i, i + 1) for i in range(a.size)] for a in self.axes[:d]]
        choices.append([_Run(self.axes[d], i, i + step) for i in range(0, self.shape[d], step)])
        for runs in itertools.product(*choices):
            start = self.start + sum((r.first - a.first) * stride for r, a, stride
                                     in zip(runs, self.axes, self.strides))
            yield _Block(self.spec, self.p, [*runs, *self.axes[d + 1:]], start)

    def indicator(self):
        s, p = self.spec, self.p
        if self.by_x0:
            if s.shear:
                return self.x0 == -s.z  # the row degree z + x[0] must vanish
            return np.full(self.size, s.z == 0)
        if p == s.n:
            return np.ones(self.size, dtype=bool)
        forced = _outer((-c * a.x for c, a in zip(_forced_coefs(s, p), self.axes)), -s.z)
        return (forced >= s.x_lo[p]) & (forced <= s.x_hi[p])

    def rows(self, positions):
        """The raw (z, x, w) rows at ``positions``, in Python ints; a row's
        forced offset may lie outside the window where ``indicator`` is
        false."""
        s, p, n = self.spec, self.p, self.spec.n
        x = np.zeros((len(positions), n), dtype=np.int64)
        w = np.zeros((len(positions), p), dtype=np.int64)
        if self.by_x0:
            x[:, 0] = self.x0[positions]
            z = np.zeros(len(positions), dtype=np.int64)
        else:
            digits = np.unravel_index(positions, self.shape) if self.axes else ()
            for i, (a, d) in enumerate(zip(self.axes, digits)):
                x[:, i], w[:, i] = a.x[d], a.w[d]
            z = s.z + x[:, 0] if s.shear else np.full(len(positions), s.z, dtype=np.int64)
            if p < n:
                coefs = np.array(_forced_coefs(s, p), dtype=np.int64)
                x[:, p] = -s.z - x[:, :p] @ coefs
        tail = (INF,) * (n - p)
        return [(zr, tuple(xr), tuple(wr) + tail)
                for zr, xr, wr in zip(z.tolist(), x.tolist(), w.tolist())]

    def unrank(self, r):
        """The raw row at position r."""
        return self.rows([r])[0]

    def rank(self, raw):
        """Position of a raw row in this block, or None when no position
        holds it."""
        z, x, w = raw
        s, p = self.spec, self.p
        if _first_inf(w) != p or any(is_finite(v) for v in w[p:]) or any(x[p + 1:]):
            return None
        if self.by_x0:
            r = x[0] - s.x_lo[0]
            return r if z == 0 and 0 <= r < self.size else None
        r = 0
        for a, stride, xi, wi in zip(self.axes, self.strides, x, w):
            d = int(a.index(np.array([xi]), np.array([wi]))[0])
            if d < 0:
                return None
            r += d * stride
        if z != (s.z + x[0] if s.shear else s.z):
            return None
        forced = -s.z - sum(c * v for c, v in zip(_forced_coefs(s, p), x))
        if p < s.n and x[p] != forced:
            return None
        return r


def _axis_size(x_lo, x_hi, w_lo, w_hi):
    """Pairs in ``_Axis(x_lo, x_hi, w_lo, w_hi)``, counted in closed form:
    x_hi + w + 1 (where positive) for each w below -x_lo, and
    x_hi - x_lo + 1 for every other w."""
    a, b = max(w_lo, -x_hi), min(w_hi, -x_lo - 1)
    short = (b - a + 1) * (2 * x_hi + 2 + a + b) // 2 if a <= b else 0
    return short + max(w_hi - max(w_lo, -x_lo) + 1, 0) * max(x_hi - x_lo + 1, 0)


def _block_sizes(spec):
    """The size of each block of a window by increasing p, leaving out each
    p whose infinite source or zero tail offsets the window excludes.  Sizes
    are counted, not built, so a window too large to rank is refused before
    any table of it exists."""
    n = spec.n
    values = (spec.z,) + spec.x_lo + spec.x_hi + spec.w_lo + spec.w_hi
    if max(abs(v) for v in values) > _VALUE_LIMIT:
        raise OutOfRange("window values must stay within +-2**40 to be ranked exactly")
    axes = [_axis_size(*r) for r in zip(spec.x_lo, spec.x_hi, spec.w_lo, spec.w_hi)]
    sizes = {}
    for p in range(n + 1):
        if p < n and not spec.w_inf[p]:
            continue
        if any(spec.x_lo[q] > 0 or spec.x_hi[q] < 0 for q in range(p + 1, n)):
            continue
        if spec.variant == "primed" and p == 0:  # indexed by its first offset
            sizes[p] = max(spec.x_hi[0] - spec.x_lo[0] + 1, 0)
        else:
            sizes[p] = math.prod(axes[:p])
        if sizes[p] > _BLOCK_LIMIT:
            raise OutOfRange(f"a window block of {sizes[p]} positions exceeds "
                             f"the limit of {_BLOCK_LIMIT} (2**29); use a smaller window")
    return sizes


def _blocks(spec, tables=None):
    """The blocks of ``_block_sizes``, sharing one pair table per coordinate.

    ``tables`` maps each range (x_lo, x_hi, w_lo, w_hi) to its pair table;
    a table is built the first time its range is asked for, so the windows
    of one check that share a dict share a table wherever their ranges
    agree.  Without one, the window's tables are its own."""
    sizes = _block_sizes(spec)
    tables = {} if tables is None else tables
    axes = []
    for r in list(zip(spec.x_lo, spec.x_hi, spec.w_lo, spec.w_hi))[:max(sizes, default=0)]:
        if r not in tables:
            tables[r] = _Axis(*r)
        axes.append(tables[r])
    return {p: _Block(spec, p, axes) for p in sizes}


@dataclass(frozen=True)
class _Action:
    """Per-coordinate form of a structural map.

    Coordinate ``coord`` gets ``dx`` added to its offset and its source
    either shifted by ``dw`` (inf stays inf) or, with ``pin``, set to 0;
    every other coordinate is copied.  The image degree is ``z``, plus the
    first offset with ``shear``.
    """

    z: int
    coord: int = 0
    dx: int = 0
    dw: int = 0
    pin: bool = False
    shear: bool = False

    def row(self, raw):
        """The image of one raw row."""
        z, x, w = raw
        c = self.coord
        x = _put(x, c, x[c] + self.dx)
        w = _put(w, c, 0 if self.pin else w[c] + self.dw)
        return (self.z + raw[1][0] if self.shear else self.z, x, w)

    def box(self, spec):
        """The window this action carries ``spec`` to: coordinate c's offset
        range shifted by dx, its source range shifted by dw or pinned to 0
        (an empty range stays empty), and the action's degree."""
        c = self.coord
        lo, hi = spec.w_lo[c] + self.dw, spec.w_hi[c] + self.dw
        w_range = (0, 0 if lo <= hi else -1, False) if self.pin else (lo, hi, spec.w_inf[c])
        return _recoord(spec, c, self.z, self.dx, w_range)


def _lookup(i, da, a, ca, s, t):
    """Coordinate i of window s under action a, looked up in the pair table
    ``ca`` of coordinate i of window t.

    Returns the index in ``ca`` of each entry's image, -1 where no entry
    holds it or, at coordinate 0, where the image degree is not t's, and
    the image's share of the forced-offset mismatch, as a number when it
    is the same for every entry.  An untouched coordinate on t's own table
    is its own lookup, and its mismatch vanishes when s and t weigh it
    alike.
    """
    untouched = i != a.coord or not (a.dx or a.dw or a.pin)
    x2, w2 = da.x, da.w
    if not untouched:
        x2 = x2 + a.dx
        w2 = np.zeros_like(w2) if a.pin else w2 + a.dw
    idx = np.arange(da.size, dtype=np.int64) if untouched and da is ca else ca.index(x2, w2)
    if i == 0:
        z2 = a.z + da.x if a.shear else np.full(da.size, a.z)
        idx[z2 != (t.z + x2 if t.shear else t.z)] = -1
    dc, cc = _forced_coefs(s, i + 1)[i], _forced_coefs(t, i + 1)[i]
    if untouched and dc == cc:
        return idx, 0
    m = cc * x2 - dc * da.x
    return idx, int(m[:1].sum()) if (m == m[:1]).all() else m  # m[0], 0 when empty


def _image_ranks(db, a, cb, lookups=None):
    """Position in block cb of the image of every position of a part of
    block db, as a function of the part (db itself is a part of db).

    -1 marks an image that no position of cb holds.  ``lookups`` keeps the
    ``_lookup`` of each free coordinate, which does not depend on p: one
    dict serves every block pair of one source and codomain, so a check
    maps and looks up each coordinate once.  A part's ranks are the
    mixed-radix outer sum of the lookups, scaled by cb's strides, over the
    part's runs, and the image degree and forced offset must equal the
    ones cb derives from the image's free coordinates.
    """
    def none(part):
        return np.full(part.size, -1, dtype=np.int64)

    if cb is None or not cb.size or not db.size:
        return none
    if not db.axes:  # p = 0: at most one row, or the primed first-offset block
        ranks = [cb.rank(a.row(raw)) for raw in db.rows(np.arange(db.size))]
        ranks = np.array([-1 if r is None else r for r in ranks], dtype=np.int64)
        return lambda part: ranks  # such a block is its own one part
    s, t, p, c = db.spec, cb.spec, db.p, a.coord
    if (c > p and a.dx) or (c >= p and a.pin):
        return none  # the image leaves the infinite tail
    lookups = {} if lookups is None else lookups
    invalid = -(cb.size + 1)  # keeps every sum that includes it negative
    terms, mismatch = [], []
    for i, (da, ca, stride) in enumerate(zip(db.axes, cb.axes, cb.strides)):
        if i not in lookups:
            lookups[i] = _lookup(i, da, a, ca, s, t)
        idx, m = lookups[i]
        terms.append(np.where(idx >= 0, idx * stride, invalid))
        mismatch.append(m)
    # image forced offset minus the one cb forces for the image
    const = t.z - s.z + (a.dx if c == p else 0)
    if p == s.n or all(isinstance(m, int) for m in mismatch):
        if p < s.n and const + sum(mismatch):
            return none
        mismatch = None
    else:
        mismatch = [np.full(da.size, m) if isinstance(m, int) else m
                    for m, da in zip(mismatch, db.axes)]

    def part_ranks(part):
        runs = [slice(pa.first - da.first, pa.first - da.first + pa.size)
                for pa, da in zip(part.axes, db.axes)]
        ranks = _outer(term[r] for term, r in zip(terms, runs))
        if mismatch is not None:
            ranks[_outer((m[r] for m, r in zip(mismatch, runs)), const) != 0] = -1
        return ranks
    return part_ranks


def _first_moved(db, a, keep):
    """First kept position of db whose target the action changes, or None."""
    c = a.coord
    if c < db.p:
        axis = db.axes[c]
        w2 = 0 if a.pin else axis.w + a.dw
        bad = a.dx + w2 != axis.w
        if not bad.any():
            return None
        shape = [1] * db.p
        shape[c] = -1
        hit = (keep.reshape(db.shape) & bad.reshape(shape)).ravel()
    elif a.pin:
        hit = keep  # an infinite source coordinate pinned to 0
    else:
        return None
    return int(np.argmax(hit)) if hit.any() else None


def _image_check(sources, cod):
    """Map every (window, action) source into the window ``cod``.

    The windows share pair tables, and each source keeps its coordinate
    lookups for all its blocks.  Blocks are compared one p at a time, and
    every block is walked in parts, which bounds memory by a few bytes per
    position of the largest codomain block and the arrays of one part.
    Each valid image rank marks its position in a one-byte hit map, and
    ``placed`` counts the ranks marked.  The codomain rows are hit exactly
    once each when the hit map equals cod's indicator, no two ranks shared
    a position (``placed`` equals the codomain's row count) and no kept
    source row has an invalid image.  Only a block that fails walks its
    sources again, counting the hits of each position up to 2 in one byte,
    to name the failure.  Returns the number of source rows, the number of
    codomain rows, and the first raw row found of each failure kind:
    "moved" (a source row whose target the action changes), "collision",
    "outside" (an image that is not a codomain row) and "uncovered".
    """
    tables = {}
    cod_blocks = _blocks(cod, tables)
    sources = [(_blocks(spec, tables), a, {}) for spec, a in sources]
    rows = size = 0
    found = {}

    def images(p, cb):
        """Each part of each source block at p, with its action, the flags of
        its positions, and the position in cb of each kept row's image."""
        for blocks, a, lookups in sources:
            db = blocks.get(p)
            if db is None:
                continue
            rank = _image_ranks(db, a, cb, lookups)
            for part in db.parts():
                keep = part.indicator()
                ranks = rank(part)
                if not keep.all():
                    ranks = ranks[keep]
                yield a, part, keep, ranks

    for p in range(cod.n + 1):
        cb = cod_blocks.get(p)
        cod_parts = list(cb.parts()) if cb else []
        spans = [slice(q.start, q.start + q.size) for q in cod_parts]
        member = np.zeros(sum(q.size for q in cod_parts), dtype=bool)
        for q, span in zip(cod_parts, spans):
            member[span] = q.indicator()
        members = int(np.count_nonzero(member))
        size += members
        hit = np.zeros(len(member), dtype=bool)
        placed = 0
        for a, part, keep, ranks in images(p, cb):
            rows += len(ranks)
            if "moved" not in found:
                r = _first_moved(part, a, keep)
                if r is not None:
                    found["moved"] = part.unrank(r)
            bad = ranks < 0
            if bad.any():
                if "outside" not in found:
                    r = int(np.flatnonzero(keep)[np.argmax(bad)])
                    found["outside"] = a.row(part.unrank(r))
                ranks = ranks[~bad]
            hit[ranks] = True
            placed += len(ranks)
        if placed != members or not all(np.array_equal(hit[s], member[s]) for s in spans):
            counts = np.zeros(len(member), dtype=np.uint8)
            for *_, ranks in images(p, cb):
                at, hits = np.unique(ranks[ranks >= 0], return_counts=True)
                counts[at] = np.minimum(counts[at] + np.minimum(hits, 2), 2)
            for kind, where in (("collision", lambda c, m: (c > 1) & m),
                                ("outside", lambda c, m: (c > 0) & ~m),
                                ("uncovered", lambda c, m: (c == 0) & m)):
                for span in spans:
                    if kind in found:
                        break
                    flags = where(counts[span], member[span])
                    if flags.any():
                        found[kind] = cb.unrank(span.start + int(np.argmax(flags)))
    return rows, size, found


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


def _cut(spec, j, k):
    """The k + 1 pieces of a degree-k window cut along source coordinate j:
    the piece with at least k to give (inf included), then each shortfall
    l = 0..k-1, by narrowing coordinate j's source range."""
    hi = spec.w_hi[j]
    return [_recoord(spec, j, k, 0, (k, hi, spec.w_inf[j]))] + [
        _recoord(spec, j, k, 0, (l, min(l, hi), False)) for l in range(k)]


def _partition_setup(n, k, j, W):
    """The full degree-k, level-j window and its k + 1 pieces."""
    full = _stratum_spec(n, k, W, pins=j, w_over={j: (0, k + W, True)})
    return full, _cut(full, j, k)


def _check_setup(kind, n, k, j, l, W, refuse=OutOfRange):
    """The one description of each check: its parameter domain, its sources
    as (window, action) pairs, and its codomain window.

    A map's one source is its domain window under its per-coordinate
    action; the partition's sources are the k + 1 pieces of the full
    window under the identity, and its codomain is the full window.  The
    element maps (``theta_*``, ``gamma_iso``, ``t_iso``), the checks and
    the terminal tally all read it.  Windows are paired so the map carries
    the domain box exactly onto the codomain box: whatever shift the map
    applies to a coordinate is also applied to that coordinate's range.  A
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

    if kind == "theta-neg":
        k = param("k", k, hi=0)
        dom = _stratum_spec(n, k, W)
        cod = _stratum_spec(
            n, 0, W,
            w_over={0: (-k, -k + W, True)},
            x_over={0: (-W + k, W + k)},
        )
        return [(dom, _Action(z=0, coord=0, dx=k, dw=-k))], cod

    if kind == "theta-shift":
        k, j = param("k", k, lo=1), param("j", j, lo=0, hi=n - 1)
        dom = _stratum_spec(n, k, W, pins=j, w_over={j: (k, k + W, True)})
        cod = _stratum_spec(n, 0, W, pins=j, x_over={j: (-W + k, W + k)})
        return [(dom, _Action(z=0, coord=j, dx=k, dw=-k))], cod

    if kind == "theta-peel":
        k, j = param("k", k, lo=1), param("j", j, lo=0, hi=n - 1)
        l = param("l", l, lo=0, hi=k - 1)
        dom = _stratum_spec(n, k, W, pins=j, w_over={j: (l, l, False)})
        cod = _stratum_spec(n, k - l, W, pins=j + 1, x_over={j: (-W + l, W + l)})
        return [(dom, _Action(z=k - l, coord=j, dx=l, pin=True))], cod

    if kind == "theta-terminal":
        l = param("l", l, lo=1)
        dom = _stratum_spec(n, l, W, pins=n)
        cod = _stratum_spec(n, 0, W, pins=n)
        return [(dom, _Action(z=0))], cod

    if kind == "gamma":
        k = param("k", k)
        dom = _stratum_spec(n, k, W)
        cod = _stratum_spec(n, k, W, variant="primed", shear=True)
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


def _verify(kind, n, k, j, l, window, kinds=_PARAMETERS):
    """One check of a kind in ``kinds``: its sources ranked into its codomain
    by one image check.  A partition records the full window as its domain
    and the pieces as its image."""
    n = integer(n, "coordinate count", 1)
    W = _window_value(window)
    if kind not in kinds:
        raise OutOfRange(f"unknown map id {kind!r}; expected one of {MAP_IDS}")
    rows, size, found = _image_check(*_check_setup(kind, n, k, j, l, W))
    if kind == "partition":  # the full window is the domain, the pieces the image
        check, params, rows, size = kind, {"n": n, "k": k, "j": j, "W": W}, size, rows
    else:
        check, params = "bijection", {"map": kind, "n": n, "k": k, "j": j, "l": l, "W": W}
    counterexample = _counterexample(found, _FAILURE_NAMES[check])
    return VerifyReport(check, params, counterexample is None, domain_size=rows,
                        image_size=size, counterexample=counterexample)


def verify_bijection(map_id, n, k=None, j=None, l=None, window=8):
    """Exhaustively check one structural map on paired windows.

    The image must hit the independently described codomain window exactly
    once each, and every element must keep its target.
    """
    return _verify(map_id, n, k, j, l, window, kinds=MAP_IDS)


def verify_partition(n, k, j, window=8):
    """Check that a windowed stratum splits exactly into its k + 1 pieces.

    The degree-k, level-j stratum is cut along source coordinate j: one
    piece with at least k to give (including inf), and one pinned piece
    per shortfall l = 0..k-1.  Pieces are ranked into the full window and
    must cover it with no overlap and no gap.
    """
    return _verify("partition", n, k, j, None, window)


# --- terminal tally ---------------------------------------------------------


def windowed_terminal_counts(n, k, window=6):
    """Peel a windowed degree-k start stratum down to terminal pieces.

    Each node of the peeling tree, a window of degree kk at level jj, is
    cut along source coordinate jj into the piece with at least kk to give
    and one piece per shortfall l; each piece is pushed by its map's action
    into the box the action carries it to (a theta-peel box is the next
    node).  Every cut and push is one exact image check.  Returns the
    number of terminal degree-zero copies reached at every level together
    with a conservation report (no element lost or duplicated along the
    way).  The copy counts are structural and do not depend on the window.
    """
    n = integer(n, "coordinate count", 1)
    k = integer(k, "degree")
    if k < 1:
        raise OutOfRange(f"the peeling starts at degree >= 1, got {k}")
    W = _window_value(window)
    counts = [0] * (n + 1)
    image_size = 0
    drift = False

    def check(sources, box):
        nonlocal drift
        rows, size, found = _image_check(sources, box)
        drift = drift or bool(found) or rows != size
        return size

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
        above, *shortfalls = pieces = _cut(node, jj, kk)
        size = check([(piece, _Action(z=kk)) for piece in pieces], node)
        image_size += push(above, "theta-shift", kk, jj)[1]
        for l, piece in enumerate(shortfalls):
            expand(push(piece, "theta-peel", kk, jj, l)[0], jj + 1)
        return size

    domain_size = expand(_stratum_spec(n, k, W), 0)
    conserved = not drift and image_size == domain_size
    report = VerifyReport(
        check="terminal-tally",
        params={"n": n, "k": k, "W": W, "counts": counts},
        passed=conserved,
        domain_size=domain_size,
        image_size=image_size,
        counterexample=None if conserved else {"kind": "element-count-drift"},
    )
    return tuple(counts), report


def verify_terminal_counts(n, k, window=6):
    """Compare the windowed terminal tally against the symbolic multiset."""
    from .line_bundles import recursion_expand

    counts, report = windowed_terminal_counts(n, k, window)
    expected = recursion_expand(n, k).mult
    passed = report.passed and counts == expected
    counterexample = report.counterexample
    if counterexample is None and counts != expected:
        counterexample = {
            "kind": "multiplicity-mismatch",
            "counts": list(counts),
            "expected": list(expected),
        }
    return VerifyReport(
        check="terminal-counts",
        params={"n": n, "k": k, "W": _window_value(window)},
        passed=passed,
        domain_size=report.domain_size,
        image_size=report.image_size,
        counterexample=counterexample,
    )
