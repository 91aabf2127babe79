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
position of every image at once.  The map is a bijection when the image
positions, counted, equal the codomain's membership indicator.  No row
is packed, sorted or limited by a field width.  The element-level
enumeration unranks the flagged positions of the same blocks, so the
window rules are written once.
"""

from __future__ import annotations

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


def _as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidClass(f"{what} must be an integer, got {value!r}")
    return value


def _coordinate_count(n):
    n = _as_int(n, "coordinate count")
    if n < 1:
        raise InvalidClass(f"coordinate count must be >= 1, got {n}")
    return n


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
        entry = _as_int(entry, "source coordinate")
        if entry < 0:
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
        n = _coordinate_count(self.n)
        z = _as_int(self.z, "degree")
        x = tuple(_as_int(v, "offset") for v in self.x)
        w = tuple(self.w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        if len(x) != n or len(w) != n:
            raise InvalidClass(f"need {n} offsets and {n} source coordinates")
        for entry in w:
            if is_finite(entry):
                _as_int(entry, "source coordinate")
                if entry < 0:
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
    """Apply one map's row of ``_bijection_setup`` to a single element.

    The window is the smallest that holds g, so g is in the domain window
    exactly when it is in the map's domain.  A wrong variant or parameter
    raises ``wrong``, a domain miss ``miss`` (default ``wrong``).
    """
    if not isinstance(g, GroupoidElement) or g.primed:
        raise wrong(f"{map_id} is defined on plain elements")
    W = max([1] + [abs(v) for v in g.x] + [v for v in g.w if is_finite(v)])
    dom, cod, action = _bijection_setup(map_id, g.n, k, j, l, W, refuse=wrong)
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
        if isinstance(self.W, bool) or not isinstance(self.W, int) or self.W < 1:
            raise OutOfRange(f"window bound must be an integer >= 1, got {self.W!r}")


def _window_value(window):
    if isinstance(window, Window):
        return window.W
    Window(window)
    return window


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
        yield from block.rows(np.flatnonzero(block.indicator()))


def _element_from_raw(raw, variant):
    z, x, w = raw
    return GroupoidElement(n=len(x), z=z, x=x, w=w, primed=(variant == "primed"))


def enumerate_stratum(n, k, j=0, window=8):
    """All canonical degree-k elements with the first j source coordinates 0,
    finite source entries at most W and offsets at most W in magnitude."""
    n = _coordinate_count(n)
    k = _as_int(k, "degree")
    j = _as_int(j, "level")
    if not 0 <= j <= n:
        raise OutOfRange(f"level j={j} outside 0..{n}")
    W = _window_value(window)
    spec = _stratum_spec(n, k, W, pins=j)
    return [_element_from_raw(raw, "plain") for raw in _iter_raw(spec)]


# --- exact ranking over pair tables -------------------------------------------

# Largest |offset|, source or degree a window may hold.  Sums over a block's
# free coordinates then stay far inside int64, so no rank or offset wraps.
_VALUE_LIMIT = 2 ** 40


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
        self.size = len(self.w)

    def index(self, x, w):
        """Table index of each pair (x[i], w[i]); -1 where the pair is absent."""
        row = w - self.w_lo
        inside = (row >= 0) & (row < len(self.start))
        row = np.where(inside, row, 0)
        start = self.start[row]
        inside &= (x >= start) & (x <= self.x_hi)
        return np.where(inside, self.base[row] + x - start, -1)


def _outer(terms):
    """Mixed-radix outer sum of per-coordinate terms, coordinate 0 slowest."""
    total = np.zeros(1, dtype=np.int64)
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
    positions that are rows of the window.
    """

    def __init__(self, spec, p, axes):
        self.spec, self.p = spec, p
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

    def indicator(self):
        s, p = self.spec, self.p
        if self.by_x0:
            if s.shear:
                return self.x0 == -s.z  # the row degree z + x[0] must vanish
            return np.full(self.size, s.z == 0)
        if p == s.n:
            return np.ones(self.size, dtype=bool)
        forced = -s.z - _outer(c * a.x for c, a in zip(_forced_coefs(s, p), self.axes))
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


def _blocks(spec):
    """The blocks of a window by increasing p, leaving out each p whose
    infinite source or zero tail offsets the window excludes; pair tables
    are built once per coordinate and shared by every block."""
    n = spec.n
    values = (spec.z,) + spec.x_lo + spec.x_hi + spec.w_lo + spec.w_hi
    if max(abs(v) for v in values) > _VALUE_LIMIT:
        raise OutOfRange("window values must stay within +-2**40 to be ranked exactly")
    axes = []
    blocks = {}
    for p in range(n + 1):
        if p < n and not spec.w_inf[p]:
            continue
        if any(spec.x_lo[q] > 0 or spec.x_hi[q] < 0 for q in range(p + 1, n)):
            continue
        while len(axes) < p:
            i = len(axes)
            axes.append(_Axis(spec.x_lo[i], spec.x_hi[i], spec.w_lo[i], spec.w_hi[i]))
        blocks[p] = _Block(spec, p, axes)
    return blocks


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


def _image_ranks(db, a, cb):
    """Position in block cb of the image of every position of block db.

    -1 marks an image that no position of cb holds.  Each free coordinate
    is mapped on its pair table and looked up in cb's table; the rank is
    the mixed-radix outer sum of those indices, and the image degree and
    forced offset must equal the ones cb derives from the image's free
    coordinates.
    """
    def none():
        return np.full(db.size, -1, dtype=np.int64)

    if cb is None or not cb.size or not db.size:
        return none()
    if not db.axes:  # p = 0: at most one row, or the primed first-offset block
        ranks = [cb.rank(a.row(raw)) for raw in db.rows(np.arange(db.size))]
        return np.array([-1 if r is None else r for r in ranks], dtype=np.int64)
    s, t, p, c = db.spec, cb.spec, db.p, a.coord
    if (c > p and a.dx) or (c >= p and a.pin):
        return none()  # the image leaves the infinite tail
    invalid = -(cb.size + 1)  # keeps every sum that includes it negative
    terms, mismatch = [], []
    coefs = zip(_forced_coefs(s, p), _forced_coefs(t, p))
    tables = zip(db.axes, cb.axes, cb.strides, coefs)
    for i, (da, ca, stride, (dc, cc)) in enumerate(tables):
        x2, w2 = da.x, da.w
        if i == c:
            x2 = x2 + a.dx
            w2 = np.zeros_like(w2) if a.pin else w2 + a.dw
        idx = ca.index(x2, w2)
        if i == 0:
            z2 = a.z + da.x if a.shear else np.full(da.size, a.z)
            idx[z2 != (t.z + x2 if t.shear else t.z)] = -1
        terms.append(np.where(idx >= 0, idx * stride, invalid))
        mismatch.append(cc * x2 - dc * da.x)
    ranks = _outer(terms)
    if p < s.n:
        # image forced offset minus the one cb forces for the image
        const = t.z - s.z + (a.dx if c == p else 0)
        if all((m == m[0]).all() for m in mismatch):
            if const + sum(int(m[0]) for m in mismatch):
                return none()
        else:
            ranks[_outer(mismatch) + const != 0] = -1
    return ranks


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

    Blocks are compared one p at a time, which bounds memory by the
    largest block.  The codomain rows are hit exactly once each when
    ``np.bincount`` of the valid image ranks equals cod's indicator and
    no kept source row has an invalid image.  Returns the number of source
    rows, the number of codomain rows, and the first raw row found of each
    failure kind: "moved" (a source row whose target the action changes),
    "collision", "outside" (an image that is not a codomain row) and
    "uncovered".
    """
    cod_blocks = _blocks(cod)
    sources = [(_blocks(spec), a) for spec, a in sources]
    rows = size = 0
    found = {}
    for p in range(cod.n + 1):
        cb = cod_blocks.get(p)
        member = cb.indicator() if cb else np.zeros(0, dtype=bool)
        size += int(np.count_nonzero(member))
        counts = np.zeros(len(member), dtype=np.int64)
        for blocks, a in sources:
            db = blocks.get(p)
            if db is None:
                continue
            keep = db.indicator()
            ranks = _image_ranks(db, a, cb)[keep]
            rows += len(ranks)
            if "moved" not in found:
                r = _first_moved(db, a, keep)
                if r is not None:
                    found["moved"] = db.unrank(r)
            bad = ranks < 0
            if bad.any():
                if "outside" not in found:
                    r = int(np.flatnonzero(keep)[np.argmax(bad)])
                    found["outside"] = a.row(db.unrank(r))
                ranks = ranks[~bad]
            counts += np.bincount(ranks, minlength=len(member))
        if not np.array_equal(counts, member):
            for kind, hit in (("collision", (counts > 1) & member),
                              ("outside", (counts > 0) & ~member),
                              ("uncovered", (counts == 0) & member)):
                if kind not in found and hit.any():
                    found[kind] = cb.unrank(int(np.argmax(hit)))
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


# --- bijection checks -------------------------------------------------------

MAP_IDS = ("theta-neg", "theta-shift", "theta-peel", "theta-terminal", "gamma", "t")


def _bijection_setup(map_id, n, k, j, l, W, refuse=OutOfRange):
    """The one description of each structural map: its parameter domain,
    domain window, codomain window and per-coordinate action.

    The element maps (``theta_*``, ``gamma_iso``, ``t_iso``), the bijection
    checks and the terminal tally all read it.  Windows are paired so the
    map carries the domain box exactly onto the codomain box: whatever
    shift the map applies to a coordinate is also applied to that
    coordinate's range.  A parameter outside the map's domain raises
    ``refuse`` naming the parameter.

    The t row joins the degree-0 window to itself by the identity action,
    because ``TElement`` rows are exactly the plain degree-0 rows; its
    check can fail only if the engine is broken.
    """
    def param(name, value, lo=-math.inf, hi=math.inf):
        if not lo <= _as_int(value, name) <= hi:
            raise refuse(f"{map_id} needs {lo} <= {name} <= {hi}, got {name}={value}")
        return value

    if map_id == "theta-neg":
        k = param("k", k, hi=0)
        dom = _stratum_spec(n, k, W)
        cod = _stratum_spec(
            n, 0, W,
            w_over={0: (-k, -k + W, True)},
            x_over={0: (-W + k, W + k)},
        )
        return dom, cod, _Action(z=0, coord=0, dx=k, dw=-k)

    if map_id == "theta-shift":
        k, j = param("k", k, lo=1), param("j", j, lo=0, hi=n - 1)
        dom = _stratum_spec(n, k, W, pins=j, w_over={j: (k, k + W, True)})
        cod = _stratum_spec(n, 0, W, pins=j, x_over={j: (-W + k, W + k)})
        return dom, cod, _Action(z=0, coord=j, dx=k, dw=-k)

    if map_id == "theta-peel":
        k, j = param("k", k, lo=1), param("j", j, lo=0, hi=n - 1)
        l = param("l", l, lo=0, hi=k - 1)
        dom = _stratum_spec(n, k, W, pins=j, w_over={j: (l, l, False)})
        cod = _stratum_spec(n, k - l, W, pins=j + 1, x_over={j: (-W + l, W + l)})
        return dom, cod, _Action(z=k - l, coord=j, dx=l, pin=True)

    if map_id == "theta-terminal":
        l = param("l", l, lo=1)
        dom = _stratum_spec(n, l, W, pins=n)
        cod = _stratum_spec(n, 0, W, pins=n)
        return dom, cod, _Action(z=0)

    if map_id == "gamma":
        k = param("k", k)
        dom = _stratum_spec(n, k, W)
        cod = _stratum_spec(n, k, W, variant="primed", shear=True)
        return dom, cod, _Action(z=k, shear=True)

    if map_id == "t":
        dom = _stratum_spec(n, 0, W)
        return dom, dom, _Action(z=0)

    raise OutOfRange(f"unknown map id {map_id!r}; expected one of {MAP_IDS}")


def verify_bijection(map_id, n, k=None, j=None, l=None, window=8):
    """Exhaustively check one structural map on paired windows.

    The image must hit the independently described codomain window exactly
    once each, and every element must keep its target.
    """
    n = _coordinate_count(n)
    W = _window_value(window)
    dom_spec, cod_spec, action = _bijection_setup(map_id, n, k, j, l, W)
    domain_size, image_size, found = _image_check([(dom_spec, action)], cod_spec)
    counterexample = _counterexample(found, (
        ("moved", "target-moved"),
        ("collision", "collision"),
        ("outside", "image-outside-codomain"),
        ("uncovered", "codomain-not-covered"),
    ))
    return VerifyReport(
        check="bijection",
        params={"map": map_id, "n": n, "k": k, "j": j, "l": l, "W": W},
        passed=counterexample is None,
        domain_size=domain_size,
        image_size=image_size,
        counterexample=counterexample,
    )


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


def verify_partition(n, k, j, window=8):
    """Check that a windowed stratum splits exactly into its k + 1 pieces.

    The degree-k, level-j stratum is cut along source coordinate j: one
    piece with at least k to give (including inf), and one pinned piece
    per shortfall l = 0..k-1.  Pieces are ranked into the full window and
    must cover it with no overlap and no gap.
    """
    n = _coordinate_count(n)
    k = _as_int(k, "degree")
    j = _as_int(j, "level")
    if k < 1:
        raise OutOfRange(f"partitions exist for degrees >= 1, got {k}")
    if not 0 <= j <= n - 1:
        raise OutOfRange(f"level j={j} outside 0..{n - 1}")
    W = _window_value(window)
    full, pieces = _partition_setup(n, k, j, W)
    piece_rows, full_rows, found = _image_check(
        [(piece, _Action(z=k)) for piece in pieces], full)
    counterexample = _counterexample(found, (
        ("collision", "overlap"), ("uncovered", "gap"), ("outside", "spill")))
    return VerifyReport(
        check="partition",
        params={"n": n, "k": k, "j": j, "W": W},
        passed=counterexample is None,
        domain_size=full_rows,
        image_size=piece_rows,
        counterexample=counterexample,
    )


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
    n = _coordinate_count(n)
    k = _as_int(k, "degree")
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
        action = _bijection_setup(map_id, n, kk, jj, l, W)[2]
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
