"""Groupoid elements, structural maps, and the windowed verification engine."""

import itertools
import math
import types

import pytest
from hypothesis import given, seed, settings, strategies as st

from qproj import suite
from qproj.errors import (
    DegreeNonZero,
    InvalidClass,
    NotComposable,
    NotInGroupoid,
    OutOfRange,
    WrongStratum,
)
from qproj.extnat import INF, ext_to_json
from qproj.groupoid import (
    MAP_IDS,
    GroupoidElement,
    TElement,
    _Action,
    _axis_size,
    _blocks,
    _check_setup,
    _count,
    _first_inf,
    _image_check,
    _iter_raw,
    _partition_setup,
    _put,
    _Range,
    _recoord,
    _split_coordinate,
    _stratum_spec,
    _table,
    _WindowSpec,
    canonicalize,
    compose,
    enumerate_stratum,
    gamma_iso,
    gamma_iso_inv,
    t_iso,
    theta_neg,
    theta_peel,
    theta_shift,
    theta_terminal,
    verify_bijection,
    verify_partition,
    verify_terminal_counts,
    windowed_terminal_counts,
)
from qproj.line_bundles import recursion_expand


def raw_key(raw):
    z, x, w = raw
    return (z, tuple(x), tuple(ext_to_json(e) for e in w))


def raw_target(raw):
    _, x, w = raw
    return tuple(e if e is INF else v + e for v, e in zip(x, w))


def element_key(record):
    return (record["z"], tuple(record["x"]), tuple(record["w"]))


# Hand-written element maps, kept as the reference for the public maps,
# which apply the actions of ``_check_setup``.

def _w_shift(entry, t):
    return entry if entry is INF else entry + t


def _plain(g, what):
    if not isinstance(g, GroupoidElement) or g.primed:
        raise WrongStratum(f"{what} is defined on plain elements")


def ref_theta_neg(g, k):
    if k > 0:
        raise WrongStratum(f"theta_neg handles degrees <= 0, got {k}")
    _plain(g, "theta_neg")
    if g.z != k:
        raise WrongStratum(f"element has degree {g.z}, expected {k}")
    x = (g.x[0] + k,) + g.x[1:]
    w = (_w_shift(g.w[0], -k),) + g.w[1:]
    return GroupoidElement(n=g.n, z=0, x=x, w=w)


def ref_theta_shift(g, k, j):
    _plain(g, "theta_shift")
    if k < 1 or not 0 <= j <= g.n - 1 or g.z != k:
        raise WrongStratum(f"theta_shift: k={k}, j={j} do not fit {g}")
    if any(g.w[:j]) or not g.w[j] >= k:
        raise WrongStratum(f"theta_shift: source of {g} outside the stratum")
    x = g.x[:j] + (g.x[j] + k,) + g.x[j + 1:]
    w = g.w[:j] + (_w_shift(g.w[j], -k),) + g.w[j + 1:]
    return GroupoidElement(n=g.n, z=0, x=x, w=w)


def ref_theta_peel(g, k, j, l):
    _plain(g, "theta_peel")
    if k < 1 or not 0 <= j <= g.n - 1 or not 0 <= l <= k - 1 or g.z != k:
        raise WrongStratum(f"theta_peel: k={k}, j={j}, l={l} do not fit {g}")
    if any(g.w[:j]) or g.w[j] != l:
        raise WrongStratum(f"theta_peel: source of {g} outside the stratum")
    x = g.x[:j] + (g.x[j] + l,) + g.x[j + 1:]
    w = g.w[:j] + (0,) + g.w[j + 1:]
    return GroupoidElement(n=g.n, z=k - l, x=x, w=w)


def ref_theta_terminal(g, l):
    _plain(g, "theta_terminal")
    if l < 1 or g.z != l or g.w != (0,) * g.n:
        raise WrongStratum(f"theta_terminal: l={l} does not fit {g}")
    return GroupoidElement(n=g.n, z=0, x=g.x, w=g.w)


def ref_gamma_iso(g):
    if not isinstance(g, GroupoidElement) or g.primed:
        raise InvalidClass("gamma_iso is defined on plain elements")
    return GroupoidElement(n=g.n, z=g.z + g.x[0], x=g.x, w=g.w, primed=True)


def ref_t_iso(g):
    if not isinstance(g, GroupoidElement) or g.primed:
        raise InvalidClass("t_iso is defined on plain elements")
    if g.z != 0:
        raise DegreeNonZero(f"t_iso needs degree 0, got {g.z}")
    return TElement(n=g.n, x=g.x, w=g.w)


def map_table(neg, shift, peel, terminal, gamma, t):
    """Every map called as f(g, k, j, l), keyed by map id."""
    return {
        "theta-neg": lambda g, k, j, l: neg(g, k),
        "theta-shift": lambda g, k, j, l: shift(g, k, j),
        "theta-peel": lambda g, k, j, l: peel(g, k, j, l),
        "theta-terminal": lambda g, k, j, l: terminal(g, l),
        "gamma": lambda g, k, j, l: gamma(g),
        "t": lambda g, k, j, l: t(g),
    }


REFERENCE_MAPS = map_table(ref_theta_neg, ref_theta_shift, ref_theta_peel,
                           ref_theta_terminal, ref_gamma_iso, ref_t_iso)
PUBLIC_MAPS = map_table(theta_neg, theta_shift, theta_peel, theta_terminal,
                        gamma_iso, t_iso)


def reference_tally(n, k, window):
    """(counts, domain size, image size, verdict) of the peeling tree on
    concrete element sets, pushed through the reference maps."""
    start = set(enumerate_stratum(n, k, j=0, window=window))
    counts = [0] * (n + 1)
    terminal_total = 0
    losses = []

    def push(elems, fn):
        image = {fn(g) for g in elems}
        if len(image) != len(elems):
            losses.append(len(elems) - len(image))
        return image

    def expand(elems, kk, jj):
        nonlocal terminal_total
        if jj == n:
            counts[n] += 1
            terminal_total += len(push(elems, lambda g: ref_theta_terminal(g, kk)))
            return
        above = {g for g in elems if g.w[jj] >= kk}
        shortfalls = {l: set() for l in range(kk)}
        for g in elems - above:
            shortfalls[g.w[jj]].add(g)
        counts[jj] += 1
        terminal_total += len(push(above, lambda g: ref_theta_shift(g, kk, jj)))
        for l in range(kk):
            expand(push(shortfalls[l], lambda g, _l=l: ref_theta_peel(g, kk, jj, _l)),
                   kk - l, jj + 1)

    expand(start, k, 0)
    passed = not losses and terminal_total == len(start)
    return tuple(counts), len(start), terminal_total, passed


def box_rows(spec):
    """The rows of a window by brute force, independent of the image check:
    every offset vector and source in the window's box, the source
    collapsed after its first inf, kept when it is a groupoid element,
    primed in a sheared window."""
    n, primed = spec.n, spec.shear
    sources = {}
    for w in itertools.product(*(list(range(r.w_lo, r.w_hi + 1)) + [INF] * r.w_inf
                                 for r in spec.ranges)):
        p = w.index(INF) if INF in w else n
        sources[w[:p] + (INF,) * (n - p)] = None
    rows = []
    for x in itertools.product(*(range(r.x_lo, r.x_hi + 1) for r in spec.ranges)):
        z = spec.z + x[0] if spec.shear else spec.z
        for w in sources:
            try:
                GroupoidElement(n, z, x, w, primed=primed)
            except NotInGroupoid:
                continue
            rows.append((z, x, w))
    return rows


def convolved_count(spec, blocks):
    """The number of rows of a window by list convolution: the reference
    for ``_count``'s packed products.  ``sums`` counts the pair prefixes by
    offset sum, one coordinate at a time: coordinate p adds, at each x, the
    w_hi - max(w_lo, -x) + 1 sources it pairs with."""
    total, start, sums = 0, 0, [1]  # sums[i]: the prefixes summing to start + i
    for p in range(spec.n + 1):
        if p in blocks:
            lo, hi = blocks[p]
            total += sum(sums[max(lo - start, 0):max(hi - start + 1, 0)])
        if p < spec.n:
            x_lo, x_hi, w_lo, w_hi, _ = spec.ranges[p]
            first = max(x_lo, -w_hi)
            step = [max(w_hi - max(w_lo, -x) + 1, 0)
                    for x in range(first, x_hi + 1)] if w_lo <= w_hi else []
            out = [0] * (len(sums) + len(step) - 1) if step else []
            for i, v in enumerate(step):
                out[i:i + len(sums)] = [o + v * u for o, u in zip(out[i:i + len(sums)], sums)]
            start, sums = start + first, out
    return total


def axis_sizes(spec):
    """The ``_axis_size`` of each coordinate of a window, as ``_count``
    takes them."""
    return [_axis_size(*r[:4]) for r in spec.ranges]


def spec_with(n, z, W, pins=0, shear=False, over=None):
    """``_stratum_spec`` with the range fields that ``over`` gives, by
    coordinate, set: windows that no check builds."""
    spec = _stratum_spec(n, z, W, pins, shear)
    over = over or {}
    return spec.replace(ranges=tuple(
        r._replace(**over.get(c, {})) for c, r in enumerate(spec.ranges)))


def reference_bijection(map_id, n, k=None, j=None, l=None, window=8):
    """(domain size, codomain size, verdict) from elements alone: the map
    applied element by element to the domain window must be injective,
    keep every target and give exactly the codomain window."""
    [(dom, _)], cod = _check_setup(map_id, n, k, j, l, window)
    domain = [GroupoidElement(n, *raw, dom.shear) for raw in box_rows(dom)]
    if map_id == "t":
        codomain = {TElement(n, x, w) for _, x, w in box_rows(cod)}
    else:
        codomain = {GroupoidElement(n, *raw, cod.shear) for raw in box_rows(cod)}
    image = [REFERENCE_MAPS[map_id](g, k, j, l) for g in domain]
    ok = (len(set(image)) == len(image) and set(image) == codomain
          and all(g.target() == h.target() for g, h in zip(domain, image)))
    return len(domain), len(codomain), ok


def reference_partition(n, k, j, window):
    """(full size, summed piece sizes, verdict) from the raw rows alone."""
    full, pieces = _partition_setup(n, k, j, window)
    full_rows = {raw_key(r) for r in box_rows(full)}
    piece_rows = [raw_key(r) for piece in pieces for r in box_rows(piece)]
    ok = len(set(piece_rows)) == len(piece_rows) and set(piece_rows) == full_rows
    return len(full_rows), len(piece_rows), ok


def position(raw):
    """The sort key of a raw row in its window: its block p, then
    (w[0], x[0], ..., w[p-1], x[p-1]), the pair-table order."""
    _, x, w = raw
    p = _first_inf(w)
    return p, [(w[i], x[i]) for i in range(p)]


def element_image_check(sources, cod):
    """The image check from the rows of ``box_rows`` alone, as the same
    (rows, size, found) triple.

    Each source row is mapped by its action, in order of block, then
    source, then position.  "moved" and "outside" name the first source
    row whose target moves and the image of the first one that is not a
    codomain row; "collision" and "uncovered" the first codomain row, in
    position order, hit twice or more and not at all."""
    codomain = sorted(box_rows(cod), key=position)
    hits = dict.fromkeys(codomain, 0)
    rows = sorted((((position(raw)[0], i, position(raw)[1]), raw, action)
                   for i, (spec, action) in enumerate(sources) for raw in box_rows(spec)),
                  key=lambda row: row[0])
    found = {}
    for _, raw, action in rows:
        image = action.row(raw)
        if raw_target(image) != raw_target(raw):
            found.setdefault("moved", raw)
        if image in hits:
            hits[image] += 1
        else:
            found.setdefault("outside", image)
    for kind, test in (("collision", lambda k: k > 1), ("uncovered", lambda k: k == 0)):
        first = next((raw for raw in codomain if test(hits[raw])), None)
        if first is not None:
            found[kind] = first
    return len(rows), len(codomain), found


@pytest.fixture
def engine_calls(monkeypatch):
    """Check every ``_image_check`` call against ``element_image_check``;
    yields the list of checked calls."""
    import qproj.groupoid as G

    real, calls = G._image_check, []

    def checked(sources, cod):
        got = real(sources, cod)
        calls.append(got)
        assert got == element_image_check(sources, cod), (sources, cod)
        return got

    monkeypatch.setattr(G, "_image_check", checked)
    yield calls


def cut_into_parts(sources, size):
    """Each source window cut along coordinate 0 into parts of at most
    ``size`` source values, in place and in order, the last part of each
    keeping its infinite source.  The rows of a block keep their order,
    since position order starts with w[0]; a list whose windows already
    differ at another coordinate is left whole."""
    if _split_coordinate(sources) not in (None, 0):
        return sources
    parts = []
    for spec, action in sources:
        r = spec.ranges[0]
        cuts = [r._replace(w_lo=lo, w_hi=min(lo + size - 1, r.w_hi), w_inf=False)
                for lo in range(r.w_lo, r.w_hi + 1, size)] or [r]
        cuts[-1] = cuts[-1]._replace(w_inf=r.w_inf)
        parts += [(spec.replace(ranges=_put(spec.ranges, 0, q)), action)
                  for q in cuts]
    return parts


@pytest.fixture(params=[1, 7])
def small_parts(request, monkeypatch):
    """Every image check run on its source windows cut into parts of 1 and
    of 7 source values, so that each map goes through the count over
    several sources that the partition uses."""
    import qproj.groupoid as G

    real = G._image_check
    monkeypatch.setattr(G, "_image_check", lambda sources, cod: real(
        cut_into_parts(sources, request.param), cod))
    return request.param


def box_keys(spec):
    return {raw_key(r) for r in box_rows(spec)}


class TestMembership:
    def test_forced_offset_accepted(self):
        g = canonicalize(2, 1, (0, -1), (3, INF))
        assert g.w == (3, INF) and g.x == (0, -1)

    def test_tail_collapses_then_forcing_applies(self):
        # the inf in the first slot swallows the 5; x[0] is then forced to 0
        with pytest.raises(NotInGroupoid):
            canonicalize(2, 0, (2, 0), (INF, 5))
        g = canonicalize(2, 0, (0, 0), (INF, 5))
        assert g.w == (INF, INF)

    def test_all_finite_degree_is_free(self):
        g = canonicalize(2, 7, (0, 0), (4, 4))
        assert g.z == 7

    def test_forcing_violation(self):
        with pytest.raises(NotInGroupoid):
            canonicalize(2, 1, (0, 0), (3, INF))  # needs x[1] = -1

    def test_tail_offsets_must_vanish(self):
        with pytest.raises(NotInGroupoid):
            canonicalize(3, 0, (1, -1, 2), (3, INF, INF))

    def test_cone_constraint(self):
        with pytest.raises(NotInGroupoid):
            canonicalize(2, 0, (-4, 0), (3, 3))  # target -1 leaves the cone

    def test_negative_source_rejected(self):
        with pytest.raises(NotInGroupoid):
            canonicalize(2, 0, (0, 0), (-1, 2))

    def test_non_canonical_direct_build_rejected(self):
        with pytest.raises(NotInGroupoid):
            GroupoidElement(2, 0, (0, 0), (INF, 5))

    def test_canonicalize_idempotent(self):
        g = canonicalize(3, 2, (1, -3, 0), (4, INF, 7))
        again = canonicalize(g.n, g.z, g.x, g.w)
        assert again == g

    def test_primed_rules(self):
        # an everywhere-infinite source forces degree 0 and trailing zeros
        g = canonicalize(2, 0, (5, 0), (INF, INF), primed=True)
        assert g.primed
        with pytest.raises(NotInGroupoid):
            canonicalize(2, 1, (5, 0), (INF, INF), primed=True)
        # at a later position the offset closes the degree without x[0]
        h = canonicalize(3, 2, (9, 1, -3), (4, 0, INF), primed=True)
        assert h.x[2] == -2 - 1
        with pytest.raises(NotInGroupoid):
            canonicalize(3, 2, (9, 1, 0), (4, 0, INF), primed=True)
        for flag in ("false", 1, None):
            with pytest.raises(InvalidClass):
                GroupoidElement(1, 0, (0,), (0,), primed=flag)

    @staticmethod
    def primed_rule(n, z, x, w):
        """The primed membership rule as once written beside the plain one:
        an everywhere-infinite source forces degree 0 and zero offsets past
        the first; a later first inf at p forces x[p] = -z - (x[1] + ... +
        x[p-1]) and zeros after it; the target stays in the cone."""
        p = w.index(INF) if INF in w else n
        if p == 0 and (z != 0 or any(x[1:])):
            return False
        if 0 < p < n and (x[p] != -z - sum(x[1:p]) or any(x[p + 1:])):
            return False
        return all(x[i] + w[i] >= 0 for i in range(p))

    def test_primed_membership_is_plain_membership_at_the_sheared_degree(self):
        # every triple with n <= 3, |z|, |x_i| <= 3 and canonical sources
        # with entries in {0, 1, 2, inf}
        def accepted(n, z, x, w, primed):
            try:
                GroupoidElement(n, z, x, w, primed)
            except NotInGroupoid:
                return False
            return True

        values, triples = range(-3, 4), 0
        for n in (1, 2, 3):
            sources = {w[:w.index(INF)] + (INF,) * (n - w.index(INF)) if INF in w else w
                       for w in itertools.product((0, 1, 2, INF), repeat=n)}
            for z, x, w in itertools.product(values, itertools.product(values, repeat=n),
                                             sources):
                primed = accepted(n, z, x, w, True)
                assert primed == self.primed_rule(n, z, x, w), (n, z, x, w)
                assert primed == accepted(n, z - x[0], x, w, False), (n, z, x, w)
                triples += 1
        assert triples == 100695

    def test_source_and_target(self):
        g = canonicalize(2, 0, (2, -1), (1, 3))
        assert g.source() == (1, 3)
        assert g.target() == (3, 2)
        h = canonicalize(2, 3, (-3, 0), (INF, INF))
        assert h.source() == h.target() == (INF, INF)

    def test_json_round_trip(self):
        assert [g.to_json() for g in (canonicalize(2, 1, (0, -1), (3, INF)),
                                      canonicalize(2, 0, (5, 0), (INF, INF), primed=True),
                                      canonicalize(1, -2, (3,), (0,)))] == [
            {"z": 1, "x": [0, -1], "w": [3, "inf"]},
            {"z": 0, "x": [5, 0], "w": ["inf", "inf"], "primed": True},
            {"z": -2, "x": [3], "w": [0]}]


class TestCompose:
    def test_frozen_example(self):
        g = canonicalize(1, 1, (2,), (3,))
        h = canonicalize(1, 0, (1,), (2,))
        assert h.target() == (3,) == g.source()
        assert compose(g, h) == canonicalize(1, 1, (3,), (2,))

    def test_units_idempotent(self):
        for w in [(0, 4), (2, INF), (INF, INF)]:
            u = canonicalize(2, 0, (0, 0), w)
            assert u.source() == u.target() == u.w
            assert compose(u, u) == u

    def test_units_are_neutral(self):
        g = canonicalize(2, 1, (-1, 0), (3, INF))
        left = canonicalize(2, 0, (0, 0), g.target())
        right = canonicalize(2, 0, (0, 0), g.source())
        assert compose(left, g) == g
        assert compose(g, right) == g

    def test_mismatch(self):
        g = canonicalize(1, 0, (1,), (2,))
        h = canonicalize(1, 0, (1,), (5,))
        with pytest.raises(NotComposable):
            compose(g, h)

    def test_variant_mismatch(self):
        g = canonicalize(1, 0, (0,), (INF,))
        gp = canonicalize(1, 0, (0,), (INF,), primed=True)
        with pytest.raises(NotComposable):
            compose(g, gp)

    def _composable_chains(self, n, window):
        by_target = {}
        elements = []
        for z in (-1, 0, 1):
            elements.extend(enumerate_stratum(n, z, window=window))
        for g in elements:
            by_target.setdefault(g.target(), []).append(g)
        chains = []
        for g in elements:
            for h in by_target.get(g.source(), ())[:3]:
                for f in by_target.get(h.source(), ())[:2]:
                    chains.append((g, h, f))
                    if len(chains) >= 300:
                        return chains
        return chains

    def test_groupoid_laws_on_enumerated_triples(self):
        chains = self._composable_chains(2, 2)
        assert chains, "window too small to produce composable triples"
        for g, h, f in chains:
            gh = compose(g, h)
            # degrees add, source/target laws
            assert gh.z == g.z + h.z
            assert gh.source() == h.source()
            assert gh.target() == g.target()
            # associativity
            assert compose(gh, f) == compose(g, compose(h, f))


class TestIsomorphisms:
    def test_gamma_frozen(self):
        g = canonicalize(2, 2, (-2, 0), (INF, INF))
        image = gamma_iso(g)
        assert image == canonicalize(2, 0, (-2, 0), (INF, INF), primed=True)

    def test_gamma_fixes_units(self):
        u = canonicalize(2, 0, (0, 0), (3, 5))
        assert gamma_iso(u) == canonicalize(2, 0, (0, 0), (3, 5), primed=True)

    def test_gamma_round_trip_on_window(self):
        for z in (-2, 0, 3):
            for g in enumerate_stratum(2, z, window=3):
                image = gamma_iso(g)
                assert image.primed
                assert image.z == g.z + g.x[0]
                assert image.source() == g.source()
                assert image.target() == g.target()
                assert gamma_iso_inv(image) == g

    def test_gamma_wrong_variant(self):
        gp = canonicalize(1, 0, (1,), (INF,), primed=True)
        with pytest.raises(InvalidClass):
            gamma_iso(gp)
        g = canonicalize(1, 0, (0,), (4,))
        with pytest.raises(InvalidClass):
            gamma_iso_inv(g)

    def test_t_frozen(self):
        g = canonicalize(2, 0, (1, -1), (0, INF))
        image = t_iso(g)
        assert isinstance(image, TElement)
        assert image.x == (1, -1) and image.w == (0, INF)
        assert image.source() == g.source()
        assert image.target() == g.target()

    def test_t_needs_degree_zero(self):
        with pytest.raises(DegreeNonZero):
            t_iso(canonicalize(1, 2, (0,), (3,)))

    def test_t_element_constraints_inherited(self):
        with pytest.raises(NotInGroupoid):
            TElement(2, (2, 0), (INF, 5))


class TestThetaMaps:
    def test_neg_frozen(self):
        g = canonicalize(1, -1, (3,), (2,))
        image = theta_neg(g, -1)
        assert image == canonicalize(1, 0, (2,), (3,))
        assert image.target() == g.target() == (5,)

    def test_neg_with_infinite_source(self):
        g = canonicalize(1, -2, (2,), (INF,))
        image = theta_neg(g, -2)
        assert image == canonicalize(1, 0, (0,), (INF,))

    def test_shift_frozen(self):
        g = canonicalize(2, 2, (1, -3), (0, 5))
        image = theta_shift(g, 2, 1)
        assert image == canonicalize(2, 0, (1, -1), (0, 3))
        assert image.target() == g.target()

    def test_peel_frozen(self):
        g = canonicalize(2, 2, (0, 1), (1, 3))
        image = theta_peel(g, 2, 0, 1)
        assert image == canonicalize(2, 1, (1, 1), (0, 3))
        assert image.target() == g.target()

    def test_terminal_frozen(self):
        g = canonicalize(2, 3, (1, 2), (0, 0))
        image = theta_terminal(g, 3)
        assert image == canonicalize(2, 0, (1, 2), (0, 0))
        assert image.target() == g.target()

    def test_targets_preserved_across_window(self):
        for g in enumerate_stratum(2, 2, j=0, window=3):
            if g.w[0] is INF or g.w[0] >= 2:
                assert theta_shift(g, 2, 0).target() == g.target()
            else:
                image = theta_peel(g, 2, 0, g.w[0])
                assert image.target() == g.target()
                assert image.z == 2 - g.w[0]

    def test_wrong_stratum(self):
        g = canonicalize(2, 2, (0, 1), (1, 3))
        with pytest.raises(WrongStratum):
            theta_neg(g, 1)  # positive degree
        with pytest.raises(WrongStratum):
            theta_neg(g, -2)  # element has degree 2, not -2
        with pytest.raises(WrongStratum):
            theta_shift(g, 2, 0)  # w[0] = 1 < 2
        with pytest.raises(WrongStratum):
            theta_shift(g, 2, 1)  # w[0] != 0, so level 1 is not reachable
        with pytest.raises(WrongStratum):
            theta_peel(g, 2, 0, 0)  # w[0] = 1, not 0
        with pytest.raises(WrongStratum):
            theta_peel(g, 2, 0, 2)  # payout must stay below the degree
        with pytest.raises(WrongStratum):
            theta_terminal(g, 2)  # source not pinned to zero

    def test_shift_level_bounds(self):
        g = canonicalize(1, 1, (0,), (3,))
        with pytest.raises(WrongStratum):
            theta_shift(g, 1, 1)  # only level 0 exists at n = 1

    def test_parameter_errors_name_the_parameter(self):
        g = canonicalize(2, 2, (0, 1), (1, 3))
        for call, name in ((lambda: theta_neg(g, 1), "k"),
                           (lambda: theta_shift(g, 0, 0), "k"),
                           (lambda: theta_shift(g, 2, 2), "j"),
                           (lambda: theta_peel(g, 2, -1, 0), "j"),
                           (lambda: theta_peel(g, 2, 0, 2), "l"),
                           (lambda: theta_terminal(g, 0), "l")):
            with pytest.raises(WrongStratum, match=f" {name}="):
                call()
        with pytest.raises(InvalidClass, match="k must be an integer"):
            theta_neg(g, 0.5)

    def test_domain_miss_names_map_and_element(self):
        g = canonicalize(2, 2, (0, 1), (1, 3))
        with pytest.raises(WrongStratum, match=r"\(2, \(0, 1\), \(1, 3\)\).*theta-peel"):
            theta_peel(g, 2, 0, 0)
        with pytest.raises(DegreeNonZero, match="domain of t"):
            t_iso(g)

    WINDOWS = [(n, z, kind) for n in (1, 2) for z in range(-2, 3)
               for kind in ("plain", "primed")]

    @pytest.mark.parametrize("n,z,kind", WINDOWS)
    def test_public_maps_equal_references(self, n, z, kind):
        # every element of a small window, every map, and parameters on
        # both sides of each map's domain: the same value or error type
        def outcome(fn, *args):
            try:
                return fn(*args)
            except (WrongStratum, InvalidClass, DegreeNonZero, NotInGroupoid) as err:
                return type(err)

        params = ([("theta-neg", k, None, None) for k in range(-2, 2)]
                  + [("theta-shift", k, j, None) for k in range(0, 3)
                     for j in range(-1, n + 1)]
                  + [("theta-peel", k, j, l) for k in range(0, 3)
                     for j in range(-1, n + 1) for l in range(-1, 3)]
                  + [("theta-terminal", None, None, l) for l in range(0, 3)]
                  + [("gamma", None, None, None), ("t", None, None, None)])
        primed = kind == "primed"
        if primed:  # each map refuses a primed element before all else
            params = params[::7]
        spec = _stratum_spec(n, z, 2, shear=primed)
        for g in (GroupoidElement(n, *raw, primed) for raw in box_rows(spec)):
            for map_id, k, j, l in params:
                public = outcome(PUBLIC_MAPS[map_id], g, k, j, l)
                assert public == outcome(REFERENCE_MAPS[map_id], g, k, j, l), (
                    map_id, g, k, j, l)


class TestEnumeration:
    def test_frozen_count(self):
        # one all-infinite element plus 3 + 4 + 5 all-finite ones
        assert len(enumerate_stratum(1, 0, window=2)) == 13

    def test_elements_are_valid_and_unique(self):
        els = enumerate_stratum(2, 1, window=3)
        assert len(set(els)) == len(els)
        for g in els:
            assert g.z == 1 and not g.primed

    def test_pins_hold(self):
        for g in enumerate_stratum(2, 2, j=1, window=3):
            assert g.w[0] == 0

    def test_window_bounds_hold(self):
        for g in enumerate_stratum(2, 0, window=2):
            for entry in g.w:
                assert entry is INF or 0 <= entry <= 2
            for v in g.x:
                assert -2 <= v <= 2

    SPECS = [
        (2, 1, {}),
        (2, 0, {"shear": True}),
        (3, -2, {"pins": 1}),
        (2, 1, {"shear": True}),
        (1, 0, {}),
        (3, 2, {"pins": 3}),
        (2, 2, {"over": {0: {"w_lo": 2, "w_hi": 5}}}),
        (2, 2, {"over": {0: {"w_lo": 1, "w_hi": 1, "w_inf": False}}, "pins": 0}),
        (2, 0, {"over": {1: {"x_lo": -1, "x_hi": 4}}}),
        # an offset range without 0 skips every block whose tail forces it to 0
        (3, 1, {"over": {2: {"x_lo": -3, "x_hi": -1}}}),
        (3, 0, {"over": {1: {"x_lo": 1, "x_hi": 2}}, "shear": True}),
    ]

    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_enumeration_lists_box_rows_in_position_order(self, n, z, kw):
        # block by block, each block in pair-table order (w[0], x[0], ...)
        spec = spec_with(n, z, 3, **kw)
        assert list(_iter_raw(spec)) == sorted(box_rows(spec), key=position)

    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_one_position_parts_keep_rank_order(self, n, z, kw):
        # cut into parts of one value of w[0], each part lists its own box
        # rows in position order
        spec = spec_with(n, z, 3, **kw)
        identity = _Action(z=spec.z, shear=spec.shear)
        for part, _ in cut_into_parts([(spec, identity)], 1):
            assert list(_iter_raw(part)) == sorted(box_rows(part), key=position)

    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_identity_check_counts_box_rows(self, n, z, kw):
        # the window into itself under the identity: every row hit once
        spec = spec_with(n, z, 3, **kw)
        identity = _Action(z=spec.z, shear=spec.shear)
        size = len(box_rows(spec))
        assert _image_check([(spec, identity)], spec) == (size, size, {})

    @pytest.mark.parametrize("chunk", [1, 7, 30])
    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_parts_tile_the_block(self, chunk, n, z, kw):
        # cut into parts along coordinate 0, each block lists the parts'
        # rows of that block in order, and the identity from the parts into
        # the window hits every row once
        spec = spec_with(n, z, 3, **kw)
        identity = _Action(z=spec.z, shear=spec.shear)
        parts = cut_into_parts([(spec, identity)], chunk)
        listed = [raw for part, _ in parts for raw in _iter_raw(part)]
        assert sorted(listed, key=lambda raw: _first_inf(raw[2])) == list(_iter_raw(spec))
        size = len(box_rows(spec))
        assert _image_check(parts, spec) == (size, size, {})

    def test_window_type(self):
        assert len(enumerate_stratum(1, 0, window=2)) == 13
        with pytest.raises(OutOfRange):
            enumerate_stratum(1, 0, window=0)


class TestShearedWindow:
    """gamma's codomain is the plain window with the degree read as z + x[0]."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_are_plain_rows_with_sheared_degree(self, n):
        # box_rows keeps a sheared row only when it is a primed element, and
        # a plain row only when it is a plain one: the two rules select the
        # same offsets and sources
        for z, W in itertools.product(range(-3, 4), range(1, 4)):
            plain = [(z + x[0], x, w) for _, x, w in box_rows(_stratum_spec(n, z, W))]
            sheared = _stratum_spec(n, z, W, shear=True)
            assert box_rows(sheared) == plain, (z, W)
            engine = sorted(map(raw_key, _iter_raw(sheared)), key=repr)
            assert engine == sorted(map(raw_key, plain), key=repr), (z, W)

    def test_no_source_window_is_sheared(self):
        # _in_box reads a domain window's degree as its constant z: no check
        # has a sheared source, over every kind at n <= 4 and |k|, j, l <= 4
        import qproj.groupoid as G

        accepted = set()
        for kind, takes in G._PARAMETERS.items():
            values = [range(-4, 5) if name in takes else [None] for name in "kjl"]
            for n, (k, j, l) in itertools.product(range(1, 5), itertools.product(*values)):
                try:
                    sources, _ = _check_setup(kind, n, k, j, l, 8)
                except OutOfRange:
                    continue
                accepted.add(kind)
                assert not any(spec.shear for spec, _ in sources), (kind, n, k, j, l)
        assert accepted == set(G._PARAMETERS)

    def test_gamma_codomain_has_the_domains_blocks(self):
        # every gamma row of the default sweep, and at n = 4
        for n, k in itertools.product(range(1, 5), range(-4, 5)):
            [(dom, _)], cod = _check_setup("gamma", n, k, None, None, 8)
            assert _blocks(cod) == _blocks(dom), (n, k)


class TestVerifiers:
    @pytest.mark.parametrize("map_id,kwargs", [
        ("theta-neg", {"k": -2}),
        ("theta-shift", {"k": 2, "j": 0}),
        ("theta-shift", {"k": 1, "j": 1}),
        ("theta-peel", {"k": 3, "j": 1, "l": 1}),
        ("theta-terminal", {"l": 2}),
        ("gamma", {"k": 1}),
        ("gamma", {"k": -3}),
        ("t", {}),
    ])
    def test_maps_pass_small_window(self, map_id, kwargs):
        report = verify_bijection(map_id, 2, window=4, **kwargs)
        assert report.passed, report.to_json()
        assert report.domain_size == report.image_size

    def test_partition_passes(self):
        report = verify_partition(2, 2, 0, window=6)
        assert report.passed
        assert report.domain_size == report.image_size
        assert verify_partition(1, 1, 0, window=4).passed
        # minimal window edge case
        assert verify_partition(2, 1, 1, window=1).passed

    def test_map_id_list_is_complete(self):
        assert set(MAP_IDS) == {"theta-neg", "theta-shift", "theta-peel",
                                "theta-terminal", "gamma", "t"}

    def test_bad_parameters(self):
        with pytest.raises(OutOfRange, match=" k="):
            verify_bijection("theta-neg", 2, k=1, window=3)
        with pytest.raises(OutOfRange, match=" k="):
            verify_bijection("theta-shift", 2, k=0, j=0, window=3)
        with pytest.raises(InvalidClass, match="j must be an integer"):
            verify_bijection("theta-shift", 2, k=1, window=3)
        with pytest.raises(OutOfRange, match=" l="):
            verify_bijection("theta-peel", 2, k=2, j=0, l=2, window=3)
        with pytest.raises(OutOfRange):
            verify_bijection("no-such-map", 2, window=3)
        # the partition is a row of the maps' table, but not a map
        with pytest.raises(OutOfRange, match="^unknown map id 'partition'; expected one of "):
            verify_bijection("partition", 2, k=1, j=0, window=3)
        with pytest.raises(OutOfRange):
            verify_partition(2, 0, 0, window=3)
        with pytest.raises(OutOfRange):
            verify_partition(2, 1, 2, window=3)

    # a valid value of every parameter each map takes
    TAKES = {"theta-neg": {"k": -1}, "theta-shift": {"k": 1, "j": 0},
             "theta-peel": {"k": 2, "j": 0, "l": 1}, "theta-terminal": {"l": 1},
             "gamma": {"k": 0}, "t": {}}

    @pytest.mark.parametrize("map_id", sorted(TAKES))
    def test_parameter_a_map_does_not_take_is_refused(self, map_id):
        # before, such a value was echoed in the record but read by no check
        takes = self.TAKES[map_id]
        assert verify_bijection(map_id, 2, window=2, **takes).passed
        for name in {"k", "j", "l"} - set(takes):
            with pytest.raises(OutOfRange, match=f"^{map_id} takes no parameter "
                                                 f"{name}, got {name}=0$"):
                verify_bijection(map_id, 2, window=2, **takes, **{name: 0})

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_engine_matches_counting_reference(self, engine_calls, window):
        from qproj import suite

        reports = suite.groupoid_checks(n_max=2, window=window)
        assert all(r.passed for r in reports)
        assert len(engine_calls) == len(reports)

    def test_engine_matches_counting_reference_at_n3(self, engine_calls):
        reports = ([verify_bijection("gamma", 3, k=k, window=2) for k in range(-4, 5)]
                   + [verify_bijection("theta-shift", 3, k=k, j=j, window=2)
                      for k in range(1, 5) for j in range(3)])
        assert all(r.passed for r in reports)
        assert len(engine_calls) == len(reports)

    def test_huge_values_are_decided(self):
        # offsets near 2**62 would wrap int64 sums; Python ints count them
        report = verify_bijection("theta-shift", 3, k=2 ** 62, j=0, window=1)
        assert report.passed, report.to_json()
        sizes = reference_bijection("theta-shift", 3, k=2 ** 62, j=0, window=1)
        assert (report.domain_size, report.image_size, True) == sizes

    def test_failure_path_reports_counterexample(self, monkeypatch):
        # force a mispaired codomain window: the identity action into a
        # stratum of a different degree cannot land in it
        import qproj.groupoid as G

        dom, cod = _stratum_spec(1, 0, 2), _stratum_spec(1, 1, 2)
        monkeypatch.setattr(G, "_check_setup",
                            lambda *args: ([(dom, _Action(z=0))], cod))
        report = G.verify_bijection("t", 1, window=2)
        assert not report.passed
        assert report.counterexample["kind"] == "image-outside-codomain"
        element = element_key(report.counterexample["element"])
        assert element in box_keys(dom)
        assert element not in box_keys(cod)


@pytest.mark.usefixtures("small_parts")
class TestVerifiersInParts(TestVerifiers):
    """Every verifier test, the engine against the element-level reference
    and the failure path included, with each source window cut into
    parts."""


def test_each_map_carries_its_domain_window_onto_its_codomain(monkeypatch):
    # the pairing _check_setup states: over every map row of the default
    # sweep, the action's box of the domain window is the codomain window,
    # gamma's up to the shear flag that reads its degree as z + x[0]
    import qproj.groupoid as G

    rows = []
    setup = G._check_setup

    def spy(kind, *args, **kw):
        sources, cod = setup(kind, *args, **kw)
        if kind != "partition":
            rows.append((kind, sources, cod))
        return sources, cod

    monkeypatch.setattr(G, "_check_setup", spy)
    monkeypatch.setattr(G, "_image_check", lambda sources, cod: (0, 0, {}))
    suite.groupoid_checks()
    assert {kind for kind, *_ in rows} == set(MAP_IDS)
    for kind, [(dom, action)], cod in rows:
        assert cod.shear == (kind == "gamma")
        assert action.box(dom) == cod.replace(shear=False), kind
        assert action.dx + action.dw == 0, kind  # a translation keeps x + w


class TestWindowEdges:
    """Windows past the old 6-bit key fields, against element-level sizes."""

    @pytest.mark.parametrize("map_id,n,kwargs,window,sizes", [
        # n = 6: a 64 -> 64 bijection once reported a made-up collision
        ("theta-terminal", 6, {"l": 1}, 1, (64, 64)),
        # offsets up to 38: once a bare AssertionError
        ("theta-shift", 1, {"k": 30, "j": 0}, 8, (153, 153)),
        ("theta-shift", 5, {"k": 2, "j": 3}, 2, None),
        ("gamma", 5, {"k": 1}, 1, None),
        ("theta-neg", 1, {"k": -3}, 40, None),
        ("theta-peel", 1, {"k": 4, "j": 0, "l": 2}, 40, None),
    ])
    def test_bijection_matches_elements(self, map_id, n, kwargs, window, sizes):
        domain_size, image_size, ok = reference_bijection(map_id, n, window=window,
                                                          **kwargs)
        assert ok
        if sizes is not None:
            assert (domain_size, image_size) == sizes
        report = verify_bijection(map_id, n, window=window, **kwargs)
        assert report.passed, report.to_json()
        assert (report.domain_size, report.image_size) == (domain_size, image_size)

    @pytest.mark.parametrize("n,k,j,window", [(1, 2, 0, 40), (5, 2, 3, 2)])
    def test_partition_matches_rows(self, n, k, j, window):
        full_size, piece_size, ok = reference_partition(n, k, j, window)
        assert ok
        report = verify_partition(n, k, j, window)
        assert report.passed, report.to_json()
        assert (report.domain_size, report.image_size) == (full_size, piece_size)

    def test_the_windows_once_refused_are_decided(self):
        # n = 5 at the default window: blocks of up to 2.2e10 rows
        assert verify_partition(5, 4, 0, window=8).passed
        report = verify_bijection("gamma", 5, k=1, window=8)
        assert report.passed and report.domain_size == report.image_size > 2 * 10 ** 10

    @pytest.mark.parametrize("call", [
        lambda: enumerate_stratum(5, 1, window=8),
        lambda: enumerate_stratum(2, 0, window=30),
    ], ids=["enumeration n=5", "enumeration n=2 W=30"])
    def test_oversized_block_refused(self, call):
        """A block too large to list is refused before any row is listed."""
        with pytest.raises(OutOfRange, match=r"block of \d+ positions exceeds "
                                              r"the limit of 262144"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: verify_partition(1, 1, 0, window=500),
        lambda: verify_bijection("gamma", 3, k=1, window=500),
        lambda: windowed_terminal_counts(1, 1, window=500),
    ], ids=["partition", "gamma", "terminal tally"])
    def test_oversized_table_refused(self, call):
        """A pair table over the limit is refused, counted before it is built."""
        with pytest.raises(OutOfRange, match=r"coordinate of \d+ pairs exceeds "
                                              r"the limit of 262144"):
            call()

    @pytest.mark.parametrize("n,k,j,W,pairs", [
        (1, 10 ** 20, 0, 1, 3 * 10 ** 20 + 5),  # the cut coordinate
        (2, 1, 1, 2 ** 18, 2 ** 18 + 1),  # a pinned coordinate before it
    ], ids=["cut coordinate", "pinned coordinate"])
    def test_oversized_partition_refused_before_its_pieces(self, monkeypatch, n, k, j, W, pairs):
        """A partition is refused before its k + 1 pieces exist, by the first
        oversized coordinate in the order its image check sizes them."""
        import qproj.groupoid as G

        def cut(*args):
            raise AssertionError("pieces built before the window was sized")

        monkeypatch.setattr(G, "_cut", cut)
        with pytest.raises(OutOfRange, match=f"coordinate of {pairs} pairs exceeds"):
            verify_partition(n, k, j, W)

    def test_negative_source_bound_refused(self):
        """No element has a negative source, so a hand-built window whose
        source range starts below 0 is refused when it is built, before the
        engine could take its pairs with w < 0 as rows."""
        spec = _stratum_spec(2, 0, 2)
        with pytest.raises(OutOfRange, match="w_lo=-1 at coordinate 1$"):
            _recoord(spec, 1, 0, (-1, 2, True))
        assert _recoord(spec, 1, 0, (0, 2, True)) == spec

    def test_axis_size_counts_the_pair_table(self):
        """The closed-form count equals the number of pairs, and the table
        lists them in (w, x) order, on every range with bounds in -6..6,
        empty ranges included."""
        bounds = range(-6, 7)
        for x_lo, x_hi, w_lo, w_hi in itertools.product(bounds, repeat=4):
            pairs = [(x, w) for w in range(w_lo, w_hi + 1)
                     for x in range(max(x_lo, -w), x_hi + 1)]
            table = _table(x_lo, x_hi, w_lo, w_hi)
            assert _axis_size(x_lo, x_hi, w_lo, w_hi) == len(pairs)
            assert [(x, w) for w, lo, hi in table for x in range(lo, hi + 1)] == pairs

    def test_memory_does_not_grow_with_the_rows(self):
        """A check holds its pair tables and a few runs per table row, not
        its rows."""
        import tracemalloc

        tracemalloc.start()
        try:
            report = verify_partition(3, 4, 0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.domain_size > 2 * 10 ** 6
        assert peak < 64 * 1024

    def test_oversized_sweep_is_refused_by_its_first_oversized_check(self, monkeypatch):
        """A sweep has no sizing pass of its own: its checks run in record
        order, the first with a pair table over the limit refuses it before
        that table is built, and the sweep returns no record."""
        import qproj.groupoid as G

        tables, records = [], []
        table, report = G._table, G.VerifyReport
        monkeypatch.setattr(G, "_table", lambda *r: tables.append(table(*r)) or tables[-1])
        monkeypatch.setattr(G, "VerifyReport",
                            lambda *a, **kw: records.append(report(*a, **kw)) or records[-1])
        # at W = 500 the first check's first table is over the limit
        with pytest.raises(OutOfRange, match="exceeds the limit of 262144"):
            suite.groupoid_checks(n_max=1, window=500)
        assert tables == [] and records == []
        # at W = 416 partition(1, 1, 0) fits and partition(1, 2, 0), the
        # second check, is the first over the limit
        with pytest.raises(OutOfRange) as first:
            verify_partition(1, 2, 0, 416)
        del records[:]
        with pytest.raises(OutOfRange) as sweep:
            suite.groupoid_checks(n_max=3, window=416)
        assert str(sweep.value) == str(first.value)
        assert [(r.check, r.params["k"], r.passed) for r in records] == [("partition", 1, True)]

    def test_block_limit_admits_a_block_of_its_size(self, monkeypatch):
        # the one limit bounds a listed block and a pair table
        import qproj.groupoid as G

        sources, cod = _check_setup("partition", 2, 1, 0, None, 2)
        largest = max(_axis_size(*r[:4]) for spec in [cod, *(s for s, _ in sources)]
                      for r in spec.ranges)
        monkeypatch.setattr(G, "_LIMIT", largest)
        assert verify_partition(2, 1, 0, 2).passed
        monkeypatch.setattr(G, "_LIMIT", largest - 1)
        with pytest.raises(OutOfRange, match=f"coordinate of {largest} pairs"):
            verify_partition(2, 1, 0, 2)
        block = _axis_size(-2, 2, 0, 2) ** 2  # the p = 2 block of n = 2, W = 2
        monkeypatch.setattr(G, "_LIMIT", block)
        assert len(enumerate_stratum(2, 0, window=2)) == len(box_rows(_stratum_spec(2, 0, 2)))
        monkeypatch.setattr(G, "_LIMIT", block - 1)
        with pytest.raises(OutOfRange, match=f"block of {block} positions"):
            enumerate_stratum(2, 0, window=2)


@st.composite
def count_windows(draw, n_max, w_max):
    """A window of n <= n_max coordinates whose ranges lie near -W..W and
    0..W, W <= w_max: offset ranges of either sign, of both or empty, and
    finite source ranges empty or not, each with or without inf."""
    n, W = draw(st.integers(1, n_max)), draw(st.integers(1, w_max))
    ranges = []
    for _ in range(n):
        x_lo = draw(st.integers(-W - 1, W))
        x_hi = draw(st.integers(x_lo - 1, W + 1))
        w_lo = draw(st.integers(0, W))
        w_hi = draw(st.integers(w_lo - 1, W + 1))
        ranges.append(_Range(x_lo, x_hi, w_lo, w_hi, draw(st.booleans())))
    return _WindowSpec(draw(st.integers(-2 * W, 2 * W)), tuple(ranges), draw(st.booleans()))


class TestCount:
    """``_count`` against the rows of ``box_rows`` and against the list
    convolution it replaces."""

    @pytest.mark.parametrize("n,z,kw", [
        (2, 0, {"over": {1: {"w_lo": 3, "w_hi": 2}}}),  # no finite source
        (2, 1, {"over": {0: {"w_lo": 3, "w_hi": 2, "w_inf": False}}}),  # no pair at all
        (2, 0, {"over": {1: {"x_lo": -3, "x_hi": -2, "w_hi": 1}}}),  # max(x_lo, -w_hi) > x_hi
        (3, -1, {"over": {1: {"x_lo": 1, "x_hi": 3}}}),  # positive offsets only
        (3, 2, {"over": {0: {"x_lo": -3, "x_hi": -1}, 2: {"x_hi": -2}}}),  # negative only
        (2, 0, {"over": {0: {"x_hi": -4}}}),  # x_lo > x_hi
    ])
    def test_edge_ranges(self, n, z, kw):
        spec = spec_with(n, z, 3, **kw)
        blocks = _blocks(spec)
        assert (_count(spec, blocks, axis_sizes(spec)) == len(box_rows(spec))
                == convolved_count(spec, blocks))

    @pytest.mark.parametrize("n,W", [(1, 60), (3, 60), (6, 8)])
    def test_one_block_holds_every_prefix(self, n, W):
        # with every source pinned, block n holds every prefix, so the one
        # digit read is the product of the axis sizes, the widest a digit gets
        spec = _stratum_spec(n, 1, W, pins=n)
        assert list(_blocks(spec)) == [n]
        assert _count(spec, _blocks(spec), axis_sizes(spec)) == (W + 1) ** n

    @seed(2019)
    @settings(max_examples=150, deadline=None)
    @given(count_windows(n_max=3, w_max=2))
    def test_matches_box_rows(self, spec):
        assert _count(spec, _blocks(spec), axis_sizes(spec)) == len(box_rows(spec))

    @seed(2019)
    @settings(max_examples=150, deadline=None)
    @given(count_windows(n_max=6, w_max=60))
    def test_matches_convolved_count(self, spec):
        blocks = _blocks(spec)
        count = _count(spec, blocks, axis_sizes(spec))
        assert count == convolved_count(spec, blocks)
        if not any(r.w_inf for r in spec.ranges):  # one block, every prefix
            assert count == math.prod(axis_sizes(spec))


class TestSharedTables:
    """One sizing and one pair table per distinct range and one per-axis
    carry per source range in a check, on tables no window can edit."""

    @pytest.mark.parametrize("kind,n,k,j,W", [
        ("theta-shift", 6, 1, 2, 1),  # 12 tables and 6 carries before sharing
        ("gamma", 5, 2, None, 2),  # 10 and 5
        ("partition", 5, 3, 1, 2),  # 25 and 20
    ])
    def test_tables_and_lookups_once_per_check(self, monkeypatch, kind, n, k, j, W):
        import qproj.groupoid as G

        sources, cod = _check_setup(kind, n, k, j, None, W)
        sized, builds, carries = [], [], []
        axis_size, table, carry = G._axis_size, G._table, G._carry
        monkeypatch.setattr(G, "_axis_size", lambda *key: sized.append(key) or axis_size(*key))
        monkeypatch.setattr(G, "_table", lambda *key: builds.append(key) or table(*key))
        monkeypatch.setattr(G, "_carry", lambda a, t, i, runs: carries.append(
            (i, runs)) or carry(a, t, i, runs))
        assert G._verify(kind, n, k, j, None, W).passed
        distinct = list(dict.fromkeys(r[:4] for spec in [cod, *(spec for spec, _ in sources)]
                                      for r in spec.ranges))
        # a partition first sizes its full window (the codomain) up to the cut
        cut = list(dict.fromkeys(r[:4] for r in cod.ranges[:j + 1])) if kind == "partition" else []
        assert sized == cut + distinct
        assert sorted(builds) == sorted(distinct)
        assert len(carries) == len({(i, r) for spec, _ in sources
                                    for i, r in enumerate(spec.ranges)})

    def test_enumeration_sizes_each_coordinate_once(self, monkeypatch):
        import qproj.groupoid as G

        sized, axis_size = [], G._axis_size
        monkeypatch.setattr(G, "_axis_size", lambda *key: sized.append(key) or axis_size(*key))
        assert enumerate_stratum(3, 1, 1, window=2)
        assert sized == [r[:4] for r in _stratum_spec(3, 1, 2, pins=1).ranges]

    def test_pair_tables_are_read_only(self):
        # the windows of one check share tables, so no window may edit one
        table = _table(-2, 2, 0, 2)
        assert table == ((0, 0, 2), (1, -1, 2), (2, -2, 2))
        with pytest.raises(TypeError):
            table[0] = (0, 0, 0)


class TestMutations:
    """Broken actions and windows are caught, each with a concrete element."""

    @pytest.fixture(autouse=True)
    def against_reference(self, engine_calls):
        # every broken case also gives the element-level reference's triple
        yield
        assert engine_calls

    @staticmethod
    def images(dom, action):
        return [raw_key(action.row(raw)) for raw in box_rows(dom)]

    def break_map(self, monkeypatch, map_id, n, k=None, j=None, l=None, window=2,
                  dom=None, cod=None, action=None):
        import qproj.groupoid as G

        [(real_dom, real_action)], real_cod = _check_setup(map_id, n, k, j, l, window)
        dom, cod, action = dom or real_dom, cod or real_cod, action or real_action
        monkeypatch.setattr(G, "_check_setup", lambda *a, **kw: ([(dom, action)], cod))
        report = G.verify_bijection(map_id, n, k=k, j=j, l=l, window=window)
        assert not report.passed
        return dom, cod, action, report.counterexample

    def test_shift_off_by_one_moves_targets(self, monkeypatch):
        dom, _, action, found = self.break_map(
            monkeypatch, "theta-shift", 2, k=2, j=1,
            action=_Action(z=0, coord=1, dx=3, dw=-2))
        assert found["kind"] == "target-moved"
        element = element_key(found["element"])
        [raw] = [r for r in box_rows(dom) if raw_key(r) == element]
        assert raw_target(action.row(raw)) != raw_target(raw)
        g = GroupoidElement(2, *raw)
        assert ref_theta_shift(g, 2, 1).target() == g.target()  # unlike the map

    def test_a_moved_coordinate_on_the_codomain_table_is_looked_up(self, monkeypatch):
        # into the domain window itself, the coordinate the action shifts
        # shares its pair table with the codomain and is still looked up
        [(dom, _)], _ = _check_setup("theta-shift", 2, 1, 0, None, 2)
        dom, cod, action, found = self.break_map(
            monkeypatch, "theta-shift", 2, k=1, j=0, cod=dom,
            action=_Action(z=1, coord=1, dw=1))
        assert found["kind"] == "target-moved"
        _, _, kinds = _image_check([(dom, action)], cod)
        outside = raw_key(kinds["outside"])
        assert outside in self.images(dom, action)
        assert outside not in box_keys(cod)

    @pytest.mark.parametrize("map_id,kwargs,cod,action", [
        # gamma without the shear: the image degree stays 0 (at k = 0 only
        # the finite blocks see it)
        ("gamma", {"k": 0}, None, _Action(z=0)),
        # ... and the shear dropped from the codomain instead: the image
        # degree x[0] is not the codomain's constant 0
        ("gamma", {"k": 0}, _stratum_spec(2, 0, 2), _Action(z=0, shear=True)),
        # theta-peel paying one unit too few, into that degree: targets
        # stay, but every forced offset is off by one
        ("theta-peel", {"k": 2, "j": 0, "l": 1},
         _recoord(_stratum_spec(2, 2, 2, pins=1), 0, 1, (0, 0, False)),
         _Action(z=2, coord=0, dx=1, dw=-1)),
    ])
    def test_image_leaves_codomain(self, monkeypatch, map_id, kwargs, cod, action):
        dom, cod, action, found = self.break_map(monkeypatch, map_id, 2, cod=cod,
                                                 action=action, **kwargs)
        assert found["kind"] == "image-outside-codomain"
        element = element_key(found["element"])
        assert element in self.images(dom, action)
        assert element not in box_keys(cod)

    def test_p0_image_degree_is_tested(self, monkeypatch):
        # gamma without the shear at k = 1: the all-infinite-source row
        # (1, (-1, 0), (inf, inf)) keeps degree 1, where the sheared
        # codomain gives its p = 0 row degree 1 + x[0] = 0; blocks are
        # walked by increasing p, so it is the first image outside
        dom, cod, action, found = self.break_map(monkeypatch, "gamma", 2, k=1,
                                                 action=_Action(z=1))
        assert found["kind"] == "image-outside-codomain"
        [row] = [r for r in box_rows(dom) if _first_inf(r[2]) == 0]
        assert row == (1, (-1, 0), (INF, INF))
        assert element_key(found["element"]) == raw_key(action.row(row))
        assert raw_key(action.row(row)) not in box_keys(cod)
        assert raw_key((0, *row[1:])) in box_keys(cod)

    def test_narrow_domain_leaves_codomain_uncovered(self, monkeypatch):
        dom, cod, action, found = self.break_map(
            monkeypatch, "t", 2, dom=_stratum_spec(2, 0, 1))
        assert found["kind"] == "codomain-not-covered"
        element = element_key(found["element"])
        assert element in box_keys(cod)
        assert element not in self.images(dom, action)

    @pytest.mark.parametrize("kind,piece", [
        ("overlap", (1, 5, True)),  # reaches into the l = 1 piece
        ("spill", (2, 6, True)),  # one source value past the window
    ])
    def test_broken_piece(self, monkeypatch, kind, piece):
        import qproj.groupoid as G

        full, pieces = _partition_setup(2, 2, 0, 3)
        pieces[0] = _recoord(_stratum_spec(2, 2, 3), 0, 0, piece)
        monkeypatch.setattr(G, "_partition_setup", lambda *args: (full, pieces))
        report = G.verify_partition(2, 2, 0, window=3)
        assert not report.passed
        assert report.counterexample["kind"] == kind
        element = element_key(report.counterexample["element"])
        hits = sum(element in box_keys(p) for p in pieces)
        in_full = element in box_keys(full)
        assert (hits, in_full) == ((2, True) if kind == "overlap" else (1, False))

    def test_missing_piece_leaves_gap(self, monkeypatch):
        import qproj.groupoid as G

        full, pieces = _partition_setup(2, 2, 0, 3)
        monkeypatch.setattr(G, "_partition_setup", lambda *args: (full, pieces[:-1]))
        report = G.verify_partition(2, 2, 0, window=3)
        assert report.counterexample["kind"] == "gap"
        element = element_key(report.counterexample["element"])
        assert element in box_keys(full)
        assert element in box_keys(pieces[-1])

    def test_collision_only_the_count_catches(self, monkeypatch):
        # the overlapping piece hits every row of the full window, one of
        # them twice: nothing is uncovered or outside, and only how often a
        # pair is reached shows the overlap
        import qproj.groupoid as G

        full, pieces = _partition_setup(2, 2, 0, 3)
        pieces[0] = _recoord(_stratum_spec(2, 2, 3), 0, 0, (1, 5, True))
        piece_rows = [raw_key(r) for piece in pieces for r in box_rows(piece)]
        assert set(piece_rows) == box_keys(full) and len(piece_rows) > len(box_keys(full))
        _, _, found = _image_check([(piece, _Action(z=2)) for piece in pieces], full)
        assert set(found) == {"collision"}
        monkeypatch.setattr(G, "_partition_setup", lambda *args: (full, pieces))
        report = G.verify_partition(2, 2, 0, window=3)
        assert report.counterexample["kind"] == "overlap"


@pytest.mark.parametrize("change", [
    lambda r: r._replace(w_hi=r.w_hi + 1),  # a second coordinate's source range
    lambda r: r._replace(x_hi=r.x_hi - 1),  # an offset range: another kept range
], ids=["source range", "offset range"])
def test_sources_that_differ_twice_are_refused(change):
    # the per-axis count needs the pieces to differ at one coordinate's
    # source range only; any other list is refused, never guessed
    full, pieces = _partition_setup(2, 2, 0, 3)
    pieces[1] = pieces[1].replace(ranges=_put(
        pieces[1].ranges, 1, change(pieces[1].ranges[1])))
    with pytest.raises(OutOfRange, match="differ in one coordinate's source range"):
        _image_check([(piece, _Action(z=2)) for piece in pieces], full)
    with pytest.raises(OutOfRange, match="differ in one coordinate's source range"):
        _image_check([(pieces[0], _Action(z=2)), (pieces[1], _Action(z=1))], full)


@st.composite
def broken_checks(draw):
    """A check at n <= 2 and W <= 2 with one action field, one codomain
    range or one source window changed, or a piece dropped or duplicated."""
    n, W = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["partition", *MAP_IDS]))
    k = j = l = None
    if kind in ("partition", "theta-shift", "theta-peel"):
        k, j = draw(st.integers(1, 3)), draw(st.integers(0, n - 1))
    elif kind in ("theta-neg", "gamma"):
        k = draw(st.integers(-3, 0 if kind == "theta-neg" else 3))
    if kind in ("theta-peel", "theta-terminal"):
        l = draw(st.integers(0, k - 1) if kind == "theta-peel" else st.integers(1, 3))
    sources, cod = _check_setup(kind, n, k, j, l, W)

    def changed(r):
        field = draw(st.sampled_from(r._fields))
        if field == "w_inf":
            return r._replace(w_inf=not r.w_inf)
        return r._replace(**{field: max(getattr(r, field) + draw(st.sampled_from([-1, 1])),
                                        0 if field == "w_lo" else -99)})

    how = draw(st.sampled_from(["action", "codomain", "widen", "drop", "duplicate"]))
    i = draw(st.integers(0, len(sources) - 1))
    if how == "action":
        a, field = sources[0][1], draw(st.sampled_from(
            ["z", "coord", "dx", "dw", "shear"]))
        value = (draw(st.integers(0, n - 1)) if field == "coord"
                 else not a.shear if field == "shear"
                 else getattr(a, field) + draw(st.sampled_from([-2, -1, 1, 2])))
        sources = [(spec, a.replace(**{field: value})) for spec, _ in sources]
    elif how == "codomain":
        c = draw(st.integers(0, n - 1))
        cod = cod.replace(ranges=_put(cod.ranges, c, changed(cod.ranges[c])))
    elif how == "widen":
        spec, a = sources[i]
        c = j if kind == "partition" else draw(st.integers(0, n - 1))
        r = spec.ranges[c]
        r = draw(st.sampled_from([r._replace(w_lo=max(r.w_lo - 1, 0)),
                                  r._replace(w_hi=r.w_hi + 1), r._replace(w_inf=True)]))
        sources[i] = (spec.replace(ranges=_put(spec.ranges, c, r)), a)
    elif how == "drop" and len(sources) > 1:
        del sources[i]
    elif how == "duplicate":
        sources.insert(i, sources[i])
    return sources, cod


@seed(2019)
@settings(max_examples=300, deadline=None)
@given(broken_checks())
def test_image_check_matches_elements(check):
    """The per-axis check and the element-level reference give the same
    rows, sizes and first row of each failure kind on broken checks."""
    sources, cod = check
    assert _image_check(sources, cod) == element_image_check(sources, cod)


@pytest.mark.usefixtures("small_parts")
class TestMutationsInParts(TestMutations):
    """Every broken case with each source window cut into parts."""


class TestTerminalTally:
    def test_smallest_case(self):
        counts, report = windowed_terminal_counts(1, 1, window=4)
        assert counts == (1, 1)
        assert report.passed

    def test_counts_match_recursion(self):
        for n in (1, 2):
            for k in (1, 2, 3):
                counts, report = windowed_terminal_counts(n, k, window=5)
                assert report.passed, report.to_json()
                assert counts == recursion_expand(n, k).mult

    def test_counts_are_window_independent(self):
        for window in (3, 5, 7):
            counts, _ = windowed_terminal_counts(2, 2, window=window)
            assert counts == (1, 2, 3)

    @pytest.mark.parametrize("n,k,window", [(n, k, window) for n in (1, 2)
                                            for k in (1, 2, 3) for window in (3, 5, 6)]
                             + [(3, 2, 3)])
    def test_engine_tally_matches_element_tally(self, n, k, window):
        counts, report = windowed_terminal_counts(n, k, window=window)
        assert (counts, report.domain_size, report.image_size, report.passed) == (
            reference_tally(n, k, window))

    def test_n3_k3_on_the_engine(self):
        counts, report = windowed_terminal_counts(3, 3, window=5)
        assert counts == (1, 3, 6, 10)
        assert report.passed
        assert report.domain_size == report.image_size

    def test_small_window_keeps_the_structural_counts(self):
        # W < k leaves shortfall pieces empty; the tree still has every node
        counts, report = windowed_terminal_counts(2, 3, window=1)
        assert counts == (1, 3, 6) and report.passed
        assert (report.domain_size, report.image_size) == reference_tally(2, 3, 1)[1:3]

    def test_a_failed_check_alone_is_drift(self, monkeypatch):
        # a push that keeps every count but moves a target still fails
        import qproj.groupoid as G

        real = G._image_check

        def moved(sources, box):
            rows, size, found = real(sources, box)
            return rows, size, {**found, "moved": None}

        monkeypatch.setattr(G, "_image_check", moved)
        _, report = G.windowed_terminal_counts(1, 1, window=2)
        assert report.domain_size == report.image_size
        assert report.counterexample == {"kind": "element-count-drift"}

    def test_wrong_multiplicities_fail_the_tally(self, monkeypatch):
        # the tally's record compares its counts with the symbolic multiset
        from qproj import line_bundles

        monkeypatch.setattr(line_bundles, "recursion_expand",
                            lambda n, k: types.SimpleNamespace(mult=(1, 3, 2)))
        counts, report = windowed_terminal_counts(2, 2, 3)
        assert counts == (1, 2, 3) and not report.passed
        assert report.domain_size == report.image_size
        assert report.counterexample == {"kind": "multiplicity-mismatch",
                                         "counts": [1, 2, 3], "expected": [1, 3, 2]}

    def test_drift_comes_before_a_mismatch(self, monkeypatch):
        import qproj.groupoid as G
        from qproj import line_bundles

        real = G._image_check
        monkeypatch.setattr(G, "_image_check", lambda sources, box: (*real(sources, box)[:2],
                                                                     {"moved": None}))
        monkeypatch.setattr(line_bundles, "recursion_expand",
                            lambda n, k: types.SimpleNamespace(mult=(2, 2)))
        _, report = G.windowed_terminal_counts(1, 1, window=2)
        assert report.counterexample == {"kind": "element-count-drift"}

    def test_tally_record_is_the_verify_record(self):
        # over the terminal family's range: one record, named terminal-counts
        records = suite.terminal_count_checks()
        assert records and all(r.check == "terminal-counts" and r.passed for r in records)
        for r in records:
            n, k, W = r.params["n"], r.params["k"], r.params["W"]
            counts, report = windowed_terminal_counts(n, k, W)
            assert report == r == verify_terminal_counts(n, k, W)
            assert counts == recursion_expand(n, k).mult

    def test_verify_wrapper(self):
        report = verify_terminal_counts(2, 3, window=5)
        assert report.passed
        assert report.params["k"] == 3
        # every window element ends in exactly one terminal class
        assert report.domain_size == report.image_size
