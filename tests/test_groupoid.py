"""Groupoid elements, structural maps, and the windowed verification engine."""

import itertools

import numpy as np
import pytest

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
    Window,
    _Action,
    _Axis,
    _Run,
    _axis_size,
    _block_sizes,
    _blocks,
    _check_setup,
    _element_from_raw,
    _first_inf,
    _first_moved,
    _image_check,
    _image_ranks,
    _iter_raw,
    _partition_setup,
    _stratum_spec,
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
    """The rows of a window by brute force, independent of the rank engine:
    every offset vector and source in the window's box, the source
    collapsed after its first inf, kept when it is a groupoid element."""
    n, primed = spec.n, spec.variant == "primed"
    sources = {}
    for w in itertools.product(*(list(range(lo, hi + 1)) + [INF] * inf_ok
                                 for lo, hi, inf_ok
                                 in zip(spec.w_lo, spec.w_hi, spec.w_inf))):
        p = w.index(INF) if INF in w else n
        sources[w[:p] + (INF,) * (n - p)] = None
    rows = []
    for x in itertools.product(*(range(lo, hi + 1)
                                 for lo, hi in zip(spec.x_lo, spec.x_hi))):
        z = spec.z + x[0] if spec.shear else spec.z
        for w in sources:
            try:
                GroupoidElement(n, z, x, w, primed=primed)
            except NotInGroupoid:
                continue
            rows.append((z, x, w))
    return rows


def reference_bijection(map_id, n, k=None, j=None, l=None, window=8):
    """(domain size, codomain size, verdict) from elements alone: the map
    applied element by element to the domain window must be injective,
    keep every target and give exactly the codomain window."""
    [(dom, _)], cod = _check_setup(map_id, n, k, j, l, window)
    domain = [_element_from_raw(raw, dom.variant) for raw in box_rows(dom)]
    if map_id == "t":
        codomain = {TElement(n, x, w) for _, x, w in box_rows(cod)}
    else:
        codomain = {_element_from_raw(raw, cod.variant) for raw in box_rows(cod)}
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


def reference_image_check(sources, cod):
    """The image check as it counted images before the hit map: int64
    ``np.bincount`` counts of the valid image ranks, compared with the
    codomain's indicator.  Returns the same (rows, size, found) triple.

    It shares no pair table and no lookup with the engine.  Each window's
    blocks are built on tables of their own, so no coordinate is its own
    lookup.  Up to n = 2 the image of each kept row is ranked one row at a
    time by ``_Block.rank``; at n = 3 by ``_image_ranks`` with no lookups
    kept between block pairs."""
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
            if cod.n <= 2:
                images = [a.row(raw) for raw in db.rows(np.flatnonzero(keep))]
                ranks = [None if cb is None else cb.rank(raw) for raw in images]
                ranks = np.array([-1 if r is None else r for r in ranks], dtype=np.int64)
            else:
                ranks = _image_ranks(db, a, cb)(db)[keep]
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


@pytest.fixture
def engine_calls(monkeypatch):
    """Check every ``_image_check`` call against ``reference_image_check``;
    yields the list of checked calls."""
    import qproj.groupoid as G

    real, calls = G._image_check, []

    def checked(sources, cod):
        got = real(sources, cod)
        calls.append(got)
        assert got == reference_image_check(sources, cod), (sources, cod)
        return got

    monkeypatch.setattr(G, "_image_check", checked)
    yield calls


@pytest.fixture(params=[1, 7])
def small_parts(request, monkeypatch):
    """Parts of 1 and of 7 positions, so that part boundaries fall inside
    the small windows of the tests."""
    import qproj.groupoid as G

    monkeypatch.setattr(G, "_CHUNK", request.param)
    return request.param


def box_keys(spec):
    return {raw_key(r) for r in box_rows(spec)}


def window_positions(spec):
    """Global position of every block start, and the window's indicator."""
    offsets, flags, start = {}, [], 0
    for p, block in _blocks(spec).items():
        offsets[p] = start
        flags.append(block.indicator())
        start += block.size
    return offsets, np.concatenate(flags)


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

    def test_source_and_target(self):
        g = canonicalize(2, 0, (2, -1), (1, 3))
        assert g.source() == (1, 3)
        assert g.target() == (3, 2)
        h = canonicalize(2, 3, (-3, 0), (INF, INF))
        assert h.source() == h.target() == (INF, INF)

    def test_json_round_trip(self):
        for g in [canonicalize(2, 1, (0, -1), (3, INF)),
                  canonicalize(2, 0, (5, 0), (INF, INF), primed=True),
                  canonicalize(1, -2, (3,), (0,))]:
            assert GroupoidElement.from_json(g.to_json()) == g
        assert "primed" not in canonicalize(1, 0, (0,), (4,)).to_json()


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

    WINDOWS = [(n, z, variant) for n in (1, 2) for z in range(-2, 3)
               for variant in ("plain", "primed")]

    @pytest.mark.parametrize("n,z,variant", WINDOWS)
    def test_public_maps_equal_references(self, n, z, variant):
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
        if variant == "primed":  # each map refuses the variant before all else
            params = params[::7]
        spec = _stratum_spec(n, z, 2, variant=variant)
        for g in (_element_from_raw(raw, variant) for raw in box_rows(spec)):
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
        (2, 0, {"variant": "primed"}),
        (3, -2, {"pins": 1}),
        (2, 1, {"variant": "primed", "shear": True}),
        (1, 0, {}),
        (3, 2, {"pins": 3}),
        (2, 2, {"w_over": {0: (2, 5, True)}}),
        (2, 2, {"w_over": {0: (1, 1, False)}, "pins": 0}),
        (2, 0, {"x_over": {1: (-1, 4)}}),
        # an offset range without 0 skips every block whose tail forces it to 0
        (3, 1, {"x_over": {2: (-3, -1)}}),
        (3, 0, {"x_over": {1: (1, 2)}, "variant": "primed"}),
    ]

    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_array_engine_matches_reference(self, n, z, kw):
        spec = _stratum_spec(n, z, 3, **kw)
        reference = box_rows(spec)
        blocks = _blocks(spec)
        offsets, indicator = window_positions(spec)
        ranked = []
        for raw in reference:
            p = _first_inf(raw[2])
            r = blocks[p].rank(raw)
            assert r is not None, raw
            ranked.append((offsets[p] + r, raw))
        ranked.sort()
        positions = [pos for pos, _ in ranked]
        # distinct positions, all flagged, and nothing else
        assert len(set(positions)) == len(positions)
        assert indicator[positions].all()
        assert int(indicator.sum()) == len(reference)
        # unranking every flagged position gives back the rows in rank
        # order, and the element-level enumeration lists them in that order
        unranked = []
        for p, block in blocks.items():
            for r in np.flatnonzero(block.indicator()):
                unranked.append(block.unrank(int(r)))
        in_rank_order = [raw_key(raw) for _, raw in ranked]
        assert [raw_key(r) for r in unranked] == in_rank_order
        assert [raw_key(r) for r in _iter_raw(spec)] == in_rank_order

    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_one_position_parts_keep_rank_order(self, monkeypatch, n, z, kw):
        import qproj.groupoid as G

        monkeypatch.setattr(G, "_CHUNK", 1)
        self.test_array_engine_matches_reference(n, z, kw)

    @pytest.mark.parametrize("chunk", [1, 7, 30])
    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_parts_tile_the_block(self, monkeypatch, chunk, n, z, kw):
        # consecutive parts of at most _CHUNK positions, each ranking,
        # unranking and flagging its positions as the block does
        import qproj.groupoid as G

        monkeypatch.setattr(G, "_CHUNK", chunk)
        for block in _blocks(_stratum_spec(n, z, 3, **kw)).values():
            parts = list(block.parts())
            assert [q.start for q in parts] == list(itertools.accumulate(
                [0] + [q.size for q in parts[:-1]]))
            assert sum(q.size for q in parts) == block.size
            assert parts == [block] or all(q.size <= chunk for q in parts)
            assert np.array_equal(np.concatenate([q.indicator() for q in parts]),
                                  block.indicator())
            for q in parts:
                everywhere = list(range(q.size))
                assert q.rows(everywhere) == block.rows([q.start + r for r in everywhere])
                assert [q.rank(q.unrank(r)) for r in everywhere] == everywhere

    @pytest.mark.parametrize("n,z,kw", SPECS)
    def test_table_ranks_match_row_ranks(self, n, z, kw):
        # the outer-sum ranking of the identity map equals row-by-row ranking
        spec = _stratum_spec(n, z, 3, **kw)
        identity = _Action(z=spec.z, shear=spec.shear)
        for block in _blocks(spec).values():
            everywhere = list(range(block.size))
            assert [block.rank(block.unrank(r)) for r in everywhere] == everywhere
            if block.axes:
                assert _image_ranks(block, identity, block)(block).tolist() == everywhere

    def test_window_type(self):
        assert len(enumerate_stratum(1, 0, window=Window(2))) == 13
        with pytest.raises(OutOfRange):
            enumerate_stratum(1, 0, window=0)


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
        reports = ([verify_bijection("gamma", 3, k=k, window=3) for k in range(-4, 5)]
                   + [verify_bijection("theta-shift", 3, k=k, j=j, window=3)
                      for k in range(1, 5) for j in range(3)])
        assert all(r.passed for r in reports)
        assert len(engine_calls) == len(reports)

    def test_huge_values_are_refused(self):
        # offsets near 2**62 would wrap int64 sums; refused, never ranked
        with pytest.raises(OutOfRange):
            verify_bijection("theta-shift", 3, k=2 ** 62, j=0, window=1)

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
    """Every verifier test, the engine against the whole-block reference
    and the failure path included, with part boundaries inside the
    windows."""


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

    @pytest.mark.parametrize("call", [
        lambda: verify_partition(5, 4, 0, window=8),
        lambda: verify_bijection("gamma", 5, k=1, window=8),
        lambda: enumerate_stratum(5, 1, window=8),
    ], ids=["partition n=5", "gamma n=5", "enumeration n=5"])
    def test_oversized_block_refused(self, call):
        """A block too large to check in memory is refused before any array
        of its size is built."""
        with pytest.raises(OutOfRange, match=r"block of \d+ positions exceeds "
                                              r"the limit of 536870912"):
            call()

    def test_axis_size_counts_the_pair_table(self):
        """The closed-form count equals the built table's size on every range
        with bounds in -6..6, empty ranges included."""
        bounds = range(-6, 7)
        for ranges in itertools.product(bounds, repeat=4):
            assert _axis_size(*ranges) == _Axis(*ranges).size, ranges

    def test_memory_is_bounded_by_the_codomain_maps_and_one_part(self):
        """A check holds at most three bytes per position of its largest
        codomain block and 32 bytes per position of one part."""
        import tracemalloc

        import qproj.groupoid as G

        largest = max(_block_sizes(_partition_setup(3, 4, 0, 8)[0]).values())
        tracemalloc.start()
        try:
            report = verify_partition(3, 4, 0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 3 * largest + 32 * G._CHUNK

    def test_oversized_sweep_is_refused_before_any_check_runs(self, monkeypatch):
        import qproj.groupoid as G
        from qproj import suite

        calls = []
        real = G._image_check
        monkeypatch.setattr(G, "_image_check", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(OutOfRange, match="exceeds the limit of 536870912"):
            suite.groupoid_checks(n_max=5)
        assert calls == []

    def test_block_limit_admits_a_block_of_its_size(self, monkeypatch):
        import qproj.groupoid as G

        largest = max(b.size for b in _blocks(_partition_setup(2, 1, 0, 2)[0]).values())
        monkeypatch.setattr(G, "_BLOCK_LIMIT", largest)
        assert verify_partition(2, 1, 0, 2).passed
        monkeypatch.setattr(G, "_BLOCK_LIMIT", largest - 1)
        with pytest.raises(OutOfRange, match=f"block of {largest} positions"):
            verify_partition(2, 1, 0, 2)


class TestSharedTables:
    """One pair table per distinct range and one lookup per coordinate in a
    check, on tables no window can write to."""

    @staticmethod
    def ranges(spec):
        return list(zip(spec.x_lo, spec.x_hi, spec.w_lo, spec.w_hi))

    @pytest.mark.parametrize("kind,n,k,j,W", [
        ("theta-shift", 6, 1, 2, 1),  # 12 tables and 20 lookups before sharing
        ("gamma", 5, 2, None, 2),  # 10 and 15
        ("partition", 5, 3, 1, 2),  # 25 and 57
    ])
    def test_tables_and_lookups_once_per_check(self, monkeypatch, kind, n, k, j, W):
        import qproj.groupoid as G

        work = {"builds": 0, "lookups": 0}
        build, index = _Axis.__init__, _Axis.index

        def counted_build(self, *ranges):
            work["builds"] += 1
            build(self, *ranges)

        def counted_index(self, x, w):
            work["lookups"] += 1
            return index(self, x, w)

        monkeypatch.setattr(_Axis, "__init__", counted_build)
        monkeypatch.setattr(_Axis, "index", counted_index)
        assert G._verify(kind, n, k, j, None, W).passed
        sources, cod = _check_setup(kind, n, k, j, None, W)
        distinct = {r for spec in [cod, *(spec for spec, _ in sources)]
                    for r in self.ranges(spec)}
        needed = sum((i == a.coord and bool(a.dx or a.dw or a.pin))
                     or self.ranges(spec)[i] != self.ranges(cod)[i]
                     for spec, a in sources for i in range(n))
        assert work["builds"] <= len(distinct)
        assert work["lookups"] <= needed

    def test_pair_tables_are_read_only(self):
        # the windows of one check share tables, so no window may edit one
        sources, cod = _check_setup("theta-shift", 3, 1, 0, None, 2)
        tables = {}
        table = _blocks(cod, tables)[3].axes[1]
        assert _blocks(sources[0][0], tables)[3].axes[1] is table
        for run in (table, _Run(table, 1, 4)):
            for name in ("x", "w", "start", "base"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(run, name)[0] += 1


class TestMutations:
    """Broken actions and windows are caught, each with a concrete element."""

    @pytest.fixture(autouse=True)
    def against_reference(self, engine_calls):
        # every broken case also gives the counting engine's triple
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
        g = _element_from_raw(raw, "plain")
        assert ref_theta_shift(g, 2, 1).target() == g.target()  # unlike the map

    def test_pinned_source_collides(self, monkeypatch):
        # pinning the source instead of shifting it forgets w[j]: rows that
        # differ only there share an image (and their targets move)
        dom, cod, action, found = self.break_map(
            monkeypatch, "theta-shift", 1, k=1, j=0,
            action=_Action(z=0, coord=0, dx=1, pin=True))
        assert found["kind"] == "target-moved"
        _, _, kinds = _image_check([(dom, action)], cod)
        collision = raw_key(kinds["collision"])
        assert self.images(dom, action).count(collision) >= 2
        assert collision in box_keys(cod)

    def test_pinning_an_infinite_source_moves_its_target(self, monkeypatch):
        # w[0] is k or inf; pinning is harmless on the finite rows only
        dom, _, _, found = self.break_map(
            monkeypatch, "theta-shift", 2, k=1, j=0,
            dom=_stratum_spec(2, 1, 2, w_over={0: (1, 1, True)}),
            action=_Action(z=0, coord=0, dx=1, pin=True))
        assert found["kind"] == "target-moved"
        element = element_key(found["element"])
        assert element in box_keys(dom)
        assert element[2][0] == "inf"

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
        # ... and with the shear dropped from the codomain too, the forced
        # offset differs from the codomain's by x[0]
        ("gamma", {"k": 0}, _stratum_spec(2, 0, 2, variant="primed"), _Action(z=0)),
        # theta-peel paying one unit too few, into that degree: targets
        # stay, but every forced offset is off by one
        ("theta-peel", {"k": 2, "j": 0, "l": 1},
         _stratum_spec(2, 2, 2, pins=1, x_over={0: (-1, 3)}),
         _Action(z=2, coord=0, dx=1, pin=True)),
    ])
    def test_image_leaves_codomain(self, monkeypatch, map_id, kwargs, cod, action):
        dom, cod, action, found = self.break_map(monkeypatch, map_id, 2, cod=cod,
                                                 action=action, **kwargs)
        assert found["kind"] == "image-outside-codomain"
        element = element_key(found["element"])
        assert element in self.images(dom, action)
        assert element not in box_keys(cod)

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
        pieces[0] = _stratum_spec(2, 2, 3, w_over={0: piece})
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
        # them twice: the hit map equals the indicator, and only the number
        # of images placed shows the overlap
        import qproj.groupoid as G

        full, pieces = _partition_setup(2, 2, 0, 3)
        pieces[0] = _stratum_spec(2, 2, 3, w_over={0: (1, 5, True)})
        surplus = 0
        for p, cb in _blocks(full).items():
            member, hit = cb.indicator(), np.zeros(cb.size, dtype=bool)
            for piece in pieces:
                db = _blocks(piece).get(p)
                if db is not None:
                    ranks = _image_ranks(db, _Action(z=2), cb)(db)[db.indicator()]
                    hit[ranks[ranks >= 0]] = True
                    surplus += np.count_nonzero(ranks >= 0)
            surplus -= np.count_nonzero(member)
            assert np.array_equal(hit, member)
        assert surplus > 0
        monkeypatch.setattr(G, "_partition_setup", lambda *args: (full, pieces))
        report = G.verify_partition(2, 2, 0, window=3)
        assert report.counterexample["kind"] == "overlap"


@pytest.mark.usefixtures("small_parts")
class TestMutationsInParts(TestMutations):
    """Every broken case with part boundaries inside the windows."""


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

    def test_verify_wrapper(self):
        report = verify_terminal_counts(2, 3, window=5)
        assert report.passed
        assert report.params["k"] == 3
        # every window element ends in exactly one terminal class
        assert report.domain_size == report.image_size
