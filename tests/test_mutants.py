"""Committed mutants of the structural maps and of the operations the
other families check.

Each map mutant breaks one map's action in ``_check_setup``, the one
description that the element maps, the partition and bijection checks
and the terminal tally all read.  A mutant counts as caught when the
groupoid sweep of ``verify-all`` (at a small range) gives a failing
bijection record for that map and the public element map's output
changes on some element.

Each operation mutant replaces one module function; it counts as caught
when the family that should catch it, run by ``suite.run_group`` at its
default ranges, gives a failing record of the expected check; a mutant of
the restriction must also give the expected kind of exactness failure.

Each engine mutant edits one line of one function of the image check; it
counts as caught when the records of a small groupoid sweep, or the
triple of an image check with a known overlap, of gamma with the shear
dropped, into a window with a narrower offset range, on a one-row
window, or with its first failure next to the end of a run of pairs,
change.  An engine mutant that can change no record is listed with the
reason and must leave all of these as they are.  Every groupoid mutant
is also run with each source window cut into parts of one source value,
where it must be caught with the same records.  A row count that is
wrong while no row fails, from the narrowed count digit or from one
codomain row too many, must fail its record as a size mismatch.
"""

import inspect
import json
import textwrap
from pathlib import Path

import pytest

import qproj.groupoid as G
from qproj import k_theory, line_bundles, oracle, projections, suite
from qproj.errors import QprojError
from qproj.extnat import INF, Infinity
from qproj.groupoid import MAP_IDS, enumerate_stratum
from qproj.projections import ProjClass, RhoVector
from test_groupoid import cut_into_parts

VERIFY_ALL = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify_all.jsonl"

# map id -> (change to its action, the only n it applies at or None,
#            n_max of the sweep, probe: (n, degree, pins) of the elements and
#            the (k, j, l) the public map is called with)
MUTANTS = {
    "theta-neg": (lambda a: {"dw": -a.dw}, None, 2, (2, -1, 0), (-1, None, None)),
    "theta-shift": (lambda a: {"dx": a.dx + 1}, None, 2, (2, 1, 0), (1, 0, None)),
    "theta-peel": (lambda a: {"dx": a.dx + 1}, 3, 3, (3, 2, 0), (2, 0, 1)),
    "theta-terminal": (lambda a: {"z": a.z + 1}, None, 2, (2, 1, 2), (None, None, 1)),
    "gamma": (lambda a: {"shear": False}, None, 2, (2, 1, 0), (None, None, None)),
}

# Maps no mutant of which the sweep can catch, with the reason.
NOT_CATCHABLE = {
    "t": "its domain and codomain are the same degree-0 window joined by the "
         "identity action, because TElement rows are exactly the plain degree-0 "
         "rows; what t_iso adds, dropping the degree, has no row form, so its "
         "check can fail only if the engine is broken",
}

PUBLIC = {
    "theta-neg": lambda g, k, j, l: G.theta_neg(g, k),
    "theta-shift": lambda g, k, j, l: G.theta_shift(g, k, j),
    "theta-peel": lambda g, k, j, l: G.theta_peel(g, k, j, l),
    "theta-terminal": lambda g, k, j, l: G.theta_terminal(g, l),
    "gamma": lambda g, k, j, l: G.gamma_iso(g),
}


def install(monkeypatch, map_id, change, only_n=None):
    """Replace the action of one map, at every n or only at ``only_n``."""
    real = G._check_setup

    def broken(kind, n, k, j, l, W, **kw):
        sources, cod = real(kind, n, k, j, l, W, **kw)
        if kind == map_id and only_n in (None, n):
            sources = [(dom, a.replace(**change(a))) for dom, a in sources]
        return sources, cod

    monkeypatch.setattr(G, "_check_setup", broken)


def outputs(map_id, probe, params):
    n, degree, pins = probe
    out = []
    for g in enumerate_stratum(n, degree, j=pins, window=2):
        try:
            out.append(PUBLIC[map_id](g, *params))
        except QprojError as err:
            out.append(type(err))
    return out


def test_every_map_is_mutated_or_listed():
    assert sorted([*MUTANTS, *NOT_CATCHABLE]) == sorted(MAP_IDS)


@pytest.mark.parametrize("map_id", sorted(MUTANTS))
def test_mutant_is_caught(monkeypatch, map_id):
    change, only_n, n_max, probe, params = MUTANTS[map_id]
    before = outputs(map_id, probe, params)
    assert any(not isinstance(h, type) for h in before), "probe misses the domain"
    install(monkeypatch, map_id, change, only_n)
    failed = [r for r in suite.groupoid_checks(n_max=n_max, window=3) if not r.passed]
    assert failed and {r.params["map"] for r in failed} == {map_id}
    assert outputs(map_id, probe, params) != before


def in_parts(monkeypatch):
    """Run every image check from now on with its source windows cut into
    parts of one source value."""
    check = G._image_check
    monkeypatch.setattr(G, "_image_check", lambda sources, cod: check(
        cut_into_parts(sources, 1), cod))


@pytest.mark.parametrize("map_id", sorted(MUTANTS))
def test_mutant_is_caught_in_parts(monkeypatch, map_id):
    # parts of one source value fail the same records, counterexamples included
    change, only_n, n_max, _, _ = MUTANTS[map_id]
    install(monkeypatch, map_id, change, only_n)

    def failed():
        reports = suite.groupoid_checks(n_max=n_max, window=3)
        return [r.to_json() for r in reports if not r.passed]

    whole = failed()
    in_parts(monkeypatch)
    assert whole and failed() == whole


def test_unpinned_peel_drifts_the_terminal_tally(monkeypatch):
    # theta-peel leaving its source in place instead of paying it out
    install(monkeypatch, "theta-peel", lambda a: {"dw": 0})
    reports = suite.terminal_count_checks()
    assert not all(r.passed for r in reports)
    for r in reports:
        if not r.passed:
            assert r.counterexample == {"kind": "element-count-drift"}


# --- operations ---------------------------------------------------------------


def _higher_absorbs(real):
    def mutant(a, b):
        if a.is_zero or b.is_zero or a.j == b.j:
            return real(a, b)
        return a if a.j > b.j else b
    return mutant


def _rho_without_infinity(real):
    # zero instead of infinity above the class's level
    return lambda p: RhoVector(tuple(0 if e == INF else e for e in real(p)))


def _binomial_off_at_1(real):
    return lambda k, j: real(k, j) + (j == 1)


def _cut_above_from_k_plus_1(real):
    # the piece with at least k to give starts at k + 1: a gap at exactly k
    def mutant(spec, j):
        above, *shortfalls = real(spec, j)
        r = above.ranges[j]
        return [G._recoord(above, j, 0, (spec.z + 1, r.w_hi, r.w_inf)), *shortfalls]
    return mutant


def _level_factor_one_deeper(real):
    # P[j,k] with j >= 1 encoded with the level factor P(k + 1)
    def mutant(p):
        pattern = real(p)
        if p.j == 0:
            return pattern
        factors = list(pattern.factors)
        factors[p.j - 1] = oracle.cutoff(p.k + 1)
        return pattern.replace(factors=tuple(factors))
    return mutant


def _restriction_drops_first(real):
    # the first coordinate dropped instead of the last
    return lambda v: k_theory.K0Vector(real(v).n, v.coords[1:])


def _restriction_doubles_level_0(real):
    def mutant(v):
        w = real(v)
        return k_theory.K0Vector(w.n, (2 * w.coords[0], *w.coords[1:]))
    return mutant


def _infinity_yields(real):
    # inf + t = t for an int t: addition stops saturating from the left
    return lambda inf, t: t if isinstance(t, int) else real(inf, t)


# mutant -> (module, function, mutant of the real function, family, check)
OPERATION_MUTANTS = {
    "absorption": (projections, "boxplus", _higher_absorbs, "monoid", "monoid-law"),
    "rho": (projections, "rho", _rho_without_infinity, "monoid", "rho-additivity"),
    "saturating-addition": (Infinity, "__add__", _infinity_yields, "monoid",
                            "rho-additivity"),
    "binomial": (line_bundles, "binomial", _binomial_off_at_1, "bundle-recursion",
                 "bundle-recursion"),
    "binomial-tail": (line_bundles, "binomial", _binomial_off_at_1, "hockey-stick",
                      "hockey-stick"),
    "window-bound": (G, "_cut", _cut_above_from_k_plus_1, "groupoid", "partition"),
    "oracle-depth": (oracle, "encode", _level_factor_one_deeper, "oracle",
                     "oracle-agreement"),
    "restriction-drops-first": (k_theory, "nu_star", _restriction_drops_first, "k0",
                                "k0-exactness"),
    "restriction-doubles-level-0": (k_theory, "nu_star", _restriction_doubles_level_0,
                                    "k0", "k0-exactness"),
}

# Operation edits that change no record of verify-all: mutant -> (owner,
# the function it edits, the text it replaces, replacement).
OPERATION_EQUIVALENT = {
    # equal levels return before the absorption test, so `<=` meets no tie
    "absorb-at-equal-levels": (projections, "boxplus", "a.j < b.j", "a.j <= b.j"),
    # a valid class at level 0 leaves the fast path; the checks below accept it
    "class-level-0-checked": (ProjClass, "__init__", "and 0 <= j <= n and",
                              "and 0 < j <= n and"),
    # a zero entry leaves the fast path; the check below accepts it
    "rho-zero-entry-checked": (RhoVector, "__init__", "e >= 0", "e > 0"),
}

# The counterexample of the first failing exactness record (n = 1) under each
# restriction mutant.  A linear nu_star cannot reach "image-not-in-kernel": it
# maps n + 1 coordinates onto n, so its kernel is never zero, and once the
# kernel lies in the span of the one iota generator, a primitive kernel vector
# is plus or minus that generator, which the restriction then kills.
EXACTNESS_COUNTEREXAMPLES = {
    "restriction-drops-first": {"kind": "kernel-not-in-image", "vector": [1, 0]},
    "restriction-doubles-level-0": {"kind": "not-surjective", "target-level": 0},
}

# Operation mutants the default sweep cannot catch, with the reason.
OPERATION_NOT_CATCHABLE = {
    "oracle-depth-refusal": "rho_numeric refuses a factor deeper than the first "
        "cutoff; the default oracle sweep encodes factors of depth at most "
        "k_max = 6 and runs at cutoffs (8, 16), so dropping the refusal "
        "changes none of its records; tests/test_oracle.py checks the refusal",
}


def test_every_operation_is_mutated_or_listed():
    named = ("absorption", "rho", "saturating-addition", "binomial", "window-bound",
             "oracle-depth", "restriction-drops-first")
    assert set(named) <= {*OPERATION_MUTANTS, *OPERATION_NOT_CATCHABLE}


@pytest.mark.parametrize("name", sorted(OPERATION_MUTANTS))
def test_operation_mutant_is_caught(monkeypatch, name):
    module, attr, mutate, family, check = OPERATION_MUTANTS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    failed = {r.check for r in suite.run_group(family) if not r.passed}
    assert check in failed


@pytest.mark.parametrize("name", sorted(OPERATION_EQUIVALENT))
def test_equivalent_operation_mutant_changes_no_record(monkeypatch, name):
    owner, function, old, new = OPERATION_EQUIVALENT[name]
    monkeypatch.setattr(owner, function, edited(owner, function, old, new, name))
    records = "".join(json.dumps(r.to_json()) + "\n" for r in suite.run_all(jobs=1))
    assert records == VERIFY_ALL.read_text()


@pytest.mark.parametrize("name", sorted(EXACTNESS_COUNTEREXAMPLES))
def test_exactness_mutant_gives_its_kind(monkeypatch, name):
    module, attr, mutate, family, check = OPERATION_MUTANTS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    first = next(r for r in suite.run_group(family) if r.check == check and not r.passed)
    assert first.params["n"] == 1
    assert first.counterexample == EXACTNESS_COUNTEREXAMPLES[name]


# --- engine -------------------------------------------------------------------

# mutant -> (the function it edits, the text it replaces, replacement)
ENGINE_MUTANTS = {
    # count no codomain pair as reached twice: an overlap goes unseen
    "no-collision-test": ("_cover", "if depth > 1:", "if False:"),
    # carry every pair of coordinate 0 whatever its image degree
    "no-coordinate-0-degree-test": ("_carry", "if i == 0:", "if False:"),
    # take the p = 0 image whatever its degree
    "no-p0-degree-test": ("_image_check", "and (p or not _degree_gap(a, t, -s.z))",
                          "and True"),
    # compare no kept range of the source with the codomain's
    "no-kept-range-test": ("_without", "if r[0] <= r[1]]", "if False]"),
    # pack the row counts in digits two bits too narrow for the widest count
    "narrow-count-digit": ("_count", ".bit_length() + 1", ".bit_length() - 1"),
    # count no pair of the runs that start above x_lo
    "no-short-runs": ("_count", "if a <= b:", "if False:"),
    # end each run of pairs reached, or not reached, one pair too late
    "hit-run-one-long": ("_cover", "(hit if depth else missed).append((w, x, at - 1))",
                         "(hit if depth else missed).append((w, x, at))"),
    # end each run of pairs reached twice one pair too late
    "twice-run-one-long": ("_cover", "twice.append((w, x, at - 1))",
                           "twice.append((w, x, at))"),
    # carry the pairs on the wrong side of the one whose image degree is t's
    "sheared-degree-sign": ("_carry", "min(last, first - gap * slope)",
                            "min(last, first + gap * slope)"),
}

# Engine mutants that change no record, with the reason.
ENGINE_EQUIVALENT = {
    # an edge at x itself, where a run starts or two edges meet, then
    # appends the empty run (w, x, x - 1); it holds no pair, and every
    # reader of the runs (``_first``) ranges over their pairs
    "empty-runs": ("_cover", "if at > x:", "if at >= x:"),
    # the digits 1, ..., 1 plus 2 // (X - 1), which is 0 for digits of B >= 2 bits
    "ones-plus-two": ("_count", "((1 << B * m) - 1)", "((1 << B * m) + 1)"),
}


def engine_probe():
    """Records of a small groupoid sweep, the image check of a partition
    whose first piece overlaps the next one, the image checks of gamma with
    the shear dropped at k = 0 (only the free blocks' images leave the
    codomain) and k = 1 (the p = 0 image leaves it first), the image check
    of t into its window with coordinate 1's offsets cut to -3..0 (a kept
    range of block 1 shrinks), the identity on the one-row window of
    x = w = (0,), whose count digits are two bits wide, and three image
    checks whose first failures sit next to the end of a run of pairs:
    theta-neg at k = -3 acting on coordinate 1 (its first uncovered row),
    two pieces of the degree -5 window that overlap at w[0] = 1 (block 1 has
    no row, since its forced offset 5 - x[0] needs x[0] >= 3), and the
    sheared identity on the degree-0 window whose first offset is 1 (every
    image has degree 1); or the type of the exception raised."""
    full, pieces = G._partition_setup(2, 2, 0, 3)
    pieces[0] = G._recoord(G._stratum_spec(2, 2, 3), 0, 0, (1, 5, True))
    [(window, identity)], _ = G._check_setup("t", 2, None, None, None, 3)
    narrow = window.replace(ranges=G._put(
        window.ranges, 1, window.ranges[1]._replace(x_hi=0)))
    [(neg, neg_action)], neg_cod = G._check_setup("theta-neg", 2, -3, None, None, 1)
    below = G._stratum_spec(2, -5, 2)
    [(small, _)], _ = G._check_setup("t", 2, None, None, None, 1)
    first_one = small.replace(ranges=G._put(
        small.ranges, 0, small.ranges[0]._replace(x_lo=1)))
    try:
        overlap = G._image_check([(piece, G._Action(z=2)) for piece in pieces], full)
        unsheared = []
        for k in (0, 1):
            [(dom, _)], cod = G._check_setup("gamma", 2, k, None, None, 3)
            unsheared.append(G._image_check([(dom, G._Action(z=k))], cod))
        narrowed = G._image_check([(window, identity)], narrow)
        one_row = G._WindowSpec(0, (G._Range(0, 0, 0, 0, False),))
        single = G._image_check([(one_row, G._Action(z=0))], one_row)
        run_ends = [
            G._image_check([(neg, neg_action.replace(coord=1))], neg_cod),
            G._image_check([(G._recoord(below, 0, 0, w), G._Action(z=-5))
                            for w in ((0, 1, False), (1, 2, True))], below),
            G._image_check([(first_one, G._Action(z=0, shear=True))], first_one)]
        records = [r.to_json() for r in suite.groupoid_checks(n_max=2, window=3)]
        return records, overlap, unsheared, narrowed, single, run_ends
    except Exception as err:  # a crash is caught too: verify-all exits 1
        return type(err)


def edited(owner, function, old, new, name):
    """``owner.function`` compiled from its source with the one ``old`` in
    it replaced by ``new``, in the namespace of its module."""
    real = getattr(owner, function)
    source = textwrap.dedent(inspect.getsource(real))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), f"<{name}>", "exec"),
         vars(inspect.getmodule(real)), namespace)
    return namespace[function]


def engine_mutant(name):
    """The name of the function the mutant edits, and the edited function."""
    function, old, new = {**ENGINE_MUTANTS, **ENGINE_EQUIVALENT}[name]
    return function, edited(G, function, old, new, name)


@pytest.mark.parametrize("name", sorted(ENGINE_MUTANTS))
def test_engine_mutant_is_caught(monkeypatch, name):
    before = engine_probe()
    monkeypatch.setattr(G, *engine_mutant(name))
    assert engine_probe() != before


@pytest.mark.parametrize("name", sorted(ENGINE_MUTANTS))
def test_engine_mutant_is_caught_in_parts(monkeypatch, name):
    # with parts of one source value the mutant gives the probe it gives on
    # whole windows, and the real check does not
    monkeypatch.setattr(G, *engine_mutant(name))
    whole = engine_probe()
    in_parts(monkeypatch)
    caught = engine_probe()
    monkeypatch.undo()
    assert caught == whole and caught != engine_probe()


@pytest.mark.parametrize("name", sorted(ENGINE_EQUIVALENT))
def test_equivalent_engine_mutant_changes_no_probe(monkeypatch, name):
    before = engine_probe()
    monkeypatch.setattr(G, *engine_mutant(name))
    assert engine_probe() == before


def test_narrow_count_digit_fails_as_size_mismatch(monkeypatch):
    # the narrowed digit miscounts some windows but finds no failing row
    monkeypatch.setattr(G, *engine_mutant("narrow-count-digit"))
    reports = suite.run_group("groupoid")
    unequal = [r for r in reports if r.domain_size != r.image_size]
    assert unequal
    assert all(r.counterexample == {"kind": "size-mismatch"} for r in unequal)
    assert all(r.passed for r in reports if r.domain_size == r.image_size)


def test_codomain_miscount_fails_every_record_after_its_rows(monkeypatch):
    # one codomain row too many on every check: a record that a map mutant
    # fails by a row keeps that row, and every other record fails by its sizes
    install(monkeypatch, "theta-shift", MUTANTS["theta-shift"][0])
    by_rows = [r.counterexample for r in suite.run_group("groupoid")]
    check = G._image_check
    monkeypatch.setattr(G, "_image_check", lambda sources, cod: (
        lambda rows, size, found: (rows, size + 1, found))(*check(sources, cod)))
    miscounted = [r.counterexample for r in suite.run_group("groupoid")]
    assert any(by_rows) and not all(by_rows)
    assert miscounted == [c or {"kind": "size-mismatch"} for c in by_rows]
