"""Committed mutants of the structural maps and of the operations the
other families check.

Each map mutant breaks one map's action in ``_bijection_setup``, the one
description that the element maps, the bijection checks and the terminal
tally all read.  A mutant counts as caught when the groupoid sweep of
``verify-all`` (at a small range) gives a failing bijection record for
that map and the public element map's output changes on some element.

Each operation mutant replaces one module function; it counts as caught
when the family that should catch it, run by ``suite.run_group`` at its
default ranges, gives a failing record of the expected check.
"""

import dataclasses

import pytest

import qproj.groupoid as G
from qproj import line_bundles, oracle, projections, suite
from qproj.errors import QprojError
from qproj.extnat import INF
from qproj.groupoid import MAP_IDS, enumerate_stratum
from qproj.projections import RhoVector

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
    real = G._bijection_setup

    def broken(mid, n, k, j, l, W, **kw):
        dom, cod, action = real(mid, n, k, j, l, W, **kw)
        if mid == map_id and only_n in (None, n):
            action = dataclasses.replace(action, **change(action))
        return dom, cod, action

    monkeypatch.setattr(G, "_bijection_setup", broken)


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


def test_unpinned_peel_drifts_the_terminal_tally(monkeypatch):
    # theta-peel shifting its source by nothing instead of pinning it
    install(monkeypatch, "theta-peel", lambda a: {"pin": False})
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
    def mutant(spec, j, k):
        above, *shortfalls = real(spec, j, k)
        lifted = (k + 1, above.w_hi[j], above.w_inf[j])
        return [G._recoord(above, j, k, 0, lifted), *shortfalls]
    return mutant


def _level_factor_one_deeper(real):
    # P[j,k] with j >= 1 encoded with the level factor P(k + 1)
    def mutant(p):
        pattern = real(p)
        if p.j == 0:
            return pattern
        factors = list(pattern.factors)
        factors[p.j - 1] = oracle.cutoff(p.k + 1)
        return dataclasses.replace(pattern, factors=tuple(factors))
    return mutant


# mutant -> (module, function, mutant of the real function, family, check)
OPERATION_MUTANTS = {
    "absorption": (projections, "boxplus", _higher_absorbs, "monoid", "monoid-law"),
    "rho": (projections, "rho", _rho_without_infinity, "monoid", "rho-additivity"),
    "binomial": (line_bundles, "binomial", _binomial_off_at_1, "bundle-recursion",
                 "bundle-recursion"),
    "window-bound": (G, "_cut", _cut_above_from_k_plus_1, "groupoid", "partition"),
    "oracle-depth": (oracle, "encode", _level_factor_one_deeper, "oracle",
                     "oracle-agreement"),
}

# Operation mutants the default sweep cannot catch, with the reason.
OPERATION_NOT_CATCHABLE = {
    "oracle-depth-refusal": "rho_numeric refuses a factor deeper than the first "
        "cutoff; the default oracle sweep encodes factors of depth at most "
        "k_max = 6 and runs at cutoffs (8, 16, 32), so dropping the refusal "
        "changes none of its records; tests/test_oracle.py checks the refusal",
}


def test_every_operation_is_mutated_or_listed():
    named = ("absorption", "rho", "binomial", "window-bound", "oracle-depth")
    assert set(named) <= {*OPERATION_MUTANTS, *OPERATION_NOT_CATCHABLE}


@pytest.mark.parametrize("name", sorted(OPERATION_MUTANTS))
def test_operation_mutant_is_caught(monkeypatch, name):
    module, attr, mutate, family, check = OPERATION_MUTANTS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    failed = {r.check for r in suite.run_group(family) if not r.passed}
    assert check in failed
