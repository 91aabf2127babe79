"""Committed mutants of the structural maps.

Each mutant breaks one map's action in ``_bijection_setup``, the one
description that the element maps, the bijection checks and the terminal
tally all read.  A mutant counts as caught when the groupoid sweep of
``verify-all`` (at a small range) gives a failing bijection record for
that map and the public element map's output changes on some element.
"""

import dataclasses

import pytest

import qproj.groupoid as G
from qproj import suite
from qproj.errors import QprojError
from qproj.groupoid import MAP_IDS, enumerate_stratum

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
