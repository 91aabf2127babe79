"""Acceptance gate: every primary correctness claim at its stated range.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success) and asserts the claim, including the stated runtime budgets.
All checks are exact; there are no numeric tolerances anywhere.
"""

import itertools
import time

from qproj import suite
from qproj.oracle import IDENTITY, PatternStack, encode, rank_at
from qproj.projections import ProjClass, boxplus, is_equivalent
from qproj.reports import VerifyReport


def emit(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"{status} criterion {num}: {label}{tail}", flush=True)
    return ok


def failures(reports):
    return [r.to_json() for r in reports if not r.passed]


def test_criterion_1_monoid_law():
    t0 = time.perf_counter()
    reports = suite.monoid_checks(n_max=5, k_max=20)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 5.0
    emit(1, "diagonal-sum law, commutativity, associativity, additivity "
            "(n <= 5, k <= 20)", ok, f"{elapsed:.2f}s")
    assert all(r.passed for r in reports), failures(reports)
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.2f}s"


def test_criterion_2_rho_injectivity():
    reports = suite.rho_injectivity_checks(n_max=5, k_max=50)
    ok = all(r.passed for r in reports)
    emit(2, "counting vectors separate all classes (n <= 5, k <= 50)", ok)
    assert ok, failures(reports)


def test_criterion_3_cancellation():
    # the named witness over n = 2 first
    unit = ProjClass(2, 0, 1)
    a, b = ProjClass(2, 1, 1), ProjClass(2, 2, 1)
    witness = (boxplus(a, unit) == unit == boxplus(b, unit)
               and not is_equivalent(a, b))
    reports = suite.cancellation_checks(n_max=5, k_max=20)
    ok = witness and all(r.passed for r in reports)
    emit(3, "cancellation fails at rank 0, holds at rank >= 1", ok)
    assert witness
    assert all(r.passed for r in reports), failures(reports)


def test_criterion_4_bundle_recursion():
    t0 = time.perf_counter()
    reports = suite.bundle_recursion_checks(n_max=5, k_max=25)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 5.0
    emit(4, "peeling recursion equals binomial closed form "
            "(n <= 5, k <= 25)", ok, f"{elapsed:.2f}s")
    assert all(r.passed for r in reports), failures(reports)
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.2f}s"


def test_criterion_5_hockey_stick():
    reports = suite.hockey_stick_checks(l_max=12, k_max=40)
    ok = all(r.passed for r in reports)
    emit(5, "tail-sum identities with all shifts (l <= 12, k <= 40)", ok)
    assert ok, failures(reports)


def test_criterion_6_k0_consistency():
    reports = suite.k0_checks(n_max=5, k_max=25, exact_n_max=6)
    ok = all(r.passed for r in reports)
    emit(6, "restriction consistency (n <= 5, k <= 25) and exactness "
            "(n <= 6)", ok)
    assert ok, failures(reports)


def test_criterion_7_groupoid_windows():
    t0 = time.perf_counter()
    reports = suite.groupoid_checks(n_max=3, k_abs_max=4, window=8)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 60.0
    emit(7, "partitions and all six structural bijections "
            "(n <= 3, |k| <= 4, W = 8)", ok,
         f"{len(reports)} checks, {elapsed:.1f}s")
    assert all(r.passed for r in reports), failures(reports)
    assert elapsed < 60.0, f"budget 60s exceeded: {elapsed:.1f}s"


def brute_rank(pattern, N):
    total = 0
    layers = pattern.patterns if isinstance(pattern, PatternStack) else (pattern,)
    for layer in layers:
        kept = 0
        for point in itertools.product(range(N), repeat=layer.n):
            ok = True
            for i, f in enumerate(layer.factors):
                if f == IDENTITY:
                    continue
                inside = point[i] < f[1]
                if (f[0] == "P") != inside:
                    ok = False
                    break
            if ok:
                kept += 1
        total += kept * layer.copies
    return total


def test_criterion_8_oracle_agreement():
    reports = suite.oracle_agreement_checks(n_max=3, k_max=6)
    rank_exact = True
    for n in range(1, 4):
        for j in range(n + 1):
            for k in range(1, 7):
                pat = encode(ProjClass(n, j, k))
                for N in (2, 4):
                    if rank_at(pat, N) != brute_rank(pat, N):
                        rank_exact = False
    ok = all(r.passed for r in reports) and rank_exact
    emit(8, "numeric counting vectors at cutoffs (8, 16) and exact "
            "truncated ranks (n <= 3, k <= 6)", ok)
    assert rank_exact
    assert all(r.passed for r in reports), failures(reports)


def test_criterion_9_terminal_counts():
    reports = suite.terminal_count_checks(n_max=2, k_max=3)
    ok = all(r.passed for r in reports) and {r.params["W"] for r in reports} == {6}
    emit(9, "windowed terminal tallies equal symbolic multiplicities "
            "(n <= 2, k <= 3)", ok)
    assert ok, failures(reports)
