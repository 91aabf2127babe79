"""Standard verification sweeps over every module, reported uniformly.

Each function runs one family of checks over its documented default
ranges and returns VerifyReport records; ``run_all`` strings every family
together (plus seeded randomized supplements) and is what the command
line front end and the acceptance tests drive.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import groupoid, k_theory, line_bundles, oracle, projections
from .errors import OutOfRange
from .reports import VerifyReport

__all__ = [
    "DEFAULT_SEED",
    "monoid_checks",
    "rho_injectivity_checks",
    "cancellation_checks",
    "bundle_recursion_checks",
    "hockey_stick_checks",
    "k0_checks",
    "groupoid_checks",
    "oracle_agreement_checks",
    "terminal_count_checks",
    "random_checks",
    "GROUP_NAMES",
    "run_group",
    "run_all",
    "effective_jobs",
]

DEFAULT_SEED = 1729


def _class_stock(n, k_max):
    """The zero class plus every normal form with multiplicity up to k_max."""
    stock = [projections.zero_class(n)]
    for j in range(n + 1):
        for k in range(1, k_max + 1):
            stock.append(projections.ProjClass(n, j, k))
    return stock


def _first_counterexample(cases, test):
    """Run ``test(*case)`` over the cases in order and stop at the first
    that returns a counterexample; returns the number of cases passed
    before it and that counterexample, or None when every case passes."""
    passed = 0
    for case in cases:
        bad = test(*case)
        if bad is not None:
            return passed, bad
        passed += 1
    return passed, None


def monoid_checks(n_max=5, k_max=20):
    """Diagonal-sum law, commutativity, associativity, and rho additivity,
    exhaustively over every ambient index up to n_max and multiplicity up
    to k_max."""
    law_bad = add_bad = None
    comm_ok = assoc_ok = True
    pairs = triples = 0
    for n in range(n_max + 1):
        base = _class_stock(n, k_max)
        # each sum of up to three base classes is named by its index in this
        # stock, read from its level and multiplicity
        stock = _class_stock(n, 3 * k_max)
        ids = {(p.j, p.k): i for i, p in enumerate(stock)}

        def sum_id(a, b):
            c = projections.boxplus(a, b)
            return ids[(c.j, c.k)]

        rhos = [projections.rho(p) for p in stock]
        mb = len(base)
        prod = np.zeros((mb, mb), dtype=np.int32)
        for a_i, a in enumerate(base):
            for b_i, b in enumerate(base):
                c = projections.boxplus(a, b)
                # the statement of the law, spelled out
                if a.is_zero:
                    want = (b.j, b.k)
                elif b.is_zero:
                    want = (a.j, a.k)
                elif a.j == b.j:
                    want = (a.j, a.k + b.k)
                elif a.j < b.j:
                    want = (a.j, a.k)
                else:
                    want = (b.j, b.k)
                if (c.j, c.k) != want and law_bad is None:
                    law_bad = {"n": n, "a": a.to_json(), "b": b.to_json(),
                               "got": c.to_json(), "want": list(want)}
                c_i = prod[a_i, b_i] = ids[(c.j, c.k)]
                # a sum over another ambient index is not stock[c_i]
                rho_c = rhos[c_i] if c == stock[c_i] else projections.rho(c)
                rho_ab = rhos[ids[(a.j, a.k)]] + rhos[ids[(b.j, b.k)]]
                if rho_ab != rho_c and add_bad is None:
                    add_bad = {"n": n, "a": a.to_json(), "b": b.to_json()}
        comm_ok = comm_ok and bool(np.array_equal(prod, prod.T))
        # (a + b) + c against a + (b + c), one a at a time: right[s, c] names
        # stock[s] + c and left[a, s] names a + stock[s], for each sum s of
        # two base classes
        right = np.zeros((len(stock), mb), dtype=np.int32)
        left = np.zeros((mb, len(stock)), dtype=np.int32)
        for s in np.unique(prod):
            right[s] = [sum_id(stock[s], b) for b in base]
            left[:, s] = [sum_id(b, stock[s]) for b in base]
        assoc_ok = assoc_ok and all(np.array_equal(right[prod[a_i]], left[a_i][prod])
                                    for a_i in range(mb))
        pairs += mb ** 2
        triples += mb ** 3
    params = {"n_max": n_max, "k_max": k_max}
    return [
        VerifyReport("monoid-law", params, law_bad is None,
                     domain_size=pairs, counterexample=law_bad),
        VerifyReport("monoid-commutativity", params, comm_ok, domain_size=pairs),
        VerifyReport("monoid-associativity", params, assoc_ok, domain_size=triples),
        VerifyReport("rho-additivity", params, add_bad is None,
                     domain_size=pairs, counterexample=add_bad),
    ]


def rho_injectivity_checks(n_max=5, k_max=50):
    """Distinct classes have distinct counting vectors, exhaustively."""
    seen = {}

    def test(n, p):
        first = seen.setdefault((n, projections.rho(p).entries), p)
        if first is p:
            return None
        return {"n": n, "first": first.to_json(), "second": p.to_json()}

    count, bad = _first_counterexample(
        ((n, p) for n in range(n_max + 1) for p in _class_stock(n, k_max)), test)
    return [VerifyReport("rho-injectivity", {"n_max": n_max, "k_max": k_max},
                         bad is None, domain_size=count, counterexample=bad)]


def cancellation_checks(n_max=5, k_max=20):
    """Cancellation fails on rank-zero classes and holds at rank >= 1.

    Every distinct pair of nonzero rank-zero classes is a failure witness:
    both absorb into the rank-one free class.  For classes of rank >= 1,
    equal sums with any common summand force equality.
    """
    def witness_cases():
        for n in range(1, n_max + 1):
            unit = projections.ProjClass(n, 0, 1)
            compact = [projections.ProjClass(n, j, k)
                       for j in range(1, n + 1) for k in range(1, k_max + 1)]
            sums = [projections.boxplus(a, unit) for a in compact]
            for a_i, b_i in itertools.combinations(range(len(compact)), 2):
                yield n, compact[a_i], compact[b_i], sums[a_i] == sums[b_i]

    def witness_test(n, a, b, same_sum):
        if same_sum and not projections.is_equivalent(a, b):
            return None
        return {"n": n, "a": a.to_json(), "b": b.to_json()}

    witnesses, witness_bad = _first_counterexample(witness_cases(), witness_test)

    # wrong[a, b, c]: whether a (+) c == b (+) c disagrees with a ~ b, one
    # block per n; in row-major order over the blocks the first True is the
    # first counterexample, and its index the number of triples before it
    blocks = []
    for n in range(n_max + 1):
        stock = _class_stock(n, k_max)
        positive = [p for p in stock if projections.rank(p) >= 1]
        # each sum a (+) c once, as the id of its class: equal ids, equal sums
        ids = {}
        table = np.array([[ids.setdefault(projections.boxplus(a, c), len(ids))
                           for c in stock] for a in positive], dtype=np.int64)
        equiv = np.array([[projections.is_equivalent(a, b) for b in positive]
                          for a in positive], dtype=bool)
        wrong = (table[:, None] == table[None]) != equiv[:, :, None]
        blocks.append((positive, stock, wrong))
    flags = np.concatenate([wrong.ravel() for *_, wrong in blocks])
    cancels = int(flags.argmax()) if flags.any() else flags.size
    cancel_bad = None
    if cancels < flags.size:
        ends = np.cumsum([wrong.size for *_, wrong in blocks])
        n = int(np.searchsorted(ends, cancels, side="right"))
        positive, stock, wrong = blocks[n]
        a_i, b_i, c_i = np.unravel_index(cancels - int(ends[n]) + wrong.size, wrong.shape)
        cancel_bad = {"n": n, "a": positive[a_i].to_json(),
                      "b": positive[b_i].to_json(), "c": stock[c_i].to_json()}
    params = {"n_max": n_max, "k_max": k_max}
    return [
        VerifyReport("cancellation-failure-witnesses", params, witness_bad is None,
                     domain_size=witnesses, counterexample=witness_bad),
        VerifyReport("cancellation-at-positive-rank", params, cancel_bad is None,
                     domain_size=cancels, counterexample=cancel_bad),
    ]


def _bundle_recursion_test(n, k):
    if line_bundles.recursion_expand(n, k) != line_bundles.closed_form(n, k):
        return {"n": n, "k": k}
    return None


def bundle_recursion_checks(n_max=5, k_max=25):
    """Peeling recursion equals the binomial closed form, exactly."""
    count, bad = _first_counterexample(
        itertools.product(range(1, n_max + 1), range(1, k_max + 1)),
        _bundle_recursion_test)
    return [VerifyReport("bundle-recursion", {"n_max": n_max, "k_max": k_max},
                         bad is None, domain_size=count, counterexample=bad)]


def hockey_stick_checks(l_max=12, k_max=40):
    """Tail-sum binomial identities with every shift, exactly."""
    def test(l, k):
        result = line_bundles.hockey_stick(l, k)
        if result.equal:
            return None
        return {"l": l, "k": k, "lhs": result.lhs, "rhs": result.rhs}

    count, bad = _first_counterexample(
        itertools.product(range(2, l_max + 1), range(1, k_max + 1)), test)
    return [VerifyReport("hockey-stick", {"l_max": l_max, "k_max": k_max},
                         bad is None, domain_size=count, counterexample=bad)]


def k0_checks(n_max=5, k_max=25, exact_n_max=6):
    """Restriction consistency of bundle classes, plus exactness reports."""
    def test(n, k):
        lhs = k_theory.nu_star(line_bundles.k0_class(n, k))
        rhs = line_bundles.k0_class(n - 1, k)
        if lhs == rhs:
            return None
        return {"n": n, "k": k, "restricted": lhs.to_json(), "direct": rhs.to_json()}

    count, bad = _first_counterexample(
        itertools.product(range(2, n_max + 1), range(k_max + 1)), test)
    reports = [VerifyReport("k0-restriction-consistency",
                            {"n_max": n_max, "k_max": k_max},
                            bad is None, domain_size=count, counterexample=bad)]
    for n in range(1, exact_n_max + 1):
        reports.append(k_theory.check_exactness(n))
    return reports


def groupoid_checks(n_max=3, k_abs_max=4, window=8):
    """Partitions and all structural bijections on windowed strata."""
    if n_max < 1:
        raise OutOfRange(f"groupoid checks need n_max >= 1, got {n_max}")
    window = groupoid._window_value(window)
    reports = []
    for n in range(1, n_max + 1):
        for k in range(1, k_abs_max + 1):
            for j in range(n):
                reports.append(groupoid.verify_partition(n, k, j, window))
        for k in range(-k_abs_max, 1):
            reports.append(groupoid.verify_bijection("theta-neg", n, k=k,
                                                     window=window))
        for k in range(1, k_abs_max + 1):
            for j in range(n):
                reports.append(groupoid.verify_bijection("theta-shift", n, k=k,
                                                         j=j, window=window))
                for l in range(k):
                    reports.append(groupoid.verify_bijection("theta-peel", n,
                                                             k=k, j=j, l=l,
                                                             window=window))
        for l in range(1, k_abs_max + 1):
            reports.append(groupoid.verify_bijection("theta-terminal", n, l=l,
                                                     window=window))
        for k in range(-k_abs_max, k_abs_max + 1):
            reports.append(groupoid.verify_bijection("gamma", n, k=k,
                                                     window=window))
        reports.append(groupoid.verify_bijection("t", n, window=window))
    return reports


def oracle_agreement_checks(n_max=3, k_max=6, cutoffs=(8, 16, 32)):
    """Numeric counting vectors from truncated ranks match the symbolic ones."""
    if n_max < 1 or k_max < 0:
        raise OutOfRange(f"oracle checks need n_max >= 1 and k_max >= 0, "
                         f"got n_max={n_max}, k_max={k_max}")
    n1, n2, guard = cutoffs

    def test(p):
        numeric = oracle.rho_numeric(oracle.encode(p), n1, n2, guard)
        if numeric == projections.rho(p):
            return None
        return {"class": p.to_json(), "numeric": numeric.to_json(),
                "symbolic": projections.rho(p).to_json()}

    count, bad = _first_counterexample(
        ((p,) for n in range(1, n_max + 1) for p in _class_stock(n, k_max)), test)
    return [VerifyReport("oracle-agreement",
                         {"n_max": n_max, "k_max": k_max, "cutoffs": list(cutoffs)},
                         bad is None, domain_size=count, counterexample=bad)]


def terminal_count_checks(n_max=2, k_max=3, window=6):
    """Windowed terminal tallies reproduce the symbolic multiplicities."""
    reports = []
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            reports.append(groupoid.verify_terminal_counts(n, k, window))
    return reports


def random_checks(seed=DEFAULT_SEED, samples=400):
    """Seeded spot checks beyond the exhaustive ranges.

    Cases are drawn as they are tested, so the stream a family leaves at its
    first counterexample goes on to the next family.
    """
    rng = random.Random(seed)

    def triples():
        for _ in range(samples):
            n = rng.randint(0, 12)
            yield tuple(projections.ProjClass(n, rng.randint(0, n),
                                              rng.randint(1, 10 ** 9))
                        for _ in range(3))

    def monoid_test(a, b, c):
        ab_c = projections.boxplus(projections.boxplus(a, b), c)
        a_bc = projections.boxplus(a, projections.boxplus(b, c))
        additive = (projections.rho(a) + projections.rho(b)
                    == projections.rho(projections.boxplus(a, b)))
        if ab_c == a_bc and additive:
            return None
        return {"a": a.to_json(), "b": b.to_json(), "c": c.to_json()}

    def hockey_test(l, k):
        return None if line_bundles.hockey_stick(l, k).equal else {"l": l, "k": k}

    law_bad = _first_counterexample(triples(), monoid_test)[1]
    bundle_bad = _first_counterexample(
        ((rng.randint(1, 8), rng.randint(1, 60)) for _ in range(30)),
        _bundle_recursion_test)[1]
    hockey_bad = _first_counterexample(
        ((rng.randint(2, 30), rng.randint(1, 120)) for _ in range(20)), hockey_test)[1]
    params = {"seed": seed}
    return [
        VerifyReport("random-monoid", {**params, "samples": samples},
                     law_bad is None, counterexample=law_bad),
        VerifyReport("random-bundle-recursion", {**params, "samples": 30},
                     bundle_bad is None, counterexample=bundle_bad),
        VerifyReport("random-hockey-stick", {**params, "samples": 20},
                     hockey_bad is None, counterexample=hockey_bad),
    ]


# Every family in report order.  Each runs with its default ranges; only
# the random family reads the seed.
_FAMILIES = {
    "monoid": monoid_checks,
    "rho-injectivity": rho_injectivity_checks,
    "cancellation": cancellation_checks,
    "bundle-recursion": bundle_recursion_checks,
    "hockey-stick": hockey_stick_checks,
    "k0": k0_checks,
    "groupoid": groupoid_checks,
    "oracle": oracle_agreement_checks,
    "terminal": terminal_count_checks,
    "random": random_checks,
}

GROUP_NAMES = tuple(_FAMILIES)


def run_group(name, seed=DEFAULT_SEED):
    """Run one named family with its default ranges."""
    if name not in _FAMILIES:
        raise KeyError(f"unknown check group {name!r}; expected one of {GROUP_NAMES}")
    return _FAMILIES[name](seed) if name == "random" else _FAMILIES[name]()


def effective_jobs(requested=None):
    """Worker count: the request (default: the cpu count), capped by QPROJ_JOBS.

    A request or cap that is not a positive integer is refused.
    """
    if requested is None:
        requested = os.cpu_count() or 1
    elif requested < 1:
        raise OutOfRange(f"job count must be >= 1, got {requested}")
    cap = os.environ.get("QPROJ_JOBS")
    if cap is not None:
        try:
            cap_jobs = int(cap)
        except ValueError:
            cap_jobs = 0
        if cap_jobs < 1:
            raise OutOfRange(f"QPROJ_JOBS must be a positive integer, got {cap!r}")
        requested = min(requested, cap_jobs)
    return requested


def run_all(seed=DEFAULT_SEED, jobs=None):
    """Every family in order; fan out over processes when jobs > 1."""
    jobs = effective_jobs(jobs)
    if jobs <= 1:
        return [r for name in GROUP_NAMES for r in run_group(name, seed)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_group, name, seed) for name in GROUP_NAMES]
        return [r for fut in futures for r in fut.result()]
