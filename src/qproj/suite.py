"""Standard verification sweeps over every module, reported uniformly.

Each function runs one family of checks over its documented default
ranges and returns VerifyReport records; ``run_all`` strings every family
together (plus seeded randomized supplements) and is what the command
line front end and the acceptance tests drive.
"""

from __future__ import annotations

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


def monoid_checks(n_max=5, k_max=20):
    """Diagonal-sum law, commutativity, associativity, and rho additivity,
    exhaustively over every ambient index up to n_max and multiplicity up
    to k_max."""
    reports = []
    law_bad = None
    add_bad = None
    comm_ok = True
    assoc_ok = True
    pairs = 0
    triples = 0
    for n in range(n_max + 1):
        base = _class_stock(n, k_max)
        # pairwise sums of base classes land here (multiplicity <= 2 k_max)
        ext = _class_stock(n, 2 * k_max)
        mb, me = len(base), len(ext)
        ext_index = {(p.j, p.k): i for i, p in enumerate(ext)}

        def code(p):
            # triple sums reach multiplicity 3 k_max, so this is injective
            return p.j * (4 * k_max + 1) + p.k

        rhos = [projections.rho(p) for p in base]
        ext_rhos = [projections.rho(p) for p in ext]
        prod = np.zeros((mb, mb), dtype=np.int32)
        codes = np.zeros((mb, mb), dtype=np.int32)
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
                c_i = ext_index[(c.j, c.k)]
                # a sum over another ambient index is not ext[c_i]
                rho_c = ext_rhos[c_i] if c == ext[c_i] else projections.rho(c)
                if rhos[a_i] + rhos[b_i] != rho_c and add_bad is None:
                    add_bad = {"n": n, "a": a.to_json(), "b": b.to_json()}
                prod[a_i, b_i] = c_i
                codes[a_i, b_i] = code(c)
                pairs += 1
        comm_ok = comm_ok and bool(np.array_equal(codes, codes.T))
        # (a + b) + c versus a + (b + c): sum each extended class with each
        # base class, then compose through the pairwise table
        ext_base = np.zeros((me, mb), dtype=np.int32)
        base_ext = np.zeros((mb, me), dtype=np.int32)
        for e_i, e in enumerate(ext):
            for b_i, b in enumerate(base):
                ext_base[e_i, b_i] = code(projections.boxplus(e, b))
                base_ext[b_i, e_i] = code(projections.boxplus(b, e))
        left = np.take(ext_base, prod, axis=0)
        right = np.take(base_ext, prod, axis=1)
        assoc_ok = assoc_ok and bool(np.array_equal(left, right))
        triples += mb ** 3
    params = {"n_max": n_max, "k_max": k_max}
    reports.append(VerifyReport("monoid-law", params, law_bad is None,
                                domain_size=pairs, counterexample=law_bad))
    reports.append(VerifyReport("monoid-commutativity", params, comm_ok,
                                domain_size=pairs))
    reports.append(VerifyReport("monoid-associativity", params, assoc_ok,
                                domain_size=triples))
    reports.append(VerifyReport("rho-additivity", params, add_bad is None,
                                domain_size=pairs, counterexample=add_bad))
    return reports


def rho_injectivity_checks(n_max=5, k_max=50):
    """Distinct classes have distinct counting vectors, exhaustively."""
    bad = None
    total = 0
    for n in range(n_max + 1):
        stock = _class_stock(n, k_max)
        seen = {}
        for p in stock:
            key = projections.rho(p).entries
            if key in seen:
                bad = {"n": n, "first": seen[key].to_json(), "second": p.to_json()}
                break
            seen[key] = p
        total += len(stock)
    return [VerifyReport("rho-injectivity", {"n_max": n_max, "k_max": k_max},
                         bad is None, domain_size=total, counterexample=bad)]


def cancellation_checks(n_max=5, k_max=20):
    """Cancellation fails on rank-zero classes and holds at rank >= 1.

    Every distinct pair of nonzero rank-zero classes is a failure witness:
    both absorb into the rank-one free class.  For classes of rank >= 1,
    equal sums with any common summand force equality.
    """
    witness_bad = None
    witnesses = 0
    for n in range(1, n_max + 1):
        unit = projections.ProjClass(n, 0, 1)
        compact = [projections.ProjClass(n, j, k)
                   for j in range(1, n + 1) for k in range(1, k_max + 1)]
        sums = [projections.boxplus(a, unit) for a in compact]
        for a_i, a in enumerate(compact):
            for b_i in range(a_i + 1, len(compact)):
                b = compact[b_i]
                if sums[a_i] != sums[b_i] or projections.is_equivalent(a, b):
                    witness_bad = {"n": n, "a": a.to_json(), "b": b.to_json()}
                    break
                witnesses += 1
            if witness_bad:
                break
        if witness_bad:
            break

    cancel_bad = None
    cancels = 0
    for n in range(n_max + 1):
        stock = _class_stock(n, k_max)
        positive = [p for p in stock if projections.rank(p) >= 1]
        # each sum a (+) c once, as the id of its class: equal ids, equal sums
        ids = {}
        table = np.array([[ids.setdefault(projections.boxplus(a, c), len(ids))
                           for c in stock] for a in positive], dtype=np.int64)
        equiv = np.array([[projections.is_equivalent(a, b) for b in positive]
                          for a in positive], dtype=bool)
        for a_i, a in enumerate(positive):
            # wrong[b, c]: whether a (+) c == b (+) c disagrees with a ~ b
            wrong = (table == table[a_i]) != equiv[a_i][:, None]
            hits = np.flatnonzero(wrong)
            if hits.size:
                # row-major order is the order of the triples (a, b, c)
                b_i, c_i = divmod(int(hits[0]), len(stock))
                cancel_bad = {"n": n, "a": a.to_json(),
                              "b": positive[b_i].to_json(),
                              "c": stock[c_i].to_json()}
                cancels += int(hits[0])
                break
            cancels += wrong.size
        if cancel_bad:
            break
    params = {"n_max": n_max, "k_max": k_max}
    return [
        VerifyReport("cancellation-failure-witnesses", params, witness_bad is None,
                     domain_size=witnesses, counterexample=witness_bad),
        VerifyReport("cancellation-at-positive-rank", params, cancel_bad is None,
                     domain_size=cancels, counterexample=cancel_bad),
    ]


def bundle_recursion_checks(n_max=5, k_max=25):
    """Peeling recursion equals the binomial closed form, exactly."""
    bad = None
    count = 0
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            if line_bundles.recursion_expand(n, k) != line_bundles.closed_form(n, k):
                bad = {"n": n, "k": k}
                break
            count += 1
        if bad:
            break
    return [VerifyReport("bundle-recursion", {"n_max": n_max, "k_max": k_max},
                         bad is None, domain_size=count, counterexample=bad)]


def hockey_stick_checks(l_max=12, k_max=40):
    """Tail-sum binomial identities with every shift, exactly."""
    bad = None
    count = 0
    for l in range(2, l_max + 1):
        for k in range(1, k_max + 1):
            result = line_bundles.hockey_stick(l, k)
            if not result.equal:
                bad = {"l": l, "k": k, "lhs": result.lhs, "rhs": result.rhs}
                break
            count += 1
        if bad:
            break
    return [VerifyReport("hockey-stick", {"l_max": l_max, "k_max": k_max},
                         bad is None, domain_size=count, counterexample=bad)]


def k0_checks(n_max=5, k_max=25, exact_n_max=6):
    """Restriction consistency of bundle classes, plus exactness reports."""
    bad = None
    count = 0
    for n in range(2, n_max + 1):
        for k in range(k_max + 1):
            lhs = k_theory.nu_star(line_bundles.k0_class(n, k))
            rhs = line_bundles.k0_class(n - 1, k)
            if lhs != rhs:
                bad = {"n": n, "k": k,
                       "restricted": lhs.to_json(), "direct": rhs.to_json()}
                break
            count += 1
        if bad:
            break
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
    bad = None
    count = 0
    for n in range(1, n_max + 1):
        stock = [projections.zero_class(n)] + [
            projections.ProjClass(n, j, k)
            for j in range(n + 1) for k in range(1, k_max + 1)
        ]
        for p in stock:
            numeric = oracle.rho_numeric(oracle.encode(p), n1, n2, guard)
            if numeric != projections.rho(p):
                bad = {"class": p.to_json(), "numeric": numeric.to_json(),
                       "symbolic": projections.rho(p).to_json()}
                break
            count += 1
        if bad:
            break
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
    """Seeded spot checks beyond the exhaustive ranges."""
    rng = random.Random(seed)

    law_bad = None
    for _ in range(samples):
        n = rng.randint(0, 12)
        picks = []
        for _ in range(3):
            j = rng.randint(0, n)
            k = rng.randint(1, 10 ** 9)
            picks.append(projections.ProjClass(n, j, k))
        a, b, c = picks
        ab_c = projections.boxplus(projections.boxplus(a, b), c)
        a_bc = projections.boxplus(a, projections.boxplus(b, c))
        additive = (projections.rho(a) + projections.rho(b)
                    == projections.rho(projections.boxplus(a, b)))
        if ab_c != a_bc or not additive:
            law_bad = {"a": a.to_json(), "b": b.to_json(), "c": c.to_json()}
            break

    bundle_bad = None
    for _ in range(30):
        n = rng.randint(1, 8)
        k = rng.randint(1, 60)
        if line_bundles.recursion_expand(n, k) != line_bundles.closed_form(n, k):
            bundle_bad = {"n": n, "k": k}
            break

    hockey_bad = None
    for _ in range(20):
        l = rng.randint(2, 30)
        k = rng.randint(1, 120)
        if not line_bundles.hockey_stick(l, k).equal:
            hockey_bad = {"l": l, "k": k}
            break

    params = {"seed": seed}
    return [
        VerifyReport("random-monoid", {**params, "samples": samples},
                     law_bad is None, counterexample=law_bad),
        VerifyReport("random-bundle-recursion", {**params, "samples": 30},
                     bundle_bad is None, counterexample=bundle_bad),
        VerifyReport("random-hockey-stick", {**params, "samples": 20},
                     hockey_bad is None, counterexample=hockey_bad),
    ]


GROUP_NAMES = (
    "monoid",
    "rho-injectivity",
    "cancellation",
    "bundle-recursion",
    "hockey-stick",
    "k0",
    "groupoid",
    "oracle",
    "terminal",
    "random",
)

_GROUPS = {
    "monoid": monoid_checks,
    "rho-injectivity": rho_injectivity_checks,
    "cancellation": cancellation_checks,
    "bundle-recursion": bundle_recursion_checks,
    "hockey-stick": hockey_stick_checks,
    "k0": k0_checks,
    "groupoid": groupoid_checks,
    "oracle": oracle_agreement_checks,
    "terminal": terminal_count_checks,
}


def run_group(name, seed=DEFAULT_SEED):
    """Run one named family with its default ranges."""
    if name == "random":
        return random_checks(seed)
    if name not in _GROUPS:
        raise KeyError(f"unknown check group {name!r}; expected one of {GROUP_NAMES}")
    return _GROUPS[name]()


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
