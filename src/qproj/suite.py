"""Standard verification sweeps over every module, reported uniformly.

Each function runs one family of checks over its documented default
ranges and returns VerifyReport records; ``run_all`` strings every family
together (plus seeded randomized supplements) and is what the command
line front end and the acceptance tests drive.  Each family imports the
modules it checks, beyond ``projections``, when it runs, so that importing
``suite`` for its defaults loads no other check's code.
"""

from __future__ import annotations

import itertools
import operator
import os

from . import projections
from .errors import OutOfRange, integer
from .reports import VerifyReport

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_WINDOW",
    "DEFAULT_TALLY_WINDOW",
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

# The default windows of the groupoid checks and of the terminal tally, which
# the groupoid API defaults to as well.
DEFAULT_WINDOW = 8
DEFAULT_TALLY_WINDOW = 6


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
    integer(n_max, "monoid n_max", 0, error=OutOfRange)
    integer(k_max, "monoid k_max", 0, error=OutOfRange)
    law_bad = add_bad = None
    comm_ok = assoc_ok = True
    pairs = triples = 0
    boxplus = projections.boxplus
    for n in range(n_max + 1):
        base = _class_stock(n, k_max)
        # each sum is named by its ambient index, level and multiplicity, in
        # order of first sight (base[i] is named i); classes[i] is the class
        # named i, over the base classes and their two-fold sums
        classes = list(base)
        ids = {(p.n, p.j, p.k): i for i, p in enumerate(base)}

        def sum_id(a, b):
            c = boxplus(a, b)
            return ids.setdefault((c.n, c.j, c.k), len(ids))

        rhos = [projections.rho(p) for p in base]
        mb = len(base)
        prod = []  # prod[a_i][b_i]: the name of base[a_i] + base[b_i]
        for a_i, a in enumerate(base):
            row = []
            for b_i, b in enumerate(base):
                c = boxplus(a, b)
                # the statement of the law, spelled out
                if not a.k:
                    want = (b.j, b.k)
                elif not b.k:
                    want = (a.j, a.k)
                elif a.j == b.j:
                    want = (a.j, a.k + b.k)
                elif a.j < b.j:
                    want = (a.j, a.k)
                else:
                    want = (b.j, b.k)
                if (c.n, c.j, c.k) != (n, *want) and law_bad is None:
                    law_bad = {"n": n, "a": a.to_json(), "b": b.to_json(),
                               "got": c.to_json(), "want": list(want)}
                c_i = ids.setdefault((c.n, c.j, c.k), len(ids))
                row.append(c_i)
                if c_i == len(classes):  # a class first seen here
                    classes.append(c)
                    rhos.append(projections.rho(c))
                if rhos[a_i] + rhos[b_i] != rhos[c_i] and add_bad is None:
                    add_bad = {"n": n, "a": a.to_json(), "b": b.to_json()}
            prod.append(row)
        comm_ok = comm_ok and prod == [list(col) for col in zip(*prod)]
        pairs += mb ** 2
        triples += mb ** 3
        # a two-fold sum over another ambient index cannot be summed with a
        # base class, so associativity fails at n
        if any(p.n != n for p in classes[mb:]):
            assoc_ok = False
            continue
        # (a + b) + c against a + (b + c), one a at a time: right[s] names
        # classes[s] + c over every c and left[a_i][s] names a + classes[s],
        # for each sum s of two base classes.  A sum that is a base class
        # (s < mb) has its row and column in prod already; only the others
        # are summed here.  Both sides are read through getters of mb ids,
        # so they have one form: a tuple, or one id when mb == 1.
        take = [operator.itemgetter(*row) for row in prod]
        every = operator.itemgetter(*range(mb))
        right = {}
        left = [[0] * len(classes) for _ in base]
        for s in set(itertools.chain.from_iterable(prod)):
            if s < mb:
                right[s] = every(prod[s])
                column = [row[s] for row in prod]
            else:
                right[s] = every([sum_id(classes[s], c) for c in base])
                column = [sum_id(a, classes[s]) for a in base]
            for row, a_s in zip(left, column):
                row[s] = a_s
        assoc_ok = assoc_ok and all([right[s] for s in ab] == [bc(a) for bc in take]
                                    for ab, a in zip(prod, left))
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
    integer(n_max, "rho-injectivity n_max", 0, error=OutOfRange)
    integer(k_max, "rho-injectivity k_max", 0, error=OutOfRange)
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
    integer(n_max, "cancellation n_max", 1, error=OutOfRange)
    integer(k_max, "cancellation k_max", 1, error=OutOfRange)
    if n_max * k_max < 2:  # n * k_max compact classes at each n
        raise OutOfRange("cancellation needs n_max * k_max >= 2 for a witness pair, "
                         f"got n_max={n_max}, k_max={k_max}")

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

    # a (+) c == b (+) c must agree with a ~ b for every c: each pair's two
    # rows of sums are compared whole, and only a failing pair is walked to
    # its first c
    cancels, cancel_bad = 0, None
    for n in range(n_max + 1):
        stock = _class_stock(n, k_max)
        positive = [p for p in stock if projections.rank(p) >= 1]
        # each sum a (+) c once, as the id of its class: equal ids, equal sums
        ids = {}
        table = [[ids.setdefault(projections.boxplus(a, c), len(ids)) for c in stock]
                 for a in positive]
        for (a, row_a), (b, row_b) in itertools.product(zip(positive, table), repeat=2):
            equiv = projections.is_equivalent(a, b)
            if (row_a == row_b) if equiv else not any(map(operator.eq, row_a, row_b)):
                cancels += len(stock)
                continue
            c_i = next(c_i for c_i, (x, y) in enumerate(zip(row_a, row_b))
                       if (x == y) != equiv)
            cancels += c_i
            cancel_bad = {"n": n, "a": a.to_json(), "b": b.to_json(),
                          "c": stock[c_i].to_json()}
            break
        if cancel_bad:
            break
    params = {"n_max": n_max, "k_max": k_max}
    return [
        VerifyReport("cancellation-failure-witnesses", params, witness_bad is None,
                     domain_size=witnesses, counterexample=witness_bad),
        VerifyReport("cancellation-at-positive-rank", params, cancel_bad is None,
                     domain_size=cancels, counterexample=cancel_bad),
    ]


def _bundle_recursion_test(n, k):
    from . import line_bundles

    if line_bundles.recursion_expand(n, k) != line_bundles.closed_form(n, k):
        return {"n": n, "k": k}
    return None


def bundle_recursion_checks(n_max=5, k_max=25):
    """Peeling recursion equals the binomial closed form, exactly."""
    integer(n_max, "bundle-recursion n_max", 1, error=OutOfRange)
    integer(k_max, "bundle-recursion k_max", 1, error=OutOfRange)
    count, bad = _first_counterexample(
        itertools.product(range(1, n_max + 1), range(1, k_max + 1)),
        _bundle_recursion_test)
    return [VerifyReport("bundle-recursion", {"n_max": n_max, "k_max": k_max},
                         bad is None, domain_size=count, counterexample=bad)]


def hockey_stick_checks(l_max=12, k_max=40):
    """Tail-sum binomial identities with every shift, exactly."""
    from . import line_bundles

    integer(l_max, "hockey-stick l_max", 2, error=OutOfRange)
    integer(k_max, "hockey-stick k_max", 1, error=OutOfRange)
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
    from . import k_theory, line_bundles

    integer(n_max, "k0 n_max", 2, error=OutOfRange)
    integer(k_max, "k0 k_max", 0, error=OutOfRange)
    integer(exact_n_max, "k0 exact_n_max", 1, error=OutOfRange)
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


def groupoid_checks(n_max=3, k_abs_max=4, window=DEFAULT_WINDOW):
    """Partitions and all structural bijections on windowed strata."""
    from . import groupoid

    integer(n_max, "groupoid n_max", 1, error=OutOfRange)
    integer(k_abs_max, "groupoid k_abs_max", 0, error=OutOfRange)
    integer(window, "window bound", 1, error=OutOfRange)
    checks = []  # (kind, n, k, j, l) in record order
    for n in range(1, n_max + 1):
        ks, js = range(1, k_abs_max + 1), range(n)
        checks += [("partition", n, k, j, None) for k in ks for j in js]
        checks += [("theta-neg", n, k, None, None) for k in range(-k_abs_max, 1)]
        for k in ks:
            for j in js:
                checks.append(("theta-shift", n, k, j, None))
                checks += [("theta-peel", n, k, j, l) for l in range(k)]
        checks += [("theta-terminal", n, None, None, l) for l in ks]
        checks += [("gamma", n, k, None, None) for k in range(-k_abs_max, k_abs_max + 1)]
        checks.append(("t", n, None, None, None))
    # size every window first, so that an oversized one is refused before
    # any check runs
    for kind, n, k, j, l in checks:
        sources, cod = groupoid._check_setup(kind, n, k, j, l, window)
        for spec in [cod, *(spec for spec, _ in sources)]:
            for r in spec.ranges:
                groupoid._axis_size(*r[:4])
    return [groupoid.verify_partition(n, k, j, window) if kind == "partition"
            else groupoid.verify_bijection(kind, n, k=k, j=j, l=l, window=window)
            for kind, n, k, j, l in checks]


def oracle_agreement_checks(n_max=3, k_max=6, cutoffs=(8, 16, 32)):
    """Numeric counting vectors from truncated ranks match the symbolic ones."""
    from . import oracle

    integer(n_max, "oracle n_max", 1, error=OutOfRange)
    integer(k_max, "oracle k_max", 0, error=OutOfRange)
    if type(cutoffs) is not tuple or len(cutoffs) != 3:
        raise OutOfRange(f"oracle cutoffs must be a 3-tuple, got {cutoffs!r}")
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


def terminal_count_checks(n_max=2, k_max=3, window=DEFAULT_TALLY_WINDOW):
    """Windowed terminal tallies reproduce the symbolic multiplicities."""
    from . import groupoid

    integer(n_max, "terminal n_max", 1, error=OutOfRange)
    integer(k_max, "terminal k_max", 1, error=OutOfRange)
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
    import random

    from . import line_bundles

    integer(seed, "random seed", error=OutOfRange)
    integer(samples, "random samples", 1, error=OutOfRange)
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
        raise OutOfRange(f"unknown check group {name!r}; expected one of {GROUP_NAMES}")
    return _FAMILIES[name](seed) if name == "random" else _FAMILIES[name]()


def effective_jobs(requested=None):
    """Worker count: the request (default: the cpu count), capped by QPROJ_JOBS.

    A request or cap that is not a positive integer is refused.
    """
    if requested is None:
        requested = os.cpu_count() or 1
    integer(requested, "job count", 1, error=OutOfRange)
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
    """Every family in order; fan out over processes when jobs > 1.  The
    seed is checked before any family runs."""
    integer(seed, "random seed", error=OutOfRange)
    jobs = effective_jobs(jobs)
    if jobs <= 1:
        return [r for name in GROUP_NAMES for r in run_group(name, seed)]
    from concurrent.futures import ProcessPoolExecutor

    # import groupoid once here, so that the forked workers inherit it
    from . import groupoid  # noqa: F401
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_group, name, seed) for name in GROUP_NAMES]
        return [r for fut in futures for r in fut.result()]
