"""The bundled check families and their report plumbing."""

import concurrent.futures
import hashlib
import json
import os
from pathlib import Path

import pytest

from qproj import extnat, k_theory, line_bundles, projections, suite
from qproj.errors import OutOfRange
from qproj.projections import ProjClass, RhoVector
from qproj.reports import VerifyReport

BOXPLUS = projections.boxplus
IS_EQUIVALENT = projections.is_equivalent
RHO = projections.rho

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "expected"

REPORT_KEYS = {"check", "params", "domain_size", "image_size", "pass",
               "counterexample"}


class TestReports:
    def test_json_schema_is_fixed(self):
        r = VerifyReport("demo", {"n": 2}, True, domain_size=10, image_size=10)
        blob = r.to_json()
        assert set(blob) == REPORT_KEYS
        assert blob["pass"] is True
        assert json.dumps(blob)  # serializable as-is

    def test_line_format(self):
        r = VerifyReport("demo", {"n": 2, "k": 1}, True, domain_size=4,
                         image_size=4)
        line = r.line()
        assert line.startswith("PASS demo")
        assert "n=2" in line and "k=1" in line and "[4->4]" in line
        bad = VerifyReport("demo", {}, False)
        assert bad.line().startswith("FAIL demo")


class TestGroups:
    def test_names_cover_every_family(self):
        assert set(suite.GROUP_NAMES) == {
            "monoid", "rho-injectivity", "cancellation", "bundle-recursion",
            "hockey-stick", "k0", "groupoid", "oracle", "terminal", "random",
        }

    @pytest.mark.parametrize("family, ranges, match", [
        (suite.groupoid_checks, {"n_max": 1.5}, "groupoid n_max"),
        (suite.oracle_agreement_checks, {"n_max": 2.0}, "oracle n_max"),
        (suite.terminal_count_checks, {"n_max": 0}, "terminal n_max"),
        (suite.monoid_checks, {"n_max": 1.5}, "monoid n_max must be an integer >= 0"),
        (suite.hockey_stick_checks, {"l_max": 2.5}, "hockey-stick l_max must be an integer >= 2"),
        (suite.cancellation_checks, {"n_max": -1}, "cancellation n_max must be an integer >= 1"),
        # one compact class at n = 1, k_max = 1: no witness pair to test
        (suite.cancellation_checks, {"n_max": 1, "k_max": 1},
         r"cancellation needs n_max \* k_max >= 2 for a witness pair, got n_max=1, k_max=1"),
        (suite.bundle_recursion_checks, {"n_max": 0},
         "bundle-recursion n_max must be an integer >= 1"),
        (suite.rho_injectivity_checks, {"n_max": -1},
         "rho-injectivity n_max must be an integer >= 0"),
        (suite.k0_checks, {"n_max": 1}, "k0 n_max must be an integer >= 2"),
        (suite.random_checks, {"samples": 0}, "random samples must be an integer >= 1"),
    ], ids=["groupoid", "oracle", "terminal", "monoid", "hockey-stick", "cancellation",
            "cancellation-pairs", "bundle-recursion", "rho-injectivity", "k0", "random"])
    def test_bad_range_refused(self, family, ranges, match):
        """A non-integer or empty range is refused, not run or swept vacuously."""
        with pytest.raises(OutOfRange, match=match):
            family(**ranges)

    def test_unknown_group(self):
        with pytest.raises(OutOfRange):
            suite.run_group("no-such-family")

    def test_small_monoid_sweep(self):
        reports = suite.monoid_checks(n_max=2, k_max=4)
        assert [r.check for r in reports] == [
            "monoid-law", "monoid-commutativity", "monoid-associativity",
            "rho-additivity",
        ]
        assert all(r.passed for r in reports)
        # 3 ambient sizes, (1 + (n+1) * 4)^2 ordered pairs each
        assert reports[0].domain_size == 25 + 81 + 169

    def test_small_cancellation_sweep(self):
        reports = suite.cancellation_checks(n_max=2, k_max=3)
        assert all(r.passed for r in reports)

    def test_small_k0_sweep(self):
        reports = suite.k0_checks(n_max=2, k_max=4, exact_n_max=2)
        assert [r.check for r in reports] == [
            "k0-restriction-consistency", "k0-exactness", "k0-exactness",
        ]
        assert all(r.passed for r in reports)

    def test_random_checks_deterministic(self):
        a = [r.to_json() for r in suite.random_checks(seed=7)]
        b = [r.to_json() for r in suite.random_checks(seed=7)]
        assert a == b
        assert all(r["pass"] for r in a)

    @pytest.mark.parametrize("seed", [None, True, 1.5, "x"], ids=repr)
    def test_random_seed_is_an_integer(self, seed):
        # None would seed from the operating system, so the records would
        # differ from run to run
        with pytest.raises(OutOfRange, match="random seed must be an integer"):
            suite.random_checks(seed)
        with pytest.raises(OutOfRange, match="random seed"):
            suite.run_group("random", seed)


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: runs each submitted call at once,
    in this process, and records the worker count it was asked for."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestJobs:
    @pytest.fixture
    def pool(self, monkeypatch):
        """Cheap families, and the inline executor in place of the pool;
        yields the list of worker counts asked for."""
        monkeypatch.setattr(suite, "_FAMILIES", {
            name: (lambda *args, name=name: [VerifyReport(name, {}, True)])
            for name in suite.GROUP_NAMES})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(InlineExecutor, "requested", [])
        return InlineExecutor.requested

    @pytest.mark.parametrize("jobs, workers", [(5000, [10]), (2, [2]), (1, [])],
                             ids=["5000", "2", "1"])
    def test_at_most_one_worker_per_family(self, pool, jobs, workers):
        reports = suite.run_all(jobs=jobs)
        assert [r.check for r in reports] == list(suite.GROUP_NAMES)
        assert pool == workers

    def test_default_is_cpu_count(self, pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        suite.run_all()
        assert pool == [10]

    def test_cap_reads_the_group_names_at_call_time(self, pool, monkeypatch):
        monkeypatch.setattr(suite, "GROUP_NAMES", ("k0", "random", "monoid"))
        assert [r.check for r in suite.run_all(jobs=64)] == ["k0", "random", "monoid"]
        assert pool == [3]

    def test_nonpositive_request_refused(self, pool, monkeypatch):
        calls = []
        monkeypatch.setattr(suite, "run_group", lambda *args: calls.append(args))
        for jobs in (0, -1, 2.5, True):
            with pytest.raises(OutOfRange, match="job count must be an integer >= 1"):
                suite.run_all(jobs=jobs)
        assert calls == [] and pool == []


class TestRunAll:
    def test_serial_over_selected_groups(self, monkeypatch):
        monkeypatch.setattr(suite, "GROUP_NAMES", ("rho-injectivity", "random"))
        reports = suite.run_all(jobs=1)
        assert [r.check for r in reports] == [
            "rho-injectivity", "random-monoid", "random-bundle-recursion",
            "random-hockey-stick",
        ]
        assert all(r.passed for r in reports)

    def test_parallel_path(self, monkeypatch):
        monkeypatch.setattr(suite, "GROUP_NAMES", ("rho-injectivity", "hockey-stick"))
        reports = suite.run_all(jobs=2)
        assert [r.check for r in reports] == ["rho-injectivity", "hockey-stick"]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_seed_is_refused_before_any_family_runs(self, monkeypatch, jobs):
        # an unseeded sweep used to run nine families before the random one
        # refused it
        calls = []
        monkeypatch.setattr(suite, "_FAMILIES", {
            name: (lambda *args, name=name: calls.append(name) or [])
            for name in suite.GROUP_NAMES})
        with pytest.raises(OutOfRange, match="random seed must be an integer"):
            suite.run_all(seed=None, jobs=jobs)
        assert calls == []

    def test_jobs_do_not_change_records(self):
        serial = [r.to_json() for r in suite.run_all(jobs=1)]
        parallel = [r.to_json() for r in suite.run_all(jobs=2)]
        assert len(serial) == 191
        assert parallel == serial
        # byte for byte the committed `verify-all --format json` output
        expected = EXPECTED_DIR / "verify_all.jsonl"
        digest, name = (EXPECTED_DIR / "verify_all.sha256").read_text().split()
        assert name == expected.name
        blob = expected.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert "".join(json.dumps(r) + "\n" for r in serial).encode() == blob


# The table-driven monoid and cancellation sweeps against the nested loops
# they replace: the same reports, field for field, also when the diagonal
# sum or the equivalence test is broken in one place.

ORACLE_CHECKS = ("monoid-law", "monoid-commutativity", "monoid-associativity",
                 "rho-additivity", "cancellation-failure-witnesses",
                 "cancellation-at-positive-rank")

# commutativity and associativity compare sums as classes; the references
# are stated for sums that stay over the ambient index of their operands
LAW_CHECKS = ("monoid-commutativity", "monoid-associativity")


def _stock(n, k_max):
    return [ProjClass(n, 0, 0)] + [ProjClass(n, j, k) for j in range(n + 1)
                                   for k in range(1, k_max + 1)]


def reference_monoid(n_max, k_max):
    """monoid-law and rho-additivity, one boxplus and one rho per pair."""
    law_bad = add_bad = None
    pairs = 0
    for n in range(n_max + 1):
        base = _stock(n, k_max)
        for a in base:
            for b in base:
                c = projections.boxplus(a, b)
                if a.is_zero:
                    want = (b.j, b.k)
                elif b.is_zero:
                    want = (a.j, a.k)
                elif a.j == b.j:
                    want = (a.j, a.k + b.k)
                else:
                    want = (min(a.j, b.j), a.k if a.j < b.j else b.k)
                if (c.n, c.j, c.k) != (n, *want) and law_bad is None:
                    law_bad = {"n": n, "a": a.to_json(), "b": b.to_json(),
                               "got": c.to_json(), "want": list(want)}
                if (projections.rho(a) + projections.rho(b) != projections.rho(c)
                        and add_bad is None):
                    add_bad = {"n": n, "a": a.to_json(), "b": b.to_json()}
                pairs += 1
    params = {"n_max": n_max, "k_max": k_max}
    return [VerifyReport("monoid-law", params, law_bad is None,
                         domain_size=pairs, counterexample=law_bad),
            VerifyReport("rho-additivity", params, add_bad is None,
                         domain_size=pairs, counterexample=add_bad)]


def reference_laws(n_max, k_max):
    """Commutativity, one boxplus per ordered pair, and associativity, two
    boxplus calls per side of each triple."""
    boxplus = projections.boxplus
    comm_ok = assoc_ok = True
    pairs = triples = 0
    for n in range(n_max + 1):
        base = _stock(n, k_max)
        for a in base:
            for b in base:
                comm_ok = comm_ok and boxplus(a, b) == boxplus(b, a)
                pairs += 1
                ab = boxplus(a, b)  # the inner sum of the left side, for every c
                for c in base:
                    assoc_ok = assoc_ok and boxplus(ab, c) == boxplus(a, boxplus(b, c))
        triples += len(base) ** 3
    params = {"n_max": n_max, "k_max": k_max}
    return [VerifyReport("monoid-commutativity", params, comm_ok, domain_size=pairs),
            VerifyReport("monoid-associativity", params, assoc_ok,
                         domain_size=triples)]


def reference_cancellation(n_max, k_max):
    """Both cancellation checks, two boxplus calls per pair or triple."""
    witness_bad = None
    witnesses = 0
    for n in range(1, n_max + 1):
        unit = ProjClass(n, 0, 1)
        compact = [ProjClass(n, j, k) for j in range(1, n + 1)
                   for k in range(1, k_max + 1)]
        for a_i, a in enumerate(compact):
            for b in compact[a_i + 1:]:
                same_sum = projections.boxplus(a, unit) == projections.boxplus(b, unit)
                if not same_sum or projections.is_equivalent(a, b):
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
        stock = _stock(n, k_max)
        positive = [p for p in stock if projections.rank(p) >= 1]
        for a in positive:
            for b in positive:
                for c in stock:
                    same = projections.boxplus(a, c) == projections.boxplus(b, c)
                    if same != projections.is_equivalent(a, b):
                        cancel_bad = {"n": n, "a": a.to_json(), "b": b.to_json(),
                                      "c": c.to_json()}
                        break
                    cancels += 1
                if cancel_bad:
                    break
            if cancel_bad:
                break
        if cancel_bad:
            break
    params = {"n_max": n_max, "k_max": k_max}
    return [VerifyReport("cancellation-failure-witnesses", params,
                         witness_bad is None, domain_size=witnesses,
                         counterexample=witness_bad),
            VerifyReport("cancellation-at-positive-rank", params,
                         cancel_bad is None, domain_size=cancels,
                         counterexample=cancel_bad)]


def _records(reports, laws=True):
    checks = ORACLE_CHECKS if laws else set(ORACLE_CHECKS) - set(LAW_CHECKS)
    return {r.check: r.to_json() for r in reports if r.check in checks}


def reference_records(n_max, k_max, laws=True):
    reports = reference_monoid(n_max, k_max) + reference_cancellation(n_max, k_max)
    return _records(reports + (reference_laws(n_max, k_max) if laws else []), laws)


def table_records(n_max, k_max, laws=True):
    return _records(suite.monoid_checks(n_max, k_max)
                    + suite.cancellation_checks(n_max, k_max), laws)


def _absorb_upward(lo, hi):
    """The diagonal sum with absorption reversed for the levels (lo, hi)."""
    def broken(a, b):
        if not (a.is_zero or b.is_zero) and {a.j, b.j} == {lo, hi}:
            return a if a.j == hi else b
        return BOXPLUS(a, b)
    return broken


def _multiplicity_off_by_one(j, k):
    """The diagonal sum giving P[j, k + 1] where it should give P[j, k]."""
    def broken(a, b):
        if not (a.is_zero or b.is_zero) and a.j == b.j == j and a.k + b.k == k:
            return ProjClass(a.n, j, k + 1)
        return BOXPLUS(a, b)
    return broken


def _wrong_ambient(j, k):
    """The diagonal sum landing over n + 1 where it should give P[j, k]."""
    def broken(a, b):
        if not (a.is_zero or b.is_zero) and a.j == b.j == j and a.k + b.k == k:
            return ProjClass(a.n + 1, j, k)
        return BOXPLUS(a, b)
    return broken


def _keep_left(a, b):
    """An associative sum that is not commutative: the left operand wins."""
    if a.is_zero or b.is_zero:
        return BOXPLUS(a, b)
    return a


def _larger_plus_one(j):
    """A commutative sum that is not associative: at level j, the larger
    multiplicity plus one."""
    def broken(a, b):
        if not (a.is_zero or b.is_zero) and a.j == b.j == j:
            return ProjClass(a.n, j, max(a.k, b.k) + 1)
        return BOXPLUS(a, b)
    return broken


def _off_above(k_max):
    """The diagonal sum one short of the law at a level where an operand's
    multiplicity exceeds k_max: wrong only on the sums that are not base
    classes of a sweep up to k_max, so only associativity sees it."""
    def broken(a, b):
        if (not (a.is_zero or b.is_zero) and a.j == b.j
                and max(a.k, b.k) > k_max):
            return ProjClass(a.n, a.j, a.k + b.k - 1)
        return BOXPLUS(a, b)
    return broken


def _out_of_stock(dn):
    """The diagonal sum giving P[1, 100] over n + dn for P[1, 1] + P[1, 1]: a
    class far past every multiplicity that sums of base classes up to k_max
    reach."""
    def broken(a, b):
        if not (a.is_zero or b.is_zero) and a.j == b.j == 1 and a.k == b.k == 1:
            return ProjClass(a.n + dn, 1, 100)
        return BOXPLUS(a, b)
    return broken


def _rho_wrong_at(wrong_at, wrong):
    """rho answering ``wrong(p)`` on the classes ``wrong_at`` accepts."""
    return lambda p: wrong(p) if wrong_at(p) else RHO(p)


def _equivalent_k1_k2(a, b):
    """Equivalence that also identifies P[j, 1] with P[j, 2]."""
    if a.j == b.j and {a.k, b.k} == {1, 2}:
        return True
    return IS_EQUIVALENT(a, b)


BROKEN = {
    "absorb-0-1-upward": ("boxplus", _absorb_upward(0, 1)),
    "absorb-0-2-upward": ("boxplus", _absorb_upward(0, 2)),
    "absorb-1-3-upward": ("boxplus", _absorb_upward(1, 3)),
    "multiplicity-0-3": ("boxplus", _multiplicity_off_by_one(0, 3)),
    "multiplicity-2-2": ("boxplus", _multiplicity_off_by_one(2, 2)),
    "ambient-1-2": ("boxplus", _wrong_ambient(1, 2)),
    "keep-left": ("boxplus", _keep_left),
    "larger-plus-one-1": ("boxplus", _larger_plus_one(1)),
    "off-above-k-max": ("boxplus", _off_above(4)),
    "out-of-stock": ("boxplus", _out_of_stock(0)),
    "out-of-stock-ambient": ("boxplus", _out_of_stock(1)),
    "equivalent-k1-k2": ("is_equivalent", _equivalent_k1_k2),
    # rho(P[2,3]) over n = 3 reads 4 at level 2: the rows of the zero class
    # and of the classes below level 2 pass, so the first failing row is P[2,1]'s
    "rho-middle-level": ("rho", _rho_wrong_at(lambda p: (p.n, p.j, p.k) == (3, 2, 3),
                                              lambda p: RHO(ProjClass(3, 2, 4)))),
    # one level too many for P[1,6] over n = 3, a two-fold sum only
    "rho-longer": ("rho", _rho_wrong_at(lambda p: (p.n, p.j, p.k) == (3, 1, 6),
                                        lambda p: RhoVector((*RHO(p), 0)))),
    # rho(P[j,k]) reads rho(P[j,k + 1]) for every k above k_max = 4
    "rho-above-k-max": ("rho", _rho_wrong_at(lambda p: p.k > 4,
                                             lambda p: RHO(ProjClass(p.n, p.j, p.k + 1)))),
}

# broken sums that leave the ambient index of their operands
OTHER_AMBIENT = {"ambient-1-2", "out-of-stock-ambient"}


class TestTablesAgainstNestedLoops:
    def test_default_ranges(self):
        got = table_records(5, 20)
        assert got == reference_records(5, 20)
        assert all(r["pass"] for r in got.values())
        assert got["cancellation-at-positive-rank"]["domain_size"] == 170400

    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_broken_operation(self, monkeypatch, name):
        monkeypatch.setattr(projections, *BROKEN[name])
        laws = name not in OTHER_AMBIENT
        want = reference_records(3, 4, laws)
        assert len(want) == (6 if laws else 4)
        assert not all(r["pass"] for r in want.values())
        assert table_records(3, 4, laws) == want

    def test_each_check_fails_under_some_broken_operation(self, monkeypatch):
        failed = set()
        for name, (attr, broken) in BROKEN.items():
            with monkeypatch.context() as m:
                m.setattr(projections, attr, broken)
                records = reference_records(3, 4, name not in OTHER_AMBIENT)
                failed |= {c for c, r in records.items() if not r["pass"]}
        assert failed == set(ORACLE_CHECKS)

    @pytest.mark.parametrize("name, fails", [
        ("keep-left", "monoid-commutativity"),
        ("larger-plus-one-1", "monoid-associativity"),
    ])
    def test_one_law_without_the_other(self, monkeypatch, name, fails):
        monkeypatch.setattr(projections, *BROKEN[name])
        records = reference_records(3, 4)
        assert [c for c in LAW_CHECKS if not records[c]["pass"]] == [fails]

    @pytest.mark.parametrize("name", sorted(OTHER_AMBIENT))
    def test_sums_over_another_ambient_index(self, monkeypatch, name):
        # such a sum breaks the law, which names its ambient index, and
        # additivity; it cannot be summed again, so associativity fails
        # without raising
        monkeypatch.setattr(projections, *BROKEN[name])
        records = table_records(3, 4)
        failed = [c for c, r in records.items() if not r["pass"]]
        assert failed == ["monoid-law", "monoid-associativity", "rho-additivity"]
        assert records["monoid-law"]["counterexample"]["got"]["n"] == 2

    @pytest.mark.parametrize("n_max, k_max", [(0, 0), (3, 0), (0, 1), (2, 1), (0, 5)])
    def test_degenerate_stocks(self, n_max, k_max):
        # at k_max = 0 the zero class is the whole stock, so each row of the
        # pair table is one name, read bare; at n_max = 0 there is one level
        want = reference_monoid(n_max, k_max) + reference_laws(n_max, k_max)
        assert _records(suite.monoid_checks(n_max, k_max)) == _records(want)

    def test_sums_that_are_not_base_classes(self, monkeypatch):
        # wrong only where an operand's multiplicity exceeds k_max: no base
        # pair sees it, so only associativity, whose rows of the sums that
        # are not base classes are summed anew, can fail
        monkeypatch.setattr(projections, *BROKEN["off-above-k-max"])
        records = table_records(3, 4)
        assert records == reference_records(3, 4)
        assert [c for c, r in records.items() if not r["pass"]] == ["monoid-associativity"]


# The evaluate-once tables: each family's calls of the hot operations at its
# default ranges, capped at the counts of the tables as they stand; a budget
# of 0 means no call.  The monoid family sums each base pair once and, for
# associativity, only the two-fold sums that are not base classes again:
# 37,246 + 73,640 calls.  It takes rho once of each base class and of each
# two-fold sum: 426 + 420.  Rho additivity forms, at each level l, the row of
# the sums rho_l(a) + rho_l(b) over the base classes b once per value of
# rho_l(a): 1,415 of those additions start from infinity and 14,700 add
# infinity to a finite value.  A passing sweep adds no counting vectors.
CALL_BUDGETS = {
    "monoid": {"boxplus": 110886, "rho": 846, "Infinity.__add__": 1415,
               "Infinity.__radd__": 14700, "RhoVector.__add__": 0},
    "cancellation": {"boxplus": 8820, "is_equivalent": 13250},
    "rho-injectivity": {"rho": 1056},
}


@pytest.mark.parametrize("family", sorted(CALL_BUDGETS))
def test_evaluate_once_call_counts(monkeypatch, family):
    owners = {"": projections, "RhoVector": projections.RhoVector,
              "Infinity": extnat.Infinity}
    calls = dict.fromkeys(("boxplus", "rho", "is_equivalent", "RhoVector.__add__",
                           "Infinity.__add__", "Infinity.__radd__"), 0)
    for name in calls:
        owner, _, attr = name.rpartition(".")

        def counted(*args, _name=name, _real=getattr(owners[owner], attr)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owners[owner], attr, counted)
    assert all(r.passed for r in suite.run_group(family))
    for name, budget in CALL_BUDGETS[family].items():
        assert calls[name] <= budget and (calls[name] > 0) == (budget > 0), name


# Each family that stops at its first counterexample, broken in at least two
# of its cases: its record must name the first of them and count only the
# cases before it.  Each entry patches the operations and returns the check,
# its report and the expected (domain_size, counterexample).

def _patch(monkeypatch, module, name, wrong_at, wrong):
    """``module.name`` answering ``wrong(*args)`` on the arguments in
    ``wrong_at`` (a predicate); returns the arguments of every call."""
    calls = []
    real = getattr(module, name)

    def patched(*args):
        calls.append(args)
        return wrong(*args) if wrong_at(*args) else real(*args)
    monkeypatch.setattr(module, name, patched)
    return calls


def _first_rho_collision(monkeypatch):
    # rho glues P[0,2] to P[0,1] at every n: the first collision is at n=0,
    # after the zero class and P[0,1]
    _patch(monkeypatch, projections, "rho", lambda p: (p.j, p.k) == (0, 2),
           lambda p: RHO(ProjClass(p.n, 0, 1)))
    first, second = ProjClass(0, 0, 1), ProjClass(0, 0, 2)
    return "rho-injectivity", suite.rho_injectivity_checks(), (2, {
        "n": 0, "first": first.to_json(), "second": second.to_json()})


def _first_false_witness(monkeypatch):
    # P[j,3] ~ P[j,4] at every level: at n=1 the pairs of P[1,1] (19) and
    # P[1,2] (18) come first
    _patch(monkeypatch, projections, "is_equivalent",
           lambda a, b: a.j == b.j and {a.k, b.k} == {3, 4}, lambda a, b: True)
    a, b = ProjClass(1, 1, 3), ProjClass(1, 1, 4)
    return "cancellation-failure-witnesses", suite.cancellation_checks(), (37, {
        "n": 1, "a": a.to_json(), "b": b.to_json()})


def _first_recursion_mismatch(monkeypatch):
    # n=1 has 25 degrees, then n=2, k=1..2 pass
    _patch(monkeypatch, line_bundles, "closed_form",
           lambda n, k: (n, k) in {(2, 3), (4, 7)},
           lambda n, k: line_bundles.recursion_expand(n, k + 1))
    return "bundle-recursion", suite.bundle_recursion_checks(), (27, {"n": 2, "k": 3})


def _first_hockey_failure(monkeypatch):
    # l=2 has 40 degrees, then l=3, k=1..4 pass
    real = line_bundles.hockey_stick
    _patch(monkeypatch, line_bundles, "hockey_stick",
           lambda l, k: (l, k) in {(3, 5), (6, 1)},
           lambda l, k: real(l, k)._replace(equal=False))
    lhs, rhs, _ = real(3, 5)
    return "hockey-stick", suite.hockey_stick_checks(), (44, {
        "l": 3, "k": 5, "lhs": lhs, "rhs": rhs})


def _first_restriction_mismatch(monkeypatch):
    # the class of degree 4 over n=3 reads that of degree 5: it is restricted
    # at n=3, k=4 (after the 26 degrees at n=2 and 4 more); the direct side is
    # the decomposition over n=2, not k0_class
    real = line_bundles.k0_class
    _patch(monkeypatch, line_bundles, "k0_class", lambda n, k: (n, k) == (3, 4),
           lambda n, k: real(3, 5))
    return "k0-restriction-consistency", suite.k0_checks(exact_n_max=1), (30, {
        "n": 3, "k": 4, "restricted": real(2, 5).to_json(),
        "direct": real(2, 4).to_json()})


def _first_oracle_disagreement(monkeypatch):
    # n=1 has 13 classes; at n=2 the zero class, P[0,1..6] and P[1,1..2]
    wrong = {ProjClass(2, 1, 3), ProjClass(3, 0, 1)}
    _patch(monkeypatch, projections, "rho", lambda p: p in wrong,
           lambda p: RHO(ProjClass(p.n, p.j, p.k + 1)))
    p = ProjClass(2, 1, 3)
    return "oracle-agreement", suite.oracle_agreement_checks(), (22, {
        "class": p.to_json(), "numeric": RHO(p).to_json(),
        "symbolic": RHO(ProjClass(2, 1, 4)).to_json()})


FIRST_FAILURES = {
    "rho-injectivity": _first_rho_collision,
    "cancellation-failure-witnesses": _first_false_witness,
    "bundle-recursion": _first_recursion_mismatch,
    "hockey-stick": _first_hockey_failure,
    "k0-restriction-consistency": _first_restriction_mismatch,
    "oracle-agreement": _first_oracle_disagreement,
}


class TestFirstCounterexample:
    @pytest.mark.parametrize("name", sorted(FIRST_FAILURES))
    def test_first_failing_case_and_count(self, monkeypatch, name):
        check, reports, (domain_size, counterexample) = FIRST_FAILURES[name](monkeypatch)
        [r] = [r for r in reports if r.check == check]
        assert not r.passed
        assert r.counterexample == counterexample
        assert r.domain_size == domain_size

    def test_restriction_reads_the_decomposition_one_level_down(self, monkeypatch):
        # k0_class giving C(k + j, j) for k >= 1 ignores n, so nu_star of its
        # class over n is its class over n - 1; the decomposition over n - 1
        # catches it at the first positive degree, after n=2, k=0
        real = line_bundles.k0_class
        monkeypatch.setattr(line_bundles, "k0_class",
                            lambda n, k: real(n, k + 1) if k >= 1 else real(n, k))
        r = suite.k0_checks(exact_n_max=1)[0]
        assert (r.check, r.passed, r.domain_size) == ("k0-restriction-consistency", False, 1)
        assert r.counterexample == {"n": 2, "k": 1, "restricted": {"n": 1, "coords": [1, 2]},
                                    "direct": {"n": 1, "coords": [1, 1]}}

    def _random(self, check):
        [r] = [r for r in suite.random_checks() if r.check == check]
        assert not r.passed and r.domain_size is None
        return r.counterexample

    @pytest.mark.parametrize("check, module, name, wrong", [
        ("random-bundle-recursion", line_bundles, "closed_form",
         lambda n, k: line_bundles.recursion_expand(n, k + 1)),
        ("random-hockey-stick", line_bundles, "hockey_stick",
         lambda l, k: line_bundles.HockeyStickResult(0, 0, False)),
    ])
    def test_random_pair_families_stop_at_the_first(self, monkeypatch, check,
                                                    module, name, wrong):
        # every drawn degree above 40 fails: the record names the first such
        # draw, and no later draw is tested
        calls = _patch(monkeypatch, module, name, lambda a, k: k > 40, wrong)
        bad = self._random(check)
        first = next(i for i, (_, k) in enumerate(calls) if k > 40)
        assert first == len(calls) - 1
        assert tuple(bad.values()) == calls[first]

    def test_random_monoid_stops_at_the_first(self, monkeypatch):
        # every sum of two nonzero classes over n >= 10 is the zero class, so
        # each sample over n >= 10 fails additivity: the record names the
        # first, and no other sample over n >= 10 is summed
        calls = _patch(
            monkeypatch, projections, "boxplus",
            lambda a, b: a.n >= 10 and not (a.is_zero or b.is_zero),
            lambda a, b: projections.zero_class(a.n))
        bad = self._random("random-monoid")
        picks = {ProjClass(**bad[x]) for x in "abc"}
        n = next(iter(picks)).n
        assert n >= 10
        assert {p for args in calls if args[0].n >= 10 for p in args} <= picks | {
            projections.zero_class(n)}
