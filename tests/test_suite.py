"""The bundled check families and their report plumbing."""

import hashlib
import json
from pathlib import Path

import pytest

from qproj import projections, suite
from qproj.errors import OutOfRange
from qproj.projections import ProjClass
from qproj.reports import VerifyReport

BOXPLUS = projections.boxplus
IS_EQUIVALENT = projections.is_equivalent

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

    def test_unknown_group(self):
        with pytest.raises(KeyError):
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


class TestJobs:
    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("QPROJ_JOBS", raising=False)
        assert suite.effective_jobs(None) >= 1

    def test_env_caps_requests(self, monkeypatch):
        monkeypatch.setenv("QPROJ_JOBS", "1")
        assert suite.effective_jobs(16) == 1
        monkeypatch.setenv("QPROJ_JOBS", "4")
        assert suite.effective_jobs(2) == 2
        assert suite.effective_jobs(16) == 4

    @pytest.mark.parametrize("cap", ["many", "2.5", "", "0", "-3"])
    def test_bad_env_refused(self, monkeypatch, cap):
        monkeypatch.setenv("QPROJ_JOBS", cap)
        with pytest.raises(OutOfRange, match="QPROJ_JOBS"):
            suite.effective_jobs(3)
        with pytest.raises(OutOfRange, match="QPROJ_JOBS"):
            suite.effective_jobs(None)

    def test_nonpositive_request_refused(self, monkeypatch):
        monkeypatch.delenv("QPROJ_JOBS", raising=False)
        assert suite.effective_jobs(1) == 1
        for requested in (0, -1):
            with pytest.raises(OutOfRange, match="job count"):
                suite.effective_jobs(requested)
            with pytest.raises(OutOfRange, match="job count"):
                suite.run_all(jobs=requested)


class TestRunAll:
    def test_serial_over_selected_groups(self, monkeypatch):
        monkeypatch.setattr(suite, "GROUP_NAMES", ("rho-injectivity", "random"))
        monkeypatch.setenv("QPROJ_JOBS", "1")
        reports = suite.run_all()
        assert [r.check for r in reports] == [
            "rho-injectivity", "random-monoid", "random-bundle-recursion",
            "random-hockey-stick",
        ]
        assert all(r.passed for r in reports)

    def test_parallel_path(self, monkeypatch):
        monkeypatch.setattr(suite, "GROUP_NAMES", ("rho-injectivity", "hockey-stick"))
        monkeypatch.delenv("QPROJ_JOBS", raising=False)
        reports = suite.run_all(jobs=2)
        assert [r.check for r in reports] == ["rho-injectivity", "hockey-stick"]
        assert all(r.passed for r in reports)

    def test_jobs_do_not_change_records(self, monkeypatch):
        monkeypatch.delenv("QPROJ_JOBS", raising=False)
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

ORACLE_CHECKS = ("monoid-law", "rho-additivity",
                 "cancellation-failure-witnesses", "cancellation-at-positive-rank")


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
                if (c.j, c.k) != want and law_bad is None:
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


def _records(reports):
    return {r.check: r.to_json() for r in reports if r.check in ORACLE_CHECKS}


def reference_records(n_max, k_max):
    return _records(reference_monoid(n_max, k_max)
                    + reference_cancellation(n_max, k_max))


def table_records(n_max, k_max):
    return _records(suite.monoid_checks(n_max, k_max)
                    + suite.cancellation_checks(n_max, k_max))


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
    "equivalent-k1-k2": ("is_equivalent", _equivalent_k1_k2),
}


class TestTablesAgainstNestedLoops:
    def test_default_ranges(self):
        got = table_records(5, 20)
        assert got == reference_records(5, 20)
        assert all(r["pass"] for r in got.values())
        assert got["cancellation-at-positive-rank"]["domain_size"] == 170400

    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_broken_operation(self, monkeypatch, name):
        monkeypatch.setattr(projections, *BROKEN[name])
        want = reference_records(3, 4)
        assert set(want) == set(ORACLE_CHECKS)
        assert not all(r["pass"] for r in want.values())
        assert table_records(3, 4) == want

    def test_each_check_fails_under_some_broken_operation(self, monkeypatch):
        failed = set()
        for attr, broken in BROKEN.values():
            with monkeypatch.context() as m:
                m.setattr(projections, attr, broken)
                failed |= {c for c, r in reference_records(3, 4).items()
                           if not r["pass"]}
        assert failed == set(ORACLE_CHECKS)
