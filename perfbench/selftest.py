"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a repository checkout (about three minutes: it runs
every workload once in both trace modes).  It checks that

* every workload prints exactly the metrics ``BENCHMARK.json`` declares,
  with their units;
* an injected wrong output is counted as a failed operation on each
  workload, and makes the run incorrect;
* the groupoid-edge expected verdict (pass, domain_size == image_size)
  holds when recomputed with public element-level functions only, also on
  the cases the fast path currently gets wrong;
* the calculator's independent expectations reproduce the README examples.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_checkout()

import wl_calculator  # noqa: E402
import wl_groupoid_edge  # noqa: E402
import wl_verify_all  # noqa: E402
from layers import END_TO_END, GROUPOID_KINDS, PER_LAYER, SUITE_FAMILIES  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 7


def _declared():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_declared_names_match_code():
    from qproj import groupoid, suite

    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert SUITE_FAMILIES == suite.GROUP_NAMES
    assert GROUPOID_KINDS == ("partition",) + groupoid.MAP_IDS


def test_printed_metrics_match_benchmark_json():
    spec = _declared()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in WORKLOADS:
            proc = common.run_process([
                sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
                "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)])
            assert proc.status == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in declared}, workload


def test_wrong_verify_all_record_is_counted():
    inp = wl_verify_all.setup("verify-all", SEED)
    records = inp.records
    tally = f"{len(records)}/{len(records)} checks passed\n"
    good = "\n".join(records) + "\n"
    assert wl_verify_all.failed_records(records, 0, good, tally) == 0
    bad = good.replace('"pass": true', '"pass": false', 1)
    assert wl_verify_all.failed_records(records, 0, bad, tally) == 1
    assert wl_verify_all.failed_records(records, 2, good, tally) == len(records)
    assert wl_verify_all.failed_records(records, 0, good, "190/191 checks passed\n") \
        == len(records)


def test_wrong_calculator_output_is_counted():
    [commands] = wl_calculator.make_mix(SEED, 1)
    cmd = next(c for c in commands if c.args[0] == "normalize")
    wrong = cmd._replace(expected=dict(cmd.expected, k=cmd.expected["k"] + 1))
    out = wl_calculator.measure([[wrong]], 0)
    assert (out.attempted, out.failed, out.unexpected) == (1, 1, 1)
    out = wl_calculator.measure([[cmd]], 0)
    assert (out.attempted, out.failed, out.unexpected) == (1, 0, 0)


def test_wrong_groupoid_report_is_counted():
    from dataclasses import replace

    from qproj import groupoid

    inp = wl_groupoid_edge.setup("groupoid-edge", SEED)
    target = next(c for c in inp.checks if c.id == "gamma n=4 k=1 W=3")
    original = groupoid.verify_bijection

    def injected(map_id, n, **kw):
        report = original(map_id, n, **kw)
        if (map_id, n, kw.get("k"), kw.get("window")) == ("gamma", 4, 1, 3):
            return replace(report, passed=False)
        return report

    groupoid.verify_bijection = injected
    try:
        out = wl_groupoid_edge.measure(inp, 0)
    finally:
        groupoid.verify_bijection = original
    known = len(inp.known)
    assert target.id not in inp.known
    assert (out.attempted, out.failed, out.unexpected) == (364, known + 1, 1)


# --- groupoid-edge verdicts from element-level functions only ---------------


def _first_inf(w):
    return next((i for i, v in enumerate(w) if not isinstance(v, int)), len(w))


def _box(n, z, j, bound, x_box, w_box):
    """Elements of degree z, first j source coordinates 0, inside the box.

    ``x_box[i]`` bounds offset i; ``w_box[i]`` = (lo, hi, inf_ok) bounds a
    finite source coordinate i and says whether it may be the first inf.
    ``bound`` must cover the box; the stratum is enumerated that wide and
    filtered.
    """
    from qproj import enumerate_stratum

    out = []
    for g in enumerate_stratum(n, z, j=j, window=bound):
        p = _first_inf(g.w)
        if not all(lo <= x <= hi for x, (lo, hi) in zip(g.x, x_box)):
            continue
        if not all(lo <= w <= hi for w, (lo, hi, _) in zip(g.w[:p], w_box)):
            continue
        if p < n and not w_box[p][2]:
            continue
        out.append(g)
    return out


def _std(n, W):
    return [(-W, W)] * n, [(0, W, True)] * n


def _element_cases():
    """(check id, domain, codomain or None, map) for a few sample checks."""
    from qproj import gamma_iso, theta_neg, theta_peel, theta_shift, theta_terminal

    cases = []
    # theta-terminal: every source coordinate pinned; forget degree l
    for n, l, W in ((6, 1, 1), (1, 4, 40), (2, 2, 3)):
        xb, _ = _std(n, W)
        pinned = [(0, 0, False)] * n
        cases.append((f"theta-terminal n={n} l={l} W={W}",
                      _box(n, l, n, W, xb, pinned), _box(n, 0, n, W, xb, pinned),
                      lambda g, l=l: theta_terminal(g, l)))
    # theta-shift: w_j in [k, k+W] or inf pays k against x_j
    for n, k, j, W in ((2, 2, 1, 2), (6, 1, 5, 1), (1, 1, 0, 40)):
        xb, wb = _std(n, W)
        dom_w = [(0, 0, False)] * j + [(k, k + W, True)] + wb[j + 1:]
        cod_x = xb[:j] + [(k - W, k + W)] + xb[j + 1:]
        cod_w = [(0, 0, False)] * j + wb[j:]
        cases.append((f"theta-shift n={n} k={k} j={j} W={W}",
                      _box(n, k, j, k + W, xb, dom_w),
                      _box(n, 0, j, k + W, cod_x, cod_w),
                      lambda g, k=k, j=j: theta_shift(g, k, j)))
    # theta-peel: w_j = l pays l and pins coordinate j
    for n, k, j, l, W in ((2, 3, 0, 1, 2), (6, 2, 1, 0, 1)):
        xb, wb = _std(n, W)
        dom_w = [(0, 0, False)] * j + [(l, l, False)] + wb[j + 1:]
        cod_x = xb[:j] + [(l - W, l + W)] + xb[j + 1:]
        cod_w = [(0, 0, False)] * (j + 1) + wb[j + 1:]
        cases.append((f"theta-peel n={n} k={k} j={j} l={l} W={W}",
                      _box(n, k, j, W, xb, dom_w),
                      _box(n, k - l, j + 1, W + l, cod_x, cod_w),
                      lambda g, k=k, j=j, l=l: theta_peel(g, k, j, l)))
    # theta-neg: degree k <= 0 becomes depth in w_0
    for n, k, W in ((2, -2, 2), (3, -1, 1)):
        xb, wb = _std(n, W)
        cod_x = [(k - W, k + W)] + xb[1:]
        cod_w = [(-k, -k + W, True)] + wb[1:]
        cases.append((f"theta-neg n={n} k={k} W={W}", _box(n, k, 0, W, xb, wb),
                      _box(n, 0, 0, W - k, cod_x, cod_w),
                      lambda g, k=k: theta_neg(g, k)))
    # gamma: the primed codomain has no public enumerator; injectivity only
    for n, k, W in ((2, 1, 2), (6, 0, 1)):
        xb, wb = _std(n, W)
        cases.append((f"gamma n={n} k={k} W={W}", _box(n, k, 0, W, xb, wb), None,
                      gamma_iso))
    return cases


def test_groupoid_edge_verdicts_from_elements():
    from qproj import gamma_iso_inv, groupoid

    from wl_groupoid_edge import Check

    known = wl_groupoid_edge.setup("groupoid-edge", SEED).known
    for check_id, dom, cod, fn in _element_cases():
        image = [fn(g) for g in dom]
        assert len(set(image)) == len(dom), check_id  # injective
        assert all(g.target() == h.target() for g, h in zip(dom, image)), check_id
        if cod is not None:
            assert set(image) == set(cod), check_id  # onto the paired window
        else:
            assert [gamma_iso_inv(h) for h in image] == dom, check_id
        # the fast path agrees, or the check is a recorded known defect
        kind, *fields = check_id.split()
        kw = {f.split("=")[0]: int(f.split("=")[1]) for f in fields}
        check = Check(kind, kw.pop("n"), kw.pop("W"), **kw)
        assert check.id == check_id
        verdict = wl_groupoid_edge.run_check(groupoid, check)
        if verdict is None:
            report = groupoid.verify_bijection(kind, check.n, k=check.k, j=check.j,
                                               l=check.l, window=check.W)
            assert report.domain_size == len(dom) == report.image_size, check_id
        else:
            assert known.get(check_id) == verdict, f"{check_id}: fast path {verdict}"
    assert len(_box(6, 1, 6, 1, *_std(6, 1))) == 64  # the 64 -> 64 bijection


def test_calculator_expectations():
    from wl_calculator import _bundle_mult, absorb

    assert absorb([(1, 2), (2, 5), (1, 1)]) == (1, 3)
    assert absorb([(1, 1), (0, 2)]) == (0, 2)
    assert _bundle_mult(3, 4) == [1, 4, 10, 20]
    assert _bundle_mult(2, 3) == [1, 3, 6]
    mix = wl_calculator.make_mix(SEED)
    assert len(mix) == wl_calculator.ROUNDS
    assert mix == wl_calculator.make_mix(SEED)
    assert sorted(c.args[0] for c in mix[0][:7]) == sorted(
        ["normalize", "rho", "boxplus", "k0", "k0", "linebundle", "oracle-verify"])
    # one known defect per round, so the error rate is 1/21 in every run
    assert all(len(r) == 21 and sum(c.known_defect for c in r) == 1 for r in mix)
    k_maxes = {int(c.args[-1]) for r in mix for c in r if c.args[0] == "oracle-verify"}
    assert k_maxes == set(range(1, wl_calculator.ORACLE_K_MAX + 1))


def test_oracle_defect_is_exactly_k_max_9_and_up():
    """Every oracle-verify the mix can draw fails iff k_max >= 9, so the
    calculator's error rate is fixed by the mix."""
    from qproj import cli

    for n_max in range(1, wl_calculator.N_MAX + 1):
        for k_max in range(1, wl_calculator.ORACLE_K_MAX + 1):
            cmd = wl_calculator.Command(
                ("oracle-verify", "--n-max", str(n_max), "--k-max", str(k_max)), None)
            status, _ = wl_calculator.run_in_process(cli, cmd)
            assert (status != 0) == (k_max >= wl_calculator.ORACLE_DEFECT_K_MIN), \
                (n_max, k_max, status)


def main():
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit 1
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
