"""Workload ``groupoid-edge``: the full map sweep at high n and at a wide window.

One operation is one in-process check call.  The sweep runs every kind
with |k| <= 4 (the families of ``suite.groupoid_checks``) at a single n for
each (n, W) in WINDOWS: many small blocks at high n, plus a window wider
than the fast path's key fields.  The seed shuffles the order of the 364
checks.  Every check is expected to pass with domain_size == image_size;
``selftest.py`` justifies that verdict for sample cases with element-level
functions only.

When the benchmark was added, 103 checks at n=6, W=1 reported a false FAIL
(int64 key wrap) and all 37 checks at W=40 raised AssertionError.  They are
listed in ``expected/groupoid_edge_known_defects.json``: they count as
failed operations, and only a failure outside that list makes the run
incorrect.
"""

from __future__ import annotations

import json
import random
import time
from typing import NamedTuple, Optional

from common import BENCH, Outcome, closed_loop, p25, p90, self_rss_mb
from layers import instrument, per_layer_metrics
from tracer import Tracer

WINDOWS = ((4, 3), (5, 2), (6, 1), (1, 40))
K_ABS_MAX = 4
KNOWN_DEFECTS = BENCH / "expected" / "groupoid_edge_known_defects.json"


class Check(NamedTuple):
    kind: str
    n: int
    W: int
    k: Optional[int] = None
    j: Optional[int] = None
    l: Optional[int] = None

    @property
    def id(self):
        fields = [f"{f}={v}" for f, v in zip(("k", "j", "l"), (self.k, self.j, self.l))
                  if v is not None]
        return " ".join([self.kind, f"n={self.n}"] + fields + [f"W={self.W}"])


def sweep(n, W):
    """The checks of ``suite.groupoid_checks`` at one n, in its order."""
    out = []
    for k in range(1, K_ABS_MAX + 1):
        out += [Check("partition", n, W, k=k, j=j) for j in range(n)]
    out += [Check("theta-neg", n, W, k=k) for k in range(-K_ABS_MAX, 1)]
    for k in range(1, K_ABS_MAX + 1):
        for j in range(n):
            out.append(Check("theta-shift", n, W, k=k, j=j))
            out += [Check("theta-peel", n, W, k=k, j=j, l=l) for l in range(k)]
    out += [Check("theta-terminal", n, W, l=l) for l in range(1, K_ABS_MAX + 1)]
    out += [Check("gamma", n, W, k=k) for k in range(-K_ABS_MAX, K_ABS_MAX + 1)]
    out.append(Check("t", n, W))
    return out


class Inputs(NamedTuple):
    checks: list
    known: dict  # check id -> "fail" or the name of the exception it raises


def setup(workload, seed):
    import qproj  # noqa: F401  (importing is part of the measured set-up)

    checks = [c for n, W in WINDOWS for c in sweep(n, W)]
    random.Random(seed).shuffle(checks)
    return Inputs(checks, json.loads(KNOWN_DEFECTS.read_text()))


def run_check(groupoid, check):
    """None when the check passed as expected, "fail" for a wrong report, or
    the name of the exception it raised."""
    try:
        if check.kind == "partition":
            report = groupoid.verify_partition(check.n, check.k, check.j, check.W)
        else:
            report = groupoid.verify_bijection(check.kind, check.n, k=check.k,
                                               j=check.j, l=check.l, window=check.W)
    except Exception as exc:  # one failed operation; the run goes on
        return type(exc).__name__
    ok = report.passed and report.domain_size == report.image_size
    return None if ok else "fail"


def _count(out, known, check, verdict):
    failed = verdict is not None
    out.count(1, failed, failed and known.get(check.id) != verdict)


def measure(inp, seconds):
    from qproj import groupoid

    out = Outcome()
    lat = []

    def one_sweep():
        for check in inp.checks:
            t0 = time.perf_counter()
            verdict = run_check(groupoid, check)
            lat.append((time.perf_counter() - t0) * 1e3)
            _count(out, inp.known, check, verdict)

    closed_loop(one_sweep, seconds)
    out.metrics = {"op_ms_p25": p25(lat), "op_ms_p90": p90(lat),
                   "peak_rss_mb": self_rss_mb()}
    return out


def trace(inp, spans_path):
    from qproj import groupoid

    out = Outcome()

    def timed_sweep():
        start = time.perf_counter()
        for check in inp.checks:
            _count(out, inp.known, check, run_check(groupoid, check))
        return time.perf_counter() - start

    untraced = timed_sweep()
    tracer = Tracer()
    instrument(tracer)
    try:
        traced = timed_sweep()
    finally:
        tracer.restore()
    tracer.write(spans_path, untraced_s=untraced, traced_s=traced)
    out.metrics = per_layer_metrics(tracer, traced - untraced)
    return out
