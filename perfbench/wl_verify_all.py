"""Workloads ``verify-all`` and ``verify-all-jobs2``: the shipped 191-check sweep.

One operation is one ``python -m qproj.cli verify-all --jobs J --format json``
process.  Its stdout is compared record by record with the committed
expected output (``expected/verify_all.jsonl``, whose sha256 is in
``expected/verify_all.sha256``).  Each record is one attempted check and
each mismatched record one failure; a wrong exit status, tally or record
count fails all of them.  The sweep has no inputs to draw, so the seed
leaves it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from typing import NamedTuple

from common import BENCH, Outcome, cli_startup_s, closed_loop, p25, p90, run_process
from layers import SUITE_FAMILIES, instrument, per_layer_metrics
from tracer import Tracer

EXPECTED = BENCH / "expected" / "verify_all.jsonl"
DIGEST = BENCH / "expected" / "verify_all.sha256"
JOBS = {"verify-all": 1, "verify-all-jobs2": 2}


class Inputs(NamedTuple):
    jobs: int
    records: list


def setup(workload, seed):
    import qproj  # noqa: F401  (importing is part of the measured set-up)

    data = EXPECTED.read_bytes()
    if hashlib.sha256(data).hexdigest() != DIGEST.read_text().split()[0]:
        raise RuntimeError(f"{EXPECTED.name} does not match {DIGEST.name}")
    return Inputs(JOBS[workload], data.decode().splitlines())


def mismatches(records, lines):
    """How many expected records the output lines fail to reproduce."""
    if len(lines) != len(records):
        return len(records)
    return sum(got != want for got, want in zip(lines, records))


def failed_records(records, status, stdout, stderr):
    """Failed checks of one verify-all process."""
    tally = stderr.strip().splitlines()[-1:]
    if status != 0 or tally != [f"{len(records)}/{len(records)} checks passed"]:
        return len(records)
    return mismatches(records, stdout.splitlines())


def measure(inp, seconds):
    argv = [sys.executable, "-m", "qproj.cli", "verify-all",
            "--jobs", str(inp.jobs), "--format", "json"]
    out = Outcome()
    walls, rss = [], []

    def op():
        proc = run_process(argv)
        walls.append(proc.seconds * 1e3)
        rss.append(proc.rss_mb)
        out.count(len(inp.records), failed_records(inp.records, proc.status,
                                                   proc.stdout, proc.stderr))

    closed_loop(op, seconds)
    out.metrics = {"op_ms_p25": p25(walls), "op_ms_p90": p90(walls),
                   "peak_rss_mb": max(rss)}
    return out


def _lines(reports):
    return [json.dumps(r.to_json()) for r in reports]


def _sweep(out, inp, tracer=None):
    """Every family in process, in order; returns the wall time."""
    from qproj import suite

    start = time.perf_counter()
    reports = []
    for name in SUITE_FAMILIES:
        if tracer is None:
            reports += suite.run_group(name)
        else:
            with tracer.span(f"suite.{name}"):
                reports += suite.run_group(name)
    wall = time.perf_counter() - start
    out.count(len(inp.records), mismatches(inp.records, _lines(reports)))
    return wall


def trace(inp, spans_path):
    from qproj import suite

    out = Outcome()
    untraced = _sweep(out, inp)
    tracer = Tracer()
    instrument(tracer)
    try:
        traced = _sweep(out, inp, tracer)
    finally:
        tracer.restore()
    jobs2_wall = None
    if inp.jobs > 1:
        start = time.perf_counter()
        reports = suite.run_all(jobs=inp.jobs)
        jobs2_wall = time.perf_counter() - start
        out.count(len(inp.records), mismatches(inp.records, _lines(reports)))
    tracer.write(spans_path, untraced_s=untraced, traced_s=traced)
    out.metrics = per_layer_metrics(tracer, traced - untraced, cli_startup_s(),
                                    jobs2_wall)
    return out
