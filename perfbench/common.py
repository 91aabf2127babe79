"""Shared helpers: checkout paths, timed subprocesses, statistics, set-up probes.

Everything here is standard library only, so the benchmark can start, and
refuse cleanly, before qproj is importable.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# An operation still running after this long is killed, so a run ends within 3 min.
OP_TIMEOUT_S = 150
# Set-up is repeated in fresh interpreters and reported as the median.
SETUP_PROBES = 7
CLI_PROBES = 5


class MissingCheckout(RuntimeError):
    pass


def require_checkout():
    """Make the qproj sources of this checkout importable, or refuse."""
    if not (SRC / "qproj" / "__init__.py").is_file():
        raise MissingCheckout(f"no qproj sources under {SRC}; run the benchmark "
                              f"from the root of a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    """Environment for qproj subprocesses: this checkout's sources, no job cap."""
    env = dict(os.environ)
    env.pop("QPROJ_JOBS", None)  # would silently cap --jobs
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class Proc(NamedTuple):
    status: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float


def run_process(argv, timeout=OP_TIMEOUT_S):
    """Run argv to completion from the checkout root.

    Returns the exit status, both outputs, the wall time and the peak RSS of
    the process and every descendant it waited for (wait4 reports both).  A
    process still running after ``timeout`` seconds is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out.decode(), err[0].decode() if err else "",
                seconds, usage.ru_maxrss / 1024)


class Outcome:
    """Operation tallies of one run, and the metrics it reports.

    ``unexpected`` counts failures that are not recorded known defects; the
    run's outputs are correct when it is 0.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.metrics = {}

    def count(self, attempted, failed, unexpected=None):
        self.attempted += attempted
        self.failed += failed
        self.unexpected += failed if unexpected is None else unexpected


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def p50(values):
    return statistics.median(values)


def p25(values):
    """Lower quartile; with fewer than two samples, the sample itself."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def p90(values):
    """90th percentile; with fewer than two samples, the sample itself."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def closed_loop(op, seconds):
    """Call ``op()`` back to back for about ``seconds`` seconds.

    The next call starts only while the longest call so far would still end
    inside the budget, and at least one call is made, so a run never
    overshoots by more than one unusually slow call.
    """
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        op()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def median_setup_s(workload, seed):
    """Median set-up time over fresh interpreters (see ``run.py --setup-probe``)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = run_process(argv)
        if proc.status != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return p50(times)


def cli_startup_s():
    """(interpreter_s, import_s): a bare interpreter, and a fresh ``import qproj.cli``."""
    bare = [run_process([sys.executable, "-c", "pass"]).seconds
            for _ in range(CLI_PROBES)]
    probe = ("import time; t = time.perf_counter(); import qproj.cli; "
             "print(time.perf_counter() - t)")
    imports = []
    for _ in range(CLI_PROBES):
        proc = run_process([sys.executable, "-c", probe])
        if proc.status != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        imports.append(float(proc.stdout.split()[-1]))
    return p50(bare), p50(imports)
