"""Workload ``calculator``: a seeded mix of one-shot calculator commands.

One operation is one ``python -m qproj.cli <command> ... --format json``
process, closed loop from a single client.  The mix is a sequence of
rounds; a round is three blocks of the seven command kinds, each block in a
seeded order, with n <= 6 and multiplicities up to 50.  A run plays whole
rounds.  Expected outputs are computed here without qproj:

* normalize, boxplus: the absorption law (the lowest level present wins and
  multiplicities at that level add);
* rho: the closed form 0 below the level, k at it, inf above;
* linebundle, k0 --bundle: binomial multiplicities C(k + j - 1, j);
* k0 --exactness, oracle-verify: exit 0 and one passing record whose sizes
  follow from the ranges checked.

oracle-verify draws --k-max from 1..12, stratified per round: of a round's
three oracle-verify commands one draws from 9..12 and two from 1..8, so
every value has probability 1/4 per command.  The cutoff guard currently
gives a false FAIL (exit 2) whenever k_max >= 9; those operations count as
failed but are a recorded defect, so they do not make the run incorrect.
The stratification makes that error rate exactly 1/21 in every run,
whatever the seed and however many rounds fit in the run.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from common import Outcome, cli_startup_s, closed_loop, p25, p90, run_process
from layers import instrument, per_layer_metrics
from tracer import Tracer

KINDS = ("normalize", "rho", "boxplus", "k0-bundle", "k0-exactness", "linebundle",
         "oracle-verify")
N_MAX = 6
MULT_MAX = 50
ORACLE_K_MAX = 12
ORACLE_CUTOFFS = [8, 16, 32]
# known defect: rho_numeric returns inf for a finite block larger than its
# first cutoff (8), so oracle-verify fails every k_max above it
ORACLE_DEFECT_K_MIN = 9
BLOCKS_PER_ROUND = 3  # one oracle-verify per block
ROUNDS = 60  # rounds generated per seed; a run cycles through them
TRACE_ROUNDS = 17  # in-process rounds per traced pass


class Command(NamedTuple):
    args: tuple
    expected: object  # the JSON document stdout must hold
    known_defect: bool = False


def absorb(terms):
    """Normal form (j, k) of a sum of P[j, k] terms: the lowest level wins."""
    j = min(t[0] for t in terms)
    return j, sum(k for jj, k in terms if jj == j)


def _expr(terms):
    return " (+) ".join(f"P[{j},{k}]" for j, k in terms)


def _terms(rng, n, count):
    return [(rng.randint(0, n), rng.randint(1, MULT_MAX)) for _ in range(count)]


def _bundle_mult(n, k):
    return [math.comb(k + j - 1, j) for j in range(n + 1)]


def make_command(rng, kind, k_max):
    """One command of ``kind``; ``k_max`` is used by oracle-verify only."""
    if kind in ("normalize", "rho"):
        n = rng.randint(0, N_MAX)
        terms = _terms(rng, n, rng.randint(1, 4))
        j, k = absorb(terms)
        expected = ({"n": n, "j": j, "k": k} if kind == "normalize"
                    else [0] * j + [k] + ["inf"] * (n - j))
        return Command((kind, "--n", str(n), _expr(terms)), expected)
    if kind == "boxplus":
        n = rng.randint(0, N_MAX)
        left, right = _terms(rng, n, rng.randint(1, 3)), _terms(rng, n, rng.randint(1, 3))
        j, k = absorb(left + right)
        return Command(("boxplus", "--n", str(n), _expr(left), _expr(right)),
                       {"n": n, "j": j, "k": k})
    if kind == "k0-bundle":
        n, k = rng.randint(1, N_MAX), rng.randint(-1, MULT_MAX)
        if k >= 1:
            coords = _bundle_mult(n, k)
        else:  # the identity, or the alternating corner class at k = -1
            coords = [1, k] + [0] * (n - 1)
        return Command(("k0", "--n", str(n), "--bundle", str(k)),
                       {"n": n, "coords": coords})
    if kind == "linebundle":
        n, k = rng.randint(1, N_MAX), rng.randint(-MULT_MAX, MULT_MAX)
        expected = ({"n": n, "k": k, "kind": "corner", "m": -k} if k <= 0 else
                    {"n": n, "k": k, "kind": "multiset", "mult": _bundle_mult(n, k)})
        return Command(("linebundle", "--n", str(n), "--k", str(k)), expected)
    if kind == "k0-exactness":
        # restriction drops the top level: kernel of rank 1, onto n levels
        n = rng.randint(1, N_MAX)
        return Command(("k0", "--n", str(n), "--exactness"), {
            "check": "k0-exactness",
            "params": {"n": n, "applicable": True, "kernel_rank": 1},
            "domain_size": n + 1, "image_size": n, "pass": True,
            "counterexample": None})
    if kind == "oracle-verify":
        # the zero class plus (n + 1) * k_max classes at every n
        n_max = rng.randint(1, N_MAX)
        size = sum(1 + (n + 1) * k_max for n in range(1, n_max + 1))
        return Command(("oracle-verify", "--n-max", str(n_max), "--k-max", str(k_max)), {
            "check": "oracle-agreement",
            "params": {"n_max": n_max, "k_max": k_max, "cutoffs": ORACLE_CUTOFFS},
            "domain_size": size, "image_size": None, "pass": True,
            "counterexample": None}, k_max >= ORACLE_DEFECT_K_MIN)
    raise ValueError(f"unknown command kind {kind!r}")


def round_k_maxes(rng):
    """The oracle --k-max values of one round: one at or above the defect,
    the others below it, in a seeded order."""
    ks = [rng.randint(ORACLE_DEFECT_K_MIN, ORACLE_K_MAX)]
    ks += [rng.randint(1, ORACLE_DEFECT_K_MIN - 1) for _ in range(BLOCKS_PER_ROUND - 1)]
    rng.shuffle(ks)
    return ks


def make_round(rng):
    """Blocks of every kind once, each block in a seeded order."""
    commands = []
    for k_max in round_k_maxes(rng):
        block = list(KINDS)
        rng.shuffle(block)
        commands += [make_command(rng, kind, k_max) for kind in block]
    return commands


def make_mix(seed, rounds=ROUNDS):
    """A list of ``rounds`` rounds of commands."""
    rng = random.Random(seed)
    return [make_round(rng) for _ in range(rounds)]


def setup(workload, seed):
    import qproj  # noqa: F401  (importing is part of the measured set-up)

    return make_mix(seed)


def is_correct(cmd, status, stdout):
    if status != 0:
        return False
    try:
        return json.loads(stdout) == cmd.expected
    except ValueError:
        return False


def _count(out, cmd, ok):
    out.count(1, not ok, not ok and not cmd.known_defect)


def measure(mix, seconds):
    out = Outcome()
    lat, rss = [], []
    rounds = itertools.cycle(mix)

    def one_round():
        for cmd in next(rounds):
            proc = run_process([sys.executable, "-m", "qproj.cli", *cmd.args,
                                "--format", "json"])
            lat.append(proc.seconds * 1e3)
            rss.append(proc.rss_mb)
            _count(out, cmd, is_correct(cmd, proc.status, proc.stdout))

    closed_loop(one_round, seconds)
    out.metrics = {"op_ms_p25": p25(lat), "op_ms_p90": p90(lat),
                   "peak_rss_mb": max(rss)}
    return out


def run_in_process(cli, cmd):
    """(status, stdout) of ``cli.main`` on the command, as the process would give."""
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        status = cli.main([*cmd.args, "--format", "json"])
    return status, stdout.getvalue()


def trace(mix, spans_path):
    from qproj import cli

    out = Outcome()
    commands = [cmd for r in mix[:TRACE_ROUNDS] for cmd in r]

    def timed_pass(tracer=None):
        start = time.perf_counter()
        for cmd in commands:
            if tracer is None:
                status, stdout = run_in_process(cli, cmd)
            else:
                with tracer.span(f"cli.main.{cmd.args[0]}"):
                    status, stdout = run_in_process(cli, cmd)
            _count(out, cmd, is_correct(cmd, status, stdout))
        return time.perf_counter() - start

    untraced = timed_pass()
    tracer = Tracer()
    instrument(tracer)
    try:
        traced = timed_pass(tracer)
    finally:
        tracer.restore()
    tracer.write(spans_path, untraced_s=untraced, traced_s=traced)
    out.metrics = per_layer_metrics(tracer, traced - untraced, cli_startup_s())
    return out
