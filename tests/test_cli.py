"""The qproj command line: outputs, formats, and exit code contract."""

import hashlib
import importlib
import importlib.metadata
import inspect
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qproj
from qproj import cli, groupoid, suite
from qproj.reports import VerifyReport

REPORT_KEYS = {"check", "params", "domain_size", "image_size", "pass",
               "counterexample"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCalculators:
    def test_normalize_table(self, capsys):
        code, out, _ = run_cli(capsys, "normalize",
                               "P[3,1] (+) P[1,2] (+) P[1,1]", "--n", "3")
        assert code == 0 and out.strip() == "P[1,3]"

    def test_normalize_json(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "P[1,2](+)P[0,3]",
                               "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "j": 0, "k": 3}

    def test_rho_formats(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "P[2,3]", "--n", "3")
        assert code == 0 and out.strip() == "[0, 0, 3, inf]"
        code, out, _ = run_cli(capsys, "rho", "P[2,3]", "--n", "3",
                               "--format", "json")
        assert json.loads(out) == [0, 0, 3, "inf"]

    def test_boxplus(self, capsys):
        code, out, _ = run_cli(capsys, "boxplus", "P[1,2]", "P[2,5]", "--n", "3")
        assert code == 0 and out.strip() == "P[1,2]"
        code, out, _ = run_cli(capsys, "boxplus", "P[1,2] (+) P[0,1]", "P[1,4]",
                               "--n", "3")
        assert out.strip() == "P[0,1]"

    def test_k0_modes(self, capsys):
        code, out, _ = run_cli(capsys, "k0", "--n", "2", "--bundle", "3",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "coords": [1, 3, 6]}
        code, out, _ = run_cli(capsys, "k0", "--n", "3", "--generator", "1")
        assert out.strip() == "[0, 1, 0, 0]"
        code, out, _ = run_cli(capsys, "k0", "--n", "3", "--iota", "5")
        assert out.strip() == "[0, 0, 0, 5]"
        code, out, _ = run_cli(capsys, "k0", "--n", "3", "--nu", "4,-2,7,1")
        assert out.strip() == "[4, -2, 7]"
        code, out, _ = run_cli(capsys, "k0", "P[0,2] (+) P[1,5]", "--n", "2")
        assert out.strip() == "2"

    def test_k0_exactness(self, capsys):
        code, out, _ = run_cli(capsys, "k0", "--n", "3", "--exactness")
        assert code == 0 and out.startswith("PASS k0-exactness")
        code, out, _ = run_cli(capsys, "k0", "--n", "3", "--exactness",
                               "--format", "json")
        blob = json.loads(out)
        assert set(blob) == REPORT_KEYS and blob["pass"]

    def test_linebundle(self, capsys):
        code, out, _ = run_cli(capsys, "linebundle", "--n", "2", "--k", "-3")
        assert code == 0 and "corner projection at depth 3" in out
        code, out, _ = run_cli(capsys, "linebundle", "--n", "2", "--k", "3",
                               "--format", "json")
        assert json.loads(out) == {"n": 2, "k": 3, "kind": "multiset",
                                   "mult": [1, 3, 6]}
        code, out, _ = run_cli(capsys, "linebundle", "--n", "2", "--k", "2")
        assert "6 classes" in out and "3 x P[2,1]" in out


class TestLongIntegers:
    """Exact integers longer than Python's int/str digit limit (4,300 digits
    by default) are parsed and printed, and ``main`` restores the limit."""

    @staticmethod
    def digit_limit():
        return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0

    def run(self, capsys, *argv):
        before = self.digit_limit()
        code, out, err = run_cli(capsys, *argv)
        assert self.digit_limit() == before
        return code, out, err

    def test_long_multiplicity(self, capsys):
        nines = "9" * 5000
        assert self.run(capsys, "normalize", "--n", "2", f"P[1,{nines}]") == (
            0, f"P[1,{nines}]\n", "")

    def test_long_sum(self, capsys):
        nines = "9" * 4300
        code, out, err = self.run(capsys, "normalize", "--n", "2",
                                  f"P[1,{nines}] (+) P[1,{nines}]", "--format", "json")
        # 2 * (10**4300 - 1), 4,301 digits
        assert (code, err) == (0, "")
        assert out == '{"n": 2, "j": 1, "k": 1' + "9" * 4299 + '8}\n'

    def test_long_linebundle(self, capsys):
        k = 10 ** 2200  # C(k + 1, 2) has 4,400 digits
        code, json_out, _ = self.run(capsys, "linebundle", "--n", "2", "--k", str(k),
                                     "--format", "json")
        assert code == 0
        code, table, _ = self.run(capsys, "linebundle", "--n", "2", "--k", str(k))
        assert code == 0
        mult = [math.comb(k + j - 1, j) for j in range(3)]
        limit = self.digit_limit()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert len(str(mult[2])) == 4400
            assert json.loads(json_out)["mult"] == mult
            assert table.endswith(f"{mult[1]} x P[1,1] (+) {mult[2]} x P[2,1]\n")
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_limit_restored_after_a_refusal(self, capsys):
        code, _, err = self.run(capsys, "normalize", "--n", "-1", "P[0,1]")
        assert code == 1 and err.startswith("error: ")


class TestValidationExitCode:
    CASES = [
        ("normalize", "garbage", "--n", "2"),
        ("normalize", "P[5,1]", "--n", "2"),
        ("normalize", "P[1,2]"),                      # missing --n
        ("no-such-command",),
        ("k0", "--n", "2"),                           # no mode picked
        ("k0", "P[0,1]", "--n", "2", "--bundle", "1"),
        ("k0", "--n", "2", "--nu", "1,x"),
        ("linebundle", "--n", "0", "--k", "1"),
        ("groupoid-verify", "--n", "2", "--map", "partition"),
        ("groupoid-verify", "--n", "2", "--map", "theta-neg", "--k", "1"),
        ("groupoid-verify", "--n", "2", "--window", "0"),
        ("groupoid-verify", "--n", "0"),
        ("groupoid-verify", "--n", "-3"),
        ("oracle-verify", "--n-max", "0"),
        ("oracle-verify", "--n-max", "-2", "--k-max", "0"),
        ("oracle-verify", "--n-max", "1", "--k-max", "-1"),
        ("oracle-verify", "--n-max", "1", "--k-max", "10"),  # depth past cutoff
        ("rho", "P[1,2]", "--n", "2", "--format", "xml"),
        ("verify-all", "--jobs", "0"),
        ("verify-all", "--jobs", "-2"),
    ]

    @pytest.mark.parametrize("argv", CASES)
    def test_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err  # some diagnostic is printed

    @pytest.mark.parametrize("cap", ["many", "0"])
    def test_bad_job_cap_refused(self, capsys, monkeypatch, cap):
        # the worker count comes from --jobs, and a bad one is refused
        # before any family runs
        monkeypatch.setattr(suite, "_FAMILIES", {})
        code, out, err = run_cli(capsys, "verify-all", "--jobs", cap,
                                 "--format", "json")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "job" in err

    def test_job_cap_variable_is_not_read(self, capsys, monkeypatch):
        # --jobs alone sets the worker count; the variable is left unread
        monkeypatch.setenv("QPROJ_JOBS", "0")
        monkeypatch.setattr(suite, "_FAMILIES", {
            name: (lambda *args, name=name: [VerifyReport(name, {}, True)])
            for name in suite.GROUP_NAMES})
        code, out, err = run_cli(capsys, "verify-all", "--jobs", "1")
        assert code == 0 and out.count("PASS") == len(suite.GROUP_NAMES)
        assert err == f"{len(suite.GROUP_NAMES)}/{len(suite.GROUP_NAMES)} checks passed\n"

    def test_internal_fault_is_one_error_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_normalize", broken)
        code, out, err = run_cli(capsys, "normalize", "P[1,2]", "--n", "2")
        assert code == 1 and out == ""
        assert err == "error: internal error: RuntimeError: boom\n"

    def test_unknown_map_is_one_error_naming_every_id(self, capsys):
        code, out, err = run_cli(capsys, "groupoid-verify", "--n", "1",
                                 "--map", "bogus")
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert all(repr(map_id) in lines[0] for map_id in groupoid.MAP_IDS)

    def test_unknown_map_error_lists_the_partition(self, capsys):
        # the command accepts the partition as well as the maps
        code, out, err = run_cli(capsys, "groupoid-verify", "--n", "1", "--map", "bogus")
        ids = ("partition", *groupoid.MAP_IDS)
        assert err == f"error: unknown map id 'bogus'; expected one of {ids}\n"

    @pytest.mark.parametrize("argv,message", [
        # the record used to echo k and j although no check read them
        (("--map", "t", "--k", "3", "--j", "9"), "t takes no parameter k, got k=3"),
        (("--map", "theta-terminal", "--l", "1", "--k", "2"),
         "theta-terminal takes no parameter k"),
        (("--map", "gamma", "--k", "1", "--l", "0"), "gamma takes no parameter l"),
        (("--map", "all", "--k", "7"), "--map all sweeps every parameter; it takes no --k"),
        (("--map", "all", "--j", "0", "--l", "1"),
         "--map all sweeps every parameter; it takes no --j, --l"),
        (("--map", "partition", "--k", "1", "--j", "0", "--l", "5"),
         "partition takes no parameter l, got l=5"),
    ])
    def test_parameter_a_map_does_not_take_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "groupoid-verify", "--n", "1",
                                 "--window", "2", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [("--n", "1", "--window", "500"),
                                      ("--n", "3", "--map", "gamma", "--k", "1",
                                       "--window", "500"),
                                      ("--n", "1", "--map", "t", "--window", "1000000")],
                             ids=" ".join)
    def test_oversized_window_is_refused(self, capsys, argv):
        """A window of 500 or of 10**6 has a pair table of more than 2**18
        pairs: one error line, before any table is built."""
        code, out, err = run_cli(capsys, "groupoid-verify", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: a window coordinate of ") and len(err.splitlines()) == 1
        assert "exceeds the limit of 262144" in err


class TestVerifiers:
    def test_single_map_table(self, capsys):
        code, out, _ = run_cli(capsys, "groupoid-verify", "--n", "1",
                               "--map", "t", "--window", "4")
        assert code == 0
        assert out.strip().startswith("PASS bijection map=t")

    def test_single_partition_json(self, capsys):
        code, out, _ = run_cli(capsys, "groupoid-verify", "--n", "1",
                               "--map", "partition", "--k", "1", "--j", "0",
                               "--window", "4", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert set(blob) == REPORT_KEYS
        assert blob["check"] == "partition" and blob["pass"]

    @staticmethod
    def matches_committed_digest(capsys, n, records):
        """The records of the n sweep at the default window, checked per
        axis, are the bytes committed in tests/groupoid_verify_n<n>.sha256."""
        code, out, _ = run_cli(capsys, "groupoid-verify", "--n", str(n), "--format", "json")
        digest, *argv = (REPO / "tests" / f"groupoid_verify_n{n}.sha256").read_text().split()
        assert argv == ["groupoid-verify", "--n", str(n), "--format", "json"]
        assert code == 0 and len(out.splitlines()) == records
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_n4_sweep_matches_committed_digest(self, capsys):
        self.matches_committed_digest(capsys, 4, 256)

    @pytest.mark.parametrize("n,records", [(5, 365), (6, 492)])
    def test_wider_sweeps_match_committed_digests(self, capsys, n, records):
        # regression pins of the engine's own output, not an independent check
        self.matches_committed_digest(capsys, n, records)

    def test_all_maps_small(self, capsys):
        code, out, _ = run_cli(capsys, "groupoid-verify", "--n", "1",
                               "--window", "2", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) > 10
        assert all(set(r) == REPORT_KEYS and r["pass"] for r in records)

    def test_oracle_verify(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-verify", "--n-max", "2",
                               "--k-max", "4", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["check"] == "oracle-agreement" and blob["pass"]

    @pytest.mark.parametrize("map_id,entry", [("t", groupoid.verify_bijection),
                                              ("all", suite.groupoid_checks)])
    def test_groupoid_verify_default_window_is_the_librarys(self, capsys, map_id, entry):
        # the command writes no window of its own
        default = inspect.signature(entry).parameters["window"].default
        code, out, _ = run_cli(capsys, "groupoid-verify", "--n", "1", "--map", map_id,
                               "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["params"]["W"] == default for r in records)

    def test_oracle_verify_defaults_are_the_suites(self, capsys):
        # the command writes no range of its own
        code, out, _ = run_cli(capsys, "oracle-verify", "--format", "json")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            r.to_json() for r in suite.oracle_agreement_checks()]

    def test_oracle_refuses_cutoff_below_multiplicity(self, capsys):
        # multiplicity 9 exceeds the first cutoff 8: a refusal, not a FAIL
        code, out, err = run_cli(capsys, "oracle-verify", "--n-max", "1",
                                 "--k-max", "10", "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("error: a factor of depth 9 exceeds the first cutoff 8")

    def test_verify_all_ndjson_and_exit(self, capsys, monkeypatch):
        fake = [
            VerifyReport("alpha", {"n": 1}, True, 3, 3),
            VerifyReport("beta", {"n": 2}, False,
                         counterexample={"kind": "gap"}),
        ]
        monkeypatch.setattr(suite, "run_all", lambda seed, jobs: fake)
        code, out, err = run_cli(capsys, "verify-all", "--format", "json")
        assert code == 2
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["check"] for r in records] == ["alpha", "beta"]
        assert all(set(r) == REPORT_KEYS for r in records)
        assert "1/2 checks passed" in err

    def test_verify_all_green_exit(self, capsys, monkeypatch):
        fake = [VerifyReport("alpha", {}, True)]
        monkeypatch.setattr(suite, "run_all", lambda seed, jobs: fake)
        code, out, err = run_cli(capsys, "verify-all")
        assert code == 0
        assert out.strip().startswith("PASS alpha")
        assert "1/1 checks passed" in err

    @staticmethod
    def spy_run_all(monkeypatch):
        seen = {}

        def spy(seed, jobs):
            seen["seed"], seen["jobs"] = seed, jobs
            return [VerifyReport("alpha", {}, True)]

        monkeypatch.setattr(suite, "run_all", spy)
        return seen

    def test_verify_all_passes_seed_and_jobs(self, capsys, monkeypatch):
        seen = self.spy_run_all(monkeypatch)
        run_cli(capsys, "verify-all", "--seed", "99", "--jobs", "2")
        assert seen == {"seed": 99, "jobs": 2}

    def test_verify_all_default_seed(self, capsys, monkeypatch):
        seen = self.spy_run_all(monkeypatch)
        run_cli(capsys, "verify-all")
        assert seen == {"seed": suite.DEFAULT_SEED, "jobs": None}


REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"
DEMOS = sorted((REPO / "demos").glob("*.py"))
# sha256 of each demo's stdout, as `sha256sum` writes it
DEMO_DIGESTS = {name: digest for digest, name in (
    line.split() for line in (REPO / "tests" / "demo_stdout.sha256").read_text().splitlines())}
CALCULATOR_DEMOS = ("01_projection_calculator.py", "02_k_theory_maps.py",
                    "03_line_bundles.py")
EXPECTED = REPO / "perfbench" / "expected"
RHO_ARGS = ("rho", "P[1,2]", "--n", "2", "--format", "json")

# What pip writes as the `qproj` script for a [project.scripts] entry
# "module:func".
WRAPPER = """\
import sys
from {module} import {func}
sys.argv[0] = "qproj"
sys.exit({func}())
"""


# `python -m qproj.cli ARGS` from the rest of argv, with the child's address
# space capped at 1 GiB: a large input that escaped its check fails there
# instead of taking the machine's memory.
CAPPED_CLI = (
    "import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "runpy.run_module('qproj.cli', run_name='__main__', alter_sys=True)")


def run_child(*argv, stdout=subprocess.PIPE, timeout=300, **env):
    """Run argv with the checkout of the imported qproj first on PYTHONPATH,
    so the child never picks up an older install or a foreign path; ``env``
    sets further variables.  A child still running after ``timeout``
    seconds is killed and fails the test with ``TimeoutExpired``."""
    source_root = str(Path(qproj.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source_root, inherited] if inherited else [source_root]), **env)
    return subprocess.run(list(argv), stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=timeout)


def declared_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["qproj"]


class TestConsoleScript:
    def test_installed_entry_point(self):
        """The script an install makes from pyproject.toml works, and passes
        main's exit code through sys.exit."""
        entry = declared_entry_point()
        try:
            dist = importlib.metadata.distribution("qproj")
        except importlib.metadata.PackageNotFoundError:
            pass
        else:
            scripts = {ep.name: ep.value for ep in dist.entry_points
                       if ep.group == "console_scripts"}
            assert scripts.get("qproj") == entry
        module, _, func = entry.partition(":")
        wrapper = WRAPPER.format(module=module, func=func)

        proc = run_child(sys.executable, "-c", wrapper, *RHO_ARGS)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 2, "inf"]

        proc = run_child(sys.executable, "-c", wrapper, "rho", "P[1,2", "--n", "2")
        assert proc.returncode == 1
        assert any(line.startswith("error:") for line in proc.stderr.splitlines())

    @pytest.mark.skipif(shutil.which("qproj") is None,
                        reason="no qproj console script on PATH (package not installed)")
    def test_console_script_on_path(self):
        proc = run_child("qproj", *RHO_ARGS)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == [0, 2, "inf"]

    def test_module_invocation(self):
        proc = run_child(sys.executable, "-m", "qproj.cli", "normalize", "P[0,1]",
                         "--n", "1")
        assert proc.returncode == 0 and proc.stdout.strip() == "P[0,1]"

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ("normalize", "P[1,2]", "--n", "2"),
        ("groupoid-verify", "--n", "3", "--format", "json"),
        ("verify-all", "--jobs", "1"),
    ], ids=lambda argv: argv[0])
    def test_closed_stdout_is_a_quiet_exit_one(self, argv, unbuffered):
        """A stdout whose reader has left, as in `qproj ... | head -n 1`,
        is no internal fault: nothing is printed and the status is 1."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_child(sys.executable, "-m", "qproj.cli", *argv,
                             stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.parametrize("k", ["1000000", "99999999999999999999"])
    def test_oversized_partition_is_refused_at_once(self, k):
        """A partition whose cut coordinate is over the limit is refused
        before its k + 1 pieces are built: within a second, in a child
        whose memory is capped, with one error line."""
        proc = run_child(sys.executable, "-c", CAPPED_CLI, "groupoid-verify", "--n", "1",
                         "--map", "partition", "--k", k, "--j", "0", "--window", "1",
                         timeout=1)
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: a window coordinate of ")
        assert line.endswith("pairs exceeds the limit of 262144; use a smaller window")

    def test_optimized_interpreter_gives_same_records(self):
        """No verdict rests on an assert: ``python -O`` prints the same
        records, here for a window with offsets up to 38."""
        argv = ("-m", "qproj.cli", "groupoid-verify", "--n", "1", "--map",
                "theta-shift", "--k", "30", "--j", "0", "--window", "8",
                "--format", "json")
        plain = run_child(sys.executable, *argv)
        optimized = run_child(sys.executable, "-O", *argv)
        assert plain.returncode == optimized.returncode == 0, plain.stderr
        assert plain.stdout == optimized.stdout
        record = json.loads(plain.stdout)
        assert record["pass"] and record["domain_size"] == record["image_size"] == 153


# Child-interpreter prefixes that make numpy unimportable, then run
# `python -m qproj.cli ARGS` or `python SCRIPT` from the rest of argv: a
# command that reached numpy would fail instead of printing its result.
BLOCK_NUMPY = "import runpy, sys; sys.modules['numpy'] = None; "
CLI_WITHOUT_NUMPY = BLOCK_NUMPY + (
    "runpy.run_module('qproj.cli', run_name='__main__', alter_sys=True)")
SCRIPT_WITHOUT_NUMPY = BLOCK_NUMPY + (
    "sys.argv.pop(0); runpy.run_path(sys.argv[0], run_name='__main__')")

# A family that reports which heavy modules its worker already holds,
# run twice through the process pool from a fresh interpreter.  The pool
# imports groupoid before it forks, and nothing imports numpy.
FORK_PROBE = """\
import sys
from qproj import suite
from qproj.reports import VerifyReport

def probe():
    loaded = [m for m in ("numpy", "qproj.groupoid") if m in sys.modules]
    return [VerifyReport("probe", {"loaded": loaded}, True)]

suite._FAMILIES["probe"] = probe
suite.GROUP_NAMES = ("probe", "probe")
for report in suite.run_all(jobs=2):
    print(report.params["loaded"])
"""

CALCULATOR_COMMANDS = [
    ("normalize", "P[1,2] (+) P[0,3]", "--n", "2"),
    ("rho", "P[1,2]", "--n", "2", "--format", "json"),
    ("boxplus", "P[1,2]", "P[2,5]", "--n", "3"),
    ("k0", "P[0,2] (+) P[1,1]", "--n", "2"),
    ("k0", "--n", "3", "--bundle", "2"),
    ("k0", "--n", "3", "--generator", "1"),
    ("k0", "--n", "3", "--iota", "2"),
    ("k0", "--n", "3", "--nu", "1,2,3,4", "--format", "json"),
    ("k0", "--n", "3", "--exactness"),
    ("linebundle", "--n", "2", "--k", "3"),
    ("oracle-verify", "--n-max", "2", "--k-max", "4"),
    ("groupoid-verify", "--n", "2"),
    ("--help",),
]


class TestCalculatorsWithoutNumpy:
    """The calculators, oracle-verify, groupoid-verify and the package
    import never load numpy; the package import, the calculators and
    oracle-verify load no groupoid engine or process pool either."""

    @pytest.mark.parametrize("argv", CALCULATOR_COMMANDS, ids=" ".join)
    def test_same_output_with_numpy_blocked(self, argv):
        plain = run_child(sys.executable, "-m", "qproj.cli", *argv)
        blocked = run_child(sys.executable, "-c", CLI_WITHOUT_NUMPY, *argv)
        assert plain.returncode == 0 and plain.stdout, plain.stderr
        assert (blocked.returncode, blocked.stdout) == (0, plain.stdout), blocked.stderr

    def test_import_loads_no_numpy(self):
        heavy = ("numpy", "qproj.groupoid", "concurrent.futures.process")
        proc = run_child(sys.executable, "-c",
                         f"import sys, qproj, qproj.cli; "
                         f"print([m for m in {heavy!r} if m in sys.modules])")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_oracle_verify_loads_no_groupoid(self):
        heavy = ("numpy", "qproj.groupoid", "concurrent.futures.process")
        proc = run_child(sys.executable, "-c",
                         f"import sys; from qproj import cli; "
                         f"cli.main(['oracle-verify', '--n-max', '2', '--k-max', '4']); "
                         f"print([m for m in {heavy!r} if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_groupoid_import_loads_no_other_family(self):
        """groupoid reads its default windows from suite, which imports the
        modules of the other families only when they run.  -S keeps site
        from importing random before the probe does."""
        heavy = ("numpy", "random", "qproj.oracle", "qproj.k_theory",
                 "qproj.line_bundles")
        proc = run_child(sys.executable, "-S", "-c",
                         f"import sys, qproj.groupoid; "
                         f"print([m for m in {heavy!r} if m in sys.modules])")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_bare_import_loads_no_submodule(self):
        proc = run_child(sys.executable, "-c", "import sys, qproj; "
                         "print([m for m in sys.modules if m.startswith('qproj.')])")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    @pytest.mark.parametrize("argv", [c for c in CALCULATOR_COMMANDS if c[0] in (
        "normalize", "rho", "boxplus", "k0", "linebundle")], ids=" ".join)
    def test_calculator_loads_no_oracle(self, argv):
        heavy = ("numpy", "qproj.groupoid", "qproj.suite", "qproj.oracle")
        proc = run_child(sys.executable, "-c",
                         f"import sys; from qproj import cli; cli.main(sys.argv[1:]); "
                         f"print([m for m in {heavy!r} if m in sys.modules])", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv", CALCULATOR_COMMANDS, ids=" ".join)
    def test_command_starts_without_dataclasses(self, argv):
        """No command loads dataclasses, inspect or typing, and the
        projection calculators load no K-theory, line-bundle or report
        code.  -S keeps site from importing modules before the probe does."""
        heavy = ["dataclasses", "inspect", "typing"]
        if argv[0] in ("normalize", "rho", "boxplus"):
            heavy += ["qproj.k_theory", "qproj.line_bundles", "qproj.reports"]
        probe = ("import sys\nfrom qproj import cli\ntry:\n    cli.main(sys.argv[1:])\n"
                 f"finally:\n    print([m for m in {heavy!r} if m in sys.modules])")
        proc = run_child(sys.executable, "-S", "-c", probe, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv,unused", [
        *((c, "qproj.line_bundles") for c in CALCULATOR_COMMANDS
          if c[0] == "k0" and "--bundle" not in c),
        *((c, "qproj.k_theory") for c in CALCULATOR_COMMANDS if c[0] == "linebundle"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_command_loads_only_what_it_calls(self, argv, unused):
        """k0 loads line_bundles only for --bundle, and linebundle loads no
        K-theory code."""
        probe = ("import sys\nfrom qproj import cli\ntry:\n    cli.main(sys.argv[1:])\n"
                 f"finally:\n    print({unused!r} in sys.modules)")
        proc = run_child(sys.executable, "-S", "-c", probe, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_lazy_names_resolve(self):
        probe = ("from qproj import *; import qproj; "
                 "print([n for n in qproj.__all__ if n not in globals()]); "
                 "print(qproj.verify_bijection is qproj.groupoid.verify_bijection, "
                 "qproj.run_all is qproj.suite.run_all)")
        proc = run_child(sys.executable, "-c", probe)
        assert (proc.returncode, proc.stdout) == (0, "[]\nTrue True\n"), proc.stderr
        assert set(qproj.__all__) <= set(dir(qproj))
        with pytest.raises(AttributeError):
            getattr(qproj, "no_such_name")

    def test_exports_are_in_the_submodules_all(self):
        for name, exported in qproj._EXPORTS.items():
            module = importlib.import_module(f"qproj.{name}")
            if hasattr(module, "__all__"):
                assert set(exported) <= set(module.__all__), name
                assert all(hasattr(module, n) for n in module.__all__), name


class TestForkedWorkers:
    def assert_committed_output(self, proc):
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == "191/191 checks passed\n"  # and no warning
        digest, _ = (EXPECTED / "verify_all.sha256").read_text().split()
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags,jobs", [((), "2"), (("-O",), "2"), ((), "1"),
                                            (("-X", "dev", "-W", "error"), "2")],
                             ids=["plain", "-O", "jobs1", "dev-warnings-as-errors"])
    def test_records_match_committed_output(self, flags, jobs):
        """`verify-all` from a fresh interpreter prints the committed records
        with two workers, also under -O, which strips every assert, and under
        -X dev with every warning an error, and serially."""
        self.assert_committed_output(run_child(
            sys.executable, *flags, "-m", "qproj.cli", "verify-all", "--jobs", jobs,
            "--format", "json"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_records_match_committed_output_without_numpy(self, jobs):
        """Every family, the monoid and cancellation tables included, runs
        with numpy unimportable, serially and in forked workers."""
        self.assert_committed_output(run_child(
            sys.executable, "-c", CLI_WITHOUT_NUMPY, "verify-all", "--jobs", jobs,
            "--format", "json"))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit the parent's imports")
    def test_workers_inherit_groupoid(self):
        """A task in a `run_all` worker finds groupoid imported, and no numpy."""
        proc = run_child(sys.executable, "-c", FORK_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['qproj.groupoid']\n" * 2


class TestDocumentedExamples:
    def test_six_demos(self):
        assert len(DEMOS) == 6
        assert sorted(DEMO_DIGESTS) == [demo.name for demo in DEMOS]

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
    def test_demo_runs(self, demo):
        proc = run_child(sys.executable, str(demo))
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_DIGESTS[demo.name]
        if demo.name in CALCULATOR_DEMOS:
            # the calculator layer is numpy-free as a library, not only
            # through the command line
            blocked = run_child(sys.executable, "-c", SCRIPT_WITHOUT_NUMPY, str(demo))
            assert (blocked.returncode, blocked.stdout) == (0, proc.stdout), blocked.stderr

    def test_readme_quick_start(self):
        """The quick-start block prints what its comments say."""
        readme = (REPO / "README.md").read_text()
        block = readme.split("## Quick start", 1)[1]
        block = block.split("```python\n", 1)[1].split("```", 1)[0]
        expected = [line.split("#", 1)[1].strip().split("  ")[0]
                    for line in block.splitlines() if line.startswith("print(")]
        assert len(expected) == 3
        proc = run_child(sys.executable, "-c", block)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == expected
