"""The qproj command line: outputs, formats, and exit code contract."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qproj
from qproj import cli, suite
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
        monkeypatch.setenv("QPROJ_JOBS", cap)
        code, out, err = run_cli(capsys, "verify-all", "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("error: QPROJ_JOBS must be a positive integer")

    def test_internal_fault_is_one_error_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_normalize", broken)
        code, out, err = run_cli(capsys, "normalize", "P[1,2]", "--n", "2")
        assert code == 1 and out == ""
        assert err == "error: internal error: RuntimeError: boom\n"


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

    def test_verify_all_passes_seed_and_jobs(self, capsys, monkeypatch):
        seen = {}

        def spy(seed, jobs):
            seen["seed"], seen["jobs"] = seed, jobs
            return [VerifyReport("alpha", {}, True)]

        monkeypatch.setattr(suite, "run_all", spy)
        run_cli(capsys, "verify-all", "--seed", "99", "--jobs", "2")
        assert seen == {"seed": 99, "jobs": 2}
        run_cli(capsys, "verify-all")
        assert seen["seed"] == suite.DEFAULT_SEED and seen["jobs"] is None


REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"
DEMOS = sorted((REPO / "demos").glob("*.py"))
RHO_ARGS = ("rho", "P[1,2]", "--n", "2", "--format", "json")

# What pip writes as the `qproj` script for a [project.scripts] entry
# "module:func".
WRAPPER = """\
import sys
from {module} import {func}
sys.argv[0] = "qproj"
sys.exit({func}())
"""


def run_child(*argv):
    """Run argv with the checkout of the imported qproj first on PYTHONPATH,
    so the child never picks up an older install or a foreign path."""
    source_root = str(Path(qproj.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source_root, inherited] if inherited else [source_root]))
    return subprocess.run(list(argv), capture_output=True, text=True, env=env)


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


class TestDocumentedExamples:
    def test_six_demos(self):
        assert len(DEMOS) == 6

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
    def test_demo_runs(self, demo):
        proc = run_child(sys.executable, str(demo))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

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
