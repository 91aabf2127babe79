"""Metric names and units, and the per-layer figures computed from a trace.

The layers are qproj's modules.  ``extnat`` and ``reports`` have no entry
point a workload spends measurable time in; their cost shows inside
``projections`` and ``suite``.  A layer a workload does not exercise
reports 0 (no calls, no time) on that workload.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "op_ms_p25": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

SUITE_FAMILIES = ("monoid", "rho-injectivity", "cancellation", "bundle-recursion",
                  "hockey-stick", "k0", "groupoid", "oracle", "terminal", "random")
GROUPOID_KINDS = ("partition", "theta-neg", "theta-shift", "theta-peel",
                  "theta-terminal", "gamma", "t")
CLI_COMMANDS = ("normalize", "rho", "boxplus", "k0", "linebundle", "oracle-verify")
# public functions timed per call: (module, function)
CALLS = (
    ("projections", "normalize_expression"),
    ("projections", "rho"),
    ("projections", "boxplus"),
    ("line_bundles", "closed_form"),
    ("line_bundles", "k0_class"),
    ("k_theory", "check_exactness"),
    ("oracle", "rho_numeric"),
)


def _per_layer_units():
    units = {"cli.interpreter_s": "s", "cli.import_s": "s"}
    units.update({f"cli.main.{c}.us": "us" for c in CLI_COMMANDS})
    units.update({f"suite.{f}.s": "s" for f in SUITE_FAMILIES})
    units.update({"suite.critical_path_s": "s", "suite.jobs2_overhead_s": "s"})
    for kind in GROUPOID_KINDS:
        units[f"groupoid.{kind}.s"] = "s"
        units[f"groupoid.{kind}.rows_per_s"] = "1/s"
    units.update({"groupoid.terminal-counts.s": "s", "groupoid.rows": "count",
                  "groupoid.rss_mb": "MB", "groupoid.failed": "count",
                  "groupoid.raised": "count"})
    units.update({f"{m}.{f}.us": "us" for m, f in CALLS})
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def _report_outcome(report):
    rows = (report.domain_size or 0) + (report.image_size or 0)
    return rows, report.passed


def instrument(tracer):
    """Wrap the public functions every per-layer metric is read from."""
    from qproj import groupoid, k_theory, line_bundles, oracle, projections, suite

    modules = {"projections": projections, "line_bundles": line_bundles,
               "k_theory": k_theory, "oracle": oracle}
    for mod, fn in CALLS:
        tracer.wrap(modules[mod], fn, f"{mod}.{fn}")
    tracer.wrap(groupoid, "verify_bijection",
                lambda map_id, *a, **kw: f"groupoid.{map_id}",
                outcome=_report_outcome, rss=True)
    tracer.wrap(groupoid, "verify_partition", "groupoid.partition",
                outcome=_report_outcome, rss=True)
    tracer.wrap(groupoid, "verify_terminal_counts", "groupoid.terminal-counts",
                outcome=_report_outcome, rss=True)
    # the calculator reaches the oracle family through this function
    tracer.wrap(suite, "oracle_agreement_checks", "suite.oracle")


def per_layer_metrics(tracer, overhead_s, cli_startup=(0.0, 0.0), jobs2_wall_s=None):
    """Every per-layer metric, from the trace and the separately timed parts."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["cli.interpreter_s"], m["cli.import_s"] = cli_startup
    for c in CLI_COMMANDS:
        m[f"cli.main.{c}.us"] = _mean_us(tracer.totals_for(f"cli.main.{c}"))
    families = [tracer.totals_for(f"suite.{f}").entry_seconds for f in SUITE_FAMILIES]
    for f, s in zip(SUITE_FAMILIES, families):
        m[f"suite.{f}.s"] = s
    m["suite.critical_path_s"] = max(families)
    if jobs2_wall_s is not None:
        m["suite.jobs2_overhead_s"] = jobs2_wall_s - m["suite.critical_path_s"]
    groupoid = [f"groupoid.{k}" for k in GROUPOID_KINDS] + ["groupoid.terminal-counts"]
    for name in groupoid:
        t = tracer.totals_for(name)
        m[f"{name}.s"] = t.entry_seconds
        if name != "groupoid.terminal-counts":
            m[f"{name}.rows_per_s"] = t.rows / t.entry_seconds if t.entry_seconds else 0.0
        m["groupoid.rows"] += t.rows
        m["groupoid.failed"] += t.failed
        m["groupoid.raised"] += t.raised
        m["groupoid.rss_mb"] = max(m["groupoid.rss_mb"], t.rss_mb)
    for mod, fn in CALLS:
        m[f"{mod}.{fn}.us"] = _mean_us(tracer.totals_for(f"{mod}.{fn}"))
    m["trace.overhead_s"] = overhead_s
    return m


def _mean_us(totals):
    return totals.entry_seconds / totals.entry_calls * 1e6 if totals.entry_calls else 0.0
