"""Command line front end.

Calculator subcommands (normalize, rho, boxplus, k0, linebundle) print a
single result; verification subcommands (groupoid-verify, oracle-verify,
verify-all) print one record per check and exit with status 2 if any
check fails.  Status 1 means the invocation itself was invalid; an
internal fault also exits 1, with one ``error: internal error:`` line on
stderr instead of a traceback.

Expressions use the grammar ``P[j,k] (+) P[j,k] (+) ...`` over an
ambient index given by --n; whitespace is insignificant.  With
--format json, calculators print one JSON document and verifiers print
newline-delimited JSON, one record per check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import QprojError

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; reserve 2 for failed checks
    def error(self, message):
        raise _UsageError(message)


def _add_format(sp):
    sp.add_argument("--format", choices=("json", "table"), default="table",
                    help="output style (default: table)")


def _add_expr(sp):
    sp.add_argument("expr", help="expression like 'P[1,2] (+) P[0,3]'")
    sp.add_argument("--n", type=int, required=True, help="ambient index")


def build_parser():
    parser = _Parser(prog="qproj",
                     description="projection-class and line-bundle calculators "
                                 "with exhaustive verification")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("normalize", help="fold an expression to normal form")
    _add_expr(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("rho", help="counting vector of an expression")
    _add_expr(sp)
    _add_format(sp)
    sp.set_defaults(func=_cmd_rho)

    sp = sub.add_parser("boxplus", help="diagonal sum of two expressions")
    sp.add_argument("left", help="expression like 'P[1,2]'")
    sp.add_argument("right", help="expression like 'P[2,5]'")
    sp.add_argument("--n", type=int, required=True, help="ambient index")
    _add_format(sp)
    sp.set_defaults(func=_cmd_boxplus)

    sp = sub.add_parser("k0", help="K-group computations in the level basis")
    sp.add_argument("--n", type=int, required=True, help="ambient index")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("expr", nargs="?", default=None,
                      help="sphere expression; prints its free rank")
    mode.add_argument("--bundle", type=int, metavar="K",
                      help="class of the degree-K line bundle")
    mode.add_argument("--generator", type=int, metavar="J",
                      help="level-basis generator e_J")
    mode.add_argument("--iota", type=int, metavar="M",
                      help="image of M under the inclusion of the top level")
    mode.add_argument("--nu", metavar="COORDS",
                      help="restrict a comma-separated vector one level down")
    mode.add_argument("--exactness", action="store_true",
                      help="check exactness of the inclusion-restriction pair")
    _add_format(sp)
    sp.set_defaults(func=_cmd_k0)

    sp = sub.add_parser("linebundle",
                        help="decompose a line bundle into sphere classes")
    sp.add_argument("--n", type=int, required=True, help="ambient index")
    sp.add_argument("--k", type=int, required=True, help="bundle degree")
    _add_format(sp)
    sp.set_defaults(func=_cmd_linebundle)

    sp = sub.add_parser("groupoid-verify",
                        help="windowed partition and bijection checks")
    sp.add_argument("--n", type=int, required=True, help="ambient index")
    sp.add_argument("--map", dest="map_id", default="all",
                    help="'all' (default), 'partition', or one map id")
    sp.add_argument("--k", type=int, default=None, help="degree parameter")
    sp.add_argument("--j", type=int, default=None, help="coordinate index")
    sp.add_argument("--l", type=int, default=None, help="shortfall / level")
    sp.add_argument("--window", type=int, default=None,
                    help="finite window half-width (default: the library's)")
    _add_format(sp)
    sp.set_defaults(func=_cmd_groupoid_verify)

    sp = sub.add_parser("oracle-verify",
                        help="numeric counting vectors vs symbolic ones")
    sp.add_argument("--n-max", type=int, default=None,
                    help="largest ambient index (default: the suite's)")
    sp.add_argument("--k-max", type=int, default=None,
                    help="largest multiplicity (default: the suite's)")
    _add_format(sp)
    sp.set_defaults(func=_cmd_oracle_verify)

    sp = sub.add_parser("verify-all", help="run every check family")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for randomized checks (default: "
                         "qproj.suite.DEFAULT_SEED)")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: cpu count), at most "
                         "one per check family")
    _add_format(sp)
    sp.set_defaults(func=_cmd_verify_all)

    return parser


def _print_result(args, payload, table_text):
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(table_text)


# Each command imports the modules it runs when it runs, so that a command
# loads none of the others' code.

def _cmd_normalize(args):
    from .projections import normalize_expression
    p = normalize_expression(args.expr, args.n)
    _print_result(args, p.to_json(), str(p))
    return 0


def _cmd_rho(args):
    from .projections import normalize_expression, rho
    vec = rho(normalize_expression(args.expr, args.n))
    table = "[" + ", ".join(str(e) for e in vec) + "]"
    _print_result(args, vec.to_json(), table)
    return 0


def _cmd_boxplus(args):
    from .projections import boxplus, normalize_expression
    p = boxplus(normalize_expression(args.left, args.n),
                normalize_expression(args.right, args.n))
    _print_result(args, p.to_json(), str(p))
    return 0


def _vector_table(v):
    return "[" + ", ".join(str(c) for c in v.coords) + "]"


def _cmd_k0(args):
    if args.expr is not None:
        from .projections import normalize_expression, rank
        r = rank(normalize_expression(args.expr, args.n))
        _print_result(args, {"rank": r}, str(r))
        return 0
    from . import k_theory
    if args.bundle is not None:
        from .line_bundles import k0_class
        v = k0_class(args.n, args.bundle)
    elif args.generator is not None:
        v = k_theory.generator(args.n, args.generator)
    elif args.iota is not None:
        v = k_theory.iota_star(args.n, args.iota)
    elif args.nu is not None:
        try:
            coords = tuple(int(c) for c in args.nu.split(","))
        except ValueError as exc:
            raise _UsageError(f"--nu expects comma-separated integers: {exc}")
        v = k_theory.nu_star(k_theory.K0Vector(args.n, coords))
    else:
        report = k_theory.check_exactness(args.n)
        _print_result(args, report.to_json(), report.line())
        return 0 if report.passed else 2
    _print_result(args, v.to_json(), _vector_table(v))
    return 0


def _cmd_linebundle(args):
    from .line_bundles import closed_form
    dec = closed_form(args.n, args.k)
    if dec.kind == "corner":
        table = (f"degree {args.k} over n={args.n}: corner projection at "
                 f"depth {dec.m}")
    else:
        terms = " (+) ".join(
            f"{mult} x P[{j},1]" for j, mult in enumerate(dec.mult) if mult
        )
        table = (f"degree {args.k} over n={args.n}: {dec.total_classes()} "
                 f"classes, {terms}")
    _print_result(args, dec.to_json(), table)
    return 0


def _emit_reports(args, reports):
    for r in reports:
        if args.format == "json":
            print(json.dumps(r.to_json()))
        else:
            print(r.line())
    return 0 if all(r.passed for r in reports) else 2


def _cmd_groupoid_verify(args):
    from . import groupoid, suite
    window = {} if args.window is None else {"window": args.window}
    if args.map_id == "all":
        given = [f"--{name}" for name in "kjl" if getattr(args, name) is not None]
        if given:
            raise _UsageError(f"--map all sweeps every parameter; it takes no "
                              f"{', '.join(given)}")
        reports = suite.groupoid_checks(n_max=args.n, **window)
    else:
        reports = [groupoid._verify(args.map_id, args.n, args.k, args.j, args.l,
                                    **window)]
    return _emit_reports(args, reports)


def _cmd_oracle_verify(args):
    from . import suite
    given = {name: getattr(args, name) for name in ("n_max", "k_max")
             if getattr(args, name) is not None}
    reports = suite.oracle_agreement_checks(**given)
    return _emit_reports(args, reports)


def _cmd_verify_all(args):
    from . import suite
    seed = suite.DEFAULT_SEED if args.seed is None else args.seed
    reports = suite.run_all(seed=seed, jobs=args.jobs)
    status = _emit_reports(args, reports)
    passed = sum(r.passed for r in reports)
    print(f"{passed}/{len(reports)} checks passed", file=sys.stderr)
    return status


def main(argv=None):
    # exact ints of any length: lift the int/str digit limit for the run
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, however it is buffered
        return status
    except BrokenPipeError:
        # the reader of stdout left: say nothing, and point stdout at devnull
        # so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (_UsageError, QprojError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in qproj itself: one line, not a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
