"""Command-line front end.

Subcommands: params, run, sweep, audit, table, selftest.  Output is
machine-readable (JSON by default; the table also renders text/CSV) and
byte-identical for identical invocations: the seed defaults to a fixed
constant, never the clock.

Exit codes: 0 success, 2 invalid parameters, 3 retrieval failure or
byzantine budget exceeded, 4 I/O or parse errors, 5 exhaustive guard
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, pir, selftest
from .harness import DEFAULT_SEED, AdversaryModel
from .pir import DatabaseFormatError, InvalidParameters
from .rscodes import EnumerationTooLarge

EXIT_OK = 0
EXIT_INVALID_PARAMS = 2
EXIT_RETRIEVAL_FAILED = 3
EXIT_IO = 4
EXIT_GUARD = 5


def _fail(code: int, reason: str) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return code


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_id_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _setup_from_args(args) -> pir.SchemeParams:
    return pir.setup(args.k, args.t, args.b, args.r, q_hint=args.q, m=args.m)


def _load_db(params, args):
    if args.random_db:
        return pir.random_database(params, harness.SeededStream(args.seed, "db"))
    return pir.load_database(params, args.db)


def cmd_params(args) -> int:
    params = _setup_from_args(args)
    report = pir.validate_optimality(params)
    _emit_json({
        "params": pir.params_to_json_dict(params),
        "optimality": report.as_dict(),
    })
    return EXIT_OK


def cmd_run(args) -> int:
    params = _setup_from_args(args)
    db = _load_db(params, args)
    if not 1 <= args.iota <= params.m:
        raise InvalidParameters("iota", f"{args.iota} outside [1, {params.m}]")
    if any(not 1 <= j <= params.k for j in args.byzantine):
        raise InvalidParameters("byzantine", "server id outside [1, k]")
    harness.check_adversary(params, args.byzantine, args.strategy, args.offset)
    adversary = AdversaryModel(
        byzantine_set=args.byzantine,
        strategy=args.strategy,
        offset=args.offset,
    )
    report = harness.run_session(
        params, db, args.iota, adversary, mode=args.mode, seed=args.seed
    )
    _emit_json(report.to_json_dict(params.ext.format_element))
    if report.error is not None:
        return _fail(EXIT_RETRIEVAL_FAILED, f"byzantine-budget-exceeded: {report.error}")
    if not report.ground_truth_match:
        return _fail(EXIT_RETRIEVAL_FAILED, "retrieval-mismatch: retrieved file differs from ground truth")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.randomized is not None:
        harness.check_sweep_trials(args.randomized)
    params = _setup_from_args(args)
    db = _load_db(params, args)
    scope = "randomized" if args.randomized is not None else "exhaustive"
    report = harness.byzantine_sweep(
        params, db, scope=scope, trials=args.randomized or 0, seed=args.seed
    )
    _emit_json(report.to_json_dict())
    if report.cases_failed:
        return _fail(EXIT_RETRIEVAL_FAILED, f"sweep-failures: {report.cases_failed} counterexamples")
    return EXIT_OK


def cmd_audit(args) -> int:
    params = _setup_from_args(args)
    mode = "transfer-matrix" if args.transfer_matrix else "exhaustive"
    report = harness.privacy_audit(params, t_subset=args.subset, mode=mode)
    _emit_json(report.to_json_dict())
    if report.verdict == "fail":
        return _fail(EXIT_RETRIEVAL_FAILED, "privacy-audit-failed")
    return EXIT_OK


def cmd_table(args) -> int:
    table = harness.scheme_comparison(args.k, args.t, args.b, args.r, l=args.l, q=args.q)
    if args.out == "csv":
        sys.stdout.write(table.to_csv())
    elif args.out == "json":
        _emit_json(table.to_json_dict())
    else:
        sys.stdout.write(table.to_text())
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = selftest.run_selftest(criteria=args.criteria or None)
    if not results:
        raise InvalidParameters("criteria", "nothing selected")
    return EXIT_OK if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracepir",
        description="byzantine-resistant multi-server PIR toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--k", type=int, required=True, help="number of servers")
    scheme.add_argument("--t", type=int, required=True, help="collusion bound")
    scheme.add_argument("--b", type=int, required=True, help="byzantine bound")
    scheme.add_argument("--r", type=int, required=True, help="retrieval threshold")
    scheme.add_argument("--q", type=int, default=None, help="prime field override")
    scheme.add_argument("--m", type=int, default=1, help="number of files")
    scheme.add_argument(
        "--seed",
        type=lambda v: int(v, 0),
        default=DEFAULT_SEED,
        help="64-bit seed (default fixed for reproducibility)",
    )

    db_opts = argparse.ArgumentParser(add_help=False)
    group = db_opts.add_mutually_exclusive_group(required=True)
    group.add_argument("--db", help="database file path (one file per line)")
    group.add_argument("--random-db", action="store_true", help="generate the database from the seed")

    p = sub.add_parser("params", parents=[scheme], help="derive and print scheme parameters")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("run", parents=[scheme, db_opts], help="run one retrieval session")
    p.add_argument("--iota", type=int, default=1, help="file index to retrieve (1-based)")
    p.add_argument("--mode", choices=("trace", "full"), default="trace")
    p.add_argument("--byzantine", type=_parse_id_list, default=(), help="comma-separated corrupt server ids")
    p.add_argument("--strategy", choices=("random", "offset", "targeted"), default="random")
    p.add_argument("--offset", type=int, default=1, help="additive offset for the offset strategy")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[scheme, db_opts], help="byzantine corruption sweep")
    p.add_argument("--randomized", type=int, default=None, metavar="N",
                   help="run N random cases instead of the exhaustive sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", parents=[scheme], help="privacy audit")
    audit_mode = p.add_mutually_exclusive_group()
    audit_mode.add_argument("--exhaustive", action="store_true", help="exact distribution comparison (default)")
    audit_mode.add_argument("--transfer-matrix", action="store_true", help="transfer-matrix invertibility audit")
    p.add_argument("--subset", type=_parse_id_list, default=None, help="specific server subset to audit")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("table", parents=[scheme], help="scheme comparison table")
    p.add_argument("--l", type=int, default=1, help="repetition count")
    p.add_argument("--out", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--criteria", type=_parse_id_list, default=(),
                   help="comma-separated criterion numbers (default: all)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the exceptions that end it map to exit codes here alone."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameters as exc:
        return _fail(EXIT_INVALID_PARAMS, f"invalid-parameters [{exc.constraint}]: {exc}")
    except DatabaseFormatError as exc:
        return _fail(EXIT_IO, f"database-parse: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, f"io: {exc}")
    except EnumerationTooLarge as exc:
        return _fail(EXIT_GUARD, f"guard-exceeded: {exc}")


if __name__ == "__main__":
    sys.exit(main())
