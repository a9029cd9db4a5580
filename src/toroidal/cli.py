"""Command-line interface.

Exit codes: 0 success, 1 usage or input errors, 2 invalid fan,
3 fan not supported in the negative chamber, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import analyze, report_status
from .cones import Cone
from .serialize import dumps_report, load_fan, load_root_datum
from .suites import SUITE_NAMES, UnknownSuite, run_suite

__all__ = ["main", "entry"]

_STATUS_CODES = {"ok": 0, "invalid_fan": 2, "chamber_violation": 3}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="toroidal",
        description="Exact verification of toroidal embedding data for split groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a fan over a root datum")
    pa.add_argument("--root-datum", required=True, metavar="FILE")
    pa.add_argument("--fan", required=True, metavar="FILE")
    pa.add_argument("--out", required=True, metavar="FILE")

    pv = sub.add_parser("verify", help="run a randomized property suite")
    pv.add_argument(
        "--suite", required=True, choices=SUITE_NAMES + ("all",)
    )
    pv.add_argument("--rank", type=int, default=1)
    pv.add_argument("--cases", type=int, default=25)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", metavar="FILE")

    ph = sub.add_parser("hilbert", help="dual generators and Hilbert basis of a cone")
    ph.add_argument("--rays", required=True, metavar="JSON")
    ph.add_argument("--dim", type=int)
    ph.add_argument("--out", metavar="FILE")
    return parser


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    rd = load_root_datum(_read_json(args.root_datum))
    fan = load_fan(_read_json(args.fan), dim=rd.rank)
    report = analyze(rd, fan)
    _emit(dumps_report(report), args.out)
    return _STATUS_CODES[report_status(report)]


def _cmd_verify(args) -> int:
    if not 1 <= args.rank <= 3:
        raise ValueError("--rank must be 1, 2 or 3")
    if args.cases < 1:
        raise ValueError("--cases must be positive")
    report = run_suite(args.suite, rank=args.rank, cases=args.cases, seed=args.seed)
    payload = {
        **vars(report),
        "all_pass": report.all_pass,
        "properties": [vars(p) for p in report.properties],
    }
    _emit(dumps_report(payload), args.out)
    return 0 if report.all_pass else 4


def _cmd_hilbert(args) -> int:
    try:
        rays = json.loads(args.rays)
    except json.JSONDecodeError:
        rays = _read_json(args.rays)
    if not isinstance(rays, list) or not all(isinstance(r, list) for r in rays):
        raise ValueError("--rays must be a JSON list of integer vectors")
    cone = Cone(rays, dim=args.dim)
    payload = {
        "dim": cone.dim,
        "rays": [list(r) for r in cone.rays],
        "dual_generators": [list(g) for g in cone.dual_generators()],
        "hilbert_basis": [list(h) for h in cone.hilbert_basis],
    }
    _emit(dumps_report(payload), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 for --help
        return 0 if not e.code else 1
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_hilbert(args)
    except UnknownSuite as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
