"""Command-line interface.

Subcommands:
  report main1|main2|main3 [--json]   run a built-in computation chain
  plumbing --p <k> [--json]           print P, Q and the boundary lens space
  verify <scenario> [--expect-paper] [--json]
                                      run the pipeline on a scenario file

Exit codes: 0 success, 1 verification failure (embedding mismatch, rejected
positivity evidence, or a reference-value mismatch under --expect-paper),
2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from blowdown.plumbing import EmbeddingFailed, InvalidP, make_cp
from blowdown.ratmath import EvidenceRejected, column_layout
from blowdown.reports import (
    ParseError,
    Report,
    check_against_reference,
    configuration_fields,
    run_main1,
    run_main2,
    run_main3,
    run_scenario,
)

_CHAINS = {"main1": run_main1, "main2": run_main2, "main3": run_main3}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="blowdown",
        description="Exact rational blow-down computations: plumbing forms, "
        "dual-basis pairings, cone positivity certificates, invariant bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run a built-in computation chain")
    report.add_argument("chain", choices=sorted(_CHAINS))
    report.add_argument("--json", action="store_true", help="emit the JSON report")

    plumbing = sub.add_parser(
        "plumbing", help="intersection matrix, dual form and boundary of a chain"
    )
    plumbing.add_argument("--p", type=int, required=True, metavar="K", dest="p")
    plumbing.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify", help="run the pipeline on a scenario file")
    verify.add_argument("scenario", help="path to a scenario file")
    verify.add_argument(
        "--expect-paper",
        action="store_true",
        help="also compare against the frozen reference values of the built-in "
        "scenarios; exit 1 on any mismatch",
    )
    verify.add_argument("--json", action="store_true")
    return parser


def _emit_report(report: Report, as_json: bool, out) -> None:
    out.write(report.to_json() + "\n" if as_json else report.to_text())


def _cmd_plumbing(p: int, as_json: bool, out) -> int:
    config = make_cp(p)
    d = {"p": config.p, "weights": list(config.graph.weights), **configuration_fields(config)}
    if as_json:
        out.write(json.dumps(d, indent=2) + "\n")
        return 0
    lines = [
        f"chain configuration, p = {p}: {len(d['weights'])} spheres, "
        f"weights [{', '.join(map(str, d['weights']))}]",
        "boundary lens space: L({}, {})".format(*d["boundary_lens_space"]),
        "P =",
        *column_layout(d["P"]),
        "Q = P^-1 =",
        *column_layout(d["Q"]),
        f"det P = {d['det_P']} (|det| = p^2 = {p * p}), "
        f"negative definite: {d['negative_definite']}",
    ]
    out.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(path: str, expect_reference: bool, as_json: bool, out, err) -> int:
    report = run_scenario(path)
    _emit_report(report, as_json, out)
    if expect_reference:
        mismatches = check_against_reference(report)
        if mismatches:
            for line in mismatches:
                err.write(f"reference mismatch: {line}\n")
            return 1
        out.write("all reference values reproduced exactly\n")
    return 0


def main(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            _emit_report(_CHAINS[args.chain](), args.json, out)
            return 0
        if args.command == "plumbing":
            return _cmd_plumbing(args.p, args.json, out)
        if args.command == "verify":
            return _cmd_verify(args.scenario, args.expect_paper, args.json, out, err)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ParseError, InvalidP) as exc:
        err.write(f"input error: {exc}\n")
        return 2
    except (EmbeddingFailed, EvidenceRejected) as exc:
        err.write(f"verification failure: {exc}\n")
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
