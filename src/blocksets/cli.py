"""Command-line front end.

Every subcommand prints deterministic, golden-file-friendly output: decimal
integers only, fixed key order in JSON.  Exit codes: 0 success, 1 failed
verification, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import glob
import json
import os
import sys

from . import blocking
from .extremal import (
    PrimePower,
    case_trace,
    classify_prime_power,
    equality_candidates,
    max_size_bound,
)
from .families import (
    baer_complement,
    baer_subplane,
    format_point_set,
    hermitian_unital,
    load_point_set,
    plane_minus_point,
    save_point_set,
)
from .gf import make_field
from .plane import (
    PlaneFormatError,
    build_desarguesian_plane,
    check_plane_cap,
    load_plane,
    save_plane,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchTask,
    certify_no_other_t,
    exhaustive_extremal_search,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="blocksets",
        description="Construct, verify, search, and classify extremal "
        "minimal t-fold blocking sets in projective planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate the maximal-size bound for (n, t)")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="closed-form extremal t values for prime power q")
    p.add_argument("q", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("candidates", help="brute-force equality candidates for any order n")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build one of the extremal families in PG(2, q)")
    p.add_argument(
        "family", choices=["unital", "baer", "baer-complement", "minus-point"]
    )
    p.add_argument("q", type=int, help="plane order (square prime power except for minus-point)")
    p.add_argument("--point", type=int, default=0, help="point removed by minus-point")
    p.add_argument("--output", help="point-set file to write (default: stdout)")
    p.add_argument("--plane-out", help="also write the plane file here")

    p = sub.add_parser("verify", help="check blocking/minimality of a point-set file")
    p.add_argument("--plane", required=True)
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectrum", help="line-intersection spectrum of a point-set file")
    p.add_argument("--plane", required=True)
    p.add_argument("--set", dest="set_path", required=True)

    p = sub.add_parser("search", help="exhaustive search for extremal sets in a plane file")
    p.add_argument("--plane", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="global node budget")
    p.add_argument("--output", help="directory for found point-set files")

    p = sub.add_parser("certify", help="desk-scale certification for PG(2, q), q <= 4")
    p.add_argument("q", type=int)
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="node budget for each t's search, not the total",
    )
    p.add_argument("--json", action="store_true")

    return parser


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _cmd_bound(args) -> int:
    bv = max_size_bound(args.n, args.t)
    if args.json:
        print(json.dumps(dataclasses.asdict(bv)))
    elif bv.attainable:
        print(f"bound={bv.bound} b={bv.b} attainable=true")
    else:
        print("bound=- b=- attainable=false")
    return EXIT_OK


def _case_rows(n: int, params, classified: bool) -> list[dict]:
    """One row per (t, b): its bound, and its family and case from case_trace
    when n is a prime power, else Unclassified and no case."""
    rows = []
    for e in params:
        family, case = "Unclassified", None
        if classified:
            trace = case_trace(n, e.t, e.b)
            family, case = trace.family.value, trace.case
        bound = max_size_bound(n, e.t).bound
        rows.append({"t": e.t, "b": e.b, "bound": bound, "family": family, "case": case})
    return rows


def _print_rows(rows: list[dict], as_json: bool) -> None:
    if as_json:
        print(json.dumps(rows))
        return
    for row in rows:
        print(
            f"t={row['t']} b={row['b']} bound={row['bound']} "
            f"family={row['family']} case={row['case'] or '-'}"
        )


def _cmd_classify(args) -> int:
    try:
        entries = classify_prime_power(args.q)
    except ValueError:
        print(
            f"error: {args.q} is not a prime power; use 'candidates {args.q}' "
            "for necessary-condition solutions",
            file=sys.stderr,
        )
        return EXIT_USAGE
    _print_rows(_case_rows(args.q, entries, True), args.json)
    return EXIT_OK


def _cmd_candidates(args) -> int:
    params = equality_candidates(args.n)
    prime_power = True
    try:
        PrimePower.from_order(args.n)
    except ValueError:
        prime_power = False
    _print_rows(_case_rows(args.n, params, prime_power), args.json)
    return EXIT_OK


def _cmd_construct(args) -> int:
    check_plane_cap(args.q)
    pp = PrimePower.from_order(args.q)
    if args.family != "minus-point" and pp.k % 2:
        print(
            f"error: {args.q} is not a square; the {args.family} family "
            "lives in planes of square order",
            file=sys.stderr,
        )
        return EXIT_USAGE
    spec = make_field(pp.p, pp.k)
    plane = build_desarguesian_plane(spec)
    if args.family == "unital":
        ps = hermitian_unital(plane)
    elif args.family == "baer":
        ps = baer_subplane(plane)
    elif args.family == "baer-complement":
        ps = baer_complement(plane)
    else:
        ps = plane_minus_point(plane, args.point)
    if args.plane_out:
        save_plane(plane, args.plane_out)
    if args.output:
        save_point_set(ps, args.output)
    else:
        sys.stdout.write(format_point_set(ps))
    return EXIT_OK


def _cmd_verify(args) -> int:
    plane = load_plane(args.plane)
    verdict = blocking.verify(load_point_set(args.set_path, plane), args.t)
    if args.json:
        print(json.dumps(dataclasses.asdict(verdict)))
    else:
        minimal_text = "-" if verdict.minimal is None else _bool(verdict.minimal)
        print(
            f"size={verdict.size} blocking={_bool(verdict.blocking)} minimal={minimal_text} "
            f"spectrum={blocking.spectrum_to_json(verdict.spectrum)}"
        )
        if verdict.failure:
            print(f"failure: {verdict.failure}")
    return EXIT_OK if verdict.minimal else EXIT_VERIFY_FAILED


def _cmd_spectrum(args) -> int:
    plane = load_plane(args.plane)
    ps = load_point_set(args.set_path, plane)
    print(blocking.spectrum_to_json(blocking.spectrum(ps)))
    return EXIT_OK


def _cmd_search(args) -> int:
    # set files left by an earlier search would read as found by this one;
    # a file at the path would fail os.makedirs, but only after the search
    if args.output and glob.glob(os.path.join(glob.escape(args.output), "set_*.txt")):
        print(f"error: {args.output} already holds set_*.txt files", file=sys.stderr)
        return EXIT_USAGE
    if args.output and os.path.exists(args.output) and not os.path.isdir(args.output):
        print(f"error: {args.output} exists and is not a directory", file=sys.stderr)
        return EXIT_USAGE
    plane = load_plane(args.plane)
    result = exhaustive_extremal_search(SearchTask(plane, args.t, node_budget=args.budget))
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for idx, ps in enumerate(result.sets):
            save_point_set(ps, os.path.join(args.output, f"set_{idx:04d}.txt"))
    print(json.dumps(result.summary()))
    return EXIT_OK


def _cmd_certify(args) -> int:
    if not 2 <= args.q <= 4:
        print("error: certification is desk-scale only, q must be 2, 3, or 4", file=sys.stderr)
        return EXIT_USAGE
    pp = PrimePower.from_order(args.q)
    plane = build_desarguesian_plane(make_field(pp.p, pp.k))
    report = certify_no_other_t(plane, node_budget=args.budget)
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        for row in report.as_dict()["results"]:
            fams = ",".join(f"{k}:{v}" for k, v in row["families"].items()) or "-"
            print(
                f"t={row['t']} attainable={_bool(row['attainable'])} found={row['found']} "
                f"complete={_bool(row['complete'])} families={fams} "
                f"expected={row['expected_family'] or '-'}"
            )
        print(f"matches_theory={_bool(bool(report.matches_theory))}")
    return EXIT_OK if report.matches_theory else EXIT_VERIFY_FAILED


_HANDLERS = {
    "bound": _cmd_bound,
    "classify": _cmd_classify,
    "candidates": _cmd_candidates,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "search": _cmd_search,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (PlaneFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
