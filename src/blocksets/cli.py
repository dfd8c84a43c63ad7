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
from .gf import prime_power
from .plane import build_desarguesian_plane, load_plane, save_plane
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchTask,
    certify_no_other_t,
    exhaustive_extremal_search,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# The orders ``certify`` takes: the prime powers up to the plane cap whose
# only t with an integer bound are the ones the classification predicts, so
# each t either has no set of the bound's size or is searched on the side of
# the plane minus a point, the Baer complement or the unital.  9 is left out:
# its t = 1 and t = 6 searches have not been seen to finish.
CERTIFIED_ORDERS = (2, 3, 4, 5, 8, 17, 27, 41, 59, 71, 89, 101)


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

    p = sub.add_parser("candidates", help="equality candidates from the divisors of n, any order n")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build one of the extremal families in PG(2, q)")
    p.add_argument(
        "family", choices=["unital", "baer", "baer-complement", "minus-point"]
    )
    p.add_argument("q", type=int, help="plane order (square prime power except for minus-point)")
    p.add_argument("--point", type=int, help="point removed by minus-point (default 0)")
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

    p = sub.add_parser("certify", help="desk-scale certification for PG(2, q), q in "
                       + ", ".join(map(str, CERTIFIED_ORDERS)))
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
    """One row per (t, b): the bound n*b + t it attains, and its family and
    case from case_trace if n is a prime power, else Unclassified, no case."""
    rows = []
    for e in params:
        family, case = "Unclassified", None
        if classified:
            trace = case_trace(n, e.t, e.b)
            family, case = trace.family.value, trace.case
        rows.append({"t": e.t, "b": e.b, "bound": n * e.b + e.t, "family": family, "case": case})
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
    # 'candidates' refuses these too, so the hint below would not help
    if args.q < 2:
        raise ValueError("order must be at least 2")
    try:
        entries = classify_prime_power(args.q)
    except ValueError:
        raise ValueError(
            f"{args.q} is not a prime power; use 'candidates {args.q}' "
            "for necessary-condition solutions"
        ) from None
    _print_rows(_case_rows(args.q, entries, True), args.json)
    return EXIT_OK


def _cmd_candidates(args) -> int:
    params = equality_candidates(args.n)
    classified = True
    try:
        prime_power(args.n)
    except ValueError:
        classified = False
    _print_rows(_case_rows(args.n, params, classified), args.json)
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.point is not None and args.family != "minus-point":
        raise ValueError(f"--point applies to minus-point only, not {args.family}")
    plane = build_desarguesian_plane(args.q)
    if args.family != "minus-point" and plane.field.k % 2:
        raise ValueError(
            f"{args.q} is not a square; the {args.family} family "
            "lives in planes of square order"
        )
    if args.family == "unital":
        ps = hermitian_unital(plane)
    elif args.family == "baer":
        ps = baer_subplane(plane)
    elif args.family == "baer-complement":
        ps = baer_complement(plane)
    else:
        ps = plane_minus_point(plane, args.point or 0)
    if args.plane_out:
        save_plane(plane, args.plane_out)
    if args.output:
        save_point_set(ps, args.output)
    else:
        sys.stdout.write(format_point_set(ps))
    return EXIT_OK


def _cmd_verify(args) -> int:
    # before the plane loads, which takes seconds at the order cap
    if args.t < 1:
        raise ValueError("t must be at least 1")
    plane = load_plane(args.plane)
    verdict = blocking.verify(load_point_set(args.set_path, plane), args.t)
    if args.json:
        print(json.dumps(dataclasses.asdict(verdict)))
    else:
        minimal_text = "-" if verdict.minimal is None else _bool(verdict.minimal)
        print(
            f"size={verdict.size} blocking={_bool(verdict.blocking)} minimal={minimal_text} "
            f"spectrum={json.dumps(verdict.spectrum)}"
        )
        if verdict.failure:
            print(f"failure: {verdict.failure}")
    return EXIT_OK if verdict.minimal else EXIT_VERIFY_FAILED


def _cmd_spectrum(args) -> int:
    plane = load_plane(args.plane)
    ps = load_point_set(args.set_path, plane)
    print(json.dumps(blocking.spectrum(ps)))
    return EXIT_OK


def _cmd_search(args) -> int:
    # set files left by an earlier search would read as found by this one;
    # a file at the path would fail os.makedirs, but only after the search
    if args.output and glob.glob(os.path.join(glob.escape(args.output), "set_*.txt")):
        raise ValueError(f"{args.output} already holds set_*.txt files")
    if args.output and os.path.exists(args.output) and not os.path.isdir(args.output):
        raise ValueError(f"{args.output} exists and is not a directory")
    # before the plane loads, which takes seconds at the order cap
    if args.budget < 1:
        raise ValueError("node budget must be positive")
    if args.t < 1:
        raise ValueError("t must be at least 1")
    plane = load_plane(args.plane)
    result = exhaustive_extremal_search(SearchTask(plane, args.t, node_budget=args.budget))
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        # as wide as the last index, so sorting by name keeps the sets' order
        width = max(4, len(str(len(result.sets) - 1)))
        for idx, ps in enumerate(result.sets):
            save_point_set(ps, os.path.join(args.output, f"set_{idx:0{width}d}.txt"))
    print(json.dumps(result.summary()))
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.q not in CERTIFIED_ORDERS:
        raise ValueError("certification is desk-scale only, q must be one of "
                         + ", ".join(map(str, CERTIFIED_ORDERS)))
    plane = build_desarguesian_plane(args.q)
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
        print(f"matches_theory={_bool(report.matches_theory)}")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
