"""The benchmark's workloads: CLI commands, their inputs and their expected outputs.

A workload is built from a seed and a work directory.  ``plan`` is a pure
function of the seed; the command lists are pure functions of the plan and
the work directory, so one seed always gives the same commands.

Expected outputs never come from the code under test.  They are closed forms
from the paper, with q the plane order and r = sqrt(q):

- Hermitian unital: size r^3+1, spectrum {1: r^3+1, r+1: q^2+q-r^3}
- complement of a Baer subplane: size q^2-r, spectrum {q-r: q+r+1, q: q^2-r}
- plane minus a point: size q^2+q, spectrum {q: q+1, q+1: q^2}

and counts fixed by the geometry: q^2+q+1 planes-minus-a-point at t=q, 280
unitals and 360 Baer complements in PG(2,4), and no extremal set at all where
the bound is an integer but no family exists (PG(2,7) at t=2 and t=3).

A probe is a command that fails or stops at its node budget today.  It
carries the output a correct run must print, so a later fix is graded on
that output; until then its failure is recorded, never fatal.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

# Address space the q=128 verify probe may add to the process's current size.
PROBE_ADDRESS_BUDGET = 1 << 30
WARMUP_ORDER = 4  # plane order of plane_roundtrip's untimed warm-up round trip

FAMILY_LABEL = {
    "unital": "Unital",
    "baer-complement": "BaerComplement",
    "minus-point": "PlaneMinusPoint",
}

# Counts of extremal sets that no closed form above gives.
_PINNED_FOUND = {(4, 1): 280, (4, 2): 360}


@dataclass
class Command:
    """One CLI invocation and the check of its exit code and stdout."""

    kind: str  # construct, verify, spectrum, search or certify
    argv: list[str]
    check: Callable[[int, str], str | None] = field(repr=False)  # None when right
    probe: str | None = None  # why this command is a probe
    outputs: list[str] = field(default_factory=list)  # removed before each run
    address_budget: int | None = None  # bytes of address space the command may add
    qt: tuple[int, int] | None = None  # plane order and t of a search
    untimed: bool = False  # runs once, before the probes, and must succeed

    @property
    def group(self) -> str:
        """``timed`` commands run in every pass; ``untimed`` ones once before the
        passes, and probes once after them."""
        if self.probe is not None:
            return "probe"
        return "untimed" if self.untimed else "timed"

    @property
    def searches(self) -> int:
        """Searches the command runs; certify runs one per attainable t."""
        if self.kind == "search":
            return 1
        if self.kind == "certify":
            q = int(self.argv[1])
            return sum(bound(q, t) is not None for t in range(1, q + 1))
        return 0

    def completed_searches(self, stdout: str) -> int:
        if self.kind == "search":
            try:
                return int(json.loads(stdout)["complete"] is True)
            except (ValueError, KeyError, TypeError):
                return 0
        if self.kind == "certify":
            return sum(
                "attainable=true" in line and "complete=true" in line
                for line in stdout.splitlines()
            )
        return 0


# -- closed forms ----------------------------------------------------------------


def bound(n: int, t: int) -> int | None:
    """The paper's size bound when it is an integer with integral b, else None."""
    d = 4 * t * n - (3 * t + 1) * (t - 1)
    s = isqrt(d)
    if s * s != d or (s + t - 1) % 2:
        return None
    return n * (s + t - 1) // 2 + t


def family_t(family: str, q: int) -> int:
    return {"unital": 1, "baer-complement": q - isqrt(q), "minus-point": q}[family]


def _add(*pairs) -> dict[int, int]:
    spec: dict[int, int] = {}
    for size, lines in pairs:
        if lines:
            spec[size] = spec.get(size, 0) + lines
    return spec


def family_size(family: str, q: int) -> int:
    r = isqrt(q)
    return {"unital": r**3 + 1, "baer-complement": q * q - r, "minus-point": q * q + q}[family]


def family_spectrum(family: str, q: int) -> dict[int, int]:
    r = isqrt(q)
    if family == "unital":
        return _add((1, r**3 + 1), (r + 1, q * q + q - r**3))
    if family == "baer-complement":
        return _add((q - r, q + r + 1), (q, q * q - r))
    return _add((q, q + 1), (q + 1, q * q))


def family_spectrum_minus_one(family: str, q: int) -> dict[int, int]:
    """Spectrum of the family's set after removing one of its points."""
    r = isqrt(q)
    if family == "unital":  # one tangent and q secants through the point
        return _add((0, 1), (1, r**3), (r, q), (r + 1, q * q - r**3))
    if family == "baer-complement":  # one Baer line and q other lines through it
        return _add((q - r - 1, 1), (q - r, q + r), (q - 1, q), (q, q * q - r - q))
    return _add((q - 1, 1), (q, 2 * q), (q + 1, q * q - q))


def family_of(q: int, t: int) -> str | None:
    r = isqrt(q)
    if t == q:
        return "minus-point"
    if r * r == q and t == 1:
        return "unital"
    if r * r == q and t == q - r:
        return "baer-complement"
    return None


def expected_found(q: int, t: int) -> int:
    if t == q:
        return q * q + q + 1
    return _PINNED_FOUND.get((q, t), 0)


def spectrum_json(spec: dict[int, int]) -> str:
    return json.dumps({str(k): spec[k] for k in sorted(spec)})


# -- reading the files the CLI writes ------------------------------------------


def read_rows(path: str) -> tuple[int, list[list[str]]]:
    """(order, token rows after the header) of a plane or point-set file."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows or rows[0][0] != "order":
        raise ValueError(f"{path}: no order header")
    return int(rows[0][1]), rows[1:]


def read_point_set(path: str) -> tuple[int, list[int]]:
    order, rows = read_rows(path)
    if not rows or rows[0][0] != "size":
        raise ValueError(f"{path}: no size header")
    points = [int(tok) for tok in rows[1]] if len(rows) > 1 else []
    if len(points) != int(rows[0][1]) or points != sorted(set(points)):
        raise ValueError(f"{path}: size field or order of indices is wrong")
    return order, points


def write_point_set(path: str, order: int, points: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {order}\nsize {len(points)}\n{' '.join(map(str, points))}\n")


class PlaneLines:
    """Lines of plane files, read once per path, for counting intersections."""

    def __init__(self):
        self._lines: dict[str, list[frozenset[int]]] = {}

    def __call__(self, path: str) -> list[frozenset[int]]:
        if path not in self._lines:
            _, rows = read_rows(path)
            self._lines[path] = [frozenset(int(tok) for tok in row) for row in rows]
        return self._lines[path]

    def spectrum(self, plane_path: str, points) -> dict[int, int]:
        pts = set(points)
        counts: dict[int, int] = {}
        for line in self(plane_path):
            k = len(line & pts)
            counts[k] = counts.get(k, 0) + 1
        return counts


# -- checks ------------------------------------------------------------------------


def _expect_stdout(rc_want: int, text: str) -> Callable[[int, str], str | None]:
    def check(rc, stdout):
        if rc != rc_want:
            return f"exit {rc}, expected {rc_want}"
        if stdout != text:
            return f"stdout {stdout[:200]!r}, expected {text[:200]!r}"
        return None

    return check


def verify_line(size: int, spec: dict[int, int], blocking: bool) -> str:
    minimal = "true" if blocking else "-"
    return (
        f"size={size} blocking={'true' if blocking else 'false'} "
        f"minimal={minimal} spectrum={spectrum_json(spec)}\n"
    )


def check_construct(family, q, set_path, plane_path=None, point=0):
    """Exit 0, nothing on stdout, and files of the right shape and size."""
    size = family_size(family, q)

    def check(rc, stdout):
        if rc != 0 or stdout:
            return f"exit {rc}, stdout {stdout[:200]!r}"
        try:
            order, points = read_point_set(set_path)
        except (OSError, ValueError, IndexError) as exc:
            return f"set file: {exc}"
        n_points = q * q + q + 1
        in_range = not points or (points[0] >= 0 and points[-1] < n_points)  # points are sorted
        if order != q or len(points) != size or not in_range:
            return f"set file: order {order}, size {len(points)}, expected {q}, {size}"
        if family == "minus-point" and point in points:
            return f"set file contains the removed point {point}"
        if plane_path is not None:
            try:
                order, rows = read_rows(plane_path)
            except (OSError, ValueError, IndexError) as exc:
                return f"plane file: {exc}"
            if order != q or len(rows) != n_points or any(len(row) != q + 1 for row in rows):
                return f"plane file: order {order}, {len(rows)} lines, expected {q}, {n_points}"
        return None

    return check


def check_search(q, t, lines: PlaneLines, plane_path, output_dir=None, may_stop=False):
    """The search summary; with may_stop a budget stop may report fewer sets."""
    family = family_of(q, t)
    found = expected_found(q, t)
    label = FAMILY_LABEL.get(family)

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        try:
            got = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:200]!r}"
        if sorted(got) != ["complete", "families", "found", "size", "t"]:
            return f"keys {sorted(got)}"
        if got["t"] != t or got["size"] != bound(q, t):
            return f"t={got['t']} size={got['size']}, expected {t}, {bound(q, t)}"
        n = got["found"]
        if got["complete"] is True:
            if n != found:
                return f"found {n} sets, expected {found}"
        elif not (may_stop and got["complete"] is False and n <= found):
            return f"complete={got['complete']} with found {n}"
        if got["families"] != ({label: n} if n else {}):
            return f"families {got['families']}"
        if output_dir is not None:
            return _check_found_sets(output_dir, n, q, family, lines, plane_path)
        return None

    return check


def _check_found_sets(output_dir, n, q, family, lines: PlaneLines, plane_path):
    names = sorted(os.listdir(output_dir)) if os.path.isdir(output_dir) else []
    if names != [f"set_{i:04d}.txt" for i in range(n)]:
        return f"{len(names)} set files in {output_dir}, expected {n}"
    want = family_spectrum(family, q)
    seen = set()
    for name in names:
        order, points = read_point_set(os.path.join(output_dir, name))
        if order != q or lines.spectrum(plane_path, points) != want:
            return f"{name} is not a {family} of PG(2,{q})"
        seen.add(tuple(points))
    if len(seen) != n:
        return "duplicate sets in the search output"
    return None


def check_certify(q):
    """The certify table: sets exactly at the family t values, matches_theory=true."""
    rows = []
    for t in range(1, q + 1):
        family = family_of(q, t)
        if bound(q, t) is None:
            rows.append(f"t={t} attainable=false found=0 complete=true families=- expected=-")
        else:
            label, n = FAMILY_LABEL[family], expected_found(q, t)
            rows.append(
                f"t={t} attainable=true found={n} complete=true "
                f"families={label}:{n} expected={label}"
            )
    rows.append("matches_theory=true")
    return _expect_stdout(0, "\n".join(rows) + "\n")


def check_verify_cut(family, q, lines: PlaneLines, plane_path, set_path):
    """Verify of a family set with one point removed: exit 1, blocking=false.

    Exactly one line drops below t, to t-1 points; the failure line names the
    first such line in plane-file order.
    """
    t = family_t(family, q)
    spec = family_spectrum_minus_one(family, q)

    def check(rc, stdout):
        _, points = read_point_set(set_path)
        pts = set(points)
        j = next((j for j, line in enumerate(lines(plane_path)) if len(line & pts) < t), None)
        text = verify_line(len(points), spec, False)
        text += f"failure: line {j} meets the set in {t - 1} < t points\n"
        return _expect_stdout(1, text)(rc, stdout)

    return check


# -- workloads ---------------------------------------------------------------------


class Workload:
    """Set-up commands, untimed derived inputs, and the timed pass."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.plan = self.make_plan(random.Random(f"{self.name}:{seed}"))
        self.lines = PlaneLines()

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    @staticmethod
    def _plane(d: str, q: int) -> str:
        return os.path.join(d, f"plane{q}.txt")

    def make_plan(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def setup_commands(self, setup_dir: str) -> list[Command]:
        return []

    def derive(self, setup_dir: str) -> None:
        """Write inputs the timed commands need and no CLI command makes."""

    def pass_commands(self, setup_dir: str) -> list[Command]:
        raise NotImplementedError

    def command_list(self) -> list[list[str]]:
        d = self.path("setup0")
        return [c.argv for c in self.setup_commands(d) + self.pass_commands(d)]

    def _construct(self, family, q, set_path, plane_path=None, point=0):
        argv = ["construct", family, str(q), "--output", set_path]
        if family == "minus-point":
            argv[3:3] = ["--point", str(point)]
        if plane_path is not None:
            argv += ["--plane-out", plane_path]
        outputs = [set_path] + ([plane_path] if plane_path else [])
        return Command(
            "construct", argv, check_construct(family, q, set_path, plane_path, point),
            outputs=outputs,
        )

    def _verify(self, family, q, plane_path, set_path):
        t = family_t(family, q)
        text = verify_line(family_size(family, q), family_spectrum(family, q), True)
        return Command(
            "verify",
            ["verify", "--plane", plane_path, "--set", set_path, "--t", str(t)],
            _expect_stdout(0, text),
        )


class PlaneRoundtrip(Workload):
    """construct --plane-out, then verify/spectrum on the saved files.

    The square orders exercise the field, plane build, family constructions
    and the plane-axiom check of every load; each of their commands takes
    well under a second, so a run times each many times.  The cap order
    builds a plane at the order cap once, untimed, and its verify is a probe
    allowed 1 GiB of address space beyond what the process holds (the O(n^4)
    pair table of the axiom check does not fit).
    """

    name = "plane_roundtrip"

    def __init__(self, seed, workdir, square_orders=(16, 25), cap_order=128):
        self.square_orders = square_orders
        self.cap_order = cap_order
        super().__init__(seed, workdir)

    def make_plan(self, rng):
        q = self.cap_order
        return {"cap_point": rng.randrange(q * q + q + 1)}

    def _square_round_trip(self, d, q):
        plane = self._plane(d, q)
        unital, baer = os.path.join(d, f"unital{q}.txt"), os.path.join(d, f"baer{q}.txt")
        spectrum = Command(
            "spectrum", ["spectrum", "--plane", plane, "--set", baer],
            _expect_stdout(0, spectrum_json(family_spectrum("baer-complement", q)) + "\n"),
        )
        return [
            self._construct("unital", q, unital, plane),
            self._construct("baer-complement", q, baer),
            self._verify("unital", q, plane, unital),
            spectrum,
        ]

    def setup_commands(self, d):
        # A round trip on a small plane warms the CLI code paths before timing.
        return self._square_round_trip(d, WARMUP_ORDER)

    def pass_commands(self, d):
        cmds = [c for q in self.square_orders for c in self._square_round_trip(d, q)]
        q, point = self.cap_order, self.plan["cap_point"]
        plane, rest = self._plane(d, q), os.path.join(d, f"minus{q}.txt")
        cap = self._construct("minus-point", q, rest, plane, point)
        cap.untimed = True
        cmds.append(cap)
        probe = self._verify("minus-point", q, plane, rest)
        probe.probe = (
            f"verify at the order cap q={q} with a soft RLIMIT_AS {PROBE_ADDRESS_BUDGET >> 20} MiB "
            f"above the process's size; the axiom check's pair table does not fit"
        )
        probe.address_budget = PROBE_ADDRESS_BUDGET
        cmds.append(probe)
        return cmds


class SearchCertify(Workload):
    """certify and search on small planes: bushy trees (q=4, q=7), deep ones (q=16, 19).

    Probes: PG(2,7) at t=2 and t=3 stop at their node budget with no set
    found; PG(2,32) at t=32 recurses deeper than the interpreter allows.
    """

    name = "search_certify"

    def __init__(self, seed, workdir, certify_order=4,
                 searches=((4, 2, True), (16, 16, False), (19, 19, False)),
                 budget_probes=((7, 2, 10**6), (7, 3, 10**6)), deep_probes=((32, 32),)):
        self.certify_order = certify_order
        self.searches = searches
        self.budget_probes = budget_probes
        self.deep_probes = deep_probes
        super().__init__(seed, workdir)

    def orders(self):
        qs = {q for q, _, _ in self.searches} | {q for q, _, _ in self.budget_probes}
        return sorted(qs | {q for q, _ in self.deep_probes})

    def make_plan(self, rng):
        return {"points": {q: rng.randrange(q * q + q + 1) for q in self.orders()}}

    def setup_commands(self, d):
        return [
            self._construct("minus-point", q, os.path.join(d, f"minus{q}.txt"),
                            self._plane(d, q), self.plan["points"][q])
            for q in self.orders()
        ]

    def _search(self, d, q, t, output=False, budget=None, probe=None):
        plane = self._plane(d, q)
        argv = ["search", "--plane", plane, "--t", str(t)]
        out_dir = None
        if output:
            out_dir = os.path.join(d, f"found_q{q}t{t}")
            argv += ["--output", out_dir]
        if budget is not None:
            argv += ["--budget", str(budget)]
        check = check_search(q, t, self.lines, plane, out_dir, may_stop=budget is not None)
        return Command("search", argv, check, probe=probe, outputs=[out_dir] if out_dir else [],
                       qt=(q, t))

    def pass_commands(self, d):
        q = self.certify_order
        cmds = [Command("certify", ["certify", str(q)], check_certify(q))]
        cmds += [self._search(d, q, t, output) for q, t, output in self.searches]
        cmds += [
            self._search(d, q, t, budget=budget,
                         probe=f"PG(2,{q}) t={t}: bound is an integer but no set exists; "
                               f"the search stops at its budget of {budget} nodes")
            for q, t, budget in self.budget_probes
        ]
        cmds += [
            self._search(d, q, t, probe=f"PG(2,{q}) t={t}: one recursion level per point, "
                                        f"{q * q + q + 1} points")
            for q, t in self.deep_probes
        ]
        return cmds


class VerifyMany(Workload):
    """Many small verify commands: the fixed cost of one CLI call.

    Set-up finds every extremal set of each stratum's (q, t) with search
    --output.  The timed pass verifies a seeded sample with a fixed count per
    stratum, a fixed quarter of them with one seeded point removed, in seeded
    order; the fixed counts keep the mix of plane sizes equal across seeds.
    """

    name = "verify_many"
    CUT_SHARE = 4  # one command in four verifies a set with a point removed

    def __init__(self, seed, workdir, strata=((4, 1, 280), (4, 2, 360), (16, 16, 260))):
        self.strata = strata
        super().__init__(seed, workdir)

    def make_plan(self, rng):
        cmds = []
        for q, t, n in self.strata:
            size = bound(q, t)
            picks = rng.sample(range(expected_found(q, t)), n)
            cut = set(rng.sample(range(n), n // self.CUT_SHARE))
            cmds += [(q, t, idx, rng.randrange(size) if i in cut else None)
                     for i, idx in enumerate(picks)]
        rng.shuffle(cmds)
        points = {q: rng.randrange(q * q + q + 1) for q in sorted({q for q, _, _ in self.strata})}
        return {"points": points, "commands": cmds}

    def _found(self, d, q, t, idx=None):
        base = os.path.join(d, f"found_q{q}t{t}")
        return base if idx is None else os.path.join(base, f"set_{idx:04d}.txt")

    def _cut(self, d, q, t, idx, k):
        return os.path.join(d, "cut", f"q{q}t{t}_{idx:04d}_{k}.txt")

    def setup_commands(self, d):
        cmds = [
            self._construct("minus-point", q, os.path.join(d, f"minus{q}.txt"),
                            self._plane(d, q), p)
            for q, p in self.plan["points"].items()
        ]
        for q, t, _ in self.strata:
            out = self._found(d, q, t)
            cmds.append(Command(
                "search", ["search", "--plane", self._plane(d, q), "--t", str(t), "--output", out],
                check_search(q, t, self.lines, self._plane(d, q), out), outputs=[out], qt=(q, t),
            ))
        return cmds

    def derive(self, d):
        os.makedirs(os.path.join(d, "cut"), exist_ok=True)
        for q, t, idx, k in self.plan["commands"]:
            if k is not None:
                order, points = read_point_set(self._found(d, q, t, idx))
                write_point_set(self._cut(d, q, t, idx, k), order, points[:k] + points[k + 1:])

    def pass_commands(self, d):
        cmds = []
        for q, t, idx, k in self.plan["commands"]:
            family, plane = family_of(q, t), self._plane(d, q)
            if k is None:
                cmds.append(self._verify(family, q, plane, self._found(d, q, t, idx)))
                continue
            cut = self._cut(d, q, t, idx, k)
            cmds.append(Command(
                "verify", ["verify", "--plane", plane, "--set", cut, "--t", str(t)],
                check_verify_cut(family, q, self.lines, plane, cut),
            ))
        return cmds


WORKLOADS = {w.name: w for w in (PlaneRoundtrip, SearchCertify, VerifyMany)}
