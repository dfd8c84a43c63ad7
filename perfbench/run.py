"""Benchmark of the blocksets command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify_many --seed 1 --seconds 15 --trace 0

One process, one client in a closed loop, no threads.  Every command goes
through ``blocksets.cli.main(argv)`` in-process and is checked against the
expected outputs in ``workloads.py``.  The untimed commands run once; then
passes of the workload's timed commands repeat until ``--seconds`` have
elapsed, at least twice, and the probes run once after them.  A command's
time is its median over the passes.  ``wall_ref`` divides the sum of these medians by the
median time of a fixed reference loop timed between commands in the same run.
``--trace 0`` installs no wrapper and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes (``tracer.py``) and
reports the per-layer metrics.  The output is a run record line and, last,
the result object.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from tracer import MODULES, Tracer
from workloads import WORKLOADS, Command

SETUP_REPEATS = 7
MIN_PASSES = 2
WORK_ROOT = ".bench_work"
REFERENCE_EVERY_S = 0.25

# The bounded metrics; each exists on every workload.  The run record adds the
# rest of the end-to-end numbers (see README.md).
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}

# Time sums by command kind, in the run record.
KIND_SUM = {"construct": "construct_s", "verify": "check_s", "spectrum": "check_s",
            "search": "search_s", "certify": "certify_s"}

TRACED_FUNCTIONS = {
    "gf": ("int_tables", "pow", "mul", "relative_norm", "in_base_subfield", "make_field"),
    "plane": ("build_desarguesian_plane", "verify_plane_axioms", "load_plane", "save_plane"),
    "families": ("hermitian_unital", "baer_subplane", "baer_complement", "plane_minus_point",
                 "characterize", "load_point_set", "save_point_set"),
    "blocking": ("spectrum", "is_t_fold_blocking", "is_minimal"),
    "extremal": ("max_size_bound", "classify_prime_power"),
    "search": ("exhaustive_extremal_search", "certify_no_other_t"),
    "cli": ("main",),
}
SEARCH_ROWS = ((4, 1), (4, 2), (4, 4), (7, 2), (7, 3), (16, 16), (19, 19), (32, 32))


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, names in TRACED_FUNCTIONS.items():
        for fn in names:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.s"] = "s"
            units[f"{mod}.{fn}.self_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    units.update({"search.nodes": "count", "search.nodes_per_s": "1/s",
                  "search.found": "count", "search.found_per_knode": "count/knode"})
    for q, t in SEARCH_ROWS:
        units.update({f"search.q{q}t{t}.nodes": "count", f"search.q{q}t{t}.s": "s",
                      f"search.q{q}t{t}.complete": "ratio", f"search.q{q}t{t}.found": "count"})
    return units


# -- running commands ----------------------------------------------------------


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def run_command(main, cmd: Command, tracer: Tracer | None = None) -> dict:
    """Run one command in-process and grade it; only the CLI call is timed."""
    for path in cmd.outputs:
        _remove(path)
    out, err = io.StringIO(), io.StringIO()
    rc = error = saved = limit = None
    if tracer is not None:
        self_before, top_before = tracer.self_total_s(), tracer.top_level_s()
    if cmd.address_budget is not None:
        # Lower the soft limit of this process only, never above a limit in force.
        saved = resource.getrlimit(resource.RLIMIT_AS)
        vm_size = address_space_in_use()
        soft = min(v for v in (vm_size + cmd.address_budget, *saved)
                   if v != resource.RLIM_INFINITY)
        resource.setrlimit(resource.RLIMIT_AS, (soft, saved[1]))
        limit = {"vm_size_mb": vm_size / 2**20, "soft_limit_mb": soft / 2**20}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(cmd.argv)
    except Exception as exc:  # a probe's crash is its recorded outcome
        error = type(exc).__name__
    finally:
        wall = time.perf_counter() - start
        if saved is not None:
            resource.setrlimit(resource.RLIMIT_AS, saved)
    stdout = out.getvalue()
    if error is not None:
        status, why = ("probe_failed" if cmd.probe else "wrong"), f"raised {error}"
    elif cmd.probe and rc == 2:
        status, why = "probe_failed", f"exit 2: {err.getvalue().strip()[:200]}"
    else:
        try:
            why = cmd.check(rc, stdout)
        except Exception as exc:  # the output could not be read back
            why = f"check raised {type(exc).__name__}: {exc}"
        status = "ok" if why is None else "wrong"
    result = {
        "kind": cmd.kind, "group": cmd.group, "wall": wall, "status": status,
        "why": why, "error": error, "rc": rc, "searches": cmd.searches,
        "complete": 0 if error else cmd.completed_searches(stdout), "address_limit": limit,
    }
    if cmd.kind in ("search", "certify"):
        result["stdout"] = stdout
    if tracer is not None:
        result["span_self_s"] = tracer.self_total_s() - self_before
        result["span_top_s"] = tracer.top_level_s() - top_before
    return result


def address_space_in_use() -> int:
    """This process's virtual size in bytes (VmSize), 0 where it cannot be read."""
    with contextlib.suppress(OSError, ValueError, StopIteration):
        with open("/proc/self/status", encoding="utf-8") as fh:
            return 1024 * next(int(ln.split()[1]) for ln in fh if ln.startswith("VmSize:"))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _reference_work() -> int:
    """A fixed pure-Python loop of dict, set, tuple and integer work, about 2 ms."""
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 61, i % 67)
        table[key] = table.get(key, 0) + i * 7 % 13
    points = set(range(0, 3000, 3))
    hits = sum(len(points.intersection(range(j, j + 40))) for j in range(0, 3000, 40))
    return len(table) + hits + sum(sorted(table.values())[:10])


class ReferenceTimer:
    """Times ``_reference_work`` between commands, at most every REFERENCE_EVERY_S.

    The machine this was tuned on runs everything up to a third faster or
    slower for minutes at a time; the median of these samples over a run
    tells how fast it ran, untimed and outside every command.  The garbage
    collector is off while the loop runs, so the program's heap does not
    enter its time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last < REFERENCE_EVERY_S:
            return
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self._last = time.perf_counter()


def run_pass(cli, commands, tracer=None, groups=("timed",), reference=None) -> list[dict]:
    """One pass, in order, over the commands of the given groups.

    ``cli.main`` is looked up here, so a traced pass calls the wrapper.  With
    a ``reference`` timer, the reference loop is timed between commands.
    """
    results = []
    for index, cmd in enumerate(commands):
        if cmd.group in groups:
            if reference is not None:
                reference.sample_if_due()
            results.append(run_command(cli.main, cmd, tracer))
            results[-1].update(index=index, argv=cmd.argv)
    gc.collect()
    return results


def import_cli(src: str):
    """Import blocksets.cli afresh from src, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "blocksets" or m.startswith("blocksets.")]:
        del sys.modules[name]
    cli = importlib.import_module("blocksets.cli")
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"blocksets imported from {cli.__file__}, not from {src}")
    return cli


class SetupFailed(Exception):
    """A set-up command printed a wrong answer; the run cannot go on."""


def set_up(workload, src, setup_dir, tracer=None, reimport=True):
    """Import plus input generation; returns (cli module, seconds, results).

    The seconds count the import, the set-up commands and the derived inputs,
    not the checks of the set-up commands' outputs.
    """
    os.makedirs(setup_dir, exist_ok=True)
    start = time.perf_counter()
    cli = import_cli(src) if reimport else sys.modules["blocksets.cli"]
    seconds = time.perf_counter() - start
    commands = workload.setup_commands(setup_dir)
    results = [run_command(cli.main, cmd, tracer) for cmd in commands]
    if all(r["status"] == "ok" for r in results):
        start = time.perf_counter()
        workload.derive(setup_dir)
        seconds += time.perf_counter() - start
    seconds += sum(r["wall"] for r in results)
    bad = [(c.argv, r["why"]) for c, r in zip(commands, results) if r["status"] != "ok"]
    if bad:
        raise SetupFailed(f"set-up command {bad[0][0]} failed: {bad[0][1]}")
    return cli, seconds, results


# -- metrics ---------------------------------------------------------------------


def median_times(passes) -> dict[int, tuple[str, float]]:
    """(kind, median seconds over the passes) of each timed command, by index.

    Other tenants of a shared machine slow it down in bursts of seconds.  The
    median of many runs of one command moves little with them; the fastest
    run keeps falling as a run gets longer, so it would depend on how many
    passes fit.
    """
    walls: dict[int, list[float]] = {}
    kinds: dict[int, str] = {}
    for p in passes:
        for r in p:
            if r["group"] == "timed":
                walls.setdefault(r["index"], []).append(r["wall"])
                kinds[r["index"]] = r["kind"]
    return {i: (kinds[i], statistics.median(w)) for i, w in walls.items()}


def end_to_end(passes, once, setup_times=(), peak_rss=None, reference_s=None) -> dict:
    """All end-to-end numbers of a run, the ones some workloads lack included.

    Times are sums and percentiles of the commands' median times, and
    ``setup_s`` is the median set-up; ratios count the first pass and the
    ``once`` commands (untimed ones and probes).  ``peak_rss`` is read before
    the probes run, so it covers the set-ups and the other commands.
    ``wall_ref`` is ``wall_s`` over ``reference_s``, the median time of the
    reference loop in the same run.
    """
    typical = median_times(passes).values()
    values = {"wall_s": sum(wall for _, wall in typical)}
    for kind, wall in typical:
        key = KIND_SUM[kind]
        values[key] = values.get(key, 0.0) + wall
    latencies = sorted(wall * 1e3 for _, wall in typical)
    values["op_p50_ms"] = statistics.median(latencies)
    values["op_p95_ms"] = (
        statistics.quantiles(latencies, n=20, method="inclusive")[18]
        if len(latencies) > 1 else latencies[0]
    )
    if setup_times:
        values["setup_s"] = statistics.median(setup_times)
    if peak_rss is not None:
        values["peak_rss_mb"] = peak_rss
    if reference_s:
        values["wall_ref"] = values["wall_s"] / reference_s
    units = {"ms": "ms", "mb": "MB", "ref": "ref"}
    report = {k: {"value": v, "unit": units.get(k.rsplit("_", 1)[1], "s")}
              for k, v in sorted(values.items())}
    counted = passes[0] + once
    failed = sum(r["status"] != "ok" for r in counted)
    report["fail_ratio"] = {"value": failed / len(counted), "unit": "ratio",
                            "failed": failed, "attempted": len(counted)}
    searches = sum(r["searches"] for r in counted)
    if searches:
        complete = sum(r["complete"] for r in counted)
        report["search_complete_ratio"] = {"value": complete / searches, "unit": "ratio",
                                           "complete": complete, "searches": searches}
    report["op_latency_samples"] = len(latencies)
    report["passes"] = len(passes)
    return report


def cli_search_rows(passes, once, commands) -> list[dict]:
    """Per-(q, t) rows from the CLI's own output; node counts need --trace 1."""
    typical = median_times(passes)
    rows = []
    for r in passes[0] + once:
        qt = commands[r["index"]].qt
        if qt is None:
            continue
        try:
            summary = json.loads(r["stdout"])
            outcome = {"found": summary["found"], "complete": summary["complete"]}
        except (ValueError, KeyError, TypeError):
            outcome = {"error": r["error"] or r["why"]}
        rows.append({"q": qt[0], "t": qt[1], "probe": r["group"] == "probe",
                     "s": typical.get(r["index"], ("", r["wall"]))[1], **outcome})
    return rows


def once_outcomes(once, commands) -> list[dict]:
    """The untimed commands and the probes: outcome and time of each."""
    return [{"argv": r["argv"], "group": r["group"], "why": commands[r["index"]].probe,
             "outcome": r["error"] or r["why"] or "ok", "s": r["wall"],
             **({"address_limit": r["address_limit"]} if r["address_limit"] else {})}
            for r in once]


def layer_metrics(stats, searches) -> tuple[dict, dict]:
    """Per-layer metrics, the full per-function table and the per-(q, t) rows.

    ``stats`` and ``searches`` cover one traced set-up, one traced pass and
    the commands that run once.  A row holds the mean over the searches of
    that (q, t).
    """
    table = {n: {"calls": v[0], "s": v[1], "self_s": v[2]} for n, v in sorted(stats.items())}
    metrics = {}
    for mod, fns in TRACED_FUNCTIONS.items():
        for fn in fns:
            row = table.get(f"{mod}.{fn}", {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in ("calls", "s", "self_s"):
                metrics[f"{mod}.{fn}.{key}"] = row[key]
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = sum(v["self_s"] for n, v in table.items()
                                       if n.split(".")[0] == mod)
    nodes = sum(r["nodes"] for r in searches)
    found = sum(r["found"] for r in searches)
    search_self = metrics["search.self_s"]
    metrics.update({
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / search_self if search_self else 0.0,
        "search.found": found,
        "search.found_per_knode": found / (nodes / 1000) if nodes else 0.0,
    })
    rows: dict[tuple[int, int], dict] = {}
    for r in searches:
        row = rows.setdefault((r["q"], r["t"]), {"q": r["q"], "t": r["t"], "searches": 0,
                                                 "nodes": 0, "s": 0.0, "complete": 0,
                                                 "found": 0, "errors": []})
        row["searches"] += 1
        for key in ("nodes", "s", "complete", "found"):
            row[key] += r[key]
        if r["error"]:
            row["errors"].append(r["error"])
    for row in rows.values():
        for key in ("nodes", "s", "complete", "found"):
            row[key] /= row["searches"]
    for q, t in SEARCH_ROWS:
        row = rows.get((q, t), {"nodes": 0, "s": 0.0, "complete": 0, "found": 0})
        for key in ("nodes", "s", "complete", "found"):
            metrics[f"search.q{q}t{t}.{key}"] = row[key]
    units = per_layer_units()
    assert set(metrics) == set(units)
    return ({k: {"value": metrics[k], "unit": units[k]} for k in units},
            {"functions": table, "search_rows": [rows[k] for k in sorted(rows)]})


# -- the run -----------------------------------------------------------------------


def machine() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    info = {"python": platform.python_version(), "nproc": nproc,
            "cpu_model": None, "mem_total_mb": None}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/meminfo", encoding="utf-8") as fh:
            kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal"))
            info["mem_total_mb"] = kb / 1024
    return info


def run_passes(workload, src, seconds):
    """The untimed commands once, passes until ``seconds`` have elapsed, at
    least MIN_PASSES of them, then the probes once; only the passes are timed.

    The untimed commands run first, in a process that holds little yet: run
    after the passes, the q=128 build's peak memory rose by 0 or 24 MB from
    run to run with what earlier commands had left on the heap.

    The SETUP_REPEATS set-ups are spread between the passes, so that one slow
    spell of the machine does not hit all of them.  The reference loop is
    timed between the timed commands; its samples are returned last.  The
    peak resident memory is read before the probes run.
    """
    cli, secs, _ = set_up(workload, src, workload.path("setup0"))
    setup_times = [secs]
    commands = workload.pass_commands(workload.path("setup0"))
    untimed = run_pass(cli, commands, groups=("untimed",))
    passes = []
    reference = ReferenceTimer()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, commands, reference=reference))
        if len(setup_times) < SETUP_REPEATS:
            cli, secs, _ = set_up(workload, src, workload.path(f"setup{len(setup_times)}"))
            setup_times.append(secs)
    while len(setup_times) < SETUP_REPEATS:
        cli, secs, _ = set_up(workload, src, workload.path(f"setup{len(setup_times)}"))
        setup_times.append(secs)
    peak_rss = peak_rss_mb()
    once = untimed + run_pass(cli, commands, groups=("probe",))
    return commands, passes, once, setup_times, peak_rss, reference.samples


def traced_passes(cli, workload, src, commands, seconds):
    """Untraced and traced passes in turn, until ``seconds`` have elapsed.

    A traced set-up, the first traced pass and the commands that run once
    give the per-layer numbers; all pairs of passes give the tracing overhead.
    """
    untraced, traced = [], []
    tracer = Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(cli, commands))
        tracer.install()
        try:
            if traced:
                traced.append(run_pass(cli, commands, tracer))
            else:
                set_up(workload, src, workload.path("traced_setup"), tracer, reimport=False)
                traced.append(run_pass(cli, commands, tracer))
                once = run_pass(cli, commands, tracer, groups=("untimed", "probe"))
                stats, searches = tracer.snapshot(), list(tracer.searches)
        finally:
            tracer.remove()
        leftover = Tracer.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left after the traced run: {leftover[:5]}")
    return untraced, traced, once, stats, searches


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, dict]:
    src = os.path.join(root, "src")
    workdir = os.path.join(WORK_ROOT, f"{workload_name}-{os.getpid()}")
    workload = WORKLOADS[workload_name](seed, workdir)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine()}
    try:
        if not trace:
            commands, passes, once, setup_times, peak_rss, samples = run_passes(
                workload, src, seconds)
            record["setup_s_each"] = setup_times
            reference_s = statistics.median(samples)
            record["reference"] = {"median_s": reference_s, "min_s": min(samples),
                                   "samples": len(samples)}
            report = end_to_end(passes, once, setup_times, peak_rss, reference_s)
            record["peak_rss_mb_with_probes"] = peak_rss_mb()
            metrics = {k: report[k] for k in END_TO_END}
            record["end_to_end"] = report
        else:
            cli, _, _ = set_up(workload, src, workload.path("setup0"))
            commands = workload.pass_commands(workload.path("setup0"))
            untraced, traced, once, stats, searches = traced_passes(
                cli, workload, src, commands, seconds)
            metrics, detail = layer_metrics(stats, searches)
            plain = end_to_end(untraced, [])["wall_s"]["value"]
            with_spans = end_to_end(traced, [])["wall_s"]["value"]
            record["tracing_overhead"] = {"untraced_wall_s": plain, "traced_wall_s": with_spans,
                                          "overhead_s": with_spans - plain,
                                          "pairs_of_passes": len(traced)}
            record.update(detail)
            passes = untraced + traced
        record["commands_per_pass"] = len(commands)
        record["once"] = once_outcomes(once, commands)
        record.setdefault("search_rows", cli_search_rows(passes, once, commands))
        wrong = [r for r in [r for p in passes for r in p] + once if r["status"] == "wrong"]
        record["wrong"] = [{"argv": r["argv"], "why": r["why"]} for r in wrong[:20]]
        result = {"correct": not wrong, "attempted": sum(len(p) for p in passes) + len(once),
                  "failed": len(wrong), "metrics": metrics}
        return record, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "blocksets", "cli.py")):
        print(f"error: no src/blocksets under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (SetupFailed, ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
