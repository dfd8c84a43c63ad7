"""Self-test of the benchmark on tiny planes (q <= 4).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that span self times plus the CLI time no span covers add up to
each command's wall time, that no wrapper survives a traced run, that one
seed always gives the same command list, that probes are isolated, how the
timed metrics are derived, and that the metric names agree with
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import unittest

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

import run  # noqa: E402  (perfbench/ is on sys.path as the script directory)
from tracer import _package_modules, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Command, PlaneRoundtrip, SearchCertify, VerifyMany, family_spectrum,
    spectrum_json, verify_line,
)


def tiny(name, seed, workdir):
    """The workload with every plane of order at most 4."""
    if name == "plane_roundtrip":
        return PlaneRoundtrip(seed, workdir, square_orders=(4,), cap_order=3)
    if name == "search_certify":
        return SearchCertify(seed, workdir, certify_order=2, searches=((3, 3, True),),
                             budget_probes=((4, 1, 1000),), deep_probes=())
    return VerifyMany(seed, workdir, strata=((3, 3, 6), (4, 1, 8)))


def module_state():
    """Every attribute of the blocksets modules and of their classes, by identity."""
    state = {}
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            state[(mod.__name__, attr)] = id(obj)
            if isinstance(obj, type) and obj.__module__.startswith("blocksets"):
                for mattr, mobj in vars(obj).items():
                    state[(mod.__name__, attr, mattr)] = id(mobj)
    return state


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def traced_run(self, name):
        """One untraced and one traced pass of the tiny workload, as run.py makes them."""
        workload = tiny(name, 7, self.workdir)
        d = workload.path("setup0")
        cli, _, _ = run.set_up(workload, SRC, d)
        before = module_state()
        commands = workload.pass_commands(d)
        _, traced, once, stats, searches = run.traced_passes(cli, workload, SRC, commands, 0)
        return workload, traced[0] + once, stats, searches, before

    def test_spans_partition_each_command(self):
        for name in WORKLOADS:
            workload, results, stats, _, _ = self.traced_run(name)
            self.assertTrue(results)
            for r in results:
                self.assertEqual(r["status"], "ok", (name, r["argv"], r["why"]))
                uncovered_cli = r["wall"] - r["span_top_s"]
                self.assertGreaterEqual(uncovered_cli, 0.0)
                self.assertLess(uncovered_cli, 0.005 + 0.05 * r["wall"])
                self.assertAlmostEqual(r["span_self_s"] + uncovered_cli, r["wall"], delta=1e-6)
            self.assertTrue(all(entry[2] >= -1e-9 for entry in stats.values()))
            setup = workload.setup_commands(workload.path("traced_setup"))
            self.assertEqual(stats["cli.main"][0], len(setup) + len(results))

    def test_no_wrapper_left_after_traced_run(self):
        _, _, stats, searches, before = self.traced_run("search_certify")
        self.assertGreater(stats["search.exhaustive_extremal_search"][0], 0)
        self.assertEqual(len(searches), stats["search.exhaustive_extremal_search"][0])
        self.assertEqual(Tracer.leftover_wrappers(), [])
        self.assertEqual(module_state(), before)

    def test_one_seed_one_command_list(self):
        for name, cls in WORKLOADS.items():
            for make in (cls, lambda s, w, name=name: tiny(name, s, w)):
                first = make(3, self.workdir).command_list()
                self.assertEqual(first, make(3, self.workdir).command_list())
        many = [VerifyMany(s, self.workdir).command_list() for s in (1, 2)]
        self.assertNotEqual(many[0], many[1])
        self.assertEqual(len(many[0]), len(many[1]))

    def test_probe_failure_is_recorded_and_limit_restored(self):
        limit = resource.getrlimit(resource.RLIMIT_AS)

        def crash(argv):
            raise MemoryError

        probe = Command("verify", ["verify"], lambda rc, out: None, probe="test",
                        address_budget=1 << 30)
        result = run.run_command(crash, probe)
        self.assertEqual((result["status"], result["error"]), ("probe_failed", "MemoryError"))
        self.assertEqual(resource.getrlimit(resource.RLIMIT_AS), limit)
        regular = Command("verify", ["verify"], lambda rc, out: None)
        self.assertEqual(run.run_command(crash, regular)["status"], "wrong")

    def test_wall_ref_divides_wall_by_reference(self):
        timer = run.ReferenceTimer()
        timer.sample_if_due()
        timer.sample_if_due()  # not due yet
        self.assertEqual(len(timer.samples), 1)
        self.assertGreater(timer.samples[0], 0.0)
        passes = [[{"group": "timed", "index": 0, "kind": "verify", "wall": w, "status": "ok",
                    "searches": 0, "complete": 0}] for w in (0.3, 0.1, 0.2)]
        report = run.end_to_end(passes, [], (1.0, 3.0, 2.0), 10.0, 0.004)
        self.assertAlmostEqual(report["wall_s"]["value"], 0.2)
        self.assertEqual(report["wall_ref"]["unit"], "ref")
        self.assertAlmostEqual(report["wall_ref"]["value"], 50.0)
        self.assertEqual(report["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(report["peak_rss_mb"]["unit"], "MB")

    def test_gate_rejects_wrong_output(self):
        spec = family_spectrum("unital", 4)
        self.assertEqual(spectrum_json(spec), '{"1": 9, "3": 12}')
        workload = PlaneRoundtrip(1, self.workdir, square_orders=(4,), cap_order=3)
        d = workload.path("setup0")
        verify = next(c for c in workload.pass_commands(d) if c.kind == "verify" and not c.probe)
        right = verify_line(9, spec, True)
        self.assertIsNone(verify.check(0, right))
        self.assertIsNotNone(verify.check(0, right.replace("12", "11")))
        self.assertIsNotNone(verify.check(1, right))

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "blocksets", "cli.py")):
        sys.exit("error: run from the repository root")
    unittest.main()
