"""Self-test of the benchmark at tiny sizes: python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a deliberately wrong expected value makes a check count as a failure,
that traced spans nest with self times >= 0 adding up to each root span, that
the speed probes scale CPU time as documented, and that the runner refuses a
directory without the package source.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
import spans
import speed

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs the package source on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


def tiny_run(workload: str, trace: bool) -> dict:
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        return run.run(workload, SEED, 0, trace, sampler, tiny=True, probes=0)
    finally:
        sampler.stop()


def one_pass(wl) -> dict:
    try:
        return run.run_pass(wl, None, 0)
    finally:
        wl.close()


def tiny_workload(name: str):
    run.OUT.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](SEED, run.OUT, **workloads.TINY[name])


class MetricsEmitted(unittest.TestCase):
    def test_runner_tables_match_benchmark_json(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in SPEC["end_to_end"]], list(run.END_TO_END.items())
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in SPEC["per_layer"]],
            [(name, unit) for name, (unit, _) in run.PER_LAYER.items()],
        )
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_metric_has_its_unit(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    result = tiny_run(w["name"], trace)["result"]
                    self.assertTrue(result["correct"], result)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = result["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, m in got.items():
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)


class WrongExpectationFails(unittest.TestCase):
    def test_chain_member_count(self):
        wl = tiny_workload("chain-d-cli")
        wl.expected_members += 1
        rec = one_pass(wl)
        self.assertEqual(rec["attempted"], 4)
        self.assertEqual(len(rec["failures"]), 1)
        self.assertIn("members", rec["failures"][0])

    def test_chain_edge_count(self):
        wl = tiny_workload("chain-d-cli")
        wl.expected_edges -= 1
        rec = one_pass(wl)
        # the graph check and the nnz(A) = 2 x edges check both fail
        self.assertEqual(len(rec["failures"]), 2)

    def test_verify_line_count(self):
        wl = tiny_workload("verify-suites")
        wl.expected["prop2"] += 1
        rec = one_pass(wl)
        self.assertEqual(rec["failures"], ["prop2: missing line"])

    def test_desk_oracle_tolerance(self):
        wl = tiny_workload("desk-oracle")
        wl.y_tol = -1.0
        rec = one_pass(wl)
        self.assertEqual(len(rec["failures"]), len(wl.instances))

    def test_raising_operation(self):
        wl = tiny_workload("chain-d-cli")
        ops = wl.ops()
        ops[0].run = lambda: 1 / 0
        _, attempted, failures = run.run_op(ops[0], None, "0.0")
        wl.close()
        self.assertEqual((attempted, len(failures)), (1, 1))
        self.assertIn("ZeroDivisionError", failures[0])


class SpansNest(unittest.TestCase):
    def test_children_inside_parents(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                report = tiny_run(name, trace=True)
                table = [[s[f] for f in spans.SPAN_FIELDS] for s in report["spans"]]
                self.assertGreater(len(table), 0)
                self.assertTrue(any(s[3] is not None for s in table))
                self.assertEqual(spans.check_nesting(table), [])
                self.assertTrue(all(t >= -1e-9 for t in spans.self_times(table)))
                for root, total, self_sum in spans.subtree_balance(table):
                    self.assertAlmostEqual(total, self_sum, delta=1e-9, msg=root)

    def test_untraced_name_is_reported(self):
        tracer = spans.Tracer("selftest")
        tracer.install(workloads.cli, ("closure.no_such_function",))
        self.assertEqual(tracer.untraced, {"pauliaccess.cli.no_such_function"})


class SpeedScaling(unittest.TestCase):
    def test_probes_inside_are_taken_out_and_speed_applied(self):
        sampler = speed.SpeedSampler()
        sampler.samples = [1.0, 2 * speed.REFERENCE, 4 * speed.REFERENCE]
        ref, speed_ = sampler.scale(1.0, since=1)
        self.assertAlmostEqual(speed_, (0.5 + 0.25) / 2)
        self.assertAlmostEqual(ref, (1.0 - 6 * speed.REFERENCE) * speed_)

    def test_short_work_is_probed_after(self):
        sampler = speed.SpeedSampler()
        ref, speed_ = sampler.scale(0.01, since=0)
        self.assertEqual(len(sampler.samples), 1)
        self.assertAlmostEqual(ref, 0.01 * speed_)

    def test_timer_fires_and_stops(self):
        sampler = speed.SpeedSampler()
        sampler.start()
        try:
            end = time.process_time() + 5 * speed.INTERVAL
            while time.process_time() < end:
                speed.probe()
        finally:
            sampler.stop()
        self.assertGreater(len(sampler.samples), 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))


class BareDirectory(unittest.TestCase):
    def test_refuses_without_package_source(self):
        run.OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / run.BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "chain-d-cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
