#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/tests/test_perfbench.py

Builds protea_perfbench through run.py (reusing .bench_build), then checks that
every metric BENCHMARK.json names prints with its unit, that the virtual
and modeled metrics repeat exactly across two runs and between one and
two worker threads, that a second seed passes the output check, and that
the traced run prints every per-layer metric and writes its spans.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["decode_steady", "prefill_shared", "overload_fp4", "encoder_batch"]
# Metrics that come from the virtual-time schedule or the cycle model.
EXACT = ["request_rounds_p50", "request_rounds_p90", "slo_attainment", "sim_cycles"]


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, threads=2):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny",
           "--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


class TimedRuns(unittest.TestCase):
    def test_every_end_to_end_metric_prints_with_its_unit(self):
        spec = bench_json()
        for w in WORKLOADS:
            code, result, out = run(w)
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"], out)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            metrics = result["metrics"]
            self.assertEqual(sorted(metrics), sorted(m["name"] for m in spec["end_to_end"]))
            for m in spec["end_to_end"]:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"], w)
                self.assertNotEqual(metrics[m["name"]]["value"], 0, (w, m["name"]))
            self.assertIn("requests per pass: sent", out)

    def test_virtual_metrics_repeat_across_runs_and_thread_counts(self):
        for w in WORKLOADS:
            runs = [run(w, threads=2), run(w, threads=2), run(w, threads=1)]
            for code, result, out in runs:
                self.assertEqual(code, 0, out)
            first = runs[0][1]["metrics"]
            for _, result, _ in runs[1:]:
                for name in EXACT:
                    self.assertEqual(result["metrics"][name]["value"],
                                     first[name]["value"], (w, name))

    def test_second_seed_passes_the_output_check(self):
        for w in WORKLOADS:
            code, result, out = run(w, seed=7)
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"], out)


class TracedRuns(unittest.TestCase):
    def test_every_per_layer_metric_prints_and_spans_are_written(self):
        spec = bench_json()
        names = [m["name"] for m in spec["per_layer"]]
        for w in WORKLOADS:
            code, result, out = run(w, trace=1)
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"], out)
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            for m in spec["per_layer"]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], w)
            self.assertIn("0 containment violations", out)
            spans = os.path.join(ROOT, ".bench_build", "traces", w + "_spans.json")
            with open(spans) as f:
                self.assertTrue(json.load(f)["traceEvents"])


if __name__ == "__main__":
    unittest.main()
