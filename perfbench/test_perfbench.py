#!/usr/bin/env python3
"""Self-test of the benchmark: runs a smoke-sized version of every workload,
untraced and traced, and checks that each named metric is emitted with its
unit and that the output checks passed.

    python3 perfbench/test_perfbench.py          # from the repository root

The first run builds the benchmark (see run.py); later runs reuse the build.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = {"units_per_s": "1/s", "cpu_us_per_unit": "us",
              "round_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.submit_us_per_unit": "us", "core.bind_ms_p50": "ms",
    "core.bind_ms_p99": "ms", "core.schedule_passes_per_1k_units": "count",
    "core.apply_latency_ms_p99": "ms", "core.commands_per_batch": "count",
    "core.finalize_us_p50": "us", "core.finalize_us_p99": "us",
    "rt.dispatch_us_p50": "us", "rt.dispatch_us_p99": "us",
    "rt.complete_us_p50": "us", "rt.complete_us_p99": "us",
    "rt.agent_queued_mean": "count", "rt.window_mean": "count",
    "net.frames_per_unit": "count", "net.bytes_per_unit": "B",
    "net.units_per_batch": "count", "net.send_us_per_frame": "us",
    "net.handler_us_per_frame.manager": "us",
    "net.handler_us_per_frame.agent": "us", "net.send_rejected": "count",
    "journal.emit_us_per_unit": "us", "journal.records_per_flush": "count",
    "journal.flush_ms_p50": "ms", "journal.flush_ms_p99": "ms",
    "journal.bytes_per_unit": "B", "journal.replay_records_per_s": "1/s",
    "trace.overhead_pct": "%", "round_ms_p90": "ms", "recover_s": "s",
}
# stage_farm is not in BENCHMARK.json (see README.md); it reports the same
# metrics plus its store figures.
STAGE_END_TO_END = {**END_TO_END, "put_mb_per_s": "MB/s",
                    "stage_mb_per_s": "MB/s"}
STAGE_PER_LAYER = {
    **PER_LAYER, "store.put_ms_per_mb": "ms", "store.stage_ms_p50": "ms",
    "store.stage_ms_p99": "ms", "store.ensure_hit_ratio": "ratio",
    "store.push_mb": "MB", "store.peer_mb": "MB",
    "store.peer_fallbacks": "count", "store.pull_retries": "count",
    "store.stage_timeouts": "count"}
# Layers each workload bypasses: their per-layer figures read 0 there.
BYPASSED = {
    "farm_backlog": ("journal.", "recover_s"),
    "ensemble_durable": ("net.", "rt.agent_queued_mean", "rt.window_mean"),
}


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        code, result, done = run(workload, trace)
        self.assertIsNotNone(result, done.stderr)
        self.assertEqual(code, 0, done.stderr)
        self.assertTrue(result["correct"], done.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
        if trace == 0:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return result

    def check_layers(self, workload):
        """Every per-layer metric is reported; exactly the bypassed layers
        read 0, the ones the workload exercises do not."""
        result = self.check(workload, 1, PER_LAYER)
        for name, metric in result["metrics"].items():
            bypassed = name.startswith(BYPASSED[workload])
            if name in ("net.send_rejected", "trace.overhead_pct",
                        "rt.agent_queued_mean"):
                continue  # legitimately 0 (or any sign) when exercised
            self.assertEqual(metric["value"] == 0, bypassed, name)

    def test_farm_backlog(self):
        self.check("farm_backlog", 0, END_TO_END)
        self.check_layers("farm_backlog")

    def test_ensemble_durable(self):
        self.check("ensemble_durable", 0, END_TO_END)
        self.check_layers("ensemble_durable")

    def test_stage_farm(self):
        self.check("stage_farm", 0, STAGE_END_TO_END)
        self.check("stage_farm", 1, STAGE_PER_LAYER)

    def test_benchmark_json_matches(self):
        """Every workload of BENCHMARK.json emits exactly its declared
        metrics, with the declared units."""
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(BYPASSED))
        for section, table in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(declared, table, section)

    def test_refuses_without_sources(self):
        """Outside a full checkout the command fails without a result."""
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload",
                 "farm_backlog", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180,
                check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
