#!/usr/bin/env python3
"""Benchmark entry point: builds the pilot system from this checkout and
runs one workload of it.

    python3 perfbench/run.py --workload farm_backlog --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (and writes the spans to
`.bench_build/perfbench/traces/<workload>.jsonl`). The exit status is 0 only
when the run completed and every output check passed.

Everything the run builds or writes stays under `.bench_build/perfbench/`
in the checkout; each run's scratch directory (journal WALs) is removed
when the run ends, however it ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("farm_backlog", "ensemble_durable", "stage_farm")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "include" / "pa"
    ).is_dir():
        fail(f"library sources not found under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD / "cmake"),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD / "cmake"), "-j", jobs],
    ]
    with open(log, "w") as out:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    binary = BUILD / "cmake" / "pabench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def sweep_stale_work(work_root):
    """Removes whatever earlier runs left in the scratch root: everything
    but the directories of runs that are still alive."""
    if not work_root.is_dir():
        return
    for entry in work_root.iterdir():
        if entry.name.startswith("run-"):
            try:
                os.kill(int(entry.name[4:]), 0)
                continue  # a live run's directory
            except PermissionError:
                continue  # alive, owned by someone else
            except (ValueError, ProcessLookupError):
                pass
        if entry.is_dir() and not entry.is_symlink():
            shutil.rmtree(entry, ignore_errors=True)
        else:
            entry.unlink(missing_ok=True)


def valid_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
        "correct", "attempted", "failed", "metrics"
    }:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (self-test); not a measurement")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    # A terminated run still stops its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    work_root = BUILD / "work"
    sweep_stale_work(work_root)
    work = work_root / f"run-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")

    proc = None
    try:
        work.mkdir(parents=True, exist_ok=True)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.strip().splitlines()
    result = valid_result(lines[-1]) if lines else None
    if result is None:
        fail(f"{args.workload} exited {proc.returncode} without a result")
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
