"""Smoke tests of the benchmark harness, which imports the package's modules."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_quick_hitting_set_run_is_correct():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--workload", "hitting-set", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert '"correct": true' in run.stdout.splitlines()[-1]


def test_bench_quick_traced_solve_small_run_is_correct():
    # --trace 1 wraps the package's functions by name, skipping missing ones.
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--trace", "1",
         "--workload", "solve-small", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert '"correct": true' in run.stdout.splitlines()[-1]
