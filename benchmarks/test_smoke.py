"""Smoke test of the benchmark harness, so it cannot rot unnoticed.

Runs every workload at L=64 (a few seconds each) in both the untraced and
the traced mode and checks that each reports every metric that
BENCHMARK.json declares.  Run with:

    python -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=None, bench=HERE / "bench.py"):
    return subprocess.run(
        [sys.executable, str(bench), *args], capture_output=True, text=True,
        timeout=600, cwd=cwd, check=False,
    )


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_at_small_scale(trace, group):
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0",
                     "--trace", str(trace), "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{w['name']}/{m['name']}": m["unit"] for w in SPEC["workloads"] for m in SPEC[group]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "sweep-narrow", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, bench=tmp_path / "benchmarks" / "bench.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
