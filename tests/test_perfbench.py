"""Smoke test of the benchmark: every BENCHMARK.json workload runs one
short traced worker and passes its gates.

The worker checks each rep's gates, one determinism sha across its reps,
the tracer's self-test and that its traced reps repeat their work
counts, so a change that breaks any of these fails here.  Nothing under
``perfbench/`` is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_passes_its_gates(workload, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", "1", "--out", str(tmp_path)],
        cwd=REPO, env=env, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    assert len(result["reps"]) >= 2
    assert [rep["errors"] for rep in result["reps"]] == \
        [[] for _ in result["reps"]]
