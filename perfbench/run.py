"""discountlab pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workloads are fixed
``discountlab run`` configs (``perfbench/workloads.json``); the benchmark
calls ``cli.parse_config`` and ``cli.run_experiment`` in-process, one
call at a time from a single worker (closed loop, one client), with BLAS
pinned to one thread.  It changes nothing in the library.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds
of one ``run_experiment`` call), ``setup_s`` (median, over many fresh
worker processes, of the time to import numpy and discountlab plus the
workload's first ``_build_system``) and ``peak_rss_mb`` (the largest
``ru_maxrss`` of the measuring workers, read after their first rep).
The run alternates measuring workers with set-up-only workers
(``SETUP_SHARE`` of the time), so that the set-up samples are spread
over the whole run.

Both times are given at a fixed reference machine speed.  On a shared
machine the CPU can run 15-100% slower for stretches of seconds to
minutes, so raw times depend on when a run happened.  Each worker
therefore times a calibration block (``worker.calibration_block``: fixed
work that calls no discountlab code) right after its set-up or after
every rep, and each sample is scaled by ``CALIBRATION_REF_S`` over the
block timed next to it.  A slow stretch slows the sample and its block
alike; a change to the library moves the sample but not the block, so
it shows in full.  Raw medians, quartiles and the median block are
printed above the result.

``--trace 1`` alternates untraced and traced reps and reports per-layer
call counts, self times and work counts, plus the tracing overhead.

Every rep is checked against the workload's gates; failed reps are
counted in ``failed``, and ``fail_ratio`` is printed above the result.

Human-readable lines come first; the last line of standard output is
the JSON result.  Exit status is 2, with no result, when the checkout or
the arguments are unusable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED, WORK_COUNTS

MEASURE_WORKERS = 4        # untraced run: measuring workers, one after another
SETUP_SHARE = 0.3          # share of an untraced run spent sampling set-up
# A calibration block's time on the 2-vCPU x86-64 VM the benchmark was
# built on, at its fastest (Python 3, OpenBLAS, one thread).  Fixed:
# changing it rescales every recorded time.
CALIBRATION_REF_S = 0.023
WORKER_TIMEOUT_S = 150     # hard stop for one worker process
OUT_DIR = ".perfbench_out"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "DISCOUNTLAB_THREADS": "1"}


class Unusable(Exception):
    """The checkout or the arguments cannot be benchmarked."""


def worker_env():
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def run_worker(workload, seed, seconds, trace, out_dir):
    cmd = [sys.executable, str(Path("perfbench") / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(),
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise Unusable(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_metrics(reps, untraced_walls, traced_walls):
    """Per-layer values of a traced run, by metric name."""
    traced = [r["layers"] for r in reps if r["traced"]]
    first = traced[0]
    values = {}
    for name in TRACED:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        values[f"{name}.self_s"] = statistics.median(
            t["self_s"].get(name, 0.0) for t in traced)
    for count_name, _ in WORK_COUNTS.values():
        values[count_name] = first["counts"].get(count_name, 0)
    solves = values["lp.lp_solve.calls"]
    values["lp.pivots_per_solve"] = \
        values["lp.pivots"] / solves if solves else 0.0
    raw = values["lp.vertices_raw"]
    values["limits.face_keep_ratio"] = \
        values["limits.face_vertices_kept"] / raw if raw else 0.0
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(untraced_walls))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/discountlab/__init__.py").is_file():
        raise Unusable("src/discountlab not found: run from the root of a "
                       "discountlab source checkout")
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = json.loads(
        Path("perfbench/workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        raise Unusable(f"unknown workload {args.workload!r}; "
                       f"choose from {sorted(workloads)}")
    if args.seconds <= 0:
        raise Unusable("--seconds must be positive")
    out_dir = Path(OUT_DIR) / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        runs = [run_worker(args.workload, args.seed, args.seconds, 1,
                           out_dir)]
        setups = []
    else:
        runs, setups = [], []
        rep_budget = args.seconds * (1 - SETUP_SHARE) / MEASURE_WORKERS
        setup_budget = args.seconds * SETUP_SHARE / MEASURE_WORKERS
        for _ in range(MEASURE_WORKERS):
            runs.append(run_worker(args.workload, args.seed, rep_budget, 0,
                                   out_dir))
            started = time.perf_counter()
            while time.perf_counter() - started < setup_budget:
                runs.append(run_worker(args.workload, args.seed, 0, 0,
                                       out_dir))
        setups = [(r["setup_s"], r["setup_calibration_s"]) for r in runs
                  if not r["reps"]]
    run = runs[0]
    errors = [e for r in runs for e in r["errors"]]
    shas = {r["sha"] for w in runs for r in w["reps"] if r["sha"]}
    if len(shas) > 1:
        errors.append(f"determinism_sha256 differs across workers: "
                      f"{sorted(shas)}")

    reps = [r for w in runs for r in w["reps"]]
    failed = sum(1 for r in reps if r["errors"])
    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    traced = [r["wall_s"] for r in reps if r["traced"]]
    if args.trace:
        values = layer_metrics(reps, untraced, traced)
        listed = bench["per_layer"]
    else:
        values = {"wall_s": statistics.median(
                      r["wall_s"] * CALIBRATION_REF_S / r["calibration_s"]
                      for r in reps),
                  "setup_s": statistics.median(
                      s * CALIBRATION_REF_S / c for s, c in setups),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in runs
                                     if r["reps"])}
        listed = bench["end_to_end"]
    metrics = {}
    for spec in listed:
        if spec["name"] not in values:
            raise Unusable(f"BENCHMARK.json lists {spec['name']!r}, "
                           f"which this benchmark does not measure")
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}

    q1, q3 = quartiles(untraced)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(workloads[args.workload]['config'])}")
    print(f"threads {json.dumps(run['threads'])} blas "
          f"{json.dumps(run['blas'])} versions {json.dumps(run['versions'])}")
    blocks = [r["calibration_s"] for r in reps]
    print(f"raw untraced wall_s median {statistics.median(untraced):.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f} min {min(untraced):.4f} over "
          f"{len(untraced)} reps; calibration block median "
          f"{statistics.median(blocks):.5f} s, reference "
          f"{CALIBRATION_REF_S} s")
    if setups:
        raw_setup = statistics.median(s for s, _ in setups)
        print(f"raw setup_s median {raw_setup:.4f} over {len(setups)} "
              f"workers; samples (set-up, block) "
              + ", ".join(f"{s:.4f}/{c:.5f}" for s, c in setups))
    print(f"fail_ratio {failed / len(reps):.4f} ratio "
          f"({failed} of {len(reps)} reps failed)")
    for rep in reps:
        for error in rep["errors"]:
            print(f"rep failed: {error}")
    for error in errors:
        print(f"check failed: {error}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (Unusable, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
