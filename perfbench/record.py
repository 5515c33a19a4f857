"""Record a trajectory point of the discountlab benchmark.

    python3 perfbench/record.py [--seeds 1-10] [--workloads NAME ...]
                                [--out perfbench/trajectory/BENCH_0.json]

Run from the root of a source checkout.  For every workload in
BENCHMARK.json it runs ``run.py`` once per seed untraced and twice with
tracing on the first seed, then writes one JSON file holding each run's
metrics and printed lines (raw times, calibration factor), each
end-to-end metric's median, quartiles and spread (quartile distance over
median) against its bound, the work counts of the traced
runs, and a machine block (cores, python, numpy and BLAS, cache sizes,
git commit, thread pin).  It exits with status 1 when any run failed a
check, when a spread is not below its bound (the rule the benchmark's
bounds are set for), or when the two traced runs' work counts differ.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, "src")   # worker.py imports discountlab

from run import PINNED_THREADS  # noqa: E402
from tracer import WORK_COUNTS  # noqa: E402
from worker import blas_info  # noqa: E402

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]   # raw times, calibration factor, samples
    return result


def machine_block():
    import numpy as np
    caches = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        def read(name, _index=index):
            return (_index / name).read_text().strip()
        caches[f"L{read('level')}-{read('type')}"] = read("size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                stdout=subprocess.PIPE, check=True,
                                stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "caches": caches,
            "git_commit": commit,
            "thread_pin": PINNED_THREADS}


def summarize(values, bound):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", default="perfbench/trajectory/BENCH_0.json")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    problems = []
    workloads = {}
    for name in names:
        untraced = {seed: bench_run(bench, name, seed, 0)
                    for seed in args.seeds}
        traced = [bench_run(bench, name, args.seeds[0], 1) for _ in range(2)]
        runs = list(untraced.values()) + traced
        problems += [f"{name}: a run failed its checks"
                     for r in runs if not r["correct"]]
        summary = {}
        for metric in bench["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"]
                               for r in untraced.values()], metric["bound"])
            summary[metric["name"]] = stats
            print(f"{name:22s} {metric['name']:12s} median "
                  f"{stats['median']:.4f} q1 {stats['q1']:.4f} q3 "
                  f"{stats['q3']:.4f} spread {stats['spread']:.4f} "
                  f"bound {metric['bound']}", flush=True)
            if not stats["steady"]:
                problems.append(f"{name}: {metric['name']} spread "
                                f"{stats['spread']:.4f} is not below its "
                                f"bound")
        count_names = {c for c, _ in WORK_COUNTS.values()}
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith(".calls") or k in count_names}
                  for r in traced]
        if any(c != counts[0] for c in counts):
            problems.append(f"{name}: work counts differ between traced runs")
        workloads[name] = {
            "end_to_end": summary,
            "work_counts": counts[0],
            "runs": {"untraced": {str(s): r for s, r in untraced.items()},
                     "traced": traced}}

    point = {"machine": machine_block(),
             "run_seconds": bench["run_seconds"],
             "seeds": args.seeds,
             "workloads": workloads, "problems": problems}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
