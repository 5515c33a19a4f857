"""One benchmark worker process: set up a workload, then run reps of it.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH
and BLAS pinned to one thread through the environment, so the pin is in
effect before numpy loads.  The worker times its own set-up (importing
numpy and discountlab, then the workload's first ``_build_system``), and
then, while its time budget lasts, calls ``cli.run_experiment`` one rep
at a time (closed loop, one client).  After each rep (or, in a
set-up-only worker, after its set-up) it times one calibration block, a
fixed piece of work that calls no discountlab code, so that ``run.py``
can tell how fast the machine ran at that moment.  Every rep is checked
against the workload's gates.  With ``--trace 1`` untraced and traced
reps alternate and the traced ones record per-layer spans and work
counts.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from discountlab import cli  # noqa: E402
from run import PINNED_THREADS  # noqa: E402


def config_text(workload, seed, output_dir):
    lines = [f"{key} = {value}" for key, value in workload["config"].items()]
    lines += [f"seed = {seed}", f"output_dir = {output_dir}"]
    return "\n".join(lines) + "\n"


def _lookup(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return doc


def gate_errors(workload, report, out_dir):
    """Why one rep's outputs are wrong, or an empty list when they are right."""
    if report.status != 0:
        return [f"exit status {report.status} {report.error}".strip()]
    result = json.loads((out_dir / "result.json").read_text())
    errors = [] if result["pass"] is True else ["pass is not true"]
    for gate in workload["gates"]:
        value = _lookup(result, gate["path"])
        if "max" in gate:
            ok = value <= gate["max"]
        elif "equals" in gate:
            ok = value == gate["equals"]
        else:
            ok = np.max(np.abs(np.asarray(value) - gate["near"])) \
                <= gate["tol"]
        if not ok:
            errors.append(f"{gate['path']} = {value!r} fails {gate}")
    return errors


def calibration_data():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((40, 40)), rng.standard_normal(40),
            rng.standard_normal(500), rng.standard_normal(800))


def calibration_block(data):
    """Seconds of a fixed block of interpreter, LAPACK and memory work.

    The mix resembles the library's: Python loops, dict updates, small
    dense solves and rank-1 updates of a 3 MB array, larger than the L2
    cache, as in a simplex pivot.  A mix of kinds matters: in a slow
    stretch, interpreter-bound and memory-bound code slow by different
    amounts.  The array is updated in bands of 50 rows, so no second
    3 MB temporary is made.  The block calls no discountlab code, so a
    change to the library cannot move it; only the speed of the machine
    at the time does.
    """
    a, b, u, v = data
    eye = np.eye(len(a))
    start = time.perf_counter()
    x = np.zeros((len(u), len(v)))
    for _ in range(4):
        total = 0
        for i in range(20000):
            total += i * i
        counts = {}
        for i in range(8000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for i in range(100):
            np.linalg.solve(a + i * eye, b)
        for row in range(0, len(u), 50):
            x[row:row + 50] -= np.outer(u[row:row + 50], v)
            x[row:row + 50] += np.outer(u[row:row + 50], v)
    return time.perf_counter() - start


def blas_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="rep budget; 0 times set-up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench_dir = Path(__file__).resolve().parent
    workload = json.loads((bench_dir / "workloads.json").read_text())[
        "workloads"][args.workload]
    out_dir = Path(args.out)
    spec = cli.parse_config(config_text(workload, args.seed, out_dir))
    cli._build_system(spec)
    setup_s = time.perf_counter() - _T0

    tracer = None
    errors = []
    if args.trace:
        from tracer import Tracer, self_test
        errors += self_test()
        tracer = Tracer()

    calibration = calibration_data()
    # A set-up-only worker pairs its set-up with the block timed next.  A
    # measuring worker pairs each rep with the block timed right after it,
    # and reads its peak RSS after the first rep, before any block: the
    # block's array would otherwise add to the peak of a small workload.
    setup_calibration_s = None if args.seconds > 0 else \
        calibration_block(calibration)
    peak_rss_mb = None
    reps = []      # {"traced", "wall_s", "calibration_s", "sha", ...}
    started = time.perf_counter()
    while args.seconds > 0:
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] + r["calibration_s"]
                                    for r in reps) if reps else 0
        traced = bool(tracer) and len(reps) % 2 == 1
        need_more = not reps or (tracer and len(reps) < 2)
        if not need_more and elapsed + typical > args.seconds:
            break
        reps.append(run_rep(spec, workload, out_dir, tracer if traced
                            else None, len(reps)))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reps[-1]["calibration_s"] = calibration_block(calibration)

    shas = {r["sha"] for r in reps if r["sha"]}
    if len(shas) > 1:
        errors.append(f"determinism_sha256 differs across reps: {sorted(shas)}")
    if tracer:
        counts = [r["layers"] for r in reps if r["traced"]]
        if any(c["calls"] != counts[0]["calls"]
               or c["counts"] != counts[0]["counts"] for c in counts):
            errors.append("work counts differ between traced reps")
        spans_path = out_dir / "spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "reps": reps,
        "errors": errors,
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
        "blas": blas_info(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__},
    }))
    return 0


def run_rep(spec, workload, out_dir, tracer, index):
    """One closed-loop call of ``cli.run_experiment`` and its gate check."""
    if tracer:
        tracer.rep = index
        tracer.reset()
        tracer.install()
    rep = {"traced": tracer is not None, "sha": None}
    start = time.perf_counter()
    try:
        report = cli.run_experiment(spec)
        rep["wall_s"] = time.perf_counter() - start
        rep["errors"] = gate_errors(workload, report, out_dir)
        if report.status == 0:
            manifest = json.loads((out_dir / "manifest.json").read_text())
            rep["sha"] = manifest["determinism_sha256"]
    except Exception:  # a crashed rep is a failed rep; keep measuring
        rep["wall_s"] = time.perf_counter() - start
        rep["errors"] = [traceback.format_exc()]
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        rep["layers"] = {"calls": dict(tracer.calls),
                         "self_s": dict(tracer.self_s),
                         "counts": dict(tracer.counts)}
    return rep


if __name__ == "__main__":
    sys.exit(main())
