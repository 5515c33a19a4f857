"""Config-driven batch experiment runner.

Experiments are described by a flat ``key = value`` document (UTF-8,
``#`` comments, unknown keys rejected).  ``run`` executes one named
pipeline end to end and writes ``result.json`` (verdicts and values, all
floats at 17 significant digits), CSV tables, and ``manifest.json``
(config echo, versions, wall time, seed, and a determinism hash of the
result bytes).  Exit status is 0 only when every internal audit passed,
1 on an audit failure, 2 on usage or IO errors.
"""

# Thread capping must happen before any BLAS-backed import.
import os as _os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_numpy_loaded = "numpy" in sys.modules
_before_cap = {var: _os.environ.get(var) for var in _THREAD_VARS}

_cap = _os.environ.get("DISCOUNTLAB_THREADS")
if _cap:
    for _var in _THREAD_VARS + ("NUMEXPR_NUM_THREADS",):
        _os.environ.setdefault(_var, _cap)

# The thread settings numpy's BLAS loaded with, recorded in manifest.json.
# BLAS reads them once, when numpy loads: if numpy was already loaded, the
# cap above came too late and the settings from before it are in effect.
_THREADS = _before_cap if _numpy_loaded else \
    {var: _os.environ.get(var) for var in _THREAD_VARS}

import argparse
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, wraps
from pathlib import Path

import numpy as np

from . import discretize, limits, lp, measures, model, solver
from .discretize import default_eta_spec, standard_system, system_from_json
from .errors import (BadValue, DiscountLabError, ParseError, UnknownKey)
from .model import ZOO_IDS

PIPELINES = ("structure", "solve", "duality", "sweep", "mather",
             "selection", "ergodic", "full")


@dataclass
class ExperimentSpec:
    instance: str
    pipeline: str
    lam: float = 0.5
    lambda_start: float = 0.5
    lambda_ratio: float = 0.5
    rungs: int = 18
    tol: float = 1e-10
    ergodic_lambda: float = 0.05
    ergodic_tol: float = limits.ERGODIC_TOL
    damping: float = 0.5
    grid_points: int = 0           # 0 = per-instance default
    xi_radius: float = 0.0         # 0 = per-instance default
    xi_count: int = 0
    seed: int = 0
    samples: int = 1000
    face_samples: int = 12
    normalize: bool = True
    erg_radius: float = 4.0
    probe_state: int = 0
    probe_mode: int = 0
    output_dir: str = "out"


_KEY_TO_FIELD = {"lambda": "lam"}
_FIELD_TO_KEY = {"lam": "lambda"}


def _coerce(name, kind, raw):
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ValueError:
        raise BadValue(f"key {name!r}: cannot parse {raw!r} as {kind.__name__}")
    if kind is float and not np.isfinite(value):
        raise BadValue(f"key {name!r}: {raw!r} is not a finite number")
    return value


def parse_config(text: str) -> ExperimentSpec:
    """Parse a flat key = value document into an ExperimentSpec.

    Every line is read before anything is raised, and every line's key
    and raw value before any value is coerced, so the ``ParseError``,
    ``UnknownKey`` or ``BadValue`` that rejects a document carries the
    ``output_dir`` of its first well-formed ``output_dir = ...`` line
    (None when it has none).  The first error in line order is raised.
    """
    known = {f.name: f.type for f in fields(ExperimentSpec)}
    raws, error = {}, None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        field_name = _KEY_TO_FIELD.get(key, key)
        if not eq:
            error = error or ParseError(
                f"expected 'key = value', got {raw_line!r}", line=lineno)
        elif field_name not in known:
            error = error or UnknownKey(
                f"unknown configuration key {key!r} (line {lineno})")
        elif field_name in raws:
            error = error or ParseError(f"duplicate key {key!r}",
                                        line=lineno)
        else:
            raws[field_name] = raw
    try:
        if error is not None:
            raise error
        values = {name: _coerce(_FIELD_TO_KEY.get(name, name), known[name],
                                raw)
                  for name, raw in raws.items()}
        for required in ("instance", "pipeline"):
            if required not in values:
                raise BadValue(f"missing required key {required!r}")
        spec = ExperimentSpec(**values)
        if spec.pipeline not in PIPELINES:
            raise BadValue(f"pipeline must be one of {PIPELINES}, "
                           f"got {spec.pipeline!r}")
    except (ParseError, UnknownKey, BadValue) as exc:
        exc.output_dir = raws.get("output_dir")
        raise
    return spec


def serialize_config(spec: ExperimentSpec) -> str:
    lines = []
    for f in fields(ExperimentSpec):
        key = _FIELD_TO_KEY.get(f.name, f.name)
        val = getattr(spec, f.name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = format(val, ".17g")
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# precise JSON / CSV emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        if x != x:
            return '"nan"'
        if x in (float("inf"), float("-inf")):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    raise TypeError(type(x))


def dumps_precise(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_precise(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_precise(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ", ".join(json.dumps(str(k)) + ": " + dumps_precise(v)
                               for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_fresh(path: Path, text: str) -> bytes:
    """Write ``text`` (UTF-8) to a new file at ``path`` and return its
    bytes.  The old file is unlinked first: a new inode is cheaper than
    truncating and rewriting one in place, and a write that fails leaves
    none of the old content behind."""
    data = text.encode()
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    return data


def _csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    _write_fresh(path, "\n".join(lines) + "\n")


def emit_plotdata(sweep, path, probe=(0, 0)) -> None:
    """Whitespace-separated columns for gnuplot, header prefixed '#'.

    Columns: lambda, value at the probe (mode, state), sup norm, Cauchy
    gap to the next rung (nan on the last row).
    """
    k, z = probe
    rows = [(lam, float(v[k, z]), sup, gap)
            for (lam, sup, gap, _), v in zip(sweep.csv_rows(), sweep.fields)]
    lines = ["# lambda value_at_probe sup_norm cauchy_gap"]
    lines += [" ".join(format(x, ".17g") for x in row) for row in rows]
    _write_fresh(Path(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _build_system(spec: ExperimentSpec):
    if spec.instance in ZOO_IDS:
        given = (("N", spec.grid_points), ("xi_radius", spec.xi_radius),
                 ("xi_count", spec.xi_count))
        kwargs = {key: value for key, value in given if value}
        return standard_system(spec.instance, **kwargs), \
            model.make_model(spec.instance)
    path = Path(spec.instance)
    if not path.exists():
        raise BadValue(f"instance {spec.instance!r} is neither a zoo id "
                       f"nor an existing file")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadValue(f"instance {spec.instance!r} cannot be read: {exc}")
    return system_from_json(text), None


def _totals() -> dict:
    """The clock and the solvers' work counters, so far in this process."""
    return dict(wall_s=time.perf_counter(), **discretize.WORK, **solver.WORK,
                **lp.WORK)


def _stage(method):
    """A cached ``_Run`` stage that records in ``stages``, once, its wall
    time and work ``counters`` (stencil builds, Howard steps, policy
    evaluations, full and updated policy inverses, LP solves, pivots),
    less those of the stages it triggered."""
    name = method.__name__

    @wraps(method)
    def timed(run):
        outer, run._nested = run._nested, Counter()
        started = _totals()
        value = method(run)
        spent = {key: n - started[key] for key, n in _totals().items()}
        own = {key: n - run._nested[key] for key, n in spent.items()}
        run.stages.append({"name": name, "wall_s": own.pop("wall_s"),
                           "counters": own})
        run._nested = outer + Counter(spent)
        return value

    return cached_property(timed)


class _Run:
    """One run's system and shared stages, each computed at most once.

    The stages follow the paper's chain: the ergodic constant normalizes
    the system, and the sweep, the Mather measures and the selection
    limit are all read off that one normalized system.  Stages that
    produce a table record it in ``tables``; ``run_experiment`` writes
    whatever was recorded, and the stage times go to ``manifest.json``.
    """

    def __init__(self, spec: ExperimentSpec, sys_, mdl, out: Path):
        self.spec, self.sys, self.model, self.out = spec, sys_, mdl, out
        self.tables = {}
        self.stages = []
        self._nested = Counter()

    @_stage
    def audits(self):
        """Three-way duality audits at ``lam`` at every point."""
        audits = measures.field_duality_audit(self.sys, self.spec.lam)
        self.tables["duality"] = (
            ("mode", "state", "solver", "measure_lp", "subsolution_lp"),
            [(a.k, a.z, a.solver_value, a.measure_value, a.subsolution_value)
             for a in audits])
        return audits

    @_stage
    def ergodic(self):
        """(cost-shifted system, ErgodicResult) from one ergodic solve."""
        spec = self.spec
        return limits.ergodic_normalize(self.sys, lam=spec.ergodic_lambda,
                                        tol=spec.ergodic_tol,
                                        damping=spec.damping)

    @property
    def work(self):
        """The system the limit stages run on."""
        return self.ergodic[0] if self.spec.normalize else self.sys

    @_stage
    def mather(self):
        """(Mather measure, minimum, dual) of the Mather LP on ``work``."""
        return limits.mather_lp(self.work)

    @_stage
    def sweep(self):
        spec = self.spec
        sweep = limits.discount_sweep(self.work, spec.lambda_start,
                                      spec.lambda_ratio, spec.rungs, spec.tol)
        self.tables["sweep"] = (
            ("lambda", "sup_norm", "cauchy_gap", "solver_iters"),
            sweep.csv_rows())
        emit_plotdata(sweep, self.out / "sweep.dat",
                      probe=(spec.probe_mode, spec.probe_state))
        return sweep

    @_stage
    def green_poisson(self):
        """lam * the optimal measure at the sweep's smallest rung, seeded
        at the probe: the occupation measure of the sweep's policy at that
        rung, an optimal basis of the Green-Poisson LP on ``work``, which
        is not solved (0 LPs)."""
        spec = self.spec
        return limits.mather_from_sweep(self.work, self.sweep,
                                        spec.probe_state, spec.probe_mode)

    @_stage
    def selection(self):
        """(Mather face representatives, selection field) on ``work``."""
        spec = self.spec
        mset = limits.mather_face_samples(self.work, spec.face_samples,
                                          spec.seed, mather=self.mather)
        return mset, limits.selection_field(self.work, mset)

    def ergodic_constant(self):
        return self.ergodic[1].c.tolist() if self.spec.normalize else None


def _pipe_structure(run):
    mdl = run.model
    if mdl is None:
        raise BadValue("structure pipeline requires a zoo instance")
    spec = run.spec
    reports = [model.check_monotone(mdl, spec.samples, spec.seed),
               model.check_convex(mdl, spec.samples, spec.seed)]
    for i in range(mdl.m):
        xi = np.linspace(-1.0, 1.0, 5)
        etas = np.stack(default_eta_spec(mdl, i))
        table = model.legendre_transform(mdl, i, run.sys.grid.x[:1], xi, etas)
        reports.append(model.check_coupling_domain(table))
    sections = {"reports": [r.to_dict() for r in reports]}
    return sections, all(r.passed for r in reports)


def _pipe_solve(run):
    spec = run.spec
    u, _, diag = solver.policy_iterate(run.sys, spec.lam, tol=spec.tol)
    sections = {"lambda": spec.lam,
                "sup_norm": float(np.max(np.abs(u))),
                "value_at_probe": float(u[spec.probe_mode, spec.probe_state]),
                "diagnostics": diag.to_dict()}
    return sections, diag.final_residual <= 10 * spec.tol


def _pipe_duality(run):
    spec, audits = run.spec, run.audits
    probe = audits[spec.probe_mode * run.sys.num_states + spec.probe_state]
    sections = {"lambda": spec.lam,
                "max_spread": max(a.spread() for a in audits),
                "three_way_value_at_probe": {
                    "solver": probe.solver_value,
                    "measure_lp": probe.measure_value,
                    "subsolution_lp": probe.subsolution_value},
                "audits": [a.to_dict() for a in audits]}
    return sections, all(a.passed for a in audits)


def _pipe_sweep(run):
    sweep = run.sweep
    sections = {"normalized": run.spec.normalize,
                "ergodic_constant": run.ergodic_constant(),
                "sweep": sweep.to_dict()}
    return sections, not sweep.divergent


def _pipe_mather(run):
    work, sweep = run.work, run.sweep
    min_value = run.mather[1]
    scaled = run.green_poisson
    resid = limits.closedness_residual(work, scaled)
    bound = 5.0 * sweep.lambdas[-1] * (1.0 + limits.stencil_norm(work))
    pairing = scaled.pair_cost(work)
    ok = (-1e-8 <= min_value <= 1e-12) and resid <= bound \
        and abs(pairing) <= 1e-4
    sections = {"min_value": min_value,
                "scaled_measure_closedness_residual": resid,
                "closedness_bound": bound,
                "scaled_measure_cost_pairing": pairing,
                "ergodic_constant": run.ergodic_constant()}
    return sections, ok


def _pipe_selection(run):
    work, sweep = run.work, run.sweep
    mset, field = run.selection
    report = limits.convergence_report(work, sweep, field, mset)
    sections = {"mather": {"min_value": mset.min_value,
                           "exhaustive": mset.exhaustive,
                           "support_columns": mset.support_columns,
                           "representatives": len(mset.representatives)},
                "report": report.to_dict()}
    return sections, report.passed


def _pipe_ergodic(run):
    spec, mdl = run.spec, run.model
    erg = run.ergodic[1]
    sections = {"c": erg.c.tolist(), "residual": erg.residual,
                "outer_iterations": erg.outer_iterations}
    if mdl is not None:
        radii = [1.0, 2.0, 4.0, max(8.0, 2.0 * spec.erg_radius)]
        profile = model.coercivity_profile(mdl, spec.erg_radius, radii, 24)
        sections["erg_condition"] = model.check_erg_condition(profile, mdl.n)
        sections["beta"] = profile.beta
    return sections, erg.residual <= 1e-6


def _pipe_full(run):
    """Every stage section on one run; duality and sweep keep only their
    headline numbers."""
    sections = {}
    passed = True
    for name, build in (("duality", _pipe_duality), ("ergodic", _pipe_ergodic),
                        ("sweep", _pipe_sweep), ("mather", _pipe_mather),
                        ("selection", _pipe_selection)):
        s, ok = build(run)
        sections[name] = s
        passed &= ok
    sections["duality"] = {"max_spread": sections["duality"]["max_spread"]}
    sections["sweep"] = sections["sweep"]["sweep"]
    return sections, passed


_PIPELINE_FNS = {"structure": _pipe_structure, "solve": _pipe_solve,
                 "duality": _pipe_duality, "sweep": _pipe_sweep,
                 "mather": _pipe_mather, "selection": _pipe_selection,
                 "ergodic": _pipe_ergodic, "full": _pipe_full}


@dataclass
class ExitReport:
    status: int
    result_path: str
    passed: bool
    error: str = ""


def run_experiment(spec: ExperimentSpec) -> ExitReport:
    """Execute one pipeline and write result.json / tables / manifest."""
    out = Path(spec.output_dir)
    started = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        return ExitReport(2, "", False, f"output_dir not writable: {exc}")
    try:
        if spec.seed < 0:
            raise BadValue(f"seed must be >= 0, got {spec.seed}")
        run = _Run(spec, *_build_system(spec), out)
        if not (0 <= spec.probe_mode < run.sys.m
                and 0 <= spec.probe_state < run.sys.num_states):
            raise BadValue(f"probe (mode {spec.probe_mode}, state "
                           f"{spec.probe_state}) outside the system's "
                           f"{run.sys.m} modes and {run.sys.num_states} "
                           f"states")
        sections, passed = _PIPELINE_FNS[spec.pipeline](run)
    except DiscountLabError as exc:
        _write_error(out, exc, spec.pipeline, spec.instance)
        return ExitReport(2, str(out / "result.json"), False, str(exc))

    result = {"pipeline": spec.pipeline, "instance": spec.instance,
              "seed": spec.seed, "pass": bool(passed), "sections": sections}
    result_bytes = _write_fresh(out / "result.json",
                                dumps_precise(result) + "\n")
    for name, (header, rows) in run.tables.items():
        _csv(out / f"{name}.csv", header, rows)
    manifest = {"spec": {(_FIELD_TO_KEY.get(f.name, f.name)):
                         getattr(spec, f.name)
                         for f in fields(ExperimentSpec)},
                "versions": {"discountlab": _version(),
                             "numpy": np.__version__,
                             "python": sys.version.split()[0]},
                "seed": spec.seed,
                "threads": _THREADS,
                "stages": run.stages,
                "wall_time_s": time.perf_counter() - started,
                "determinism_sha256": hashlib.sha256(result_bytes).hexdigest()}
    _write_fresh(out / "manifest.json", dumps_precise(manifest) + "\n")
    return ExitReport(0 if passed else 1, str(out / "result.json"), passed)


def _write_error(out: Path, exc: DiscountLabError, pipeline, instance):
    """The ``"pass": false`` record of a run stopped by ``exc``."""
    record = {"error": {"type": type(exc).__name__, "message": str(exc)},
              "pipeline": pipeline, "instance": instance, "pass": False}
    _write_fresh(out / "result.json", dumps_precise(record) + "\n")


def _version():
    from . import __version__
    return __version__


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="discountlab")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_zoo = sub.add_parser("zoo", help="zoo utilities")
    p_zoo.add_argument("action", choices=["list"])
    p_ver = sub.add_parser("verify", help="re-verify a serialized system")
    p_ver.add_argument("system")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            spec = parse_config(text)
        except DiscountLabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            out = exc.output_dir
            if out is not None and Path(out).is_dir():
                # an earlier run's result.json must not outlive this config
                try:
                    _write_error(Path(out), exc, None, None)
                except OSError as io_exc:
                    print(f"error: {io_exc}", file=sys.stderr)
            return 2
        report = run_experiment(spec)
        if report.error:
            print(f"error: {report.error}", file=sys.stderr)
        else:
            print(f"{'PASS' if report.passed else 'FAIL'} "
                  f"-> {report.result_path}")
        return report.status
    if args.command == "zoo":
        for zid in ZOO_IDS:
            print(zid)
        return 0
    if args.command == "verify":
        try:
            text = Path(args.system).read_text()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            system_from_json(text)
        except DiscountLabError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
        print("ok")
        return 0
    parser.print_help()
    return 2

