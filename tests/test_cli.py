import json
import sys
from pathlib import Path

import numpy as np
import pytest

import discountlab as dl
from discountlab.cli import (PIPELINES, ExperimentSpec, dumps_precise,
                             emit_plotdata, main, parse_config,
                             run_experiment, serialize_config)
from discountlab.errors import BadValue, ParseError, UnknownKey


def test_parse_minimal_config_fills_defaults():
    spec = parse_config("instance = constant-coupling\n"
                        "pipeline = duality\nlambda = 1.0\n")
    assert spec.instance == "constant-coupling"
    assert spec.pipeline == "duality"
    assert spec.lam == 1.0
    assert spec.rungs == 18 and spec.lambda_ratio == 0.5  # defaults


def test_parse_rejects_unknown_pipeline():
    with pytest.raises(BadValue):
        parse_config("instance = constant-coupling\npipeline = dance\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(UnknownKey):
        parse_config("instance = a\npipeline = solve\nfrobnicate = 1\n")


def test_face_tol_is_an_unknown_key(tmp_path):
    # the exact face needs no relaxation, so the key is gone
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("instance = eikonal-f\npipeline = selection\n"
                   f"face_tol = 1e-9\noutput_dir = {tmp_path / 'o'}\n")
    with pytest.raises(UnknownKey):
        parse_config(cfg.read_text())
    assert main(["run", str(cfg)]) == 2


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_config("instance = a\nthis line has no equals sign\n")
    assert "line 2" in str(info.value)


def test_parse_rejects_bad_value_and_duplicates():
    with pytest.raises(BadValue):
        parse_config("instance = a\npipeline = solve\nlambda = abc\n")
    with pytest.raises(ParseError):
        parse_config("instance = a\ninstance = b\npipeline = solve\n")
    with pytest.raises(BadValue):
        parse_config("pipeline = solve\n")  # missing instance


def test_parse_rejects_non_finite_floats(tmp_path):
    # every float key: inf and nan used to run into a solver failure
    for key in ("lambda", "tol", "damping", "xi_radius", "erg_radius"):
        for raw in ("inf", "-inf", "nan"):
            with pytest.raises(BadValue):
                parse_config(f"instance = a\npipeline = solve\n"
                             f"{key} = {raw}\n")
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(f"instance = linear-B\npipeline = solve\nlambda = inf\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2


def test_parse_serialize_fixpoint():
    text = ("instance = quadratic-plc\npipeline = sweep\nlambda = 0.25\n"
            "rungs = 6\nseed = 7\n# comment\n")
    spec = parse_config(text)
    assert parse_config(serialize_config(spec)) == spec
    assert serialize_config(parse_config(serialize_config(spec))) \
        == serialize_config(spec)


def test_run_duality_pipeline(tmp_path):
    spec = ExperimentSpec(instance="constant-coupling", pipeline="duality",
                          lam=1.0, output_dir=str(tmp_path / "out"))
    report = run_experiment(spec)
    assert report.status == 0 and report.passed
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc["pass"] is True
    three = doc["sections"]["three_way_value_at_probe"]
    for key in ("solver", "measure_lp", "subsolution_lp"):
        assert abs(three[key] + 0.5) <= 1e-9
    csv = (tmp_path / "out" / "duality.csv").read_text().splitlines()
    assert csv[0] == "mode,state,solver,measure_lp,subsolution_lp"
    assert len(csv) == 1 + 8
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {"spec", "versions", "seed", "wall_time_s",
            "determinism_sha256"} <= set(manifest)


def _small_spec(pipeline, out, **overrides):
    """Eikonal-f on six points: every pipeline finishes in well under 1 s."""
    kwargs = dict(instance="eikonal-f", pipeline=pipeline, grid_points=6,
                  ergodic_lambda=0.01, ergodic_tol=1e-12, samples=200,
                  output_dir=str(out))
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_run_is_deterministic(tmp_path):
    for pipeline in PIPELINES:
        dirs = [tmp_path / pipeline / d for d in ("one", "two")]
        reports = [run_experiment(_small_spec(pipeline, d, seed=3))
                   for d in dirs]
        assert all(r.status == 0 for r in reports), (pipeline, reports)
        a, b = ((d / "result.json").read_bytes() for d in dirs)
        assert a == b, pipeline
        hashes = [json.loads((d / "manifest.json").read_text())
                  ["determinism_sha256"] for d in dirs]
        assert hashes[0] == hashes[1], pipeline


def test_full_writes_every_table(tmp_path):
    assert run_experiment(_small_spec("full", tmp_path)).status == 0
    for name in ("duality.csv", "sweep.csv", "sweep.dat"):
        assert (tmp_path / name).is_file(), name
    rows = (tmp_path / "duality.csv").read_text().splitlines()
    assert len(rows) == 1 + 6


def test_mather_and_selection_write_sweep_files(tmp_path):
    for pipeline in ("mather", "selection"):
        out = tmp_path / pipeline
        assert run_experiment(_small_spec(pipeline, out)).status == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 18
        assert len((out / "sweep.dat").read_text().splitlines()) == 1 + 18


def _count_calls(monkeypatch, func):
    """Replace ``func`` in every discountlab module that binds it with a
    wrapper that records each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "discountlab" or name.startswith("discountlab."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_full_computes_each_stage_once(tmp_path, monkeypatch):
    ergodic = _count_calls(monkeypatch, dl.solver.ergodic_solve)
    sweeps = _count_calls(monkeypatch, dl.limits.discount_sweep)
    mather = _count_calls(monkeypatch, dl.limits.mather_lp)
    assert run_experiment(_small_spec("full", tmp_path)).status == 0
    assert len(ergodic) == 1
    assert len(sweeps) == 1
    assert len(mather) == 1


def test_duality_solves_one_lp_per_field(tmp_path, monkeypatch):
    subsolution = _count_calls(monkeypatch, dl.measures.subsolution_lp)
    lps = _count_calls(monkeypatch, dl.lp.lp_solve)
    spec = ExperimentSpec(instance="quadratic-plc", pipeline="duality",
                          grid_points=8, output_dir=str(tmp_path))
    assert run_experiment(spec).status == 0
    assert len(subsolution) == 0
    # the summed-seed measure LP, cold, whose duals are the greatest
    # subsolution; each of the m * S = 16 point seeds is certified on its
    # basis
    assert [kwargs.get("basis") for _, kwargs in lps] == [None]


def test_duality_reports_the_probe_point(tmp_path):
    spec = ExperimentSpec(instance="quadratic-plc", pipeline="duality",
                          grid_points=8, probe_state=3, probe_mode=1,
                          output_dir=str(tmp_path))
    assert run_experiment(spec).status == 0
    doc = json.loads((tmp_path / "result.json").read_text())["sections"]
    (audit,) = [a for a in doc["audits"] if (a["z"], a["k"]) == (3, 1)]
    assert doc["three_way_value_at_probe"] == {
        "solver": audit["solver_value"], "measure_lp": audit["measure_value"],
        "subsolution_lp": audit["subsolution_value"]}
    assert doc["audits"][0]["solver_value"] != audit["solver_value"]


@pytest.mark.parametrize("seed", [0, 1])
def test_exhaustive_face_solves_no_sampling_lp(tmp_path, monkeypatch, seed):
    # 1 Mather LP, 1 face-support LP and 1 selection-field LP: the face
    # is enumerated, so no sampling LP runs
    lps = _count_calls(monkeypatch, dl.lp.lp_solve)
    assert run_experiment(_small_spec("selection", tmp_path,
                                      seed=seed)).status == 0
    assert len(lps) == 3


_STAGES = {"structure": [], "solve": [], "duality": ["audits"],
           "sweep": ["ergodic", "sweep"], "ergodic": ["ergodic"],
           "mather": ["ergodic", "sweep", "mather", "green_poisson"],
           "selection": ["ergodic", "sweep", "mather", "selection"],
           "full": ["audits", "ergodic", "sweep", "mather", "green_poisson",
                    "selection"]}


def test_manifest_times_each_stage_once(tmp_path):
    for pipeline in PIPELINES:
        out = tmp_path / pipeline
        assert run_experiment(_small_spec(pipeline, out)).status == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = [stage["name"] for stage in manifest["stages"]]
        assert sorted(names) == sorted(_STAGES[pipeline]), pipeline
        walls = [stage["wall_s"] for stage in manifest["stages"]]
        assert all(0.0 <= w for w in walls)
        assert sum(walls) <= manifest["wall_time_s"]


def test_full_sections_match_single_pipelines(tmp_path):
    docs = {}
    for pipeline in ("full", "duality", "ergodic", "sweep", "mather",
                     "selection"):
        assert run_experiment(_small_spec(pipeline, tmp_path / pipeline)) \
            .status == 0
        docs[pipeline] = json.loads(
            (tmp_path / pipeline / "result.json").read_text())["sections"]
    full = docs["full"]
    assert full["duality"] == {"max_spread": docs["duality"]["max_spread"]}
    assert full["ergodic"] == docs["ergodic"]
    assert full["sweep"] == docs["sweep"]["sweep"]
    assert full["mather"] == docs["mather"]
    assert full["selection"] == docs["selection"]


def test_run_unwritable_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    spec = ExperimentSpec(instance="constant-coupling", pipeline="solve",
                          output_dir=str(blocker / "sub"))
    report = run_experiment(spec)
    assert report.status == 2
    assert report.error


def test_run_structure_pipeline(tmp_path):
    spec = ExperimentSpec(instance="linear-B", pipeline="structure",
                          samples=300, output_dir=str(tmp_path))
    report = run_experiment(spec)
    assert report.status == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert all(r["passed"] for r in doc["sections"]["reports"])


def test_run_ergodic_pipeline(tmp_path):
    spec = ExperimentSpec(instance="eikonal-f", pipeline="ergodic",
                          grid_points=64, ergodic_lambda=0.05,
                          ergodic_tol=1e-9, output_dir=str(tmp_path))
    report = run_experiment(spec)
    assert report.status == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert abs(doc["sections"]["c"][0] + 1.0) <= 0.2
    assert doc["sections"]["erg_condition"] is True


def test_run_full_pipeline_eikonal(tmp_path):
    spec = ExperimentSpec(instance="eikonal-f", pipeline="full",
                          grid_points=16, lam=0.5, rungs=18,
                          ergodic_lambda=0.01, ergodic_tol=1e-11,
                          output_dir=str(tmp_path))
    report = run_experiment(spec)
    assert report.status == 0 and report.passed
    doc = json.loads((tmp_path / "result.json").read_text())
    gap = doc["sections"]["selection"]["report"]["limit_vs_selection_gap"]
    assert gap <= 1e-5
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 18


def test_main_run_and_zoo(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("instance = constant-coupling\npipeline = solve\n"
                   f"lambda = 0.5\noutput_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 0
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    for zid in dl.model.ZOO_IDS:
        assert zid in out
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_main_verify(tmp_path, instance_a):
    path = tmp_path / "sys.json"
    path.write_text(dl.system_to_json(instance_a))
    assert main(["verify", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["controls"][0]["eta"] = [1.0, 1.0]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def _malformed_systems(instance):
    doc = json.loads(dl.system_to_json(instance))
    yield "list", "[1, 2]"
    yield "no-controls", json.dumps({k: v for k, v in doc.items()
                                     if k != "controls"})
    for key, value in (("mode", -1), ("mode", 0.5), ("xi", [0.0, 0.0]),
                       ("eta", [0.0])):
        bad = json.loads(json.dumps(doc))
        bad["controls"][0][key] = value
        yield f"{key}-{value}", json.dumps(bad)


def test_malformed_system_is_an_input_error(tmp_path, instance_b):
    # a run on it exits 2 with an error record, and verify calls it invalid
    for name, text in _malformed_systems(instance_b):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        spec = ExperimentSpec(instance=str(path), pipeline="solve",
                              output_dir=str(tmp_path / name))
        report = run_experiment(spec)
        assert report.status == 2 and not report.passed, name
        doc = json.loads((tmp_path / name / "result.json").read_text())
        assert doc["error"]["type"] == "ParseError", name
        assert main(["verify", str(path)]) == 1, name


def test_unreadable_instance_is_an_input_error(tmp_path):
    # a directory, and a file that is not text
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for name, path in (("dir", tmp_path), ("binary", binary)):
        spec = ExperimentSpec(instance=str(path), pipeline="solve",
                              output_dir=str(tmp_path / name))
        report = run_experiment(spec)
        assert report.status == 2 and not report.passed, name
        doc = json.loads((tmp_path / name / "result.json").read_text())
        assert doc["error"]["type"] == "BadValue", name


def test_emit_plotdata_columns(tmp_path, instance_a):
    sweep = dl.discount_sweep(instance_a, 1.0, 0.5, 10, tol=1e-11)
    path = tmp_path / "sweep.dat"
    emit_plotdata(sweep, path, probe=(0, 0))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 10
    for row in lines[1:]:
        lam, val, sup, gap = (float(t) for t in row.split())
        assert abs(val + 1.0 / (1.0 + lam)) <= 1e-10
    gaps = [float(r.split()[3]) for r in lines[1:-1]]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert np.isnan(float(lines[-1].split()[3]))


def test_emit_plotdata_empty_ladder(tmp_path):
    from discountlab.limits import SweepResult
    empty = SweepResult(lambdas=[], fields=[], diagnostics=[],
                        cauchy_gaps=[], uniform_bound=0.0)
    path = tmp_path / "empty.dat"
    emit_plotdata(empty, path)
    assert path.read_text().splitlines() == ["# lambda value_at_probe "
                                             "sup_norm cauchy_gap"]


def test_dumps_precise_float_formatting():
    text = dumps_precise({"v": 1.0 / 3.0, "i": 7, "flag": True, "s": "x"})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"v": 1.0 / 3.0, "i": 7, "flag": True,
                                "s": "x"}


def test_thread_cap_env(tmp_path):
    import subprocess, sys as _sys
    code = ("import os\n"
            "import discountlab\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    env = dict(**__import__('os').environ)
    env["DISCOUNTLAB_THREADS"] = "2"
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([_sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "2"


def test_module_entry_point():
    # python -m discountlab runs the command line, with no warning about
    # a module found in sys.modules before it ran
    import os, subprocess
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-W", "error", "-m", "discountlab",
                           "zoo", "list"], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(dl.model.ZOO_IDS)


def test_manifest_records_thread_setting(tmp_path):
    import hashlib, os, subprocess
    env = dict(os.environ)
    env["DISCOUNTLAB_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    hashes = []
    # the cap takes effect only when discountlab loads before numpy
    for first, expect in (("discountlab", "1"), ("numpy", None)):
        out = tmp_path / first
        config = tmp_path / f"{first}.cfg"
        config.write_text("instance = constant-coupling\npipeline = solve\n"
                          f"output_dir = {out}\n")
        code = (f"import sys, {first}\nfrom discountlab.cli import main\n"
                f"sys.exit(main(['run', {str(config)!r}]))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == {"OMP_NUM_THREADS": expect,
                                       "OPENBLAS_NUM_THREADS": expect,
                                       "MKL_NUM_THREADS": expect}
        # the setting stays out of result.json and so out of its hash
        result_bytes = (out / "result.json").read_bytes()
        assert b"NUM_THREADS" not in result_bytes
        assert manifest["determinism_sha256"] == \
            hashlib.sha256(result_bytes).hexdigest()
        hashes.append(manifest["determinism_sha256"])
    assert hashes[0] == hashes[1]


def test_exit_status_one_on_audit_failure(tmp_path):
    # unnormalized eikonal diverges along a deep ladder: the sweep audit
    # honestly fails and the exit-status contract reports it as 1
    spec = ExperimentSpec(instance="eikonal-f", pipeline="sweep",
                          grid_points=16, rungs=22, tol=1e-8,
                          normalize=False, output_dir=str(tmp_path))
    report = run_experiment(spec)
    assert report.status == 1 and not report.passed
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["pass"] is False
    assert doc["sections"]["sweep"]["divergent"] is True


@pytest.mark.parametrize("probe", [dict(probe_state=100),
                                   dict(probe_state=-1),
                                   dict(probe_mode=-1)],
                         ids=["state-100", "state-minus-1", "mode-minus-1"])
def test_out_of_range_probe_is_a_usage_error(tmp_path, probe):
    spec = ExperimentSpec(instance="eikonal-f", pipeline="solve",
                          output_dir=str(tmp_path), **probe)
    report = run_experiment(spec)
    assert report.status == 2 and not report.passed
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["error"]["type"] == "BadValue"
    assert "probe" in doc["error"]["message"]


@pytest.mark.parametrize("pipeline,grid_points,probe_mode", [
    ("mather", None, 1), ("mather", 16, 0), ("full", 16, 0)],
    ids=["mather-default-1", "mather-16-0", "full-16-0"])
def test_mather_probe_in_second_mode(tmp_path, pipeline, grid_points,
                                     probe_mode):
    # the measure LP at the sweep's smallest rung is badly conditioned on
    # each of these; the pipeline must still pass
    sizes = {} if grid_points is None else dict(
        grid_points=grid_points, ergodic_lambda=0.05, ergodic_tol=1e-12)
    spec = ExperimentSpec(instance="quadratic-plc", pipeline=pipeline,
                          probe_mode=probe_mode, output_dir=str(tmp_path),
                          **sizes)
    report = run_experiment(spec)
    assert report.status == 0 and report.passed, report.error


def test_selection_and_mather_pipelines(tmp_path):
    for pipeline in ("selection", "mather"):
        spec = ExperimentSpec(instance="eikonal-f", pipeline=pipeline,
                              grid_points=8, ergodic_lambda=0.01,
                              ergodic_tol=1e-11,
                              output_dir=str(tmp_path / pipeline))
        report = run_experiment(spec)
        assert report.status == 0, (pipeline, report.error)
        doc = json.loads((tmp_path / pipeline / "result.json").read_text())
        assert doc["pass"] is True


OVERSIZE_FACES = pytest.mark.parametrize("overrides", [
    dict(instance="eikonal-f", grid_points=10),
    dict(instance="constant-coupling", grid_points=5),
    dict(instance="linear-B", grid_points=5)],
    ids=["eikonal-f-10", "constant-coupling-5", "linear-B-5"])


@OVERSIZE_FACES
def test_oversize_exact_face_keeps_the_samples(tmp_path, overrides,
                                               monkeypatch):
    # no basis fits the enumeration budget, so the sampled set stands
    monkeypatch.setattr(dl.lp, "MAX_BASES", 0)
    spec = ExperimentSpec(pipeline="selection", output_dir=str(tmp_path),
                          **overrides)
    report = run_experiment(spec)
    assert report.status == 0, report.error
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["sections"]["mather"]["exhaustive"] is False
    assert doc["sections"]["mather"]["representatives"] >= 1


@OVERSIZE_FACES
def test_pruned_exact_face_fits_the_default_budget(tmp_path, overrides):
    # 30 weight variables: C(31, 11) bases over every column, but only
    # the face's support is enumerated
    spec = ExperimentSpec(pipeline="selection", output_dir=str(tmp_path),
                          **overrides)
    report = run_experiment(spec)
    assert report.status == 0, report.error
    mather = json.loads((tmp_path / "result.json").read_text())[
        "sections"]["mather"]
    # sampling on these faces is checked by
    # test_limits.py::test_fallback_samples_match_the_exact_face
    assert mather["exhaustive"] is True
    kept, total = mather["support_columns"]
    assert total == 30 and kept < total
    assert mather["representatives"] >= 1


@pytest.mark.parametrize("pipeline, key", [
    ("solve", "tol"), ("ergodic", "ergodic_tol")])
def test_negative_tolerance_is_a_usage_error(tmp_path, monkeypatch,
                                             pipeline, key):
    # rejected before any solve is made
    evaluations = _count_calls(monkeypatch, dl.solver.policy_evaluate)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"instance = eikonal-f\npipeline = {pipeline}\n"
                   f"{key} = -1\noutput_dir = {tmp_path / 'o'}\n")
    assert main(["run", str(cfg)]) == 2
    doc = json.loads((tmp_path / "o" / "result.json").read_text())
    assert doc["pass"] is False
    assert doc["error"]["type"] == "BadValue"
    assert evaluations == []


@pytest.mark.parametrize("pipeline, overrides, error", [
    ("structure", dict(samples=0), "EmptySampleSet"),
    ("solve", dict(xi_count=-1), "BadValue")],
    ids=["samples-0", "xi-count-minus-1"])
def test_bad_counts_are_usage_errors(tmp_path, pipeline, overrides, error):
    spec = ExperimentSpec(instance="constant-coupling", pipeline=pipeline,
                          output_dir=str(tmp_path), **overrides)
    report = run_experiment(spec)
    assert report.status == 2 and not report.passed
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["error"]["type"] == error
