import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropevo import arena, evaluators, formats, ga, gcode, landscape
from dropevo.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from dropevo.formulation import normalize

FAST_CONFIG = {
    "ga": {"generations": 3, "population_size": 8, "carry_overs": 4,
           "runs": 1, "rng_seed": 7},
    "arena": {"duration": 2.0},
}


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(FAST_CONFIG))
    return str(p)


def run_evolve(tmp_path, fast_config, out="out", extra=()):
    out_dir = tmp_path / out
    rc = main(["evolve", "--config", fast_config, "--objective", "movement",
               "--out-dir", str(out_dir), *extra])
    assert rc == EXIT_OK
    return out_dir


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["evolve", "--objective", "sideways"]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["evolve", "--config", "/nonexistent.json"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_evolve_outputs(tmp_path, fast_config):
    out_dir = run_evolve(tmp_path, fast_config)
    history = out_dir / "history_run0.csv"
    assert formats.validate_file(history, "history") == []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "evolve"
    assert manifest["seed"] == 7
    assert "arena RNG contract v2" in manifest["rng"]
    # 8 initial + 2 generations x 4 newborns.
    assert manifest["bookkeeping"]["recipes_per_run"] == 16
    assert manifest["bookkeeping"]["experiments"] == 48
    assert "history_run0.csv" in manifest["outputs"]


def test_evolve_seed_flag_overrides_config(tmp_path, fast_config):
    a = run_evolve(tmp_path, fast_config, "a", ("--seed", "123"))
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == 123


def test_evolve_deterministic_across_invocations(tmp_path, fast_config):
    a = run_evolve(tmp_path, fast_config, "a")
    b = run_evolve(tmp_path, fast_config, "b")
    assert (a / "history_run0.csv").read_bytes() == (b / "history_run0.csv").read_bytes()


def test_evolve_emit_gcode(tmp_path, fast_config):
    out_dir = run_evolve(tmp_path, fast_config, "g", ("--emit-gcode",))
    scripts = sorted((out_dir / "gcode").glob("experiment_*.gcode"))
    assert len(scripts) == 16
    assert formats.validate_file(scripts[0], "gcode") == []


def test_landscape_pipeline(tmp_path, fast_config):
    out_dir = run_evolve(tmp_path, fast_config)
    land_dir = tmp_path / "land"
    rc = main(["landscape", str(out_dir / "history_run0.csv"),
               "--sigma", "0.2", "--lambda", "1e-3", "--resolution", "31",
               "--out-dir", str(land_dir)])
    assert rc == EXIT_OK
    assert formats.validate_file(land_dir / "landscape.csv", "landscape") == []
    islands = json.loads((land_dir / "islands.json").read_text())
    assert islands and islands[0]["rank"] == 0
    for face in range(4):
        assert (land_dir / f"face_{face}.pgm").read_bytes().startswith(b"P5\n31 31\n")
    manifest = json.loads((land_dir / "manifest.json").read_text())
    assert manifest["config"]["sigma"] == 0.2
    assert manifest["training_points"] == 16
    assert manifest["seed"] is None            # --seed is evolve's alone


def test_landscape_rejects_bad_history(tmp_path, capsys):
    bad = tmp_path / "history.csv"
    bad.write_text("not,a,history\n1,2,3\n")
    assert main(["landscape", str(bad), "--out-dir", str(tmp_path / "o")]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_landscape_numeric_failure_exit_code(tmp_path, capsys):
    # Two distinct individuals with identical loci make K singular; a
    # vanishing ridge term then defeats the Cholesky factorization.
    header = ("run,generation,individual_id,parent_ids,locus1,locus2,locus3,"
              "locus4,replicate1,replicate2,replicate3,fitness")
    rows = ["0,1,0,,0.5,0.5,0.5,0.5,1.0,1.0,1.0,1.0",
            "0,1,1,,0.5,0.5,0.5,0.5,2.0,2.0,2.0,2.0"]
    hist = tmp_path / "history_run0.csv"
    hist.write_text("\n".join([header, *rows]) + "\n")
    rc = main(["landscape", str(hist),
               "--lambda", "1e-30", "--resolution", "11",
               "--out-dir", str(tmp_path / "n")])
    assert rc == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_analyze_pipeline(tmp_path, fast_config):
    out_dir = run_evolve(tmp_path, fast_config)
    an_dir = tmp_path / "an"
    rc = main(["analyze", str(out_dir / "history_run0.csv"),
               "--out-dir", str(an_dir)])
    assert rc == EXIT_OK
    report = json.loads((an_dir / "report.json").read_text())
    assert {"first_vs_last_tophalf", "mid_vs_last_tophalf", "all_generations",
            "fitness_vs_generation", "percentile_bands"} <= set(report)
    assert formats.validate_file(an_dir / "bands.csv", "bands") == []
    assert len(report["percentile_bands"]) == 3
    assert json.loads((an_dir / "manifest.json").read_text())["seed"] is None


def test_gcode_compile_parse_exec(tmp_path, capsys):
    program = tmp_path / "exp.gcode"
    rc = main(["gcode", "compile", "--formulation", "1,1,1,1",
               "--cleaning", "--output", str(program)])
    assert rc == EXIT_OK
    assert formats.validate_file(program, "gcode") == []

    assert main(["gcode", "parse", str(program)]) == EXIT_OK
    assert "0 error(s)" in capsys.readouterr().out

    rc = main(["gcode", "exec", str(program), "--out-dir", str(tmp_path / "ev")])
    assert rc == EXIT_OK
    state = json.loads(capsys.readouterr().out)
    assert state["vessels"]["dish"]["aqueous"] == pytest.approx(100.0)
    assert formats.validate_file(tmp_path / "ev" / "events.csv", "events") == []


def test_gcode_parse_bad_program(tmp_path, capsys):
    bad = tmp_path / "bad.gcode"
    bad.write_text("G1 X1.0 Y1.0\nwat\n")
    assert main(["gcode", "parse", str(bad)]) == EXIT_DATA
    assert "1 error(s)" in capsys.readouterr().out


def test_gcode_compile_requires_something(capsys):
    assert main(["gcode", "compile"]) == EXIT_USAGE


def edited_layout(value, *path):
    """The default layout as JSON, with the entry at `path` set to `value`."""
    layout = json.loads(gcode.default_layout().to_json())
    node = layout
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(layout)


@pytest.mark.parametrize("layout, problem", [
    ("{}", "missing fields"),
    ('{"bounds_mm": [1, 2], "locations": {"a": 1}}', "missing fields"),
    ("[1]", "top level must be an object"),
    ("not json", "Expecting value"),
    ('{"bounds_mm": [500, 400], "locations": {"a": 1}, "apparatus_offsets": {},'
     ' "pump_ports": {}, "pump_syringe_ml": {}}', "locations: point 'a' must be 2 numbers"),
    ('{"bounds_mm": [500, 400], "locations": {}, "apparatus_offsets": {},'
     ' "pump_ports": {}, "pump_syringe_ml": {"4": 0}}', "pump_syringe_ml"),
    pytest.param(edited_layout("lots", "vessel_initial_ul", "well", "x"),
                 "layout vessel_initial_ul: 'well' 'x' uL must be a finite number >= 0",
                 id="initial-amount-not-a-number"),
    pytest.param(edited_layout("x", "vessel_retained_ul", "dish", "aqueous"),
                 "layout vessel_retained_ul: 'dish' 'aqueous' uL must be a finite number >= 0",
                 id="retained-amount-not-a-number"),
    pytest.param(edited_layout(-5, "vessel_initial_ul", "dish", "aqueous"),
                 "layout vessel_initial_ul: 'dish' 'aqueous' uL must be a finite number >= 0",
                 id="initial-amount-negative"),
    pytest.param(edited_layout(["waste"], "pump_ports", "6", "1"),
                 "layout pump_ports: ['waste']", id="port-target-not-a-string"),
    pytest.param(edited_layout(["dish"], "location_vessel", "drop_1"),
                 "layout location_vessel: ['dish']", id="location-vessel-not-a-string"),
])
def test_gcode_malformed_layout_is_a_data_error(tmp_path, capsys, layout, problem):
    path = tmp_path / "layout.json"
    path.write_text(layout)
    rc = main(["gcode", "compile", "--cleaning", "--layout", str(path)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: layout") and problem in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, name, problem", [
    ("locations", "dish_center", "layout locations: missing ['dish_center']"),
    ("location_vessel", "waste", "layout location_vessel: missing ['waste']"),
    ("apparatus_offsets", "pump_tube", "layout apparatus_offsets: missing ['pump_tube']"),
    ("pump_syringe_ml", "6", "layout pump_syringe_ml: missing [6]"),
    ("vessel_initial_ul", "dish", "layout vessel_initial_ul: missing ['dish']"),
])
@pytest.mark.parametrize("command", ["compile", "exec"])
def test_gcode_layout_missing_a_name_is_a_data_error(tmp_path, capsys, field, name,
                                                     problem, command):
    # A layout that parses but lacks a name that the compiler or the
    # firmware looks up.
    program = tmp_path / "exp.gcode"
    assert main(["gcode", "compile", "--formulation", "1,1,1,1", "--cleaning",
                 "-o", str(program)]) == EXIT_OK
    layout = json.loads(gcode.default_layout().to_json())
    del layout[field][name]
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(layout))
    argv = {"compile": ["gcode", "compile", "--cleaning", "--layout", str(path)],
            "exec": ["gcode", "exec", str(program), "--layout", str(path)]}[command]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {problem}\n"


@pytest.mark.parametrize("command", ["compile", "exec"])
def test_gcode_layout_location_off_the_stage_is_a_data_error(tmp_path, capsys, command):
    program = tmp_path / "ok.gcode"
    assert main(["gcode", "compile", "--cleaning", "-o", str(program)]) == EXIT_OK
    path = tmp_path / "bad.json"
    path.write_text(edited_layout([900.0, 200.0], "locations", "waste"))
    argv = {"compile": ["gcode", "compile", "--cleaning", "--layout", str(path)],
            "exec": ["gcode", "exec", str(program), "--layout", str(path)]}[command]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("data error: layout locations: ['waste'] outside stage bounds "
                            "(500.0, 400.0)\n")


def test_gcode_exec_move_off_the_stage_is_a_data_error(tmp_path, capsys):
    far = tmp_path / "far.gcode"
    far.write_text("G1 X9999.0 Y-50.0\n")
    out_dir = tmp_path / "ev"
    assert main(["gcode", "exec", str(far), "--out-dir", str(out_dir)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("data error: instruction 0: carriage target (9999.0, -50.0) mm "
                            "outside stage (500.0, 400.0)\n")
    assert not out_dir.exists()


def test_gcode_commands_load_no_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    program = tmp_path / "exp.gcode"
    code = f"""
import sys
from dropevo.cli import main
assert main(["gcode", "compile", "--formulation", "1,2,3,4", "--cleaning", "-o", {str(program)!r}]) == 0
assert main(["gcode", "parse", {str(program)!r}]) == 0
assert main(["gcode", "exec", {str(program)!r}, "--out-dir", {str(tmp_path / "ev")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("formulation", ["inf,1,1,1", "nan,1,1,1", "1,1,1,-inf"])
def test_gcode_non_finite_formulation_is_a_data_error(capsys, formulation):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["gcode", "compile", "--formulation", formulation])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: non-finite") and captured.err.count("\n") == 1


def test_gcode_compile_formulation_whose_sum_overflows(capsys):
    assert main(["gcode", "compile", "--formulation", "1e308,1e308,1,1"]) == EXIT_OK
    recipe = normalize([1e308, 1e308, 1, 1])
    assert recipe.proportions == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-300)
    assert capsys.readouterr().out == gcode.compile_experiment(recipe)


def test_gcode_compile_elides_a_transfer_of_zero_steps(tmp_path, capsys):
    # Oils 3 and 4 get about 1e-308 of the well, which rounds to 0 pump
    # steps: their pumps (P2, P3) must not turn a valve twice and move nothing.
    assert main(["gcode", "compile", "--formulation", "1e308,1e308,1,1"]) == EXIT_OK
    program = capsys.readouterr().out
    pumps = {line.split()[0] for line in program.splitlines() if line.startswith("P")}
    assert pumps == {"P0", "P1"}
    path = tmp_path / "tiny.gcode"
    path.write_text(program)
    assert main(["gcode", "exec", str(path)]) == EXIT_OK


def test_gcode_exec_syringe_not_on_the_carriage_is_a_data_error(tmp_path, capsys):
    program = tmp_path / "s3.gcode"
    program.write_text("M10 S3\n")
    assert main(["gcode", "exec", str(program)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "data error: instruction 0: no syringe 3 on the carriage\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dropevo", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("evolve", "landscape", "analyze", "gcode"):
        assert sub in proc.stdout


HISTORY_HEADER = ("run,generation,individual_id,parent_ids,locus1,locus2,locus3,"
                  "locus4,replicate1,replicate2,replicate3,fitness")


def write_history(path, fitness=("1.0", "2.0", "3.0")):
    rows = [f"0,1,{k},,0.{k + 1},0.5,0.5,0.5,1.0,1.0,1.0,{f}"
            for k, f in enumerate(fitness)]
    path.write_text("\n".join([HISTORY_HEADER, *rows]) + "\n")
    return str(path)


def test_analyze_single_generation(tmp_path):
    # One generation: first, mid and last coincide, so every test in the
    # report is degenerate and reported as such, never as NaN.
    hist = write_history(tmp_path / "history.csv")
    out_dir = tmp_path / "an"
    assert main(["analyze", hist, "--out-dir", str(out_dir)]) == EXIT_OK
    text = (out_dir / "report.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    report = json.loads(text)
    for test in ("first_vs_last_tophalf", "mid_vs_last_tophalf", "all_generations",
                 "fitness_vs_generation"):
        assert report[test]["degenerate"] is True


@pytest.mark.parametrize("resolution", ["1", "0", "-5"])
def test_landscape_rejects_resolution_below_two(tmp_path, capsys, resolution):
    hist = write_history(tmp_path / "history.csv")
    out_dir = tmp_path / "o"
    rc = main(["landscape", hist, "--resolution", resolution, "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--resolution" in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_landscape_defaults_in_manifest(tmp_path):
    hist = write_history(tmp_path / "history.csv")
    out_dir = tmp_path / "o"
    assert main(["landscape", hist, "--out-dir", str(out_dir)]) == EXIT_OK
    config = json.loads((out_dir / "manifest.json").read_text())["config"]
    assert (config["sigma"], config["lambda"], config["resolution"]) == (
        landscape.DEFAULT_SIGMA, landscape.DEFAULT_LAMBDA, landscape.DEFAULT_RESOLUTION)


@pytest.mark.parametrize("option, value", [("--sigma", "inf"), ("--sigma", "nan"),
                                           ("--lambda", "nan"), ("--lambda", "-inf"),
                                           ("--lambda", "0"), ("--lambda", "-1")])
def test_landscape_rejects_non_finite_sigma_and_lambda(tmp_path, capsys, option, value):
    hist = write_history(tmp_path / "history.csv")
    out_dir = tmp_path / "o"
    rc = main(["landscape", hist, f"{option}={value}", "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and option in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("sigma", ["1e-300", "1e-160", "0", "-1"])
def test_landscape_rejects_sigma_whose_bandwidth_underflows(tmp_path, capsys, sigma):
    # 2 sigma^2 is 0 at 1e-300 and subnormal at 1e-160: the fit used to end
    # in NaN (rc 2) or in inf distances that exit 0 with a warning.
    hist = write_history(tmp_path / "history.csv")
    out_dir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["landscape", hist, f"--sigma={sigma}", "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--sigma" in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_landscape_out_of_memory_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    def face_grid(*args):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape "
                          "(200000, 200000) and data type float64")

    monkeypatch.setattr(landscape, "face_grid", face_grid)
    hist = write_history(tmp_path / "history.csv")
    rc = main(["landscape", hist, "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "298. GiB" in err
    assert err.count("\n") == 1


def write_random_history(path, points=150, seed=15):
    rng = random.Random(seed)
    rows = [f"0,1,{k},," + ",".join(f"{rng.random():.6f}" for _ in range(4))
            + f",1.0,1.0,1.0,{rng.random():.6f}" for k in range(points)]
    path.write_text("\n".join([HISTORY_HEADER, *rows]) + "\n")
    return str(path)


LANDSCAPE_DATA_FILES = ["landscape.csv", "islands.json", *(f"face_{k}.pgm" for k in range(4))]


def _fresh_env(**extra):
    """os.environ plus `extra`, for a fresh interpreter that imports this
    checkout's dropevo."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_landscape_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 150 points: enough for OpenBLAS to thread a Cholesky factorization,
    # which gave other bits at 1 and 2 threads before the BLAS-free solve.
    hist = write_random_history(tmp_path / "history.csv")
    code = """
import sys
from dropevo.cli import main
assert main(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-c", code, "landscape", str(hist),
                               "--resolution", "41", "--out-dir", str(out_dir)],
                              capture_output=True, text=True, check=True,
                              env=_fresh_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.stdout.splitlines()[-1] == "[]"
        assert json.loads((out_dir / "manifest.json").read_text())["landscape_contract"] == 3
        outputs.append([(out_dir / name).read_bytes() for name in LANDSCAPE_DATA_FILES])
    assert outputs[0] == outputs[1]


def _cpu_feature_levels():
    """NPY_DISABLE_CPU_FEATURES values that leave numpy below each of its
    AVX512 and AVX2 (X86_V3) dispatch levels that this machine runs."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    on = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    avx512 = [f for f in on if f.startswith("AVX512") or f == "X86_V4"]
    avx2 = [f for f in on if f in ("X86_V3", "AVX2", "FMA3")]
    levels = [" ".join(group) for group in (avx512, avx512 + avx2) if group]
    if not levels:
        pytest.skip("numpy dispatches no AVX512 or AVX2 loops on this machine")
    return list(dict.fromkeys(levels))


def _run_with_cpu_features_disabled(argv, disabled):
    subprocess.run([sys.executable, "-m", "dropevo", *argv], capture_output=True, check=True,
                   env=_fresh_env(NPY_DISABLE_CPU_FEATURES=disabled))


def test_landscape_bytes_do_not_depend_on_cpu_features(tmp_path):
    # numpy picks np.exp's loop by CPU feature; contract 2's landscape bytes
    # changed when its AVX512 loops were turned off. dexp uses none of them.
    hist = write_random_history(tmp_path / "history.csv")
    outputs = []
    for k, disabled in enumerate(["", *_cpu_feature_levels()]):
        out_dir = tmp_path / f"level{k}"
        _run_with_cpu_features_disabled(
            ["landscape", hist, "--resolution", "41", "--out-dir", str(out_dir)], disabled)
        outputs.append([(out_dir / name).read_bytes() for name in LANDSCAPE_DATA_FILES])
    assert all(out == outputs[0] for out in outputs)


@pytest.mark.parametrize("resolution", ["31", "2"])
def test_landscape_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, resolution):
    # One usable CPU maps the faces serially, two fork a pool of two, and
    # eight a pool of one worker per face. At resolution 2 each face has 3
    # cells.
    workers = []
    init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        workers.append(kwargs["max_workers"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
    hist = write_random_history(tmp_path / "history.csv")
    outputs = []
    for cpus in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        out_dir = tmp_path / f"cpus{cpus}"
        assert main(["landscape", hist, "--resolution", resolution,
                     "--out-dir", str(out_dir)]) == EXIT_OK
        outputs.append([(out_dir / name).read_bytes() for name in LANDSCAPE_DATA_FILES])
    assert workers == [2, 4]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("cpus, pool_modules", [
    (1, []),
    (2, ["concurrent.futures", "multiprocessing"]),
])
def test_landscape_loads_a_pool_only_with_cpus_to_spare_and_never_scipy(tmp_path, cpus,
                                                                          pool_modules):
    argv = ["landscape", write_random_history(tmp_path / "history.csv", points=20),
            "--resolution", "11", "--out-dir", str(tmp_path / "o")]
    modules = ["concurrent.futures", "multiprocessing", "scipy"]
    assert _run_fresh(argv, modules, cpus=cpus) == [EXIT_OK, pool_modules]


def _kill_in_worker(fn):
    """fn, except that in any process but this one it kills its process."""
    parent = os.getpid()

    def kill_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)

    return kill_in_worker


def _assert_a_worker_died(capsys, rc):
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: a worker process died:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("stage", ["face_grid", "_csv_prefixes"])
def test_landscape_dead_worker_is_one_line(tmp_path, capsys, monkeypatch, stage):
    # The faces map (face_grid) and the CSV map (_csv_prefixes) each lose a
    # worker, as to the OOM killer.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(landscape, stage, _kill_in_worker(getattr(landscape, stage)))
    hist = write_history(tmp_path / "history.csv")
    _assert_a_worker_died(capsys, main(["landscape", hist, "--resolution", "11",
                                        "--out-dir", str(tmp_path / "o")]))


@pytest.mark.parametrize("error, code, prefix", [
    (MemoryError("Unable to allocate 41.0 GiB"), EXIT_NUMERIC, "numeric failure: out of memory"),
    (ValueError("bad walk"), EXIT_DATA, "data error: evaluator failed for recipe"),
])
def test_evolve_evaluation_failure_is_one_line(tmp_path, capsys, fast_config, monkeypatch,
                                               error, code, prefix):
    def simulate(*args, **kwargs):
        raise error

    monkeypatch.setattr(arena, "simulate", simulate)
    rc = main(["evolve", "--config", fast_config, "--out-dir", str(tmp_path / "o")])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and str(error) in err
    assert err.count("\n") == 1


def test_perfbench_tracer_hooks_exist():
    # perfbench/tracer.py wraps package attributes by name; run its
    # instrument() in a fresh interpreter, since it patches them process-wide.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH")]))}
    code = "from tracer import Tracer, instrument; instrument(Tracer('t'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_tracer_counts_a_serial_evolve_and_a_landscape(tmp_path):
    # perfbench/tracer.py counts detections and identities through names
    # the program keeps for it alone: DetectionRecord iteration and
    # TrajectorySet.trajectories. Run it as the benchmark does, on a tiny
    # serial evolve and a resolution-5 landscape.
    root = Path(__file__).resolve().parent.parent
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ga": {"runs": 1, "generations": 2, "population_size": 4,
                                         "carry_overs": 2}, "arena": {"duration": 2.0}}))
    commands = {
        "evolve": ["evolve", "--config", str(config), "--jobs", "1",
                   "--out-dir", str(tmp_path / "e")],
        "landscape": ["landscape", write_random_history(tmp_path / "history.csv", points=20),
                      "--resolution", "5", "--out-dir", str(tmp_path / "l")],
    }
    spans = {}
    for name, argv in commands.items():
        path = tmp_path / f"{name}_spans.json"
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"),
                               str(path), "t", "--", *argv],
                              capture_output=True, text=True, env=_fresh_env())
        assert proc.returncode == 0, proc.stderr
        spans[name] = json.loads(path.read_text())
    counts = {}
    for span in spans["evolve"]:
        for key, n in span.get("counts", {}).items():
            counts.setdefault((span["name"], key), []).append(n)
    # 6 recipes (4, then 2 new ones beside the 2 carried over), each one
    # pass of 3 replicates.
    for layer, key in (("arena.simulate", "detections"), ("tracking.track", "identities")):
        assert len(counts[layer, key]) == 6 and min(counts[layer, key]) > 0, (layer, key)
    assert {"landscape.fit", "landscape.catchment"} <= {s["name"] for s in spans["landscape"]}


def test_perfbench_tracer_runs_a_pooled_landscape(tmp_path):
    # The tracer replaces landscape.face_grid with a closure, which a pool
    # could not pickle; the command maps a function that looks it up in the
    # worker. Two usable CPUs, so the faces go to a forked pool.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH")]))}
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from tracer import main; sys.exit(main(sys.argv[1:]))")
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, "-c", code, str(spans), "t", "--", "landscape",
                           write_random_history(tmp_path / "history.csv", points=20),
                           "--resolution", "11", "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = {span["name"] for span in json.loads(spans.read_text())}
    assert {"landscape.fit", "landscape.catchment", "landscape.csv"} <= names


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_evolve_rejects_jobs_below_one(tmp_path, capsys, fast_config, jobs):
    out_dir = tmp_path / "o"
    rc = main(["evolve", "--config", fast_config, "--jobs", jobs, "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--jobs" in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["analyze", "landscape"])
def test_nonfinite_fitness_is_a_data_error(tmp_path, capsys, command, bad):
    hist = write_history(tmp_path / "history.csv", ("1.0", bad, "3.0"))
    out_dir = tmp_path / "o"
    rc = main([command, hist, "--out-dir", str(out_dir)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "row 3: fitness=" in err and "not finite" in err
    assert not out_dir.exists()


def write_overflowing_history(path, big):
    """3 generations of 6 recipes with random loci, their fitness alternating
    between `big` and 1.0."""
    rng = random.Random(18)
    rows = [f"0,{k // 6 + 1},{k},," + ",".join(f"{rng.random():.6f}" for _ in range(4))
            + f",,,,{big if k % 2 == 0 else 1.0!r}" for k in range(18)]
    path.write_text("\n".join([HISTORY_HEADER, *rows]) + "\n")
    return str(path)


def _cli_fresh(argv, cpus):
    """(exit code, stderr) of dropevo `argv` in a fresh interpreter that sees
    `cpus` usable CPUs, where numpy's warnings print as they do for a user."""
    code = (f"import os, sys; os.sched_getaffinity = lambda pid: set(range({cpus})); "
            "from dropevo.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_fresh_env())
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("big", [1e307, 1e308])
def test_analyze_overflow_is_a_numeric_failure(tmp_path, big):
    # The statistics overflowed: 1e307 wrote "F": NaN into report.json with
    # exit code 0, and 1e308 ended as "p-values must lie in [0, 1]".
    out_dir = tmp_path / "o"
    rc, err = _cli_fresh(["analyze", write_overflowing_history(tmp_path / "h.csv", big),
                          "--out-dir", str(out_dir)], cpus=1)
    assert rc == EXIT_NUMERIC
    assert err.startswith("numeric failure:") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", ["fit", "face", "graymap"])
def test_landscape_overflow_is_a_numeric_failure(tmp_path, case, cpus):
    # Overflow in the fit (fitness 1e308), in a face's predictions (two
    # nearby points of fitness 1.79e308, which wrote an inf row and an
    # island of "max_value": Infinity with exit code 0), or in the graymaps'
    # grey levels (fitness 1e307). One CPU predicts the faces serially, two
    # in forked workers.
    path = tmp_path / "h.csv"
    if case == "face":
        path.write_text("\n".join([HISTORY_HEADER, "0,1,0,,0.57,0.18,0.25,0.0,,,,1.79e308",
                                   "0,1,1,,0.43,0.32,0.25,0.0,,,,1.79e308"]) + "\n")
    else:
        write_overflowing_history(path, 1e308 if case == "fit" else 1e307)
    out_dir = tmp_path / "o"
    rc, err = _cli_fresh(["landscape", str(path), "--resolution", "5",
                          "--out-dir", str(out_dir)], cpus)
    assert rc == EXIT_NUMERIC
    assert err.startswith("numeric failure:") and err.count("\n") == 1
    if case == "face":
        assert err == "numeric failure: face 3: a prediction is not finite\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("section, key, value", [
    ("ga", "replicates_per_recipe", 5),    # history files hold three replicates
    ("ga", "replicates_per_recipe", 1),
    ("arena", "rng_seed", 3),              # the arena draws from the replicate stream
    ("ga", "genome_length", 4),            # genomes always have four loci
    ("ga", "generations", "3"),
    ("ga", "generations", 2.5),
    ("ga", "rng_seed", 1.5),
    ("ga", "rng_seed", -1),
    ("ga", "mutation_sd", "x"),
    ("ga", "birth_before_cull", "yes"),     # no longer a field
    ("arena", "duration", float("nan")),
    ("arena", "injection_positions", [[1.0]]),
    ("evaluation", "behaviour_map", "unimodal"),
    ("evaluation", "bogus", 1),
    ("evaluation", "behavior_map", "unimodl"),
    ("evaluation", "unimodal_width", 0),
    ("evaluation", "unimodal_optimum", [0.5, 0.5]),
    ("evaluation", "run", 1),              # set by the command, not the config
    ("evaluation", "master_seed", 1),
    ("evaluation", "objective", "division"),
    ("arena", "injection_positions",       # on the wall of the 200 px arena
     [[0.0, 200.0], [60.0, -60.0], [-60.0, 60.0], [60.0, 60.0]]),
    ("arena", "arena_radius", 1e200),      # its square overflows
    ("ga", "carry_overs", 1),              # two parents per child, 3 generations
    ("evaluation", "unimodal_width", 1e-200),  # 2 width^2 underflows to 0
    ("evaluation", "unimodal_width", 1e200),   # 2 width^2 overflows
    *(pytest.param(section, key, 10**400, id=f"{section}-{key}-401-digit-int")
      for section, key in (("arena", "duration"), ("ga", "rng_seed"),
                           ("evaluation", "unimodal_width"))),   # too large for a float
])
def test_evolve_rejects_unsupported_config(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    cfg.setdefault(section, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "o"
    rc = main(["evolve", "--config", str(path), "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and key in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


# sha256 of history_run0.csv for GOLDEN_CONFIG under each pinned objective.
# They pin the replicate RNG streams and arena RNG contract v2 (per-droplet
# streams keyed by lineage, see arena.simulate), and the movement pin also
# the step lengths of tracking._steps: a change to any must update them on
# purpose, and they are the same for any --jobs.
GOLDEN_CONFIG = {
    "ga": {"generations": 2, "population_size": 4, "carry_overs": 2,
           "runs": 1, "rng_seed": 7},
    "arena": {"duration": 2.0},
}
GOLDEN_HISTORY_SHA256 = {
    "directionality": "60d5a831ff0ed23bd6464626d5e673a64cd86ffe934ef19b5f1cc7cee9ae432d",
    "movement": "9e1f07bebb4de5827b1a93494ecee92e5b794665c489c40e5513adb041191ab3",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evolve_golden_history(tmp_path, jobs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOLDEN_CONFIG))
    for objective, want in GOLDEN_HISTORY_SHA256.items():
        out_dir = tmp_path / objective
        rc = main(["evolve", "--config", str(path), "--objective", objective,
                   "--jobs", jobs, "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        digest = hashlib.sha256((out_dir / "history_run0.csv").read_bytes()).hexdigest()
        assert digest == want, objective


def test_evolve_golden_history_does_not_depend_on_cpu_features(tmp_path):
    # The movement pin checks tracking's vector hypot with numpy's AVX512
    # and X86_V3 loops turned off.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOLDEN_CONFIG))
    for k, disabled in enumerate(_cpu_feature_levels()):
        for objective, want in GOLDEN_HISTORY_SHA256.items():
            out_dir = tmp_path / f"level{k}-{objective}"
            _run_with_cpu_features_disabled(
                ["evolve", "--config", str(path), "--objective", objective,
                 "--out-dir", str(out_dir)], disabled)
            digest = hashlib.sha256((out_dir / "history_run0.csv").read_bytes()).hexdigest()
            assert digest == want, objective


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("objective", ["division", "movement", "directionality"])
def test_evolve_arena_without_droplets_scores_zero(tmp_path, objective, jobs):
    # An arena with no injections has no droplet-frames; sizing its passes
    # divided by zero.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**GOLDEN_CONFIG, "arena": {
        "duration": 2.0, "injection_count": 0, "injection_positions": []}}))
    out_dir = tmp_path / "o"
    rc = main(["evolve", "--config", str(path), "--objective", objective,
               "--jobs", jobs, "--out-dir", str(out_dir)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO((out_dir / "history_run0.csv").read_text())))
    assert len(rows) == 8
    assert all(float(row[name]) == 0.0 for row in rows
               for name in ("replicate1", "replicate2", "replicate3", "fitness"))


@pytest.mark.parametrize("argv", [
    ["landscape", "HISTORY", "--seed", "3"],   # seeds only evolve
    ["analyze", "HISTORY", "--seed", "3"],
    ["evolve", "--seed", "-1"],
])
def test_seed_option_rejections(tmp_path, capsys, argv):
    hist = write_history(tmp_path / "history.csv")
    out_dir = tmp_path / "o"
    argv = [hist if a == "HISTORY" else a for a in argv]
    rc = main([*argv, "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and ("--seed" in err or "rng_seed" in err)
    assert err.count("\n") == 1
    assert not out_dir.exists()



def test_evolve_opens_one_pool_per_campaign(tmp_path, monkeypatch):
    # One forked pool, and one map per GA round over both runs' batches.
    pools, start_methods, maps = [], [], []
    init, pool_map = ProcessPoolExecutor.__init__, ProcessPoolExecutor.map

    def counting_init(self, *args, **kwargs):
        pools.append(self)
        start_methods.append(kwargs["mp_context"].get_start_method())
        init(self, *args, **kwargs)

    def counting_map(self, *args, **kwargs):
        maps.append(len(args[1]))
        return pool_map(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
    monkeypatch.setattr(ProcessPoolExecutor, "map", counting_map)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "ga": {"generations": 3, "population_size": 4, "carry_overs": 2,
               "runs": 2, "rng_seed": 7},
        "arena": {"duration": 2.0},
    }))
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["evolve", "--config", str(path), "--jobs", jobs,
                     "--out-dir", str(outs[jobs])]) == EXIT_OK
    assert len(pools) == 1
    assert start_methods == ["fork"]
    assert maps == [8, 4, 4]
    for run in (0, 1):
        name = f"history_run{run}.csv"
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()


def test_evolve_pool_is_no_larger_than_a_round(tmp_path, monkeypatch, fast_config):
    # FAST_CONFIG's one run draws 8 recipes a round; a fork pool would start
    # every requested worker at once.
    workers = []
    init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        workers.append(kwargs["max_workers"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
    run_evolve(tmp_path, fast_config, extra=["--jobs", "64"])
    assert workers == [8]


def test_evolve_histories_do_not_depend_on_jobs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**FAST_CONFIG, "ga": {**FAST_CONFIG["ga"], "runs": 3}}))
    outs = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        assert main(["evolve", "--config", str(path), "--jobs", jobs,
                     "--out-dir", str(out_dir)]) == EXIT_OK
        outs.append([(out_dir / f"history_run{run}.csv").read_bytes() for run in range(3)])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evolve_names_the_failed_recipe_of_an_interleaved_round(tmp_path, capsys,
                                                                monkeypatch, jobs):
    # Round 1 scores the two runs' 16 recipes as one map, in chunks of 2 at
    # --jobs 2; the failing recipe is the second of its chunk. The forked
    # workers inherit the patched evaluate_recipe.
    cfg = {**FAST_CONFIG, "ga": {**FAST_CONFIG["ga"], "runs": 2}}
    failing = 10_000_003   # run 1, fourth recipe
    evaluate = evaluators.evaluate_recipe

    def evaluate_recipe(setup, proportions, recipe_id):
        if setup.run == 1 and recipe_id == failing:
            raise FloatingPointError("overflow encountered in the walk")
        return evaluate(setup, proportions, recipe_id)

    monkeypatch.setattr(evaluators, "evaluate_recipe", evaluate_recipe)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    rc = main(["evolve", "--config", str(path), "--jobs", jobs,
               "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_NUMERIC
    first_batch = next(ga.evolve(ga.GAConfig(**cfg["ga"]), run=1))
    recipe = normalize(first_batch[failing - 10_000_000].genome).proportions
    err = capsys.readouterr().err
    assert err == (f"numeric failure: evaluator failed for recipe {list(recipe)}: "
                   f"overflow encountered in the walk\n")


def test_evolve_dead_worker_is_one_line(tmp_path, capsys, fast_config, monkeypatch):
    # A worker killed mid-round, as by the OOM killer, breaks the pool.
    monkeypatch.setattr(evaluators, "evaluate_recipe",
                        _kill_in_worker(evaluators.evaluate_recipe))
    _assert_a_worker_died(capsys, main(["evolve", "--config", fast_config, "--jobs", "2",
                                        "--out-dir", str(tmp_path / "o")]))


def test_evolve_without_fork_rejects_jobs_above_one(tmp_path, capsys, fast_config,
                                                    monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    out_dir = tmp_path / "o"
    rc = main(["evolve", "--config", fast_config, "--jobs", "2", "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--jobs" in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


def _run_fresh(argv, modules, cpus=None):
    """[exit code, the `modules` loaded] of dropevo `argv` run in a fresh
    interpreter, which sees `cpus` usable CPUs if given."""
    code = ("import json, sys; from dropevo.cli import main; rc = main(sys.argv[2:]); "
            "print(json.dumps([rc, sorted(set(sys.argv[1].split(',')) & set(sys.modules))]))")
    if cpus is not None:
        code = f"import os; os.sched_getaffinity = lambda pid: set(range({cpus})); " + code
    proc = subprocess.run([sys.executable, "-c", code, ",".join(modules), *argv],
                          capture_output=True, text=True, env=_fresh_env())
    return json.loads(proc.stdout.splitlines()[-1])


def test_serial_evolve_loads_no_process_pool(tmp_path, fast_config):
    argv = ["evolve", "--config", fast_config, "--jobs", "1", "--out-dir", str(tmp_path / "o")]
    assert _run_fresh(argv, ["multiprocessing", "concurrent.futures"]) == [EXIT_OK, []]


def test_serial_evolve_loads_neither_gcode_nor_numpy_ma(tmp_path, fast_config):
    # numpy.ma takes 15-40 ms to import, in every forked worker when the
    # parent has not loaded it; gcode is compiled on import without a
    # bytecode cache.
    argv = ["evolve", "--config", fast_config, "--jobs", "1", "--out-dir", str(tmp_path / "o")]
    assert _run_fresh(argv, ["numpy.ma", "dropevo.gcode"]) == [EXIT_OK, []]


def test_landscape_does_not_load_gcode(tmp_path):
    argv = ["landscape", write_history(tmp_path / "history.csv"), "--resolution", "11",
            "--out-dir", str(tmp_path / "o")]
    assert _run_fresh(argv, ["dropevo.gcode"], cpus=1) == [EXIT_OK, []]


def _history_check(tmp_path, command, text):
    """(stdout words: exit code and whether numpy loaded, stderr) of `command`
    on a history file holding `text`, in a fresh interpreter."""
    path = tmp_path / "history.csv"
    path.write_text(text)
    code = ("import sys; from dropevo.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, command, str(path),
                           "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True, env=_fresh_env())
    return proc.stdout.split(), proc.stderr


@pytest.mark.parametrize("command", ["landscape", "analyze"])
def test_a_bad_history_fails_before_numpy_loads(tmp_path, command):
    out, err = _history_check(tmp_path, command, "not,a,history\n")
    assert out == [str(EXIT_DATA), "False"]
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["landscape", "analyze"])
def test_a_history_without_rows_fails_before_numpy_loads(tmp_path, command):
    # A header and no rows: analyze ended in an IndexError traceback, and
    # landscape in "1 inputs vs 0 targets".
    out, err = _history_check(tmp_path, command, HISTORY_HEADER + "\n")
    assert out == [str(EXIT_DATA), "False"]
    assert err == f"data error: {tmp_path / 'history.csv'}: no rows after the header\n"
    assert not (tmp_path / "o").exists()


def test_analyze_rejects_a_bad_history_before_loading_scipy(tmp_path):
    bad = tmp_path / "history.csv"
    bad.write_text("not,a,history\n")
    argv = ["analyze", str(bad), "--out-dir", str(tmp_path / "o")]
    assert _run_fresh(argv, ["scipy"]) == [EXIT_DATA, []]


# Config fuzz: a tiny valid evolve config with one or two fields swapped for
# adversarial values. Every outcome must be an exit code with at most a
# one-line message, never a traceback.
FUZZ_BASE = {
    "ga": {"generations": 2, "population_size": 4, "carry_overs": 2,
           "runs": 1, "rng_seed": 3},
    "arena": {"duration": 1.0},
    "evaluation": {},
}
FUZZ_FIELDS = ([("ga", f.name) for f in dataclasses.fields(ga.GAConfig)]
               + [("arena", f.name) for f in dataclasses.fields(arena.ArenaConfig)]
               + [("evaluation", name) for name in
                  ("behavior_map", "unimodal_optimum", "unimodal_width", "bogus")])
ADVERSARIAL = [None, True, False, 0, -1, -2.5, 0.5, "nan", "NaN", "-inf", "x", "3",
               [], {}, [1, 2], [[1.0, 2.0]], float("nan"), float("inf")]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(swaps=st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), st.sampled_from(ADVERSARIAL)),
                      min_size=1, max_size=2),
       objective=st.sampled_from(["movement", "division", "directionality"]))
def _fuzz_evolve_config(swaps, objective):
    cfg = json.loads(json.dumps(FUZZ_BASE))
    for (section, key), value in swaps:
        cfg[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out_dir = Path(tmp) / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["evolve", "--config", str(path), "--objective", objective,
                       "--out-dir", str(out_dir)])
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
        assert "Traceback" not in err.getvalue()
        if rc != EXIT_OK:
            assert err.getvalue().count("\n") == 1
        if rc == EXIT_USAGE:
            assert not out_dir.exists()


def test_evolve_config_fuzz():
    t0 = time.monotonic()
    _fuzz_evolve_config()
    assert time.monotonic() - t0 < 30.0
