import contextlib
import dataclasses
import hashlib
import io
import json
import os
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

from dropevo import arena, formats, ga, gcode, landscape
from dropevo.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

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
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
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
                                           ("--lambda", "nan"), ("--lambda", "-inf")])
def test_landscape_rejects_non_finite_sigma_and_lambda(tmp_path, capsys, option, value):
    hist = write_history(tmp_path / "history.csv")
    out_dir = tmp_path / "o"
    rc = main(["landscape", hist, f"{option}={value}", "--out-dir", str(out_dir)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and option in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


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
    ("ga", "birth_before_cull", "yes"),
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


# sha256 of history_run0.csv for GOLDEN_CONFIG under the directionality
# objective. It pins the replicate RNG streams and arena RNG contract v2
# (per-droplet streams keyed by lineage, see arena.simulate): a change to
# either must update it on purpose, and it is the same for any --jobs.
GOLDEN_CONFIG = {
    "ga": {"generations": 2, "population_size": 4, "carry_overs": 2,
           "runs": 1, "rng_seed": 7},
    "arena": {"duration": 2.0},
}
GOLDEN_HISTORY_SHA256 = "60d5a831ff0ed23bd6464626d5e673a64cd86ffe934ef19b5f1cc7cee9ae432d"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evolve_golden_history(tmp_path, jobs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOLDEN_CONFIG))
    out_dir = tmp_path / "o"
    rc = main(["evolve", "--config", str(path), "--objective", "directionality",
               "--jobs", jobs, "--out-dir", str(out_dir)])
    assert rc == EXIT_OK
    digest = hashlib.sha256((out_dir / "history_run0.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_HISTORY_SHA256


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
    pools = []
    init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        pools.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
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
    for run in (0, 1):
        name = f"history_run{run}.csv"
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()


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
