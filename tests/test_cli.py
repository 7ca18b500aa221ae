import builtins
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
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

from dropevo import arena, evaluators, formats, ga, gcode, landscape, tracking
from dropevo.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from dropevo.formulation import normalize

FAST_CONFIG = {
    "ga": {"generations": 3, "population_size": 8, "carry_overs": 4, "runs": 1},
    "arena": {"duration": 2.0},
}
# The campaign seed of every FAST_CONFIG run; evolve takes it from --seed alone.
FAST_SEED = "7"


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(FAST_CONFIG))
    return str(p)


def run_evolve(tmp_path, fast_config, out="out", extra=(), seed=FAST_SEED):
    out_dir = tmp_path / out
    rc = main(["evolve", "--config", fast_config, "--seed", seed, "--objective", "movement",
               "--out-dir", str(out_dir), *extra])
    assert rc == EXIT_OK
    return out_dir


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["evolve", "--objective", "sideways"]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["evolve", "--config", "/nonexistent.json"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_objective_choices_are_the_fitness_functions():
    # `evolve --objective` is where the objective enters; its choices must
    # name exactly the fitness functions that the evaluators look it up in.
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    (objective,) = [a for a in commands.choices["evolve"]._actions if a.dest == "objective"]
    assert objective.choices == sorted(tracking.FITNESS_FUNCTIONS)


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
    a = run_evolve(tmp_path, fast_config, "a", seed="123")
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


def test_landscape_singular_solve_is_one_numeric_failure_line(tmp_path, capsys):
    # The factorization's own error, a FloatingPointError, reaches main as is.
    rows = [f"0,1,{i},,0.5,0.2,0.2,0.1,1.0,1.0,1.0,1.0" for i in (0, 1)]
    hist = tmp_path / "history_run0.csv"
    hist.write_text("\n".join([HISTORY_HEADER, *rows]) + "\n")
    out_dir = tmp_path / "o"
    rc = main(["landscape", str(hist), "--lambda", "1e-300", "--resolution", "3",
               "--out-dir", str(out_dir)])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == ("numeric failure: (K + lambda*I) not positive "
                                       "definite: pivot 1 is 0.0\n")
    assert not out_dir.exists()


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


# Two histories whose rows test how landscape and analyze group them. The
# first has generation blocks 1, 2, 1; repeats (run 0, id 3) and, after its
# run column changes to 5, (run 0, id 0) with other loci and fitness (a
# file's run is its first row's, and the last row of a repeated (run, id)
# is the landscape's point). The second lists generation 2 before 1.
GROUPING_HISTORIES = (
    ["0,1,0,,0.9,0.1,0.2,0.3,1.0,1.2,1.1,1.1",
     "0,1,1,,0.1,0.8,0.2,0.1,2.0,2.2,2.1,2.1",
     "0,1,2,,0.2,0.2,0.7,0.1,0.5,0.4,0.6,0.5",
     "0,1,3,,0.3,0.1,0.1,0.9,3.0,3.1,2.9,3.0",
     "0,2,2,0;1,0.2,0.2,0.7,0.1,0.5,0.4,0.6,0.5",
     "0,2,3,1;2,0.6,0.3,0.5,0.2,1.7,1.9,1.8,1.8",
     "0,2,4,0;3,0.5,0.5,0.1,0.4,2.5,2.4,2.6,2.5",
     "0,1,5,,0.4,0.6,0.6,0.2,0.9,1.0,0.8,0.9",
     "5,2,6,1;3,0.7,0.2,0.4,0.6,1.4,1.5,1.3,1.4",
     "5,2,0,4;6,0.8,0.9,0.3,0.1,2.8,2.6,2.7,2.7"],
    ["1,2,7,8;9,0.3,0.7,0.9,0.5,1.6,,,1.6",
     "1,2,8,,0.6,0.4,0.2,0.8,0.7,0.8,0.6,0.7",
     "1,1,8,,0.6,0.4,0.2,0.8,0.7,0.8,0.6,0.7",
     "1,1,9,,0.1,0.3,0.8,0.7,2.2,2.0,2.1,2.1",
     "1,1,10,,0.9,0.6,0.5,0.3,1.2,1.3,1.1,1.2"],
)
GROUPING_SHA256 = {
    "landscape/face_0.pgm": "b8aa4499fe8098ba7966b14e455e396acbf963d8b9c5287d18aad1c73f81c20a",
    "landscape/face_1.pgm": "113e1bbf13aa4fad488ada48f19ebd690f875c62f99513b1f9bf1d0869b66f41",
    "landscape/face_2.pgm": "6862d1105eb9f2fc1e150d9bd4d0359624960c86e2ab0d1149b337815ef7bbfb",
    "landscape/face_3.pgm": "5a6e5b00b16107ce8ef63f3b7857b7543d6eb8800ead5d1bb3c7c716b389044c",
    "landscape/islands.json": "f5683fadf570642b31d8f5c9a08d87610cbb6ae01d464e62913fd4a435f30e74",
    "landscape/landscape.csv": "0d34010a63457cbcde8524e4be5b20cb7b4f8923285a06be37b26302c6b6baad",
    "analyze/bands.csv": "216bd553873e3f9a9bc209531ecf3787f98403b1e69fa40edad71703f6b6d60c",
    "analyze/report.json": "e3e0a18e2bb0cf543c6f8c9b4b9d7107e1106ba91a77d13e25c4b05eaaa2fa5d",
}


def test_landscape_and_analyze_group_history_rows(tmp_path):
    paths = []
    for k, rows in enumerate(GROUPING_HISTORIES):
        paths.append(tmp_path / f"history{k}.csv")
        paths[-1].write_text("\n".join([HISTORY_HEADER, *rows]) + "\n")
    argv = {"landscape": ["landscape", *map(str, paths), "--resolution", "5"],
            "analyze": ["analyze", *map(str, paths)]}
    digests = {}
    for command, args in argv.items():
        out_dir = tmp_path / command
        assert main([*args, "--out-dir", str(out_dir)]) == EXIT_OK
        for path in sorted(out_dir.iterdir()):
            if path.name != "manifest.json":
                digests[f"{command}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    assert json.loads((tmp_path / "landscape" / "manifest.json").read_text())[
        "training_points"] == 11
    assert digests == GROUPING_SHA256


@pytest.mark.parametrize("command", ["landscape", "analyze"])
def test_each_history_file_is_read_once(tmp_path, monkeypatch, command):
    paths = [write_random_history(tmp_path / f"history{k}.csv", points=20, seed=k)
             for k in range(2)]
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    argv = [command, *paths, "--out-dir", str(tmp_path / "o")]
    if command == "landscape":
        argv += ["--resolution", "5"]
    assert main(argv) == EXIT_OK
    assert [opened.count(path) for path in paths] == [1, 1]


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
    ("apparatus_offsets", "syringe", "layout apparatus_offsets: missing ['syringe']"),
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
    assert capsys.readouterr().out == gcode.compile_experiment(recipe, gcode.default_layout())


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
    # argparse's SystemExit passes through cli.entry.
    proc = subprocess.run([sys.executable, "-m", "dropevo", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("evolve", "landscape", "analyze", "gcode"):
        assert sub in proc.stdout
    # An installed `dropevo` ends through the same entry as `python -m dropevo`.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["dropevo"] == "dropevo.cli:entry"
    assert "entry()" in (root / "src" / "dropevo" / "__main__.py").read_text()


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv, code", [
    (["gcode", "exec", "exp.gcode", "--out-dir", "ev"], EXIT_OK),
    (["gcode", "compile"], EXIT_USAGE),
    (["gcode", "parse", "bad.gcode"], EXIT_DATA),
    (["gcode", "exec", "exp.gcode", "--out-dir", "exp.gcode"], EXIT_DATA),
    (["analyze", "big.csv", "--out-dir", "o"], EXIT_NUMERIC),
])
def test_entry_keeps_the_exit_contract(tmp_path, capsys, monkeypatch, argv, code):
    # `python -m dropevo` ends with os._exit once its outputs are flushed: the
    # same exit code, streams and files as main in process, with stdout
    # buffered as it is for a user. (exec writes the robot state to stdout
    # before it fails to make its out dir.)
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    runs = {}
    for side in ("entry", "main"):
        work = tmp_path / side
        work.mkdir()
        (work / "exp.gcode").write_text(gcode.compile_experiment(normalize([1, 2, 3, 4]),
                                                                gcode.default_layout()))
        (work / "bad.gcode").write_text("G1 X1.0 Y1.0\nwat\n")
        write_overflowing_history(work / "big.csv", 1e307)
        if side == "entry":
            proc = subprocess.run([sys.executable, "-m", "dropevo", *argv], cwd=work,
                                  capture_output=True, text=True, env=env)
            runs[side] = [proc.returncode, proc.stdout, proc.stderr]
        else:
            monkeypatch.chdir(work)
            rc = main(argv)
            captured = capsys.readouterr()
            runs[side] = [rc, captured.out, captured.err]
        runs[side].append(_tree(work))
    assert runs["entry"] == runs["main"]
    assert runs["entry"][0] == code


def _gcode_argv(tmp_path, command):
    """argv of a `gcode command` that writes to stdout."""
    program = tmp_path / "exp.gcode"
    program.write_text(gcode.compile_experiment(normalize([1, 2, 3, 4]), gcode.default_layout()))
    if command == "compile":
        return ["gcode", "compile", "--formulation", "1,2,3,4"]
    return ["gcode", command, str(program)]


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize("command", ["compile", "parse", "exec"])
def test_a_failed_stdout_write_is_a_data_error(tmp_path, command, sink):
    # With stdout buffered (PYTHONUNBUFFERED unset), the write failed only as
    # the interpreter exited: exit code 120 and a two-line "Exception ignored
    # in: <_io.TextIOWrapper name='<stdout>' ...>" message.
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("no /dev/full")
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    with contextlib.ExitStack() as stack:
        if sink == "/dev/full":
            out = stack.enter_context(open(sink, "wb"))
        else:
            read, write = os.pipe()
            os.close(read)
            out = stack.enter_context(os.fdopen(write, "wb"))
        proc = subprocess.run([sys.executable, "-m", "dropevo", *_gcode_argv(tmp_path, command)],
                              stdout=out, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("data error:") and proc.stderr.count("\n") == 1


_KILL_IN_WORKER = """
import os, signal
from dropevo import {module}
parent, fn = os.getpid(), {module}.{name}
def kill_in_worker(*args, **kwargs):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return fn(*args, **kwargs)
{module}.{name} = kill_in_worker
"""


@pytest.mark.parametrize("command, kill", [
    ("evolve", None),
    ("evolve", "evaluators.evaluate_recipe"),
    ("landscape", None),
    ("landscape", "landscape.face_grids"),
])
def test_no_process_outlives_a_command(tmp_path, fast_config, command, kill):
    # cli.entry ends with os._exit, which skips multiprocessing's atexit
    # reaping: every forked worker must be gone when main returns, also after
    # one of them died (as in the *_dead_worker_is_one_line tests).
    if command == "evolve":
        argv = ["evolve", "--config", fast_config, "--seed", FAST_SEED, "--jobs", "2"]
    else:
        argv = ["landscape", write_history(tmp_path / "history.csv"), "--resolution", "11"]
    code = "import os; os.sched_getaffinity = lambda pid: {0, 1}\n"
    if kill is not None:
        module, name = kill.split(".")
        code += _KILL_IN_WORKER.format(module=module, name=name)
    code += "from dropevo.cli import entry; entry()"
    with subprocess.Popen([sys.executable, "-c", code, *argv, "--out-dir", str(tmp_path / "o")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_fresh_env(), start_new_session=True) as proc:
        # A worker left running would hold the pipes open past the timeout.
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == (EXIT_OK if kill is None else EXIT_NUMERIC), err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


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
    def face_grids(*args):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape "
                          "(200000, 200000) and data type float64")

    monkeypatch.setattr(landscape, "face_grids", face_grids)
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
    # One usable CPU maps the two face pairs serially, and two or eight fork
    # a pool of one worker per pair. At resolution 2 each face has 3 cells.
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
    assert workers == [2, 2]
    assert outputs[0] == outputs[1] == outputs[2]


# landscape --resolution 61 of write_random_history(points=200), taken before
# the faces were predicted in pairs and the CSV joined in the command: 200
# points reach the solve's trailing update, and 61 rows span two 32-row
# blocks of a walk.
RANDOM_LANDSCAPE_SHA256 = {
    "landscape.csv": "f7220f23a105e4f8a457923401dd60d088420455e5132d470330fbf25e6b6786",
    "islands.json": "6302cc6732d1d2769a325b4c5d9cf02e359a0da78a66d184f9b3470f49d03576",
    "face_0.pgm": "93b929b1f66e47913102975ad1afc4d050c0cbc80f5971766c0c6e83036b6902",
    "face_1.pgm": "764a5c167bf1908f9d173704aa3d36755b4f620b2737ade44fbc231117f054b2",
    "face_2.pgm": "9ed3c04ae117ace355cdfe620c5dee6feffa2ad84c9d4448d35eddfc59e44036",
    "face_3.pgm": "42e651584e0e523dac48c1cc686915987e635dc028d0d712168d89003904f10a",
}


@pytest.mark.parametrize("cpus", [1, 2])
def test_landscape_bytes_are_pinned(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    hist = write_random_history(tmp_path / "history.csv", points=200)
    out_dir = tmp_path / "o"
    assert main(["landscape", hist, "--resolution", "61", "--out-dir", str(out_dir)]) == EXIT_OK
    assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in LANDSCAPE_DATA_FILES} == RANDOM_LANDSCAPE_SHA256


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


@pytest.mark.parametrize("stage", ["face_grids"])
def test_landscape_dead_worker_is_one_line(tmp_path, capsys, monkeypatch, stage):
    # The face pairs map loses a worker, as to the OOM killer.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(landscape, stage, _kill_in_worker(getattr(landscape, stage)))
    hist = write_history(tmp_path / "history.csv")
    _assert_a_worker_died(capsys, main(["landscape", hist, "--resolution", "11",
                                        "--out-dir", str(tmp_path / "o")]))


@pytest.mark.parametrize("cpus", [1, 2])
def test_landscape_builds_csv_prefixes_once_in_its_own_process(tmp_path, monkeypatch, cpus):
    # The CSV is joined in the command's process, so no worker builds the
    # cell prefixes (a worker that called _csv_prefixes would die, and the
    # command fail), and the command builds them once.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cached = landscape._csv_prefixes
    cached.cache_clear()
    monkeypatch.setattr(landscape, "_csv_prefixes", _kill_in_worker(cached))
    hist = write_history(tmp_path / "history.csv")
    assert main(["landscape", hist, "--resolution", "11",
                 "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    assert cached.cache_info().misses == 1


@pytest.mark.parametrize("error, code, prefix", [
    (MemoryError("Unable to allocate 41.0 GiB"), EXIT_NUMERIC, "numeric failure: out of memory"),
    (ValueError("bad walk"), EXIT_DATA, "data error: evaluator failed for recipe"),
])
def test_evolve_evaluation_failure_is_one_line(tmp_path, capsys, fast_config, monkeypatch,
                                               error, code, prefix):
    # At --jobs 2 the error is raised in a forked worker and again by the
    # pool at its recipe's result.
    def simulate(*args, **kwargs):
        raise error

    monkeypatch.setattr(arena, "simulate", simulate)
    for jobs in ("1", "2"):
        rc = main(["evolve", "--config", fast_config, "--seed", FAST_SEED, "--jobs", jobs,
                   "--out-dir", str(tmp_path / f"jobs{jobs}")])
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
    # The tracer replaces layer functions with closures, which a pool could
    # not pickle; the command maps a cli function that looks the layers up in
    # the worker. Two usable CPUs, so the face pairs go to a forked pool.
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
@pytest.mark.parametrize("case", ["fit", "face"])
def test_landscape_overflow_is_a_numeric_failure(tmp_path, case, cpus):
    # Overflow in the fit (fitness 1e308) or in a face's predictions (two
    # nearby points of fitness 1.79e308, which wrote an inf row and an
    # island of "max_value": Infinity with exit code 0). One CPU predicts
    # the faces serially, two in forked workers.
    path = tmp_path / "h.csv"
    if case == "face":
        path.write_text("\n".join([HISTORY_HEADER, "0,1,0,,0.57,0.18,0.25,0.0,,,,1.79e308",
                                   "0,1,1,,0.43,0.32,0.25,0.0,,,,1.79e308"]) + "\n")
    else:
        write_overflowing_history(path, 1e308)
    out_dir = tmp_path / "o"
    rc, err = _cli_fresh(["landscape", str(path), "--resolution", "5",
                          "--out-dir", str(out_dir)], cpus)
    assert rc == EXIT_NUMERIC
    assert err.startswith("numeric failure:") and err.count("\n") == 1
    if case == "face":
        assert err == "numeric failure: face 3: a prediction is not finite\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fitness", [2.0 ** 1017, 2.0 ** 1023], ids=["2**1017", "2**1023"])
def test_landscape_grey_levels_of_a_huge_fitness(tmp_path, fitness, cpus):
    # The grey levels of a one-row history of fitness 2**1017 or 2**1023
    # overflowed ("overflow encountered in multiply", exit 3). Scaling by a
    # power of two is exact through the fit, the faces and the grey levels,
    # so its graymaps are those of the same row with fitness 1.0.
    pgms = []
    for k, value in enumerate((fitness, 1.0)):
        path = tmp_path / f"h{k}.csv"
        path.write_text(f"{HISTORY_HEADER}\n0,1,0,,0.57,0.18,0.25,0.0,,,,{value!r}\n")
        out_dir = tmp_path / f"o{k}"
        assert _cli_fresh(["landscape", str(path), "--resolution", "5",
                           "--out-dir", str(out_dir)], cpus) == (EXIT_OK, "")
        pgms.append([(out_dir / f"face_{face}.pgm").read_bytes() for face in range(4)])
    assert pgms[0] == pgms[1]


@pytest.mark.parametrize("section, key, value", [
    ("ga", "replicates_per_recipe", 5),    # history files hold three replicates
    ("ga", "replicates_per_recipe", 1),
    ("arena", "rng_seed", 3),              # the arena draws from the replicate stream
    ("ga", "genome_length", 4),            # genomes always have four loci
    ("ga", "generations", "3"),
    ("ga", "generations", 2.5),
    ("ga", "rng_seed", 7),                 # the campaign seed comes from --seed alone
    ("evaluation", "arena_config", {"duration": 2.0}),   # built by the command
    ("ga", "mutation_sd", "x"),             # no longer a field
    ("ga", "birth_before_cull", "yes"),     # no longer a field
    ("arena", "duration", float("nan")),
    ("arena", "injection_positions", [[1.0]]),
    ("evaluation", "behaviour_map", "unimodal"),
    ("evaluation", "bogus", 1),
    ("evaluation", "behavior_map", "unimodl"),
    ("evaluation", "unimodal_width", 0),    # no longer a field
    ("evaluation", "unimodal_optimum", [0.5, 0.5]),   # no longer a field
    ("evaluation", "run", 1),              # set by the command, not the config
    ("evaluation", "master_seed", 1),
    ("evaluation", "objective", "division"),
    ("arena", "injection_positions",       # on the wall of the 200 px arena
     [[0.0, 200.0], [60.0, -60.0], [-60.0, 60.0], [60.0, 60.0]]),
    ("arena", "arena_radius", 1e200),      # its square overflows
    ("ga", "carry_overs", 1),              # two parents per child, 3 generations
    pytest.param("arena", "duration", 10**400,    # too large for a float
                 id="arena-duration-401-digit-int"),
    ("ga", "per_locus_mutation_rate", 0.3),   # no longer a field
    ("ga", "selective_pressure", 1.0),        # no longer a field
    ("arena", "frame_rate", 30.0),            # no longer a field
    ("arena", "initial_droplet_area", 400.0),   # no longer a field
    ("ga", "rng_seed", -1),                # even a seed --seed would refuse
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


def test_evolve_config_does_not_seed(tmp_path, capsys):
    # The campaign seed comes from --seed alone; a config's is a usage error
    # whose one line lists the fields a config may set.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ga": {"rng_seed": 7}}))
    out_dir = tmp_path / "o"
    assert main(["evolve", "--config", str(path), "--out-dir", str(out_dir)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: config {path}: ga: unknown field(s) ['rng_seed']; allowed: "
        f"['carry_overs', 'generations', 'population_size', 'runs']\n")
    assert not out_dir.exists()


# sha256 of history_run0.csv for GOLDEN_CONFIG under each pinned objective.
# They pin the replicate RNG streams and arena RNG contract v2 (per-droplet
# streams keyed by lineage, see arena.simulate), and both the movement and
# the directionality pin also the step lengths of tracking._steps
# (sqrt(dx * dx + dy * dy)): a change to any must update them on purpose,
# and they are the same for any --jobs.
GOLDEN_CONFIG = {
    "ga": {"generations": 2, "population_size": 4, "carry_overs": 2, "runs": 1},
    "arena": {"duration": 2.0},
}
GOLDEN_SEED = "7"  # --seed of every GOLDEN_CONFIG run
GOLDEN_HISTORY_SHA256 = {
    "directionality": "4d46169fe102c448b67a4858def04e851111da575b8041ff7da057ca8922ef66",
    "movement": "b7c9fde9092250ba5e5d8ff1cb877c380fbb82aac03dc1d6bcd1fc3c3aeb9c4a",
}
# The same for GOLDEN_CONFIG under the unimodal behaviour map: division is
# the path of perfbench's evolve-crowded, and movement scores the map's speeds.
GOLDEN_UNIMODAL_CONFIG = {**GOLDEN_CONFIG, "evaluation": {"behavior_map": "unimodal"}}
GOLDEN_UNIMODAL_SHA256 = {
    "division": "eff8006f9435d1d6d9958991cbf8495da26fa32f033f1311d406868b0c498b21",
    "movement": "1979423e272d5f43c052bf1b6b6f2f238bbefd4e05868ddbe07a97f6765bf165",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evolve_golden_history(tmp_path, jobs):
    digests = {}
    for name, config, pins in (("oils", GOLDEN_CONFIG, GOLDEN_HISTORY_SHA256),
                               ("unimodal", GOLDEN_UNIMODAL_CONFIG, GOLDEN_UNIMODAL_SHA256)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        for objective in pins:
            out_dir = tmp_path / name / objective
            rc = main(["evolve", "--config", str(path), "--seed", GOLDEN_SEED,
                       "--objective", objective, "--jobs", jobs, "--out-dir", str(out_dir)])
            assert rc == EXIT_OK
            digests[name, objective] = hashlib.sha256(
                (out_dir / "history_run0.csv").read_bytes()).hexdigest()
    # Compared together, so that a change shows every pin it moves.
    assert digests == {**{("oils", k): v for k, v in GOLDEN_HISTORY_SHA256.items()},
                       **{("unimodal", k): v for k, v in GOLDEN_UNIMODAL_SHA256.items()}}


def _openblas_core_types():
    """The OPENBLAS_CORETYPE kernels this x86-64 CPU can run."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        pytest.skip("no /proc/cpuinfo to read the CPU's features from")
    needs = {"Prescott": "pni", "Haswell": "avx2", "SkylakeX": "avx512f"}
    return [core for core, flag in needs.items() if flag in flags]


def test_evolve_golden_history_does_not_depend_on_the_blas_kernel(tmp_path):
    # A DYNAMIC_ARCH OpenBLAS picks its kernels by CPU, and its ddot rounds
    # differently under SkylakeX, Haswell and Prescott; evolve calls no BLAS.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOLDEN_CONFIG))
    code = """
import sys
from dropevo.cli import main
for objective in sys.argv[3:]:
    assert main(["evolve", "--config", sys.argv[1], "--seed", sys.argv[2],
                 "--objective", objective, "--out-dir", objective]) == 0
"""
    for core in _openblas_core_types():
        cwd = tmp_path / core
        cwd.mkdir()
        subprocess.run([sys.executable, "-c", code, str(path), GOLDEN_SEED,
                        *GOLDEN_HISTORY_SHA256], cwd=cwd, capture_output=True, check=True,
                       env=_fresh_env(OPENBLAS_CORETYPE=core))
        digests = {objective: hashlib.sha256(
            (cwd / objective / "history_run0.csv").read_bytes()).hexdigest()
            for objective in GOLDEN_HISTORY_SHA256}
        assert digests == GOLDEN_HISTORY_SHA256, core


def test_evolve_golden_history_takes_no_libm_square_or_hypot(tmp_path):
    # Step lengths are sqrt(dx * dx + dy * dy) and the arena squares its
    # radii as r * r, so evolve gives the pinned bits with math.hypot and
    # numpy.float_power stubbed out.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOLDEN_CONFIG))
    code = """
import math, sys
import numpy
def forbidden(*args, **kwargs):
    raise AssertionError("math.hypot or numpy.float_power called")
math.hypot = numpy.float_power = forbidden
from dropevo.cli import main
for jobs in ("1", "2"):
    for objective in sys.argv[3:]:
        assert main(["evolve", "--config", sys.argv[1], "--seed", sys.argv[2],
                     "--objective", objective, "--jobs", jobs,
                     "--out-dir", objective + jobs]) == 0
"""
    subprocess.run([sys.executable, "-c", code, str(path), GOLDEN_SEED, *GOLDEN_HISTORY_SHA256],
                   cwd=tmp_path, capture_output=True, check=True, env=_fresh_env())
    for jobs in ("1", "2"):
        digests = {objective: hashlib.sha256(
            (tmp_path / (objective + jobs) / "history_run0.csv").read_bytes()).hexdigest()
            for objective in GOLDEN_HISTORY_SHA256}
        assert digests == GOLDEN_HISTORY_SHA256, jobs


def test_evolve_golden_history_does_not_depend_on_cpu_features(tmp_path):
    # The movement and directionality pins check tracking's step lengths
    # with numpy's AVX512 and X86_V3 loops turned off.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOLDEN_CONFIG))
    for k, disabled in enumerate(_cpu_feature_levels()):
        for objective, want in GOLDEN_HISTORY_SHA256.items():
            out_dir = tmp_path / f"level{k}-{objective}"
            _run_with_cpu_features_disabled(
                ["evolve", "--config", str(path), "--seed", GOLDEN_SEED,
                 "--objective", objective, "--out-dir", str(out_dir)], disabled)
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
    rc = main(["evolve", "--config", str(path), "--seed", GOLDEN_SEED, "--objective", objective,
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
    ["evolve", "--seed", "1.5"],
    ["evolve", "--seed", "1" + "0" * 400],   # too large for a float
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
        "ga": {"generations": 3, "population_size": 4, "carry_overs": 2, "runs": 2},
        "arena": {"duration": 2.0},
    }))
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["evolve", "--config", str(path), "--seed", "7", "--jobs", jobs,
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
        assert main(["evolve", "--config", str(path), "--seed", FAST_SEED, "--jobs", jobs,
                     "--out-dir", str(out_dir)]) == EXIT_OK
        outs.append([(out_dir / f"history_run{run}.csv").read_bytes() for run in range(3)])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evolve_names_the_failed_recipe_of_an_interleaved_round(tmp_path, capsys,
                                                                monkeypatch, jobs):
    # Round 1 scores the two runs' 16 recipes as one map, one recipe per
    # task at --jobs 2; the failing recipe is the twelfth, not the first of
    # the map. The forked workers inherit the patched evaluate_recipe.
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
    rc = main(["evolve", "--config", str(path), "--seed", FAST_SEED, "--jobs", jobs,
               "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_NUMERIC
    first_batch = next(ga.evolve(ga.GAConfig(**cfg["ga"], rng_seed=int(FAST_SEED)), 1))
    recipe = normalize(first_batch[failing - 10_000_000].genome).proportions
    err = capsys.readouterr().err
    assert err == (f"numeric failure: evaluator failed for recipe {list(recipe)}: "
                   f"overflow encountered in the walk\n")


def test_evolve_dead_worker_is_one_line(tmp_path, capsys, fast_config, monkeypatch):
    # A worker killed mid-round, as by the OOM killer, breaks the pool.
    monkeypatch.setattr(evaluators, "evaluate_recipe",
                        _kill_in_worker(evaluators.evaluate_recipe))
    _assert_a_worker_died(capsys, main(["evolve", "--config", fast_config, "--seed", FAST_SEED,
                                        "--jobs", "2", "--out-dir", str(tmp_path / "o")]))


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
    argv = ["evolve", "--config", fast_config, "--seed", FAST_SEED, "--jobs", "1",
            "--out-dir", str(tmp_path / "o")]
    assert _run_fresh(argv, ["multiprocessing", "concurrent.futures"]) == [EXIT_OK, []]


def test_serial_evolve_loads_neither_gcode_nor_numpy_ma(tmp_path, fast_config):
    # numpy.ma takes 15-40 ms to import, in every forked worker when the
    # parent has not loaded it; gcode is compiled on import without a
    # bytecode cache.
    argv = ["evolve", "--config", fast_config, "--seed", FAST_SEED, "--jobs", "1",
            "--out-dir", str(tmp_path / "o")]
    assert _run_fresh(argv, ["numpy.ma", "dropevo.gcode"]) == [EXIT_OK, []]


def test_landscape_does_not_load_gcode(tmp_path):
    argv = ["landscape", write_history(tmp_path / "history.csv"), "--resolution", "11",
            "--out-dir", str(tmp_path / "o")]
    assert _run_fresh(argv, ["dropevo.gcode"], cpus=1) == [EXIT_OK, []]


@pytest.mark.parametrize("command", ["landscape", "analyze"])
def test_history_commands_do_not_load_ga(tmp_path, command):
    # ga (and the statistics module it imports) would load after the
    # analysis, at the command's memory peak, and add to it.
    argv = [command, write_history(tmp_path / "history.csv"), "--out-dir", str(tmp_path / "o")]
    if command == "landscape":
        argv += ["--resolution", "11"]
    assert _run_fresh(argv, ["dropevo.ga", "statistics"], cpus=1) == [EXIT_OK, []]


@pytest.mark.parametrize("command", ["compile", "parse", "exec"])
def test_gcode_commands_load_neither_formats_nor_datetime(tmp_path, command):
    # formats parses the histories, and datetime stamps the manifests.
    argv = _gcode_argv(tmp_path, command)
    assert _run_fresh(argv, ["dropevo.formats", "datetime"]) == [EXIT_OK, []]


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
    "ga": {"generations": 2, "population_size": 4, "carry_overs": 2, "runs": 1},
    "arena": {"duration": 1.0},
    "evaluation": {},
}
FUZZ_FIELDS = ([("ga", f.name) for f in dataclasses.fields(ga.GAConfig)]
               + [("arena", f.name) for f in dataclasses.fields(arena.ArenaConfig)]
               + [("evaluation", name) for name in
                  ("behavior_map", "bogus")])
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
            rc = main(["evolve", "--config", str(path), "--seed", "3", "--objective", objective,
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
