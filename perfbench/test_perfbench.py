"""The benchmark's own tests, at tiny sizes:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    sys.path.insert(0, str(module.SRC))
    return module


bench = _load_harness()


def _run_bench(workload: str, seed: int, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_prints_every_declared_metric(workload, trace):
    out = _run_bench(workload, 3, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        assert f"  {metric['name']} = " in out.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_a_second_seed_runs_clean():
    out = _run_bench("lab-cli", 4, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def _iterate(commands, work: Path, checker=None):
    checker = checker or bench.Checker()
    return bench.run_iteration(commands, work, checker, time.monotonic() + 120), checker


def test_a_truncated_output_is_a_failure(tmp_path):
    commands = bench.prepare_landscape(tmp_path, 5, tiny=True)
    iteration, checker = _iterate(commands, tmp_path)
    assert iteration.commands[0].problems == []
    table = tmp_path / "out" / "landscape" / "landscape.csv"
    text = table.read_text()
    table.write_text(text[: len(text) // 2 + 7])     # cut inside a row
    again = bench.CommandResult("landscape", 0.0, 0.0, 0, b"")
    checker.check(commands[0], again, tmp_path)
    assert any("landscape.csv" in p and "sha256" not in p for p in again.problems)
    assert any("sha256 differs" in p for p in again.problems)


def _poison_fitness(history: Path) -> None:
    """NaN fitness on the last row: a final-generation recipe, so no later
    row of the same recipe overrides it."""
    lines = history.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = "nan"
    lines[-1] = ",".join(fields)
    history.write_text("\n".join(lines) + "\n")


def test_nan_fitness_fed_to_the_program_is_a_failure(tmp_path):
    analyze = bench.prepare_lab_cli(tmp_path / "lab", 6, tiny=True)[0]
    _poison_fitness(tmp_path / "lab" / "in" / "history_run0.csv")
    iteration, _ = _iterate([analyze], tmp_path / "lab")
    assert iteration.commands[0].problems

    landscape = bench.prepare_landscape(tmp_path / "land", 6, tiny=True)
    _poison_fitness(tmp_path / "land" / "in" / "history_run0.csv")
    iteration, _ = _iterate(landscape, tmp_path / "land")
    assert iteration.commands[0].problems


def test_wrong_evolve_bookkeeping_is_a_failure(tmp_path):
    command = bench.prepare_evolve_default(tmp_path, 7, tiny=True)[0]
    command.bookkeeping = {**command.bookkeeping,
                           "recipes_per_run": command.bookkeeping["recipes_per_run"] + 1}
    iteration, _ = _iterate([command], tmp_path)
    assert any("bookkeeping" in p or "distinct recipes" in p
               for p in iteration.commands[0].problems)


def test_self_time_subtracts_children():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
             {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
             {"id": 3, "parent": 0, "start": 6.0, "end": 7.5}]
    assert bench._self_times(spans) == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench("lab-cli", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
