"""The dropevo benchmark: closed-loop workloads run as real ``dropevo``
commands, with every output checked.

    python3 perfbench/run.py --workload evolve-default --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is ``src/dropevo`` beside this
directory. ``--trace 0`` times the workload's command sequence and prints the
end-to-end metrics. ``--trace 1`` alternates untraced iterations with traced
ones (see tracer.py) and prints the per-layer metrics. Every metric is printed
by name with its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A result file with the
provenance, output digests and every sample is written under ``.perfbench/``.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".perfbench"

# Set-up is repeated and its median reported, so one slow start does not move
# setup_s; each repeat also times one fresh-interpreter import (cli.import_s).
SETUP_REPEATS = 3
# Every command is killed once the run has lasted this long, so the whole run
# ends well inside three minutes even if the program hangs.
HARD_LIMIT_S = 160.0
STDOUT = "<stdout>"

# dropevo's GA defaults, restated here so the bookkeeping check does not ask
# the program under test what it should have done.
GA_DEFAULTS = {"runs": 3, "generations": 21, "population_size": 25,
               "carry_overs": 15, "replicates_per_recipe": 3}
# Shrinks every workload to a few seconds for the benchmark's own tests.
TINY_GA = {"runs": 1, "generations": 2, "population_size": 4, "carry_overs": 2}
TINY_DURATION_S = 2.0


# ---------------------------------------------------------------------------
# Workloads: inputs generated from the seed, and the command sequence


@dataclass
class Command:
    key: str                   # names the command across iterations
    argv: list[str]            # dropevo arguments, paths relative to the work dir
    outputs: dict[str, str]    # output path (or STDOUT) -> check kind
    bookkeeping: dict | None = None   # expected evolve counts


@dataclass
class Workload:
    name: str
    prepare: Callable[[Path, int, bool], list[Command]]
    jobs: int = 0              # --jobs of its evolve command; 0 if it has none


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _evolve_command(work: Path, seed: int, objective: str, jobs: int,
                    ga_cfg: dict, arena_cfg: dict, evaluation: dict | None = None) -> Command:
    _write_json(work / "in" / "evolve.json",
                {"ga": ga_cfg, "arena": arena_cfg, "evaluation": evaluation or {}})
    g = {**GA_DEFAULTS, **ga_cfg}
    recipes_per_run = (g["population_size"]
                       + (g["generations"] - 1) * (g["population_size"] - g["carry_overs"]))
    experiments = recipes_per_run * g["runs"] * g["replicates_per_recipe"]
    injections = len(arena_cfg.get("injection_positions", ())) or 4
    outputs = {f"out/evolve/history_run{r}.csv": "history" for r in range(g["runs"])}
    outputs["out/evolve/manifest.json"] = "manifest"
    return Command(
        key="evolve",
        argv=["evolve", "--objective", objective, "--jobs", str(jobs), "--seed", str(seed),
              "--config", "in/evolve.json", "--out-dir", "out/evolve"],
        outputs=outputs,
        bookkeeping={"recipes_per_run": recipes_per_run,
                     "total_recipes": recipes_per_run * g["runs"],
                     "experiments": experiments,
                     "droplets": experiments * injections,
                     "generations": g["generations"],
                     "population_size": g["population_size"]},
    )


def prepare_evolve_default(work: Path, seed: int, tiny: bool) -> list[Command]:
    # Default arena and GA shape (3 runs, population 25, 15 carry-overs,
    # 3 replicates); only the generation count is cut to fit the run.
    ga_cfg = TINY_GA if tiny else {"generations": 2}
    arena_cfg = {"duration": TINY_DURATION_S} if tiny else {}
    return [_evolve_command(work, seed, "movement", 2, ga_cfg, arena_cfg)]


CROWDED_INJECTIONS = 32
CROWDED_RING_PX = 100.0


def prepare_evolve_crowded(work: Path, seed: int, tiny: bool) -> list[Command]:
    import numpy as np

    # 32 droplets on a ring (turned by a seeded angle) 19.6 px apart, inside
    # the 30 px tracking gate of their neighbours. The unimodal behaviour map
    # never splits a droplet, and the dish is wide enough that none reaches
    # the wall, so every frame holds 32 droplets whatever recipes the seed's
    # GA draws: tracking work is the same for every seed.
    turn = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi / CROWDED_INJECTIONS)
    angles = turn + 2.0 * math.pi * np.arange(CROWDED_INJECTIONS) / CROWDED_INJECTIONS
    ring = [[CROWDED_RING_PX * math.cos(a), CROWDED_RING_PX * math.sin(a)] for a in angles]
    arena_cfg = {"injection_count": CROWDED_INJECTIONS, "injection_positions": ring,
                 "arena_radius": 1000.0, "duration": TINY_DURATION_S if tiny else 20.0}
    ga_cfg = TINY_GA if tiny else {"runs": 1, "generations": 2,
                                   "population_size": 6, "carry_overs": 3}
    return [_evolve_command(work, seed, "division", 1, ga_cfg, arena_cfg,
                            evaluation={"behavior_map": "unimodal"})]


def make_histories(work: Path, seed: int, tiny: bool) -> list[str]:
    """Three GA histories from ga.run_ga on a seeded analytic landscape: a
    sum of three Gaussian bumps on the simplex, with 5% replicate noise."""
    import numpy as np
    from dropevo import ga

    rng = np.random.default_rng(seed)
    centres = rng.dirichlet(np.ones(4), size=3)
    heights = rng.uniform(1.0, 3.0, size=3)

    def evaluator(proportions, recipe_id):
        d2 = np.sum((centres - np.asarray(proportions)) ** 2, axis=1)
        f = float(np.sum(heights * np.exp(-d2 / (2.0 * 0.2 ** 2))))
        noise = np.random.default_rng([seed, recipe_id]).normal(0.0, 0.05, 3)
        return [max(0.0, f * (1.0 + e)) for e in noise]

    sizes = {"generations": 3, "population_size": 6, "carry_overs": 3} if tiny else {}
    cfg = ga.GAConfig(rng_seed=seed, **sizes)
    (work / "in").mkdir(parents=True, exist_ok=True)
    names = []
    for run in range(cfg.runs):
        name = f"in/history_run{run}.csv"
        (work / name).write_text(ga.history_to_csv(ga.run_ga(cfg, evaluator, run=run)))
        names.append(name)
    return names


def prepare_landscape(work: Path, seed: int, tiny: bool) -> list[Command]:
    histories = make_histories(work, seed, tiny)
    outputs = {"out/landscape/landscape.csv": "landscape",
               "out/landscape/islands.json": "json",
               "out/landscape/manifest.json": "manifest"}
    outputs.update({f"out/landscape/face_{k}.pgm": "pgm" for k in range(4)})
    argv = ["landscape", *histories, "--out-dir", "out/landscape"]
    if tiny:
        argv += ["--resolution", "21"]
    return [Command("landscape", argv, outputs)]


def _fittest_recipe(path: Path) -> str:
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    best = max(rows, key=lambda row: float(row["fitness"]))
    return ",".join(best[f"locus{k}"] for k in range(1, 5))


def prepare_lab_cli(work: Path, seed: int, tiny: bool) -> list[Command]:
    histories = make_histories(work, seed, tiny)
    commands = [Command("analyze", ["analyze", *histories, "--out-dir", "out/analyze"],
                        {"out/analyze/report.json": "json",
                         "out/analyze/bands.csv": "bands",
                         "out/analyze/manifest.json": "manifest"})]
    programs = []
    for run in (0, 1):
        program = f"out/gcode/recipe{run}.gcode"
        recipe = _fittest_recipe(work / histories[run])
        commands.append(Command(f"compile{run}",
                                ["gcode", "compile", "--formulation", recipe, "--cleaning",
                                 "-o", program],
                                {program: "gcode"}))
        programs.append(program)
    commands.append(Command("parse", ["gcode", "parse", *programs], {STDOUT: "parse"}))
    commands.append(Command("exec", ["gcode", "exec", programs[0], "--out-dir", "out/robot"],
                            {STDOUT: "state", "out/robot/events.csv": "events"}))
    return commands


# Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("evolve-default", prepare_evolve_default, jobs=2),
    Workload("evolve-crowded", prepare_evolve_crowded, jobs=1),
    Workload("landscape-res301", prepare_landscape),
    Workload("lab-cli", prepare_lab_cli),
)}


def serial_variant(commands: list[Command]) -> list[Command]:
    """The same sequence with every --jobs set to 1 (for arena spans)."""
    out = []
    for cmd in commands:
        argv = list(cmd.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        out.append(Command(cmd.key, argv, cmd.outputs, cmd.bookkeeping))
    return out


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class CommandResult:
    key: str
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    problems: list[str] = field(default_factory=list)
    digest: dict[str, str] = field(default_factory=dict)
    rows: dict[str, int] = field(default_factory=dict)
    spans: list[dict] | None = None


@dataclass
class Iteration:
    commands: list[CommandResult]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, stdout_path: Path, deadline: float):
    """Run argv to completion; return (wall seconds, peak RSS in MB of the
    process and the children it reaped, exit code)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_command(cmd: Command, work: Path, deadline: float,
                trace_id: str | None = None) -> CommandResult:
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    if trace_id is None:
        argv = [sys.executable, "-m", "dropevo", *cmd.argv]
    else:
        spans_path = logs / f"{trace_id}-{cmd.key}.spans.json"
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(TRACER), str(spans_path), trace_id, "--", *cmd.argv]
    stdout_path = logs / f"{cmd.key}.out"
    wall, rss, rc = spawn(argv, work, stdout_path, deadline)
    result = CommandResult(cmd.key, wall, rss, rc, stdout_path.read_bytes())
    if rc != 0:
        err = stdout_path.with_suffix(".err").read_text(errors="replace").strip()
        result.problems.append(f"{cmd.key}: exit code {rc}: {err[-300:]}")
    if trace_id is not None:
        result.spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
    return result


def run_iteration(commands: list[Command], work: Path, checker: "Checker", deadline: float,
                  trace_id: str | None = None) -> Iteration:
    shutil.rmtree(work / "out", ignore_errors=True)
    for cmd in commands:
        for path in cmd.outputs:
            if path != STDOUT:
                (work / path).parent.mkdir(parents=True, exist_ok=True)
    results = [run_command(cmd, work, deadline, trace_id) for cmd in commands]
    for cmd, result in zip(commands, results):
        checker.check(cmd, result, work)
    return Iteration(results)


# ---------------------------------------------------------------------------
# Output checks


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reject_nan(token):
    raise ValueError(f"non-finite number {token}")


def _load_finite_json(data: bytes):
    return json.loads(data, parse_constant=_reject_nan)


class Checker:
    """Checks each command's outputs and their determinism.

    A command fails when it exits nonzero or any of its outputs fails a
    check. Every output's sha256 must equal the one the same command gave in
    the first iteration of the run, traced or not, at any --jobs. Format
    validation runs once per distinct output, since equal bytes give the
    same verdict.
    """

    def __init__(self):
        self.first_digest: dict[str, dict[str, str]] = {}
        self.verdicts: dict[tuple[str, str], list[str]] = {}

    def check(self, cmd: Command, result: CommandResult, work: Path) -> None:
        for path, kind in cmd.outputs.items():
            if path == STDOUT:
                data = result.stdout
            else:
                try:
                    data = (work / path).read_bytes()
                except OSError as exc:
                    result.problems.append(f"{path}: missing ({exc.strerror})")
                    continue
            if kind == "manifest":
                try:
                    manifest = _load_finite_json(data)
                except ValueError as exc:
                    result.problems.append(f"{path}: {exc}")
                    continue
                manifest.pop("timestamp", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            digest = _sha256(data)
            result.digest[path] = digest
            if (kind, digest) not in self.verdicts:
                self.verdicts[kind, digest] = self._verify(kind, work / path, data, cmd)
            result.problems += [f"{path}: {p}" for p in self.verdicts[kind, digest]]
            if kind in ("history", "landscape", "bands", "events"):
                result.rows[path] = data.count(b"\n") - 1
        first = self.first_digest.setdefault(cmd.key, dict(result.digest))
        for path, digest in result.digest.items():
            if first.get(path, digest) != digest:
                result.problems.append(f"{path}: sha256 differs from the first iteration")

    @staticmethod
    def _verify(kind: str, path: Path, data: bytes, cmd: Command) -> list[str]:
        from dropevo import formats

        if kind in ("history", "landscape", "bands", "events", "gcode"):
            problems = formats.validate_file(path, kind)[:5]
            if kind == "history" and not problems and cmd.bookkeeping:
                problems = _history_bookkeeping(data, cmd.bookkeeping)
            return problems
        if kind == "pgm":
            return [] if data.startswith(b"P5\n") else ["not a binary PGM"]
        if kind == "parse":
            return [] if re.fullmatch(rb"\d+ file\(s\), 0 error\(s\)\n", data) else [
                f"parse reported errors: {data[:200]!r}"]
        try:
            payload = _load_finite_json(data)
        except ValueError as exc:
            return [str(exc)]
        if kind == "manifest" and cmd.bookkeeping:
            want = {k: cmd.bookkeeping[k] for k in
                    ("recipes_per_run", "total_recipes", "experiments", "droplets")}
            if payload.get("bookkeeping") != want:
                return [f"bookkeeping {payload.get('bookkeeping')} != {want}"]
        return []


def _history_bookkeeping(data: bytes, want: dict) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    generations = {int(r["generation"]) for r in rows}
    ids = {r["individual_id"] for r in rows}
    problems = []
    if generations != set(range(1, want["generations"] + 1)):
        problems.append(f"generations {sorted(generations)[:5]}... != 1..{want['generations']}")
    if len(rows) != want["generations"] * want["population_size"]:
        problems.append(f"{len(rows)} rows != generations x population")
    if len(ids) != want["recipes_per_run"]:
        problems.append(f"{len(ids)} distinct recipes != {want['recipes_per_run']}")
    return problems


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


class Layers:
    """Totals of the spans of one traced iteration, by span name."""

    def __init__(self, iteration: Iteration):
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        # Span ids are unique within one command's process only.
        for spans in (c.spans or [] for c in iteration.commands):
            self_time = _self_times(spans)
            for s in spans:
                name, dur = s["name"], s["end"] - s["start"]
                self.self_s[name] = self.self_s.get(name, 0.0) + self_time[s["id"]]
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.durations.setdefault(name, []).append(dur)
                for key, value in s.get("counts", {}).items():
                    self.counts[key] = self.counts.get(key, 0) + value

    def self_of(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))


# Counts computed from the arguments and return values of the layer calls;
# they must repeat exactly for one seed.
COUNT_METRICS = ("arena.detections", "tracking.pair_checks", "tracking.identities",
                 "evaluators.batches", "landscape.kernel_evals", "landscape.cells",
                 "landscape.csv_bytes", "landscape.islands", "stats.kendall_pairs",
                 "gcode.lines", "gcode.events")


def layer_metrics(traced: Iteration, serial: Iteration, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one round. Arena, tracking and replicate figures
    come from the serial traced iteration, since pool workers record no
    spans; batch, GA and the other layers from the workload's own --jobs."""
    own, ser = Layers(traced), Layers(serial)
    replicate_ms = sorted(1000.0 * d for d in ser.durations.get("evaluators.run_replicate", []))
    busy = sum(ser.durations.get("evaluators.run_replicate", []))
    batch_s = own.total_s.get("evaluators.batch", 0.0)
    emitted = ser.counts.get("emitted", 0)
    events = next((n for c in traced.commands for p, n in c.rows.items()
                   if p.endswith("events.csv")), 0)
    return {
        "arena.simulate_s": ser.self_of("arena.simulate"),
        "arena.filter_s": ser.self_of("arena.filter"),
        "arena.detections": ser.counts.get("detections", 0),
        "arena.kept_ratio": ser.counts.get("kept", 0) / emitted if emitted else 0.0,
        "tracking.track_s": ser.self_of("tracking.track"),
        "tracking.pair_checks": ser.counts.get("pair_checks", 0),
        "tracking.identities": ser.counts.get("identities", 0),
        "tracking.score_s": ser.self_of("tracking.score"),
        "evaluators.replicate_ms.p50": statistics.median(replicate_ms) if replicate_ms else 0.0,
        "evaluators.replicate_ms.p99": (statistics.quantiles(replicate_ms, n=100)[98]
                                        if len(replicate_ms) > 1 else sum(replicate_ms)),
        "evaluators.batch_s": batch_s,
        "evaluators.batches": own.calls.get("evaluators.batch", 0),
        "evaluators.pool_efficiency": busy / (jobs * batch_s) if jobs and batch_s else 0.0,
        "ga.self_s": own.self_of("ga.run_ga"),
        "ga.history_to_csv_s": own.self_of("ga.history_to_csv"),
        "formats.validate_s": own.self_of("formats.validate_file"),
        "landscape.fit_s": own.self_of("landscape.fit"),
        "landscape.face_grid_s": own.self_of("landscape.face_grid"),
        "landscape.catchment_s": own.self_of("landscape.catchment"),
        "landscape.csv_s": own.self_of("landscape.csv"),
        "landscape.kernel_evals": own.counts.get("kernel_evals", 0),
        "landscape.cells": own.counts.get("cells", 0),
        "landscape.csv_bytes": own.counts.get("csv_bytes", 0),
        "landscape.islands": own.counts.get("islands", 0),
        "stats.report_s": own.self_of("stats.report"),
        "stats.kendall_pairs": own.counts.get("kendall_pairs", 0),
        "gcode.compile_s": own.self_of("gcode.compile"),
        "gcode.check_s": own.self_of("gcode.check"),
        "gcode.exec_s": own.self_of("gcode.exec"),
        "gcode.lines": own.counts.get("lines", 0),
        "gcode.events": events,
    }


def layer_shares(traced: Iteration, serial: Iteration, import_s: float,
                 untraced: Iteration) -> dict[str, float]:
    """Where each workload's time goes, for the README's stress claims."""
    own, ser = Layers(traced), Layers(serial)
    replicate = ser.total_s.get("evaluators.run_replicate", 0.0)
    landscape_wall = sum(c.wall_s for c in traced.commands if c.key == "landscape")

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "simulate+filter / replicate": share(ser.self_of("arena.simulate")
                                             + ser.self_of("arena.filter"), replicate),
        "track / replicate": share(ser.self_of("tracking.track"), replicate),
        "face_grid+catchment / landscape command": share(
            own.self_of("landscape.face_grid") + own.self_of("landscape.catchment"),
            landscape_wall),
        "cli import / mean command": share(import_s, untraced.wall_s / len(untraced.commands)),
    }


# ---------------------------------------------------------------------------
# The run


def _median(values):
    return statistics.median(values) if values else 0.0


def provenance() -> dict:
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "platform": platform.platform(),
        "git_commit": commit,
        "oils_json_sha256": _sha256((SRC / "dropevo" / "data" / "oils.json").read_bytes()),
    }


def setup(workload: Workload, work: Path, seed: int, tiny: bool, deadline: float):
    """Generate the inputs SETUP_REPEATS times, each followed by a warm-up
    fresh-interpreter import of dropevo.cli. Every repeat must give the same
    input bytes. Returns (commands, setup seconds, import seconds, problems)."""
    setup_s, import_s, digests = [], [], []
    commands = []
    for k in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        commands = workload.prepare(work, seed, tiny)
        wall, _, rc = spawn([sys.executable, "-c", "import dropevo.cli"], work,
                            work / "warmup.out", deadline)
        setup_s.append(time.perf_counter() - start)
        import_s.append(wall)
        if rc != 0:
            return commands, setup_s, import_s, [f"warm-up import exited {rc}"]
        digests.append({p.name: _sha256(p.read_bytes())
                        for p in sorted((work / "in").glob("*"))})
    problems = [] if all(d == digests[0] for d in digests) else [
        "inputs differ between set-up repeats of one seed"]
    return commands, setup_s, import_s, problems


def run(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    begun = time.monotonic()
    deadline = begun + HARD_LIMIT_S
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    checker = Checker()
    # One round: an untraced iteration; with tracing also a traced one, in
    # alternating order so that machine drift evens out over the rounds, and
    # a traced --jobs 1 one for the arena spans when the workload uses a pool.
    untraced, traced, serial = [], [], []
    try:
        commands, setup_s, import_s, setup_problems = setup(workload, work, seed, tiny, deadline)
        start = time.monotonic()
        while not setup_problems:
            tid = f"{seed}-{len(untraced)}"
            order = [False, True] if trace else [False]
            if len(untraced) % 2:
                order.reverse()
            for traced_run in order:
                if traced_run:
                    traced.append(run_iteration(commands, work, checker, deadline, tid))
                else:
                    untraced.append(run_iteration(commands, work, checker, deadline))
            if trace:
                serial.append(run_iteration(serial_variant(commands), work, checker, deadline,
                                            tid + "-serial") if workload.jobs > 1 else None)
            rounds = len(untraced)
            elapsed = time.monotonic() - start
            if time.monotonic() > deadline - 30 or (
                    rounds >= len(order) and elapsed * (rounds + 1) / rounds > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = {"setup_s": setup_s, "import_s": import_s,
               "wall_s": [it.wall_s for it in untraced],
               "traced_wall_s": [it.wall_s for it in traced],
               "peak_rss_mb": [it.rss_mb for it in untraced]}
    shares = {}
    if trace:
        per_round = [layer_metrics(t, s or t, workload.jobs) for t, s in zip(traced, serial)]
        for t, r in zip(traced[1:], per_round[1:]):
            moved = [k for k in COUNT_METRICS if r[k] != per_round[0][k]]
            if moved:
                t.commands[-1].problems.append(f"computed counts changed between rounds: {moved}")
        metrics = {k: (_median([r[k] for r in per_round]), _unit(k)) for k in per_round[0]} \
            if per_round else {}
        metrics["cli.import_s"] = (_median(import_s), "s")
        metrics["trace_overhead"] = (_median(samples["traced_wall_s"])
                                     / _median(samples["wall_s"]) if traced else 0.0, "ratio")
        if traced:
            shares = layer_shares(traced[0], serial[0] or traced[0], _median(import_s),
                                  untraced[0])

    # Set-up counts as one operation; every command run is another.
    results = [c for it in untraced + traced + [s for s in serial if s] for c in it.commands]
    failures = setup_problems + [p for c in results for p in c.problems]
    attempted = 1 + len(results)
    failed = (1 if setup_problems else 0) + sum(1 for c in results if c.problems)
    if not trace:
        metrics = {
            "wall_s": (_median(samples["wall_s"]), "s"),
            "peak_rss_mb": (_median(samples["peak_rss_mb"]), "MB"),
            "setup_s": (_median(setup_s), "s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "provenance": provenance(), "samples": samples,
        "rounds": len(untraced), "failures": failures, "shares": shares,
        "digests": checker.first_digest,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "run_s": time.monotonic() - begun,
    }


def _unit(metric: str) -> str:
    if metric in COUNT_METRICS:
        return "count"
    if metric.endswith("_ms.p50") or metric.endswith("_ms.p99"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def report(result: dict) -> dict:
    """Print every metric with its unit; return the JSON result line."""
    n = result["rounds"]
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"iterations={n} attempted={result['attempted']} failed={result['failed']}")
    for problem in result["failures"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name in ("wall_s", "peak_rss_mb"):
            note = f"  (median of {n} iterations)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} set-ups)"
        elif name in COUNT_METRICS or name == "arena.kept_ratio":
            note = "  (computed from the layer calls' inputs and outputs)"
        print(f"  {name} = {value:.6g} {unit}{note}")
    for name, value in result["shares"].items():
        if value:
            print(f"  share {name} = {value:.3f}")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to seconds (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "dropevo" / "cli.py").is_file():
        print(f"perfbench: no dropevo source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny)
    line = report(result)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    _write_json(results / name, result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
