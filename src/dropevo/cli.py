"""Command-line driver for the closed loop and the analysis pipeline.

Subcommands: evolve, landscape, analyze, gcode. All outputs are machine
readable (CSV/JSON/PGM); every output directory gets a run manifest with the
config snapshot and seed needed to reproduce the data files byte for byte.

`evolve --jobs N` (N > 1) scores each GA round, every run's new recipes
together, in one map over a pool of N worker processes forked from this
process. `landscape` predicts its four simplex faces, and then writes their
CSV text, over a pool forked the same way, with one worker per CPU the
process may run on, up to 4; the bytes do not depend on the worker count.
With one worker (`--jobs 1`, or one usable CPU) a command maps serially and
imports no pool machinery. A worker that dies (say, to the OOM killer) ends
the command as a one-line numeric failure.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

# Each command imports the layers it uses when it runs: the gcode commands
# load neither numpy nor scipy, and evolve, landscape and analyze do not load
# (or, without bytecode caches, compile) the gcode module.
from . import __version__, formats
from .formulation import normalize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class NumericFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path}: top level must be an object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be an object")
    return section


def _write(out_dir: Path, name: str, data) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


def _manifest(out_dir: Path, command: str, config: dict, seed, outputs: list[str],
              extra: dict | None = None) -> None:
    from . import ga

    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "rng": ga.RNG_ALGORITHM,
        "version": __version__,
        "outputs": sorted(outputs),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    _write(out_dir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# forked worker pools

def _cause(exc: Exception) -> Exception:
    """The exception that decides how a command fails: a recipe the GA could
    not score (ga.EvaluationError, which names the recipe) fails as its cause
    would."""
    return exc.__cause__ if hasattr(exc, "recipe") else exc


def _can_fork() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


@contextlib.contextmanager
def _fork_pool(workers: int):
    """A process pool of `workers` workers forked from this process, which has
    already imported numpy and the layers, so no worker starts an interpreter
    or imports them again; None (map serially, load no pool machinery) for
    one worker. A fork-context pool forks all its workers at its first
    submit, before it starts its manager thread. A worker that dies breaks
    the pool, which ends the command as a numeric failure.
    """
    if workers < 2:
        yield None
        return
    # Only a pooled command loads these (about 20 ms of a cold start).
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            yield pool
    except RuntimeError as exc:  # ga.EvaluationError, or the pool's own error
        if isinstance(_cause(exc), BrokenExecutor):
            raise NumericFailure(f"a worker process died: {_cause(exc)}") from exc
        raise


# ---------------------------------------------------------------------------
# evolve

def _build(cls, section: dict, where: str, **fixed):
    """The dataclass `cls` built from a config section plus the `fixed`
    fields the command sets itself; any rejection is a usage error."""
    allowed = {f.name for f in dataclasses.fields(cls)} - set(fixed)
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise UsageError(f"{where}: unknown field(s) {unknown}; allowed: {sorted(allowed)}")
    try:
        return cls(**section, **fixed)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where}: {exc}") from exc


def cmd_evolve(args) -> int:
    from . import arena, evaluators, ga

    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > 1 and not _can_fork():
        raise UsageError(f"--jobs {args.jobs} needs forked workers, which this "
                         f"platform cannot start; use --jobs 1")
    cfg_file = _load_config(args.config)
    unknown = sorted(set(cfg_file) - {"ga", "arena", "evaluation"})
    if unknown:
        raise UsageError(f"config {args.config}: unknown section(s) {unknown}")
    where = f"config {args.config}: " if args.config else ""
    ga_section = _section(cfg_file, "ga")
    if args.seed is not None:
        ga_section = {**ga_section, "rng_seed": args.seed}
    ga_cfg = _build(ga.GAConfig, ga_section, where + "ga")
    arena_cfg = _build(arena.ArenaConfig, _section(cfg_file, "arena"), where + "arena")
    setup = _build(evaluators.ExperimentSetup, _section(cfg_file, "evaluation"),
                   where + "evaluation", objective=args.objective,
                   arena_config=arena_cfg, master_seed=ga_cfg.rng_seed, run=0)

    out_dir = Path(args.out_dir)
    outputs = []
    # One pool serves the whole campaign, and each GA round (every run's new
    # recipes) is one map over it. Forking is safe: the only BLAS calls on
    # this path are the length-4 np.dot calls of
    # arena.behavior_from_formulation, and numpy's OpenBLAS shuts its threads
    # down in a pthread_atfork handler. As the pool starts every worker at
    # once, it gets no more than a round has recipes.
    jobs = min(args.jobs, ga_cfg.runs * ga_cfg.population_size)
    with _fork_pool(jobs) as pool:
        histories = ga.run_lockstep(ga_cfg, range(ga_cfg.runs),
                                    evaluators.make_batch_evaluator(setup, pool, jobs))
    for history in histories:
        name = f"history_run{history.run}.csv"
        _write(out_dir, name, ga.history_to_csv(history))
        outputs.append(name)

    if args.emit_gcode:
        from . import gcode

        gdir = out_dir / "gcode"
        layout = gcode.default_layout()
        seen = set()
        for history in histories:
            for gen in history.generations:
                for ind in gen:
                    if ind.id in seen:
                        continue
                    seen.add(ind.id)
                    f = normalize(ind.genome)
                    _write(gdir, f"experiment_{ind.id}.gcode",
                           gcode.compile_experiment(f, layout))
        outputs.append("gcode/")

    recipes_per_run = ga_cfg.recipes_per_run
    total_recipes = recipes_per_run * ga_cfg.runs
    experiments = total_recipes * ga.REPLICATES
    _manifest(out_dir, "evolve", cfg_file, ga_cfg.rng_seed, outputs, extra={
        "objective": args.objective,
        "bookkeeping": {
            "recipes_per_run": recipes_per_run,
            "total_recipes": total_recipes,
            "experiments": experiments,
            "droplets": experiments * arena_cfg.injection_count,
        },
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# landscape

def _load_histories(paths):
    """The parsed histories. Every file is checked before ga loads numpy, so
    a bad one fails without that import."""
    for path in paths:
        violations = formats.validate_file(path, "history")
        if violations:
            raise FileFormatError(path, violations)
    from . import ga

    return [ga.history_from_csv(Path(path).read_text()) for path in paths]


class FileFormatError(Exception):
    def __init__(self, path, violations):
        super().__init__(f"{path}: " + "; ".join(violations[:5]))
        self.violations = violations


def _face_grid(model, face: int, resolution: int):
    # The pool maps this function by name. landscape.face_grid is looked up
    # when it runs, so a wrapper put on it (perfbench's tracer) need not
    # pickle. Its einsum row sums overflow without a floating-point error.
    import numpy as np

    from . import landscape

    lat = landscape.face_grid(model, face, resolution)
    if not np.isfinite(lat.values[lat.valid]).all():
        raise NumericFailure(f"face {face}: a prediction is not finite")
    return lat


def cmd_landscape(args) -> int:
    parsed = _load_histories(args.history)
    import numpy as np

    from . import landscape

    for key, default in (("sigma", landscape.DEFAULT_SIGMA), ("lam", landscape.DEFAULT_LAMBDA),
                         ("resolution", landscape.DEFAULT_RESOLUTION)):
        if getattr(args, key) is None:
            setattr(args, key, default)
    if args.resolution < 2:
        raise UsageError(f"--resolution must be >= 2, got {args.resolution}")
    for option, value in (("--sigma", args.sigma), ("--lambda", args.lam)):
        if not math.isfinite(value):
            raise UsageError(f"{option} must be finite, got {value}")
    if args.lam <= 0:
        raise UsageError(f"--lambda must be > 0, got {args.lam}")
    seen = {}
    for hist in parsed:
        for gen in hist["generations"].values():
            for ind_id, loci, fitness in gen:
                seen[(hist["run"], ind_id)] = (loci, fitness)
    X = np.array([normalize(loci).proportions for loci, _ in seen.values()])
    y = np.array([fitness for _, fitness in seen.values()])
    try:
        with np.errstate(over="raise", invalid="raise"):
            model = landscape.fit(X, y, lam=args.lam, sigma=args.sigma)
    except landscape.NonpositiveBandwidth as exc:
        raise UsageError(f"--sigma: {exc}") from exc
    except landscape.SolveFailure as exc:
        raise NumericFailure(exc) from exc
    # The faces are predicted, and their CSV text built, in forked workers,
    # one per usable CPU (none where the platform cannot list them): landscape
    # calls no BLAS, and a kernel row's bits do not depend on the process
    # that computes it. The catchment, which joins the faces, runs here.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    with _fork_pool(min(cpus, 4) if cpus > 1 and _can_fork() else 1) as pool:
        pool_map = map if pool is None else pool.map
        lattices = list(pool_map(_face_grid, [model] * 4, range(4), [args.resolution] * 4))
        islands = landscape.catchment_map(lattices)
        csv = landscape.landscape_csv(lattices, islands, map=pool_map)
    # Grey levels that overflow fail before any file is written.
    with np.errstate(over="raise", invalid="raise"):
        pgms = [landscape.lattice_to_pgm(lat) for lat in lattices]
    out_dir = Path(args.out_dir)
    outputs = [_write(out_dir, "landscape.csv", csv).name]
    outputs.append(_write(out_dir, "islands.json",
                          landscape.island_summary_json(islands)).name)
    for lat, pgm in zip(lattices, pgms):
        outputs.append(_write(out_dir, f"face_{lat.face}.pgm", pgm).name)
    _manifest(out_dir, "landscape",
              {"sigma": args.sigma, "lambda": args.lam, "resolution": args.resolution,
               "face_axes": {face: landscape.face_axes(face) for face in range(4)},
               "history_files": [str(p) for p in args.history]},
              None, outputs,
              extra={"training_points": int(len(y)),
                     "landscape_contract": landscape.LANDSCAPE_CONTRACT})
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    # The histories are read and checked before stats loads scipy: a bad file
    # fails without that import, and the memory the parse frees is reused by
    # it rather than added to the command's peak.
    parsed = _load_histories(args.history)
    import numpy as np

    from . import stats

    shims = []
    for hist in parsed:
        gens = [
            [SimpleNamespace(fitness=fitness) for _, _, fitness in hist["generations"][g]]
            for g in sorted(hist["generations"])
        ]
        shims.append(SimpleNamespace(generations=gens))
    # Statistics that overflow are a numeric failure, not a NaN in the report.
    with np.errstate(over="raise", invalid="raise"):
        report = stats.trajectory_report(shims)
    out_dir = Path(args.out_dir)
    outputs = [
        _write(out_dir, "report.json", stats.report_json(report)).name,
        _write(out_dir, "bands.csv", stats.bands_csv(report)).name,
    ]
    _manifest(out_dir, "analyze",
              {"history_files": [str(p) for p in args.history]},
              None, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gcode

def _layout(args):
    from . import gcode

    if args.layout is None:
        return gcode.default_layout()
    return gcode.StageLayout.from_json(Path(args.layout).read_text())


def cmd_gcode_compile(args) -> int:
    if not (args.formulation or args.cleaning):
        raise UsageError("gcode compile needs --formulation and/or --cleaning")
    from . import gcode

    layout = _layout(args)
    program = ""
    if args.formulation:
        props = normalize([float(v) for v in args.formulation.split(",")])
        program += gcode.compile_experiment(props, layout)
    if args.cleaning:
        program += gcode.compile_cleaning_cycle(layout)
    if args.output:
        Path(args.output).write_text(program)
    else:
        sys.stdout.write(program)
    return EXIT_OK


def cmd_gcode_parse(args) -> int:
    from . import gcode

    failures = 0
    for path in args.files:
        errors = gcode.check_program(Path(path).read_text())
        for err in errors:
            print(f"{path}: {err}", file=sys.stderr)
        failures += len(errors)
    print(f"{len(args.files)} file(s), {failures} error(s)")
    return EXIT_OK if failures == 0 else EXIT_DATA


def cmd_gcode_exec(args) -> int:
    from . import gcode

    robot = gcode.VirtualRobot(layout=_layout(args))
    for path in args.files:
        robot.execute(Path(path).read_text())
    sys.stdout.write(robot.state.to_json())
    if args.out_dir:
        _write(Path(args.out_dir), "events.csv", robot.events_csv())
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dropevo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run the closed evolution loop")
    p.add_argument("--objective", choices=sorted(("division", "movement",
                                                  "directionality")),
                   default="movement")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="forked worker processes that score each GA round (default 1: serial)")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--emit-gcode", action="store_true",
                   help="also write one experiment G-code script per recipe")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("landscape", help="fit the kernel model and map islands")
    p.add_argument("history", nargs="+", help="history CSV files")
    # Left unset, these take landscape's defaults when the command runs.
    p.add_argument("--sigma", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--resolution", type=int)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("analyze", help="trajectory statistics report")
    p.add_argument("history", nargs="+", help="history CSV files")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gcode", help="compile, check or execute robot programs")
    gsub = p.add_subparsers(dest="gcode_cmd", required=True)
    pc = gsub.add_parser("compile")
    pc.add_argument("--formulation", default=None,
                    help="comma-separated raw proportions, e.g. 1,0,0,1")
    pc.add_argument("--cleaning", action="store_true")
    pc.add_argument("--layout", default=None)
    pc.add_argument("--output", "-o", default=None)
    pc.set_defaults(func=cmd_gcode_compile)
    pp = gsub.add_parser("parse")
    pp.add_argument("files", nargs="+")
    pp.set_defaults(func=cmd_gcode_parse)
    pe = gsub.add_parser("exec")
    pe.add_argument("files", nargs="+")
    pe.add_argument("--layout", default=None)
    pe.add_argument("--out-dir", default=None)
    pe.set_defaults(func=cmd_gcode_exec)
    return parser


def _gcode_errors() -> tuple:
    """GcodeError, if the gcode module is loaded: only then can one be raised."""
    gcode = sys.modules.get(f"{__package__}.gcode")
    return (gcode.GcodeError,) if gcode is not None else ()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:
        cause = _cause(exc)
        if isinstance(cause, UsageError):
            code, kind = EXIT_USAGE, "usage error"
        elif isinstance(cause, (NumericFailure, FloatingPointError)):
            code, kind = EXIT_NUMERIC, "numeric failure"
        elif isinstance(cause, MemoryError):
            code, kind = EXIT_NUMERIC, "numeric failure: out of memory"
        elif isinstance(cause, (FileFormatError, formats.UnknownFormat, ValueError, OSError,
                                *_gcode_errors())):
            code, kind = EXIT_DATA, "data error"
        else:
            raise
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
