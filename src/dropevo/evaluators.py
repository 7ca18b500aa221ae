"""Closed-loop fitness evaluation: formulation -> arena simulation ->
analytic-arena filtering -> tracking -> behaviour score.

Each replicate is seeded by `ga.replicate_seed(master seed, run, recipe id,
replicate index)`, and `arena.simulate` (RNG contract v2) gives every droplet
its own streams keyed by that seed and the droplet's lineage, so results are
independent of evaluation order and safe to compute concurrently.

`evaluate_recipe` scores a recipe's replicates in passes: the replicates of
one pass are simulated together into one columnar `arena.DetectionRecord`
(replicate after replicate, an empty frame between them), filtered, tracked
into one columnar `tracking.TrajectorySet` (but for division) and scored by
one call that gives each replicate's score. A pass holds all REPLICATES
replicates unless the arena is too large for it (PASS_DROPLET_FRAMES); each
score is the same as that of the replicate scored alone, a pass of one
(`run_replicate`, which no command calls: the tests compare against it, and
perfbench's tracer wraps it).

`ExperimentSetup` is built once per campaign and checks itself; each GA run
scores with `dataclasses.replace(setup, run=run)`. The round scorer from
`make_batch_evaluator` scores one round of a campaign, every run's new
recipes under its own run's setup, with one `ga.score_batch` call: it maps
the recipes over the process pool it is given, or over none (serially).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from . import arena, ga, tracking
from .formulation import Formulation

# A recipe's replicates are simulated, filtered and scored in passes that
# hold at most this many droplet-frames (injections x frames per replicate).
# The cap bounds a tracked (movement or directionality) pass's memory: the
# tracker keeps about 170 B of temporaries per detection, and on an arena of
# 32 injections x 600 frames all three replicates in one tracked pass raised
# the command's peak RSS from 41.3-41.9 to 49.3-50.8 MB and saved no time (3
# seeds, 2 vCPUs). The default arena (4 x 1,800) takes all three at once.
PASS_DROPLET_FRAMES = 2 ** 15

# A pooled round goes out as about this many chunks of recipes per worker,
# which keeps both the round trips and the end-of-round tail short. On the
# default campaign, 1 to 8 chunks per worker and one recipe per task all
# measured within noise of each other (2 vCPUs). With a recipe's replicates
# in one pass, the benchmark's evolve-default (2 generations, --jobs 2,
# seeds 201-210, 10 s runs, 2 vCPUs) gave a median wall time of 0.624 s at
# 4 chunks per worker, 0.680 s at 8 and 0.650 s at 16; 8 and 16 beat 4 in
# only 2 and 3 of the 10 seeds.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything needed to score one recipe replicate."""

    objective: str                      # 'division' | 'movement' | 'directionality'
    arena_config: arena.ArenaConfig = field(default_factory=arena.ArenaConfig)
    master_seed: int = 0
    run: int = 0
    behavior_map: str = "oils"          # 'oils' or 'unimodal'

    def __post_init__(self):
        if self.objective not in tracking.FITNESS_FUNCTIONS:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.behavior_map not in ("oils", "unimodal"):
            raise ValueError(f"behavior_map must be 'oils' or 'unimodal', "
                             f"got {self.behavior_map!r}")


def _pass_size(cfg: arena.ArenaConfig) -> int:
    """Replicates per pass: as many as fit PASS_DROPLET_FRAMES, at least one
    and at most REPLICATES; an arena without injections takes them all."""
    droplet_frames = max(1, len(cfg.injection_positions) * cfg.total_frames)
    return min(ga.REPLICATES, max(1, PASS_DROPLET_FRAMES // droplet_frames))


def _score_pass(setup: ExperimentSetup, f: Formulation, behavior: arena.BehaviorParams,
                seeds: list) -> list[float]:
    """The scores of the replicates seeded by `seeds`, simulated, filtered,
    tracked (but for division) and scored as one record."""
    cfg = setup.arena_config
    record = arena.simulate(f, cfg, seeds, behavior=behavior)
    record = arena.filter_analytic_arena(record, cfg.arena_radius)
    scored = record if setup.objective == "division" else tracking.track(record)
    return tracking.FITNESS_FUNCTIONS[setup.objective](scored, replicates=len(seeds))


def _recipe(setup: ExperimentSetup, proportions) -> tuple:
    f = Formulation(tuple(proportions))
    if setup.behavior_map == "unimodal":
        return f, arena.unimodal_behavior(f)
    return f, arena.behavior_from_formulation(f)


def run_replicate(setup: ExperimentSetup, proportions, recipe_id: int,
                  replicate: int) -> float:
    """Simulate and score a single experiment, as a pass of one replicate."""
    seed = ga.replicate_seed(setup.master_seed, setup.run, recipe_id, replicate)
    return _score_pass(setup, *_recipe(setup, proportions), [seed])[0]


def evaluate_recipe(setup: ExperimentSetup, proportions, recipe_id: int) -> list[float]:
    """The REPLICATES scores of one recipe, equal to run_replicate's of each
    replicate, scored in passes of _pass_size replicates."""
    f, behavior = _recipe(setup, proportions)
    seeds = [ga.replicate_seed(setup.master_seed, setup.run, recipe_id, rep)
             for rep in range(ga.REPLICATES)]
    size = _pass_size(setup.arena_config)
    return [score for k in range(0, len(seeds), size)
            for score in _score_pass(setup, f, behavior, seeds[k:k + size])]


def _outcome(setup: ExperimentSetup, proportions, recipe_id: int):
    """evaluate_recipe's replicates, or the exception it raised. A pool runs
    a chunk of recipes as one task, whose failure would surface at the
    chunk's first recipe; returned, it surfaces at its own."""
    try:
        return evaluate_recipe(setup, proportions, recipe_id)
    except Exception as exc:  # noqa: BLE001 - raised again by _raise_failures
        return exc


def _raise_failures(outcomes):
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome


def make_batch_evaluator(setup: ExperimentSetup, pool=None, jobs: int = 1):
    """The round scorer for ga.run_lockstep under `setup`.

    score_round(batches) scores every run's batch with one ga.score_batch
    call, each recipe under dataclasses.replace(setup, run=run). With a pool
    (a concurrent.futures executor of `jobs` workers, which the caller owns)
    the recipes are mapped over it in chunks; per-recipe seeding keeps the
    results equal to serial evaluation.
    """
    def score_round(batches: dict) -> None:
        setups = {run: replace(setup, run=run) for run in batches}
        recipe_setups = [setups[run] for run, batch in batches.items() for _ in batch]
        mapper = map if pool is None else partial(
            pool.map, chunksize=-(-len(recipe_setups) // (_CHUNKS_PER_WORKER * jobs)))
        # score_batch maps evaluator(proportions, id); each recipe's setup goes first.
        ga.score_batch([ind for batch in batches.values() for ind in batch], _outcome,
                       map=lambda evaluator, *columns: _raise_failures(
                           mapper(evaluator, recipe_setups, *columns)))

    return score_round
