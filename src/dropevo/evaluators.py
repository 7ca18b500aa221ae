"""Closed-loop fitness evaluation: formulation -> arena simulation ->
analytic-arena filtering -> tracking -> behaviour score.

A recipe's behaviour is `arena.BEHAVIOR_MAPS[setup.behavior_map]` of its
formulation. Each replicate is seeded by `ga.replicate_seed(master seed,
run, recipe id, replicate index)`, and `arena.simulate` (RNG contract v2)
gives every droplet its own streams keyed by that seed and the droplet's
lineage, so results are independent of evaluation order and safe to compute
concurrently.

`evaluate_recipe` scores a recipe's replicates in passes: the replicates of
one pass are simulated together into one columnar `arena.DetectionRecord`
(replicate after replicate, an empty frame between them), filtered, tracked
into one columnar `tracking.TrajectorySet` (but for division) and scored by
one call that gives each replicate's score. A pass holds all REPLICATES
replicates unless the arena is too large for it (PASS_DROPLET_FRAMES); each
score is the same as that of the replicate scored alone, a pass of one
(`run_replicate`, which no command calls: the tests compare against it, and
perfbench's tracer wraps it).

`ExperimentSetup` is built once per campaign and checks the `behavior_map` of
a config file (`evolve --objective`'s choices check the objective); each GA
run scores with `dataclasses.replace(setup, run=run)`. The round scorer from
`make_batch_evaluator` scores one round of a campaign, every run's new
recipes under its own run's setup, with one `ga.score_batch` call, through
the map it is given: the builtin map, or a process pool's, one recipe per
task.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything needed to score one recipe replicate."""

    objective: str                      # a tracking.FITNESS_FUNCTIONS key
    arena_config: arena.ArenaConfig
    master_seed: int
    run: int = 0
    behavior_map: str = "oils"          # 'oils' or 'unimodal'

    def __post_init__(self):
        if self.behavior_map not in arena.BEHAVIOR_MAPS:
            raise ValueError(f"behavior_map must be {' or '.join(map(repr, arena.BEHAVIOR_MAPS))}"
                             f", got {self.behavior_map!r}")


def _pass_size(cfg: arena.ArenaConfig) -> int:
    """Replicates per pass: as many as fit PASS_DROPLET_FRAMES, at least one
    and at most REPLICATES; an arena without injections takes them all."""
    droplet_frames = max(1, len(cfg.injection_positions) * cfg.total_frames)
    return min(ga.REPLICATES, max(1, PASS_DROPLET_FRAMES // droplet_frames))


def _score_pass(setup: ExperimentSetup, behavior: arena.BehaviorParams,
                seeds: list) -> list[float]:
    """The scores of the replicates seeded by `seeds`, simulated, filtered,
    tracked (but for division) and scored as one record."""
    cfg = setup.arena_config
    record = arena.simulate(behavior, cfg, seeds)
    record = arena.filter_analytic_arena(record, cfg.arena_radius)
    scored = record if setup.objective == "division" else tracking.track(record)
    return tracking.FITNESS_FUNCTIONS[setup.objective](scored, replicates=len(seeds))


def _behavior(setup: ExperimentSetup, proportions) -> arena.BehaviorParams:
    return arena.BEHAVIOR_MAPS[setup.behavior_map](Formulation(tuple(proportions)))


def run_replicate(setup: ExperimentSetup, proportions, recipe_id: int,
                  replicate: int) -> float:
    """Simulate and score a single experiment, as a pass of one replicate."""
    seed = ga.replicate_seed(setup.master_seed, setup.run, recipe_id, replicate)
    return _score_pass(setup, _behavior(setup, proportions), [seed])[0]


def evaluate_recipe(setup: ExperimentSetup, proportions, recipe_id: int) -> list[float]:
    """The REPLICATES scores of one recipe, equal to run_replicate's of each
    replicate, scored in passes of _pass_size replicates."""
    behavior = _behavior(setup, proportions)
    seeds = [ga.replicate_seed(setup.master_seed, setup.run, recipe_id, rep)
             for rep in range(ga.REPLICATES)]
    size = _pass_size(setup.arena_config)
    return [score for k in range(0, len(seeds), size)
            for score in _score_pass(setup, behavior, seeds[k:k + size])]


def _evaluate(setup: ExperimentSetup, proportions, recipe_id: int) -> list[float]:
    # A pool maps this function by name; it looks evaluate_recipe up when it
    # runs, so a test's patch reaches it.
    return evaluate_recipe(setup, proportions, recipe_id)


def make_batch_evaluator(setup: ExperimentSetup, mapper):
    """The round scorer for ga.run_lockstep under `setup`.

    score_round(batches) scores every run's batch with one ga.score_batch
    call, each recipe under dataclasses.replace(setup, run=run), through
    `mapper`: the builtin map, or the map of a concurrent.futures executor
    (which the caller owns). Per-recipe seeding keeps a pool's results equal
    to serial evaluation, and a pool raises a recipe's failure at that
    recipe's own result.
    """
    def score_round(batches: dict) -> None:
        setups = {run: replace(setup, run=run) for run in batches}
        recipe_setups = [setups[run] for run, batch in batches.items() for _ in batch]
        # score_batch maps evaluator(proportions, id); each recipe's setup goes first.
        ga.score_batch([ind for batch in batches.values() for ind in batch], _evaluate,
                       map=lambda evaluator, *columns: mapper(evaluator, recipe_setups, *columns))

    return score_round
