"""Closed-loop fitness evaluation: formulation -> arena simulation ->
analytic-arena filtering -> tracking -> behaviour score.

Replicate RNG streams are derived from (master seed, run, recipe id,
replicate index), so results are independent of evaluation order and safe to
compute concurrently; within a stream, draws follow `arena.simulate`'s RNG
contract. A replicate's detections pass from stage to stage as one columnar
`arena.DetectionRecord`, and its tracks as a column-wise
`tracking.TrajectorySet`, so no per-frame objects are built.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import arena, ga, tracking
from .formulation import DEFAULT_OIL_ORDER, Formulation, oils_for_order

ANALYTIC_ARENA_SHRINK = 0.95


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything needed to score one recipe replicate."""

    objective: str                      # 'division' | 'movement' | 'directionality'
    arena_config: arena.ArenaConfig = field(default_factory=arena.ArenaConfig)
    oil_order: tuple = DEFAULT_OIL_ORDER
    master_seed: int = 0
    run: int = 0
    replicates: int = 3
    behavior_map: str = "oils"          # 'oils' or 'unimodal'
    unimodal_optimum: tuple = (0.1, 0.6, 0.2, 0.1)
    unimodal_width: float = 0.35

    def __post_init__(self):
        if self.objective not in tracking.FITNESS_FUNCTIONS:
            raise ValueError(f"unknown objective {self.objective!r}")


def run_replicate(setup: ExperimentSetup, proportions, recipe_id: int,
                  replicate: int) -> float:
    """Simulate and score a single experiment."""
    f = Formulation(tuple(proportions))
    if setup.behavior_map == "unimodal":
        behavior = arena.unimodal_behavior_map(
            setup.unimodal_optimum, setup.unimodal_width)(f)
    else:
        behavior = arena.behavior_from_formulation(f, oils_for_order(setup.oil_order))
    rng = np.random.default_rng(
        ga.replicate_seed(setup.master_seed, setup.run, recipe_id, replicate))
    frames = arena.simulate(f, setup.arena_config, rng, behavior=behavior)
    frames = arena.filter_analytic_arena(frames, setup.arena_config.arena_radius,
                                         ANALYTIC_ARENA_SHRINK)
    ts = tracking.track(frames)
    try:
        return float(tracking.FITNESS_FUNCTIONS[setup.objective](ts))
    except (tracking.NoFramePairs, tracking.NoTriples):
        return 0.0


def evaluate_recipe(setup: ExperimentSetup, proportions, recipe_id: int) -> list[float]:
    return [run_replicate(setup, proportions, recipe_id, rep)
            for rep in range(setup.replicates)]


def _evaluate_one(args):
    setup, proportions, recipe_id = args
    return evaluate_recipe(setup, proportions, recipe_id)


def make_batch_evaluator(setup: ExperimentSetup, cfg: ga.GAConfig, jobs: int = 1):
    """Batch evaluator for ga.run_ga; jobs > 1 evaluates the recipes of a
    generation in a process pool (per-recipe seeding keeps this exact)."""
    from .formulation import normalize

    def evaluate_batch(batch):
        recipes = [(setup, normalize(ind.genome).proportions, ind.id) for ind in batch]
        if jobs > 1 and len(batch) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_evaluate_one, recipes))
        else:
            results = [_evaluate_one(r) for r in recipes]
        for ind, reps in zip(batch, results):
            ind.set_fitness(reps, ga.aggregate_fitness(reps, cfg.replicates_per_recipe))
    return evaluate_batch
