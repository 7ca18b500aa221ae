"""Closed-loop fitness evaluation: formulation -> arena simulation ->
analytic-arena filtering -> tracking -> behaviour score.

Each replicate is seeded by `ga.replicate_seed(master seed, run, recipe id,
replicate index)`, and `arena.simulate` (RNG contract v2) gives every droplet
its own streams keyed by that seed and the droplet's lineage, so results are
independent of evaluation order and safe to compute concurrently. A
replicate's detections pass from stage to stage as one columnar
`arena.DetectionRecord`, and its tracks as a column-wise
`tracking.TrajectorySet`, so no per-frame objects are built.

`ExperimentSetup` is built once per campaign and checks itself; each GA run
scores with `dataclasses.replace(setup, run=run)`. A batch evaluator is
`ga.score_batch` bound to `evaluate_recipe` under a setup; it maps the
recipes over the process pool it is given, or over none (serially).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial

from . import arena, ga, tracking
from .formulation import GENOME_LENGTH, Formulation, check_number, check_vector

ANALYTIC_ARENA_SHRINK = 0.95


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything needed to score one recipe replicate."""

    objective: str                      # 'division' | 'movement' | 'directionality'
    arena_config: arena.ArenaConfig = field(default_factory=arena.ArenaConfig)
    master_seed: int = 0
    run: int = 0
    behavior_map: str = "oils"          # 'oils' or 'unimodal'
    unimodal_optimum: tuple = (0.1, 0.6, 0.2, 0.1)
    unimodal_width: float = 0.35

    def __post_init__(self):
        if self.objective not in tracking.FITNESS_FUNCTIONS:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.behavior_map not in ("oils", "unimodal"):
            raise ValueError(f"behavior_map must be 'oils' or 'unimodal', "
                             f"got {self.behavior_map!r}")
        width = check_number("unimodal_width", self.unimodal_width, 0, strict=True)
        # unimodal_behavior divides by 2 width^2: it must be a finite normal float.
        if not sys.float_info.min <= 2.0 * width * width <= sys.float_info.max:
            raise ValueError(f"unimodal_width must have 2*width^2 finite and >= "
                             f"{sys.float_info.min:.4g}, got {width!r}")
        object.__setattr__(self, "unimodal_optimum", check_vector(
            "unimodal_optimum", self.unimodal_optimum, GENOME_LENGTH))


def run_replicate(setup: ExperimentSetup, proportions, recipe_id: int,
                  replicate: int) -> float:
    """Simulate and score a single experiment."""
    f = Formulation(tuple(proportions))
    if setup.behavior_map == "unimodal":
        behavior = arena.unimodal_behavior(f, setup.unimodal_optimum, setup.unimodal_width)
    else:
        behavior = arena.behavior_from_formulation(f)
    seed = ga.replicate_seed(setup.master_seed, setup.run, recipe_id, replicate)
    frames = arena.simulate(f, setup.arena_config, seed, behavior=behavior)
    frames = arena.filter_analytic_arena(frames, setup.arena_config.arena_radius,
                                         ANALYTIC_ARENA_SHRINK)
    ts = tracking.track(frames)
    try:
        return float(tracking.FITNESS_FUNCTIONS[setup.objective](ts))
    except (tracking.NoFramePairs, tracking.NoTriples):
        return 0.0


def evaluate_recipe(setup: ExperimentSetup, proportions, recipe_id: int) -> list[float]:
    return [run_replicate(setup, proportions, recipe_id, rep)
            for rep in range(ga.REPLICATES)]


def make_batch_evaluator(setup: ExperimentSetup, pool=None):
    """Batch evaluator for ga.run_ga under `setup`. With a pool (a
    concurrent.futures executor, which the caller owns) the recipes of a
    batch are mapped over it; per-recipe seeding keeps the results equal to
    serial evaluation."""
    return partial(ga.score_batch, evaluator=partial(evaluate_recipe, setup),
                   map=pool.map if pool else map)
