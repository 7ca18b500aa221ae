"""Run a small closed-loop evolution and watch fitness climb.

A population of oil-formulation genomes is scored in the synthetic droplet
arena (formulation -> behaviour -> random walk -> tracking -> movement
fitness) and evolved for a handful of generations. Prints a per-generation
summary and writes the full history CSV next to this script.
"""

from functools import partial
from pathlib import Path

import numpy as np

from dropevo import evaluators, ga
from dropevo.arena import ArenaConfig

cfg = ga.GAConfig(generations=8, rng_seed=42, runs=1)
setup = evaluators.ExperimentSetup(
    objective="movement",
    arena_config=ArenaConfig(duration=6.0),  # short arenas keep this quick
    master_seed=cfg.rng_seed,
)
evaluator = partial(evaluators.evaluate_recipe, setup)

print(f"objective: {setup.objective}, population {cfg.population_size}, "
      f"carry-overs {cfg.carry_overs}, {cfg.generations} generations")
history = ga.run_ga(cfg, evaluator)

for g, gen in enumerate(history.generations, start=1):
    fits = np.array([ind.fitness for ind in gen])
    best = max(gen, key=lambda ind: ind.fitness)
    print(f"gen {g:2d}: mean {fits.mean():6.3f}  best {fits.max():6.3f}  "
          f"best recipe {np.round(best.genome, 3)}")

out = Path(__file__).with_name("history_demo.csv")
out.write_text(ga.history_to_csv(history))
print(f"\n{history.distinct_recipes} distinct recipes evaluated; history -> {out.name}")
