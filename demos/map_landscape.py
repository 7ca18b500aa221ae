"""Fit a fitness landscape from GA history and find its islands.

Trains the Gaussian-RBF kernel ridge model on every recipe a short GA run
evaluated, rasterizes the four simplex faces, and labels each lattice cell
with the fitness island its steepest-ascent path converges to.
"""

from functools import partial
from pathlib import Path

import numpy as np

from dropevo import evaluators, ga, landscape
from dropevo.arena import ArenaConfig
from dropevo.formulation import normalize

cfg = ga.GAConfig(generations=5, rng_seed=7, runs=1)
setup = evaluators.ExperimentSetup(objective="movement",
                                   arena_config=ArenaConfig(duration=4.0),
                                   master_seed=cfg.rng_seed)
history = ga.run_ga(cfg, partial(evaluators.evaluate_recipe, setup))

seen = {}
for gen in history.generations:
    for ind in gen:
        seen[ind.id] = (normalize(ind.genome).proportions, ind.fitness)
X = np.array([p for p, _ in seen.values()])
y = np.array([f for _, f in seen.values()])
print(f"training on {len(y)} recipes, fitness range "
      f"[{y.min():.3f}, {y.max():.3f}]")

model = landscape.fit(X, y)  # sigma=0.15, lambda=1e-3
# Faces 0 and 1, like faces 2 and 3, share their kernel factor tables.
lattices = [lat for pair in ((0, 1), (2, 3))
            for lat in landscape.face_grids(model, pair, resolution=61)]
islands = landscape.catchment_map(lattices)

print(f"\n{len(islands.islands)} fitness island(s):")
for isl in islands.islands:
    face, i, j = isl.max_cell
    comp = landscape.cell_composition(face, i, j, islands.resolution)
    print(f"  rank {isl.rank}: peak {isl.max_value:.3f} at "
          f"{np.round(comp, 3)} ({isl.cell_count} cells)")

out = Path(__file__).with_name("landscape_demo.csv")
out.write_text(landscape.landscape_csv(lattices, islands))
for lat in lattices:
    Path(__file__).with_name(f"face_{lat.face}_demo.pgm").write_bytes(
        landscape.lattice_to_pgm(lat))
print(f"\nlattices -> {out.name} + face_*_demo.pgm")
