"""Online Kohonen self-organizing map over 4-component formulation vectors.

Classic training loop: per step, find the best-matching unit (BMU) by
Euclidean distance and pull every node toward the sample with a Gaussian
neighbourhood weight; both the learning rate and the neighbourhood radius
decay exponentially over the run. Behaviour labels for the nodes are external
input (they were assigned by hand in the original workflow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SomGrid:
    width: int
    height: int
    weights: np.ndarray  # (height, width, dim)
    initial_learning_rate: float = 0.5
    initial_radius: float | None = None

    def __post_init__(self):
        if self.weights.shape[:2] != (self.height, self.width):
            raise ValueError("weights shape must be (height, width, dim)")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("node weights must be finite")
        if self.initial_radius is None:
            self.initial_radius = max(self.width, self.height) / 2.0


def init_grid(width: int, height: int, data: np.ndarray,
              rng: np.random.Generator) -> SomGrid:
    """Nodes initialized uniformly inside the data's bounding box."""
    data = np.asarray(data, dtype=float)
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    weights = rng.uniform(lo, hi, size=(height, width, data.shape[1]))
    return SomGrid(width=width, height=height, weights=weights)


def best_matching_unit(grid: SomGrid, x: np.ndarray) -> tuple[int, int]:
    d2 = ((grid.weights - x) ** 2).sum(axis=2)
    flat = int(np.argmin(d2))
    return flat // grid.width, flat % grid.width


def train_som(data, width: int = 10, height: int = 10,
              iterations: int | None = None,
              rng: np.random.Generator | None = None,
              grid: SomGrid | None = None) -> SomGrid:
    """Train a SOM on 4-vectors; deterministic given the rng seed."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) == 0:
        raise ValueError("data must be a nonempty (n, dim) array")
    if rng is None:
        rng = np.random.default_rng(0)
    if grid is None:
        grid = init_grid(width, height, data, rng)
    if iterations is None:
        iterations = 10 * len(data)
    if iterations == 0:
        return grid

    rows, cols = np.indices((grid.height, grid.width))
    # Radius decays from initial_radius to ~1 over the run.
    time_const = iterations / max(1.0, np.log(grid.initial_radius))
    for step in range(iterations):
        x = data[int(rng.integers(len(data)))]
        br, bc = best_matching_unit(grid, x)
        radius = grid.initial_radius * np.exp(-step / time_const)
        rate = grid.initial_learning_rate * np.exp(-step / iterations)
        d2 = (rows - br) ** 2 + (cols - bc) ** 2
        influence = rate * np.exp(-d2 / (2.0 * radius ** 2))
        grid.weights += influence[:, :, None] * (x - grid.weights)
    return grid
