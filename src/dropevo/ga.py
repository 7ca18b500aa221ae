"""Generational genetic algorithm over 4-locus real genomes.

Default parameters: 21 generations, population 25, 15 carry-overs. Breeding
is fixed: per-locus mutation rate MUTATION_RATE = 0.3 with N(0, MUTATION_SD^2
= 0.1^2) additive noise, single-point crossover, fitness-proportional parent
selection and inverse-fitness culling. With these defaults one run evaluates
exactly 25 + 20 * 10 = 225 distinct recipes.

Each generation culls, then breeds (cull 25 -> 15 survivors, then add 10
evaluated children), so a run of more than one generation needs at least two
carry-overs to breed from. ``evolve`` is the one GA loop, a generator that
yields each batch of new individuals to be scored; ``run_lockstep`` advances
several runs together, so that a campaign can score every run's batch of a
round in one map, and ``run_ga`` drives a single run. ``score_batch`` is the
one path from genomes to fitness.

Every recipe is scored from ``REPLICATES`` = 3 replicate experiments and
every genome has ``formulation.GENOME_LENGTH`` = 4 loci; neither is a knob.
``GAConfig`` checks the type and range of every field when it is built. Its
``rng_seed`` is the campaign seed, which the ``evolve`` command takes from
``--seed`` alone, not from a config file.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import formats
from .formulation import GENOME_LENGTH, check_number, normalize

# Replicate experiments per recipe: the history format has three columns.
REPLICATES = 3

# Added to fitness before weighting so zero-fitness individuals keep finite
# selection and death weights.
FITNESS_EPS = 1e-9

MUTATION_RATE = 0.3
MUTATION_SD = 0.1


class EvaluationError(RuntimeError):
    """Wraps an evaluator failure with the offending recipe attached."""

    def __init__(self, recipe, cause):
        super().__init__(f"evaluator failed for recipe {list(recipe)}: {cause}")
        self.recipe = tuple(recipe)
        self.__cause__ = cause


@dataclass(frozen=True)
class GAConfig:
    rng_seed: int
    generations: int = 21
    population_size: int = 25
    carry_overs: int = 15
    runs: int = 3

    def __post_init__(self):
        for name in ("generations", "population_size", "carry_overs", "runs"):
            check_number(name, getattr(self, name), 1, integer=True)
        check_number("rng_seed", self.rng_seed, 0, integer=True)
        if not self.carry_overs < self.population_size:
            raise ValueError("carry_overs must satisfy 1 <= carry_overs < population_size")
        if self.generations > 1 and self.carry_overs < 2:
            raise ValueError("carry_overs must be >= 2 when generations > 1: "
                             "every child has two distinct parents")

    @property
    def recipes_per_run(self) -> int:
        children = self.population_size - self.carry_overs
        return self.population_size + (self.generations - 1) * children


@dataclass
class Individual:
    genome: np.ndarray
    id: int
    parent_ids: tuple[int, ...] = ()
    fitness: float | None = None
    replicates: tuple[float, ...] = ()


@dataclass
class GAHistory:
    """Per-generation population snapshots for one GA run."""

    run: int
    generations: list[list[Individual]] = field(default_factory=list)

    @property
    def distinct_recipes(self) -> int:
        return len({ind.id for gen in self.generations for ind in gen})


def init_population(cfg: GAConfig, rng: np.random.Generator, id_start: int) -> list[Individual]:
    """Uniform random population on [0, 1]^GENOME_LENGTH, with ids from
    id_start on."""
    return [
        Individual(genome=rng.uniform(0.0, 1.0, GENOME_LENGTH), id=id_start + i)
        for i in range(cfg.population_size)
    ]


def mutate(genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-locus Bernoulli(MUTATION_RATE) selection, additive
    N(0, MUTATION_SD^2) noise, clamped back to [0, 1]."""
    g = np.array(genome, dtype=float, copy=True)
    hit = rng.random(g.shape) < MUTATION_RATE
    g[hit] += rng.normal(0.0, MUTATION_SD, int(hit.sum()))
    return np.clip(g, 0.0, 1.0)


def crossover(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Single-point recombination; the cut is uniform over interior points
    and shared by both parents."""
    n = len(p1)
    cut = int(rng.integers(1, n))
    return np.concatenate([p1[:cut], p2[cut:]])


def _weights(pop, inverse: bool) -> np.ndarray:
    f = np.array([ind.fitness for ind in pop], dtype=float) + FITNESS_EPS
    w = 1.0 / f if inverse else f
    return w / w.sum()


def select_parents(pop: list[Individual], rng: np.random.Generator) -> tuple[Individual, Individual]:
    """Two distinct parents, drawn without replacement with probability
    proportional to fitness + eps, from the >= 2 that GAConfig keeps."""
    first = rng.choice(len(pop), p=_weights(pop, inverse=False))
    rest = [ind for i, ind in enumerate(pop) if i != first]
    second = rng.choice(len(rest), p=_weights(rest, inverse=False))
    return pop[int(first)], rest[int(second)]


def cull(pop: list[Individual], survivors: int, rng: np.random.Generator) -> list[Individual]:
    """Remove individuals one at a time with probability proportional to
    1 / (fitness + eps) until `survivors` remain."""
    alive = list(pop)
    while len(alive) > survivors:
        victim = int(rng.choice(len(alive), p=_weights(alive, inverse=True)))
        del alive[victim]
    return alive


def aggregate_fitness(replicates) -> float:
    """Per-recipe score: min(mean, median) of the REPLICATES replicate
    fitnesses."""
    reps = [float(r) for r in replicates]
    if len(reps) != REPLICATES:
        raise ValueError(f"expected {REPLICATES} replicates, got {len(reps)}")
    if any(r < 0 for r in reps):
        raise ValueError("replicate fitnesses must be >= 0")
    return min(statistics.fmean(reps), statistics.median(reps))


def replicate_seed(master_seed: int, run: int, recipe_id: int, replicate: int) -> np.random.SeedSequence:
    """Deterministic per-replicate RNG stream, independent of evaluation order."""
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=(run, recipe_id, replicate))


def score_batch(batch: list[Individual], evaluator, map=map) -> None:
    """Set the fitness of every individual in `batch`.

    evaluator(proportions, individual_id) must return the REPLICATES raw
    fitness values of that recipe; `map` applies it over the batch in order
    (an executor's map scores the recipes concurrently). A failure is
    re-raised as EvaluationError naming the recipe, except MemoryError,
    which passes through.
    """
    recipes = [normalize(ind.genome).proportions for ind in batch]
    results = map(evaluator, recipes, [ind.id for ind in batch])
    for ind, recipe in zip(batch, recipes):
        try:
            reps = next(results)
        except MemoryError:
            raise
        except Exception as exc:  # noqa: BLE001 - context is attached and re-raised
            raise EvaluationError(recipe, exc) from exc
        ind.replicates = tuple(float(r) for r in reps)
        ind.fitness = aggregate_fitness(reps)


def evolve(cfg: GAConfig, run: int):
    """One GA run as a generator. It yields each batch of new individuals,
    which the caller scores in place before asking for the next, and returns
    the GAHistory. The draws depend only on `cfg` and `run`, never on how or
    when the batches are scored."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=(run,)))
    history = GAHistory(run=run)
    next_id = run * 10_000_000
    pop = init_population(cfg, rng, next_id)
    next_id += len(pop)
    yield pop
    history.generations.append(list(pop))

    n_children = cfg.population_size - cfg.carry_overs
    for _ in range(cfg.generations - 1):
        pop = cull(pop, cfg.carry_overs, rng)
        children = []
        for _ in range(n_children):
            p1, p2 = select_parents(pop, rng)
            genome = crossover(p1.genome, p2.genome, rng)
            genome = mutate(genome, rng)
            children.append(Individual(genome=genome, id=next_id, parent_ids=(p1.id, p2.id)))
            next_id += 1
        yield children
        pop = pop + children
        history.generations.append(list(pop))
    return history


def run_lockstep(cfg: GAConfig, runs, score_round) -> list[GAHistory]:
    """Advance one GA run per index in `runs` together, a round at a time.

    Each round, score_round(batches) must score in place the new individuals
    of every unfinished run; `batches` maps run -> batch, in the order of
    `runs`. Returns the histories in that order.
    """
    steps = {run: evolve(cfg, run) for run in runs}
    batches = {run: next(step) for run, step in steps.items()}
    histories = {}
    while batches:
        score_round(batches)
        for run in list(batches):
            try:
                batches[run] = next(steps[run])
            except StopIteration as done:
                histories[run] = done.value
                del batches[run]
    return [histories[run] for run in runs]


def run_ga(cfg: GAConfig, evaluator, run: int = 0) -> GAHistory:
    """Run one GA optimization, scoring each batch with
    score_batch(batch, evaluator)."""
    (history,) = run_lockstep(cfg, [run], lambda batches: score_batch(batches[run], evaluator))
    return history


# ---------------------------------------------------------------------------
# Serialization

def history_to_csv(history: GAHistory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(c.name for c in formats.CSV_FORMATS["history"].columns)
    for gen_index, gen in enumerate(history.generations, start=1):
        for ind in gen:
            writer.writerow([history.run, gen_index, ind.id,
                             ";".join(str(p) for p in ind.parent_ids),
                             *(repr(float(x)) for x in ind.genome),
                             *map(repr, ind.replicates), repr(ind.fitness)])
    return buf.getvalue()
