from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dropevo import formats, ga
from dropevo.formulation import normalize
from dropevo.ga import (
    GAConfig,
    Individual,
    aggregate_fitness,
    crossover,
    cull,
    init_population,
    mutate,
    run_ga,
    select_parents,
)


def _pop(fitnesses):
    return [Individual(genome=np.zeros(4), id=k, fitness=float(f), replicates=(float(f),) * 3)
            for k, f in enumerate(fitnesses)]


def flat_evaluator(proportions, recipe_id):
    return (1.0, 1.0, 1.0)


def test_init_population_size_and_range():
    cfg = GAConfig(rng_seed=0)
    pop = init_population(cfg, np.random.default_rng(1), 0)
    assert len(pop) == 25
    loci = np.array([ind.genome for ind in pop])
    assert loci.min() >= 0.0 and loci.max() <= 1.0


def test_init_population_deterministic():
    cfg = GAConfig(rng_seed=0)
    a = init_population(cfg, np.random.default_rng(3), 0)
    b = init_population(cfg, np.random.default_rng(3), 0)
    assert all((x.genome == y.genome).all() for x, y in zip(a, b))


def test_mutate_expected_locus_count():
    # Binomial(4, 0.3): mean mutated loci per genome = 1.2.
    rng = np.random.default_rng(7)
    n = 100_000
    hits = 0
    for _ in range(n):
        g = np.full(4, 0.5)
        out = mutate(g, rng)
        hits += int((out != g).sum())
    assert abs(hits / n - 1.2) < 0.02


def test_mutate_clamps():
    rng = np.random.default_rng(0)
    for _ in range(200):
        out = mutate(np.array([0.0, 1.0, 0.01, 0.99]), rng)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_crossover_identical_values():
    g = np.array([0.2, 0.4, 0.6, 0.8])
    assert (crossover(g, g.copy(), np.random.default_rng(0)) == g).all()


def test_crossover_forced_cut():
    p1 = np.ones(4)
    p2 = np.zeros(4)
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(100):
        child = crossover(p1, p2, rng)
        ones = int(child.sum())
        assert child[:ones].all() and not child[ones:].any()
        seen.add(ones)
    assert seen == {1, 2, 3}


def test_crossover_cut_uniform():
    p1 = np.ones(4)
    p2 = np.zeros(4)
    rng = np.random.default_rng(11)
    counts = np.zeros(4)
    n = 30_000
    for _ in range(n):
        counts[int(crossover(p1, p2, rng).sum())] += 1
    for c in (1, 2, 3):
        assert abs(counts[c] / n - 1 / 3) < 0.01


def test_select_parents_degenerate_weights():
    pop = _pop([1.0] + [0.0] * 9)
    rng = np.random.default_rng(0)
    wins = sum(select_parents(pop, rng)[0].id == 0 for _ in range(500))
    assert wins >= 495  # eps weight leaves ~1e-8 probability elsewhere


def test_select_parents_distinct():
    pop = _pop([1.0, 2.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = select_parents(pop, rng)
        assert a.id != b.id


def test_select_parents_uniform_when_equal():
    pop = _pop([3.0] * 5)
    rng = np.random.default_rng(5)
    n = 100_000
    counts = np.zeros(5)
    for _ in range(n):
        counts[select_parents(pop, rng)[0].id] += 1
    expected = n / 5
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 18.47  # chi2(4) at p=0.001


def test_cull_degenerate_weights():
    pop = _pop([0.0, 10.0, 10.0, 10.0])
    rng = np.random.default_rng(0)
    removed_zero = sum(
        all(ind.id != 0 for ind in cull(pop, 3, rng)) for _ in range(300))
    assert removed_zero >= 297


def test_cull_identity_when_no_deaths():
    pop = _pop([1.0, 2.0, 3.0])
    assert cull(pop, 3, np.random.default_rng(0)) == pop


def test_cull_uniform_when_equal():
    pop = _pop([2.0] * 5)
    rng = np.random.default_rng(13)
    n = 100_000
    survived = np.zeros(5)
    for _ in range(n):
        for ind in cull(pop, 4, rng):
            survived[ind.id] += 1
    assert np.all(np.abs(survived / n - 0.8) < 0.01)


def test_aggregate_fitness():
    assert aggregate_fitness((2, 2, 2)) == 2
    assert aggregate_fitness((1, 2, 3)) == 2
    assert aggregate_fitness((0, 0, 9)) == 0  # mean 3, median 0
    with pytest.raises(ValueError, match=r"^expected 3 replicates, got 2$"):
        aggregate_fitness((1, 2))


def test_run_ga_recipe_count_default():
    cfg = GAConfig(rng_seed=2)
    hist = run_ga(cfg, flat_evaluator)
    assert cfg.recipes_per_run == 225
    assert hist.distinct_recipes == 225


def test_run_ga_experiment_bookkeeping():
    cfg = GAConfig(rng_seed=0)
    total_recipes = cfg.recipes_per_run * cfg.runs
    assert total_recipes == 675
    assert total_recipes * ga.REPLICATES == 2025
    assert total_recipes * ga.REPLICATES * 4 == 8100


def test_run_ga_single_generation():
    cfg = GAConfig(generations=1, rng_seed=0)
    hist = run_ga(cfg, flat_evaluator)
    assert hist.distinct_recipes == 25
    assert len(hist.generations) == 1


def test_run_ga_carry_over_identity():
    cfg = GAConfig(rng_seed=4)
    hist = run_ga(cfg, flat_evaluator)
    for prev, cur in zip(hist.generations, hist.generations[1:]):
        carried = {i.id for i in prev} & {i.id for i in cur}
        assert len(carried) == 15


def test_run_ga_deterministic():
    cfg = GAConfig(generations=4, rng_seed=99)

    def noisy(proportions, recipe_id):
        rng = np.random.default_rng(ga.replicate_seed(99, 0, recipe_id, 0))
        base = sum(proportions)
        return tuple(base + rng.random() for _ in range(3))

    a = ga.history_to_csv(run_ga(cfg, noisy))
    b = ga.history_to_csv(run_ga(cfg, noisy))
    assert a == b


def test_run_ga_loci_stay_clamped():
    cfg = GAConfig(generations=6, rng_seed=1)
    hist = run_ga(cfg, flat_evaluator)
    for gen in hist.generations:
        for ind in gen:
            assert ind.genome.min() >= 0.0 and ind.genome.max() <= 1.0


def test_run_ga_wraps_evaluator_errors():
    def bad(proportions, recipe_id):
        raise RuntimeError("boom")

    with pytest.raises(ga.EvaluationError) as err:
        run_ga(GAConfig(rng_seed=0, generations=1), bad)
    assert len(err.value.recipe) == 4


def test_history_csv_round_trip():
    cfg = GAConfig(generations=3, rng_seed=8)
    hist = run_ga(cfg, flat_evaluator)
    text = ga.history_to_csv(hist)
    violations = []
    rows = list(formats.CSV_FORMATS["history"].rows(text, violations))
    assert violations == []
    assert sorted({row[1] for row in rows}) == [1, 2, 3]
    ids = {row[2] for row in rows}
    assert len(ids) == hist.distinct_recipes


def test_single_carry_over_needs_a_single_generation():
    # Every child has two distinct parents, so a second generation cannot
    # be bred from one survivor; a one-generation run never breeds.
    with pytest.raises(ValueError, match="carry_overs"):
        GAConfig(rng_seed=0, generations=2, population_size=3, carry_overs=1)
    hist = run_ga(GAConfig(rng_seed=0, generations=1, carry_overs=1), flat_evaluator)
    assert hist.distinct_recipes == 25


def test_score_batch_over_an_executor_map():
    def evaluator(proportions, recipe_id):
        if recipe_id == 2:
            raise RuntimeError("boom")
        if recipe_id == 3:
            raise MemoryError("no room")
        return (1.0, 2.0, 3.0)

    pop = init_population(GAConfig(rng_seed=0), np.random.default_rng(0), 0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        ga.score_batch(pop[:2], evaluator, map=pool.map)
        with pytest.raises(ga.EvaluationError) as err:
            ga.score_batch(pop[2:3], evaluator, map=pool.map)
        with pytest.raises(MemoryError, match="no room"):
            ga.score_batch(pop[3:4], evaluator, map=pool.map)
    assert [ind.fitness for ind in pop[:2]] == [2.0, 2.0]
    assert err.value.recipe == normalize(pop[2].genome).proportions
    assert isinstance(err.value.__cause__, RuntimeError)
    assert pop[2].fitness is None and pop[3].fitness is None
