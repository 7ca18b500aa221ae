from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from dropevo import arena, evaluators, ga, tracking
from dropevo.arena import ArenaConfig
from dropevo.evaluators import ExperimentSetup, evaluate_recipe, run_replicate

SHORT_ARENA = ArenaConfig(duration=2.0)
# 32 droplets in a row for 600 frames: one replicate per pass.
CROWDED_ARENA = ArenaConfig(arena_radius=1000.0, duration=20.0, injection_count=32,
                            injection_positions=tuple((20.0 * k - 310.0, 0.0)
                                                      for k in range(32)))


def test_run_replicate_deterministic():
    setup = ExperimentSetup(objective="movement", arena_config=SHORT_ARENA,
                            master_seed=5)
    p = (0.25, 0.25, 0.25, 0.25)
    assert run_replicate(setup, p, 7, 0) == run_replicate(setup, p, 7, 0)


def test_run_replicate_streams_independent():
    # Each (run, recipe, replicate) triple gets its own RNG stream.
    seeds = {tuple(ga.replicate_seed(0, run, rid, rep).generate_state(4))
             for run in range(3) for rid in range(5) for rep in range(3)}
    assert len(seeds) == 45
    setup = ExperimentSetup(objective="directionality", arena_config=SHORT_ARENA, master_seed=0)
    p = (0.25, 0.25, 0.25, 0.25)
    values = {run_replicate(setup, p, 7, rep) for rep in range(3)}
    assert len(values) == 3


def test_run_replicate_matches_manual_pipeline():
    setup = ExperimentSetup(objective="directionality", arena_config=SHORT_ARENA,
                            master_seed=11, run=2)
    p = (0.1, 0.2, 0.3, 0.4)
    got = run_replicate(setup, p, 42, 1)

    from dropevo.formulation import Formulation
    f = Formulation(p)
    behavior = arena.behavior_from_formulation(f)
    record = arena.simulate(behavior, SHORT_ARENA, [ga.replicate_seed(11, 2, 42, 1)])
    record = arena.filter_analytic_arena(record, SHORT_ARENA.arena_radius)
    assert [got] == tracking.fitness_directionality(tracking.track(record), 1)


def test_evaluate_recipe_returns_replicates():
    setup = ExperimentSetup(objective="division", arena_config=SHORT_ARENA, master_seed=0)
    reps = evaluate_recipe(setup, (0.25, 0.25, 0.25, 0.25), 0)
    assert len(reps) == 3
    assert all(isinstance(r, float) for r in reps)


# (arena, recipe, recipe id): a default-arena recipe rich in DEP, whose
# droplets split (division scores 1, 5 and 0), and an arena so small that
# droplets leave the analytic arena within a few frames, where replicate 1
# of recipe 1 has no frame triple.
PASS_CASES = [(ArenaConfig(), (0.4, 0.0, 0.5, 0.1), 5),
              (ArenaConfig(duration=2.0, arena_radius=86.0), (0.25, 0.25, 0.25, 0.25), 1)]


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("behavior_map", ["oils", "unimodal"])
@pytest.mark.parametrize("objective", sorted(tracking.FITNESS_FUNCTIONS))
def test_evaluate_recipe_equals_its_replicates_scored_alone(monkeypatch, objective,
                                                            behavior_map, size):
    monkeypatch.setattr(evaluators, "_pass_size", lambda cfg: size)
    for cfg, p, recipe_id in PASS_CASES:
        setup = ExperimentSetup(objective=objective, arena_config=cfg, master_seed=0,
                                behavior_map=behavior_map)
        want = [run_replicate(setup, p, recipe_id, rep) for rep in range(3)]
        assert evaluate_recipe(setup, p, recipe_id) == want
        assert all(isinstance(v, float) for v in want)
        if objective == "directionality" and behavior_map == "oils" and cfg.duration == 2.0:
            assert want[1] == 0.0 < min(want[0], want[2])


def test_pass_size_keeps_a_crowded_arena_to_one_replicate(monkeypatch):
    # The default arena's replicates go in one pass; a 32-droplet, 600-frame
    # arena's one at a time.
    assert evaluators._pass_size(ArenaConfig()) == 3
    assert evaluators._pass_size(CROWDED_ARENA) == 1
    passes = []
    simulate = arena.simulate

    def counting_simulate(behavior, cfg, seeds):
        passes.append(len(seeds))
        return simulate(behavior, cfg, seeds)

    monkeypatch.setattr(arena, "simulate", counting_simulate)
    setup = ExperimentSetup(objective="division", arena_config=CROWDED_ARENA, master_seed=0)
    evaluate_recipe(setup, (0.25, 0.25, 0.25, 0.25), 0)
    assert passes == [1, 1, 1]


# The scores were taken when every division pass was tracked.
@pytest.mark.parametrize("cfg, size, p, recipe_id, want", [
    (ArenaConfig(), 3, (0.4, 0.0, 0.5, 0.1), 5, [1.0, 5.0, 0.0]),
    (CROWDED_ARENA, 1, (0.25, 0.25, 0.25, 0.25), 0, [44.0, 52.0, 43.0]),
    (CROWDED_ARENA, 1, (0.4, 0.0, 0.5, 0.1), 3, [60.0, 53.0, 48.0]),
])
def test_division_never_tracks(monkeypatch, cfg, size, p, recipe_id, want):
    # Division counts the filtered record's final-frame detections, so its
    # passes, of three replicates or of one, must not call the tracker.
    def no_tracking(*args, **kwargs):
        raise AssertionError("a division pass called tracking.track")

    monkeypatch.setattr(tracking, "track", no_tracking)
    assert evaluators._pass_size(cfg) == size
    setup = ExperimentSetup(objective="division", arena_config=cfg, master_seed=0)
    assert evaluate_recipe(setup, p, recipe_id) == want


def test_unimodal_map_rewards_optimum():
    setup = ExperimentSetup(objective="movement", arena_config=SHORT_ARENA, master_seed=0,
                            behavior_map="unimodal")
    at_opt = run_replicate(setup, arena.UNIMODAL_OPTIMUM, 0, 0)
    far = run_replicate(setup, (0.7, 0.1, 0.1, 0.1), 1, 0)
    assert at_opt > far


def test_batch_evaluator_matches_serial():
    setup = ExperimentSetup(objective="movement", arena_config=SHORT_ARENA, master_seed=0)
    cfg = ga.GAConfig(generations=1, rng_seed=3)
    pop_a = ga.init_population(cfg, np.random.default_rng(0), 0)
    pop_b = [type(ind)(genome=ind.genome.copy(), id=ind.id) for ind in pop_a]
    evaluators.make_batch_evaluator(setup, map)({0: pop_a[:6]})
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork")) as pool:
        evaluators.make_batch_evaluator(setup, pool.map)({0: pop_b[:6]})
    assert [i.fitness for i in pop_a[:6]] == [i.fitness for i in pop_b[:6]]
    assert [i.replicates for i in pop_a[:6]] == [i.replicates for i in pop_b[:6]]


def test_wall_dead_droplets_score_zero_movement():
    # An arena so small that every droplet starts outside the analytic arena
    # and dies at the wall within 2 s: the score is still a number >= 0. At
    # the unimodal optimum droplets walk at the peak speed, 5.2 px/frame.
    tiny = ArenaConfig(duration=2.0, arena_radius=86.0)
    setup = ExperimentSetup(objective="movement", arena_config=tiny, master_seed=0,
                            behavior_map="unimodal")
    got = run_replicate(setup, arena.UNIMODAL_OPTIMUM, 0, 0)
    assert got >= 0.0
