"""Acceptance gate: ten end-to-end criteria with stated tolerances.

Each test prints exactly one ACCEPTANCE PASS/FAIL line naming its criterion.
Oracles in this file are coded independently of the library internals.
"""

import csv
import io
import itertools
import json
import math
import time
from functools import partial

import numpy as np
import pytest

from dropevo import arena, evaluators, ga, landscape, stats, tracking
from dropevo.cli import main as cli_main
from dropevo.formulation import Formulation
from dropevo.gcode import (
    GcodeError,
    PumpInstruction,
    PumpRangeError,
    VirtualRobot,
    compile_cleaning_cycle,
    compile_experiment,
    default_layout,
    parse_line,
    parse_program,
)
from dropevo.tracking import TrajectorySet


def _report(name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {verdict}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Shared full default evolve run (criteria 1, 2 and part of 10 reuse it).

@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("full") / "out"
    t0 = time.monotonic()
    rc = cli_main(["evolve", "--seed", "0", "--objective", "movement",
                   "--out-dir", str(out_dir)])
    elapsed = time.monotonic() - t0
    assert rc == 0
    return out_dir, elapsed


def _history_ids(path):
    """{generation: [individual_id, ...]} of a history CSV, in file order."""
    generations = {}
    for row in csv.DictReader(io.StringIO(path.read_text())):
        generations.setdefault(int(row["generation"]), []).append(int(row["individual_id"]))
    return generations


def test_bookkeeping_exactness(full_run):
    out_dir, elapsed = full_run
    manifest = json.loads((out_dir / "manifest.json").read_text())
    bk = manifest["bookkeeping"]
    counts_ok = (bk["recipes_per_run"] == 225 and bk["total_recipes"] == 675
                 and bk["experiments"] == 2025 and bk["droplets"] == 8100)
    distinct = set()
    for run in range(3):
        generations = _history_ids(out_dir / f"history_run{run}.csv")
        for gen in generations.values():
            distinct.update((run, ind_id) for ind_id in gen)
    _report("bookkeeping exactness + runtime",
            counts_ok and len(distinct) == 675 and elapsed < 300.0,
            f"225/675/2025/8100, {len(distinct)} distinct recipes, {elapsed:.1f}s")


def test_carry_over_identity(full_run):
    out_dir, _ = full_run
    ok = True
    for run in range(3):
        generations = _history_ids(out_dir / f"history_run{run}.csv")
        gens = sorted(generations)
        for prev, cur in zip(gens, gens[1:]):
            prev_ids = set(generations[prev])
            cur_ids = set(generations[cur])
            if len(prev_ids & cur_ids) != 15:
                ok = False
    _report("carry-over identity (15 ids persist per generation)", ok)


# ---------------------------------------------------------------------------
# Fitness-oracle equivalence on randomized small trajectory sets.

def _oracle_scores(trajectories, total_frames):
    last = total_frames - 1
    division = float(sum(1 for s in trajectories
                         if s[-1][0] == last and s[-1][3] > 15.0))
    pair_disp, triple_ang = {}, {}
    for s in trajectories:
        for a, b in zip(s, s[1:]):
            pair_disp.setdefault(b[0], []).append(
                math.hypot(b[1] - a[1], b[2] - a[2]))
        for a, b, c in zip(s, s[1:], s[2:]):
            v = (b[1] - a[1], b[2] - a[2])
            w = (c[1] - b[1], c[2] - b[2])
            nv, nw = math.hypot(*v), math.hypot(*w)
            if nv == 0 or nw == 0:
                continue
            cosang = max(-1.0, min(1.0, (v[0] * w[0] + v[1] * w[1]) / (nv * nw)))
            triple_ang.setdefault(b[0], []).append(math.acos(cosang))
    movement = (sum(sum(v) / len(v) for v in pair_disp.values()) / len(pair_disp)
                if pair_disp else 0.0)
    directionality = (sum(sum(v) / len(v) for v in triple_ang.values())
                      / len(triple_ang) if triple_ang else 0.0)
    return division, movement, directionality


def _random_trajectories(rng) -> tuple:
    """(trajectories, total_frames): droplet i's samples (frame, x, y, area)
    in consecutive frames."""
    total_frames = int(rng.integers(3, 11))
    trajectories = []
    for _ in range(int(rng.integers(1, 5))):
        start = int(rng.integers(0, total_frames - 1))
        length = int(rng.integers(2, total_frames - start + 1))
        samples = []
        x, y = rng.uniform(-50, 50, size=2)
        for k in range(length):
            if rng.random() < 0.2:
                pass  # repeat position: exercises zero-displacement triples
            else:
                x, y = x + rng.uniform(-5, 5), y + rng.uniform(-5, 5)
            area = float(rng.uniform(5.0, 25.0))
            samples.append((start + k, float(x), float(y), area))
        trajectories.append(samples)
    return trajectories, total_frames


def _trajectory_set(trajectories, total_frames) -> TrajectorySet:
    """The TrajectorySet whose droplet i has the samples trajectories[i]."""
    samples = np.array([s for tr in trajectories for s in tr], dtype=float).reshape(-1, 4)
    droplet = np.repeat(np.arange(len(trajectories)), [len(tr) for tr in trajectories])
    parent = np.where(np.r_[False, droplet[1:] == droplet[:-1]],
                      np.arange(len(droplet)) - 1, -1)
    return TrajectorySet(total_frames, samples[:, 0].astype(np.int64), *samples[:, 1:].T,
                         parent, droplet)


def _detection_record(trajectories, total_frames) -> arena.DetectionRecord:
    """The DetectionRecord holding the trajectories' samples, frame by frame."""
    frames = [[] for _ in range(total_frames)]
    for samples in trajectories:
        for t, x, y, area in samples:
            frames[t].append((x, y, area))
    rows = np.array([d for fr in frames for d in fr], dtype=float).reshape(-1, 3)
    return arena.DetectionRecord(np.cumsum([0, *map(len, frames)]), *rows.T)


def test_fitness_oracle_equivalence():
    # Every score on every set, directionality included: the oracle gives
    # 0.0 where no triple has an angle, as the scores do. Division takes the
    # set's detections as a DetectionRecord, the others the TrajectorySet.
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for _ in range(200):
        trajectories, total_frames = _random_trajectories(rng)
        ts = _trajectory_set(trajectories, total_frames)
        scores = [tracking.fitness_division(_detection_record(trajectories, total_frames)),
                  tracking.fitness_movement(ts), tracking.fitness_directionality(ts)]
        for got, want in zip(scores, _oracle_scores(trajectories, total_frames)):
            if len(got) != 1 or not abs(got[0] - want) <= 1e-9:
                ok = False
            worst = max(worst, abs(got[0] - want))
    _report("fitness-oracle equivalence (200 random trajectory sets)",
            ok, f"max deviation {worst:.2e}")


def test_tracker_boundary():
    def count(dx):
        record = arena.DetectionRecord(np.array([0, 1, 2]), np.array([0.0, dx]),
                                       np.zeros(2), np.full(2, 9.0))
        return tracking.track(record).droplet_count

    ok = count(29.9) == 1 and count(30.1) == 2
    _report("tracker gate boundary (29.9 px keeps id, 30.1 px new id)", ok)


# ---------------------------------------------------------------------------
# Kernel ridge regression.

def test_krr_correctness():
    ok = True
    # Single-point closed form.
    model = landscape.fit([[0.25, 0.25, 0.25, 0.25]], [3.0], lam=1e-3)
    closed = abs(landscape.predict_many(model, [[0.25, 0.25, 0.25, 0.25]])[0] - 3.0 / 1.001)
    ok &= closed < 1e-12

    rng = np.random.default_rng(7)
    worst_interp = 0.0
    worst_resid = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        X = rng.dirichlet(np.ones(4), size=n)
        y = rng.normal(size=n)
        sigma = float(rng.uniform(0.1, 0.5))
        # Linear-system residual at the default ridge.
        m1 = landscape.fit(X, y, lam=1e-3, sigma=sigma)
        A = m1.K + m1.lam * np.eye(n)
        resid = np.linalg.norm(A @ m1.theta - y) / max(np.linalg.norm(y), 1e-30)
        worst_resid = max(worst_resid, float(resid))

        # Interpolation limit at vanishing ridge. Training points closer than
        # a few bandwidths make K numerically singular in double precision
        # (no solver can then interpolate), so these datasets enforce a 4
        # sigma minimum separation; K stays diagonally dominant and the
        # vanishing-ridge solution must hit every target.
        sigma_i = float(rng.uniform(0.05, 0.15))
        kept = []
        for x in rng.dirichlet(np.ones(4), size=400):
            if all(np.linalg.norm(x - k) >= 4 * sigma_i for k in kept):
                kept.append(x)
            if len(kept) == 200:
                break
        Xi = np.array(kept)
        yi = rng.normal(size=len(kept))
        m0 = landscape.fit(Xi, yi, lam=1e-10, sigma=sigma_i)
        worst_interp = max(worst_interp,
                           float(np.max(np.abs(landscape.predict_many(m0, Xi) - yi))))
    ok &= worst_interp < 1e-5 and worst_resid < 1e-8
    _report("kernel ridge regression correctness (closed form, interpolation, residual)",
            ok, f"closed {closed:.1e}, interp {worst_interp:.1e}, resid {worst_resid:.1e}")


# ---------------------------------------------------------------------------
# Catchment oracle.

def _oracle_islands(lattices):
    """Per-cell iterated steepest ascent over composition-identified cells."""
    res = lattices[0].resolution
    value, reps = {}, {}
    for lat in lattices:
        ax, ay, az = landscape.face_axes(lat.face)
        for i in range(res):
            for j in range(res - i):
                counts = [0] * 4
                counts[ax], counts[ay] = i, j
                counts[az] = res - 1 - i - j
                key = tuple(counts)
                value[key] = float(lat.values[i, j])
                reps.setdefault(key, []).append((lat.face, i, j))
    for v in reps.values():
        v.sort()

    def step(key):
        cands = {key}
        for face, i, j in reps[key]:
            ax, ay, az = landscape.face_axes(face)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ni, nj = i + di, j + dj
                    if (di or dj) and ni >= 0 and nj >= 0 and ni + nj <= res - 1:
                        counts = [0] * 4
                        counts[ax], counts[ay] = ni, nj
                        counts[az] = res - 1 - ni - nj
                        if tuple(counts) in value:
                            cands.add(tuple(counts))
        return max(cands, key=lambda k: (value[k], [-c for c in reps[k][0]]))

    labels = {}
    for key in value:
        cur = key
        while True:
            nxt = step(cur)
            if nxt == cur:
                break
            cur = nxt
        for cell in reps[key]:
            labels[cell] = reps[cur][0]
    return labels


def _map_to_roots(lattices, imap):
    roots = {isl.rank: isl.max_cell for isl in imap.islands}
    out = {}
    for lat in lattices:
        grid = imap.labels[lat.face]
        for i in range(imap.resolution):
            for j in range(imap.resolution - i):
                out[(lat.face, i, j)] = roots[grid[i, j]]
    return out


def _smooth_lattice(face, res, rng):
    values = np.full((res, res), np.nan)
    k = int(rng.integers(2, 6))
    centers = rng.uniform(0, 1, size=(k, 2))
    heights = rng.uniform(0.5, 2.0, size=k)
    widths = rng.uniform(0.05, 0.3, size=k)
    ii, jj = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
    valid = ii + jj <= res - 1
    x, y = ii / (res - 1), jj / (res - 1)
    field = np.zeros((res, res))
    for (cx, cy), h, w in zip(centers, heights, widths):
        field += h * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * w ** 2))
    values[valid] = field[valid]
    return landscape.FaceLattice(face=face, resolution=res, values=values)


def test_catchment_oracle_equivalence():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(20):
        lat = _smooth_lattice(0, 51, rng)
        imap = landscape.catchment_map([lat])
        if _map_to_roots([lat], imap) != _oracle_islands([lat]):
            ok = False

    # Cross-face bump: maximum on the edge shared by faces 0 and 1 must give
    # one island, not one per face.
    def bump(face, res=51):
        values = np.full((res, res), np.nan)
        for i in range(res):
            for j in range(res - i):
                c = landscape.cell_composition(face, i, j, res)
                d2 = (c[2] - 0.5) ** 2 + (c[3] - 0.5) ** 2 + c[0] ** 2 + c[1] ** 2
                values[i, j] = math.exp(-d2 / 0.1)
        return landscape.FaceLattice(face=face, resolution=res, values=values)

    lats = [bump(0), bump(1)]
    imap = landscape.catchment_map(lats)
    cross_ok = (len(imap.islands) == 1
                and _map_to_roots(lats, imap) == _oracle_islands(lats))
    _report("catchment-oracle equivalence (20 random 51x51 lattices + cross-face bump)",
            ok and cross_ok, f"cross-face islands = {len(imap.islands)}")


# ---------------------------------------------------------------------------
# GA efficacy on the seeded unimodal behaviour map.

def test_ga_efficacy():
    t0 = time.monotonic()
    successes = 0
    details = []
    for seed in range(5):
        cfg = ga.GAConfig(rng_seed=seed, runs=1)
        setup = evaluators.ExperimentSetup(
            objective="movement",
            arena_config=arena.ArenaConfig(duration=6.0),
            master_seed=seed,
            behavior_map="unimodal",
        )
        history = ga.run_ga(cfg, partial(evaluators.evaluate_recipe, setup))
        report = stats.trajectory_report([history])
        entry = report["first_vs_last_tophalf"]
        kend = report["fitness_vs_generation"]
        anova_ok = not entry["degenerate"] and entry["p"] < 0.01
        kendall_ok = (not kend["degenerate"] and kend["tau"] > 0
                      and kend["p"] < 0.001)
        if anova_ok and kendall_ok:
            successes += 1
        details.append(f"seed {seed}: p={entry['p']:.2e} tau={kend['tau']:.3f}")
    elapsed = time.monotonic() - t0
    _report("GA efficacy (top-half ANOVA p<0.01 and Kendall tau>0 p<0.001, >=4/5 seeds)",
            successes >= 4 and elapsed < 300.0,
            f"{successes}/5 seeds, {elapsed:.1f}s; " + "; ".join(details))


# ---------------------------------------------------------------------------
# Statistics oracles.

def _holm_oracle(p, alpha=0.05):
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    reject = [False] * m
    for k, idx in enumerate(order):
        if p[idx] < alpha / (m - k):
            reject[idx] = True
        else:
            break
    return reject


def test_statistics_oracles():
    tau, _, _ = stats.kendall_tau([1, 2, 3, 4], [1, 2, 4, 3])
    F, _ = stats.anova_oneway([stats.GenerationSample(1, [1, 2, 3]),
                               stats.GenerationSample(2, [4, 5, 6])])
    worked_ok = abs(tau - 2 / 3) < 1e-9 and abs(F - 13.5) < 1e-9

    # Holm at alpha=0.05 compares sorted p-values against alpha/(m-k) with
    # thresholds in [0.0125, 0.05] for m <= 4. Any grid value above 0.05 can
    # never be rejected and never changes another index's decision (the
    # step-down scan stops at or before it), so the 101-point 0.01 grid is
    # behaviourally equivalent to the reduced grid {0..0.06 step 0.01} plus
    # arbitrary above-threshold values. The reduced grid is enumerated
    # exhaustively for every length <= 4; a large random sample of the full
    # 0.01 grid backs the reduction.
    grid = [round(0.01 * k, 2) for k in range(7)] + [0.07, 0.5, 1.0]
    holm_ok = True
    checked = 0
    for m in range(1, 5):
        for combo in itertools.product(grid, repeat=m):
            if stats.holm_bonferroni(list(combo)) != _holm_oracle(list(combo)):
                holm_ok = False
            checked += 1
    rng = np.random.default_rng(13)
    full_grid = [round(0.01 * k, 2) for k in range(101)]
    for _ in range(50000):
        combo = [full_grid[i] for i in rng.integers(0, 101, size=rng.integers(1, 5))]
        if stats.holm_bonferroni(combo) != _holm_oracle(combo):
            holm_ok = False
        checked += 1
    _report("statistics oracles (tau=2/3, F=13.5, Holm enumeration)",
            worked_ok and holm_ok, f"{checked} Holm vectors checked")


# ---------------------------------------------------------------------------
# G-code round trip + fuzz.

def _random_gcode_lines(rng, n):
    """A mix of valid, mutated and garbage instruction lines."""
    alphabet = np.array(list("PGMDSEXYV0123456789 .-#\nqz"))
    lines = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.35:  # structurally valid pump line, fields often in range
            lines.append("P%d M%d D%d S%d E%d" % (
                rng.integers(-2, 9), rng.integers(-1, 3), rng.integers(-1, 3),
                rng.integers(-5, 100), rng.integers(-10, 70000)))
        elif roll < 0.55:
            lines.append("G1 X%.1f Y%.1f" % (rng.uniform(-600, 600),
                                             rng.uniform(-600, 600)))
        elif roll < 0.7:
            lines.append("M1%d S%d%s" % (rng.integers(0, 7), rng.integers(0, 3),
                                         " V%.1f" % rng.uniform(0, 99)
                                         if rng.random() < 0.5 else ""))
        else:
            k = int(rng.integers(0, 30))
            lines.append("".join(rng.choice(alphabet, size=k)))
    return lines


def test_gcode_round_trip_and_fuzz():
    layout = default_layout()
    robot = VirtualRobot(layout)
    before = robot.state.total_liquid_ul()
    program = (compile_experiment(Formulation((0.4, 0.3, 0.2, 0.1)), layout)
               + compile_cleaning_cycle(layout))
    # compile -> parse -> execute.
    reserialized = "\n".join(p.args[0].serialize()
                             for p in parse_program(program) if p.kind == "pump")
    assert reserialized == "\n".join(line for line in program.splitlines()
                                     if line.startswith("P"))
    robot.execute(program)
    # One-step calibration bound: coarsest pump moves 0.1 uL per step.
    conserve = abs(robot.state.total_liquid_ul() - before)
    dish = robot.state.vessels["dish"]
    round_trip_ok = (conserve <= 0.1 and set(dish) == {"aqueous"}
                     and abs(dish["aqueous"] - 100.0) <= 0.1)

    rng = np.random.default_rng(17)
    fuzz_ok = True
    positioned = 0
    for chunk in range(10):
        for line_no, line in enumerate(_random_gcode_lines(rng, 100_000), start=1):
            try:
                parse_line(line, line_no)
            except GcodeError as exc:
                if getattr(exc, "line_no", line_no) != line_no:
                    fuzz_ok = False
                positioned += 1
            except Exception:
                fuzz_ok = False

    over_limit_ok = True
    for steps in [50001, 50002, 60000, 99999, 10 ** 6]:
        try:
            parse_line(f"P0 M0 D0 S1 E{steps}")
            over_limit_ok = False
        except PumpRangeError:
            pass
        try:
            PumpInstruction(0, 0, 0, 1, steps)
            over_limit_ok = False
        except PumpRangeError:
            pass

    _report("G-code round trip, 1e6-line parser fuzz, step bound",
            round_trip_ok and fuzz_ok and over_limit_ok,
            f"conservation {conserve:.2e} uL, {positioned} positioned errors")


# ---------------------------------------------------------------------------
# Determinism.

def test_determinism(tmp_path):
    cfg = {"ga": {"generations": 4, "population_size": 10, "carry_overs": 6,
                  "runs": 2, "rng_seed": 21},
           "arena": {"duration": 2.0}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_all(tag):
        root = tmp_path / tag
        assert cli_main(["evolve", "--config", str(cfg_path),
                         "--out-dir", str(root / "evolve")]) == 0
        hist = str(root / "evolve" / "history_run0.csv")
        assert cli_main(["landscape", hist, "--resolution", "31",
                         "--out-dir", str(root / "land")]) == 0
        assert cli_main(["analyze", hist,
                         "--out-dir", str(root / "an")]) == 0
        assert cli_main(["gcode", "compile", "--formulation", "1,2,3,4",
                         "--cleaning", "--output", str(root / "exp.gcode")]) == 0
        assert cli_main(["gcode", "exec", str(root / "exp.gcode"),
                         "--out-dir", str(root / "exec")]) == 0
        return root

    a, b = run_all("a"), run_all("b")
    checked = []
    identical = True
    for rel in ["evolve/history_run0.csv", "evolve/history_run1.csv",
                "land/landscape.csv", "land/islands.json",
                "land/face_0.pgm", "land/face_1.pgm", "land/face_2.pgm",
                "land/face_3.pgm", "an/report.json", "an/bands.csv",
                "exp.gcode", "exec/events.csv"]:
        fa, fb = (a / rel).read_bytes(), (b / rel).read_bytes()
        checked.append(rel)
        if fa != fb:
            identical = False
    _report("determinism (byte-identical data files across invocations)",
            identical, f"{len(checked)} files compared")
