"""Tracking and fitness tests, including independent brute-force oracles.

The oracles below re-derive the tracker assignment and all three fitness
scores from first principles using only dict/list arithmetic, deliberately
sharing no code with dropevo.tracking. The reference scores are the scalar
per-trajectory implementations that the array scores must match bit for bit.
Frames are lists of (x, y, area) detections; `record_of` joins them into the
DetectionRecord that the tracker and the division score take.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dropevo import tracking
from dropevo.arena import (ArenaConfig, DetectionRecord, behavior_from_formulation,
                           filter_analytic_arena, simulate)
from dropevo.formulation import Formulation
from dropevo.tracking import (
    TrajectorySet,
    fitness_directionality,
    fitness_division,
    fitness_movement,
    track,
)


def record_of(*frames):
    """The DetectionRecord of frames 0, 1, 2, ..., each a list of (x, y, area)."""
    x, y, area = np.array([d for fr in frames for d in fr], dtype=float).reshape(-1, 3).T
    return DetectionRecord(np.cumsum([0, *map(len, frames)]), x, y, area)


def frames_of(record):
    """Each frame of a DetectionRecord as a list of (x, y, area)."""
    rows = list(zip(record.x.tolist(), record.y.tolist(), record.area.tolist()))
    o = record.offsets.tolist()
    return [rows[a:b] for a, b in zip(o, o[1:])]


def record_of_set(ts):
    """The DetectionRecord holding a TrajectorySet's detections, frame by
    frame (in flat order within a frame)."""
    order = np.argsort(ts.frame, kind="stable")
    offsets = np.r_[0, np.cumsum(np.bincount(ts.frame, minlength=ts.total_frames))]
    return DetectionRecord(offsets, ts.x[order], ts.y[order], ts.area[order])


def trajectory_set(trajectories, total_frames):
    """The TrajectorySet whose droplet i has the samples trajectories[i],
    (frame, x, y, area) in consecutive frames."""
    samples = np.array([s for tr in trajectories for s in tr], dtype=float).reshape(-1, 4)
    droplet = np.repeat(np.arange(len(trajectories)), [len(tr) for tr in trajectories])
    parent = np.where(np.r_[False, droplet[1:] == droplet[:-1]],
                      np.arange(len(droplet)) - 1, -1)
    return TrajectorySet(total_frames, samples[:, 0].astype(np.int64), *samples[:, 1:].T,
                         parent, droplet)


# ---------------------------------------------------------------- oracles


def oracle_track(frames, radius=30.0):
    """Reference tracker: returns {droplet_id: [(frame, x, y, area), ...]}."""
    tracks = {}
    next_id = 0
    prev = []  # (id, x, y) for previous frame
    for t, detections in enumerate(frames):
        taken = set()
        cur = []
        for x, y, area in detections:
            candidates = []
            for did, px, py in prev:
                if did in taken:
                    continue
                dx, dy = x - px, y - py
                d2 = dx * dx + dy * dy
                if d2 <= radius * radius:
                    candidates.append((d2, did))
            if candidates:
                _, did = min(candidates)  # min distance, ties to lower id
                taken.add(did)
            else:
                did = next_id
                next_id += 1
                tracks[did] = []
            tracks[did].append((t, x, y, area))
            cur.append((did, x, y))
        prev = cur
    return tracks


def oracle_division(tracks, total_frames, threshold=15.0):
    last = total_frames - 1
    return sum(1 for s in tracks.values() if s[-1][0] == last and s[-1][3] > threshold)


def oracle_movement(tracks):
    per_pair = {}
    for s in tracks.values():
        for a, b in zip(s, s[1:]):
            d = math.hypot(b[1] - a[1], b[2] - a[2])
            per_pair.setdefault(b[0], []).append(d)
    if not per_pair:
        return 0.0
    return sum(sum(v) / len(v) for v in per_pair.values()) / len(per_pair)


def oracle_directionality(tracks):
    per_triple = {}
    for s in tracks.values():
        for a, b, c in zip(s, s[1:], s[2:]):
            v = (b[1] - a[1], b[2] - a[2])
            w = (c[1] - b[1], c[2] - b[2])
            nv, nw = math.hypot(*v), math.hypot(*w)
            if nv == 0 or nw == 0:
                continue
            cosang = max(-1.0, min(1.0, (v[0] * w[0] + v[1] * w[1]) / (nv * nw)))
            per_triple.setdefault(b[0], []).append(math.acos(cosang))
    if not per_triple:
        return 0.0
    return sum(sum(v) / len(v) for v in per_triple.values()) / len(per_triple)


def as_tracks(ts: TrajectorySet):
    """{droplet_id: [(frame, x, y, area), ...]}, in droplet id order."""
    tracks = {}
    for did, *sample in sorted(zip(ts.droplet.tolist(), ts.frame.tolist(), ts.x.tolist(),
                                   ts.y.tolist(), ts.area.tolist()), key=lambda r: r[:2]):
        tracks.setdefault(did, []).append(tuple(sample))
    return tracks


# ---------------------------------------------------------------- tracker


def test_track_single_stationary():
    ts = track(record_of([(0, 0, 9)], [(0, 0, 9)], [(0, 0, 9)]))
    assert ts.droplet_count == 1
    assert len(as_tracks(ts)[0]) == 3


def test_track_gate_boundary():
    # 29.9 px link is kept; 30.1 px becomes a new identity.
    near = track(record_of([(0.0, 0.0, 9)], [(29.9, 0.0, 9)]))
    far = track(record_of([(0.0, 0.0, 9)], [(30.1, 0.0, 9)]))
    assert near.droplet_count == 1
    assert far.droplet_count == 2


def test_track_gate_exact():
    ts = track(record_of([(0.0, 0.0, 9)], [(30.0, 0.0, 9)]))
    assert ts.droplet_count == 1  # the gate is inclusive


def test_track_tie_prefers_lower_id():
    # Two previous droplets equidistant from one detection.
    ts = track(record_of([(-5.0, 0.0, 9), (5.0, 0.0, 9)], [(0.0, 0.0, 9)]))
    assert [s[0] for s in as_tracks(ts)[0]] == [0, 1]
    assert [s[0] for s in as_tracks(ts)[1]] == [0]


def test_track_claimed_droplet_unavailable():
    # First detection claims droplet 0; the second must take droplet 1 even
    # though droplet 0 is nearer to it as well.
    ts = track(record_of([(0.0, 0.0, 9), (20.0, 0.0, 9)],
                         [(1.0, 0.0, 9), (2.0, 0.0, 9)]))
    assert ts.droplet_count == 2
    tracks = as_tracks(ts)
    assert len(tracks[0]) == 2
    assert len(tracks[1]) == 2
    assert tracks[1][1][1] == 2.0


def test_track_split_creates_new_id():
    ts = track(record_of([(0.0, 0.0, 20)], [(0.0, 1.0, 10), (0.0, -1.0, 10)]))
    assert ts.droplet_count == 2


def test_track_matches_oracle_on_simulations():
    cfg = ArenaConfig(duration=4.0)
    for seed in range(10):
        frames = simulate(behavior_from_formulation(Formulation((0.25, 0.25, 0.25, 0.25))),
                          cfg, [np.random.SeedSequence(seed)])
        assert as_tracks(track(frames)) == oracle_track(frames_of(frames))


detection_frames = st.lists(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=1, max_value=500),
        ),
        max_size=6,
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(detection_frames)
def test_track_matches_oracle_randomized(lists):
    assert as_tracks(track(record_of(*lists))) == oracle_track(lists)


# ---------------------------------------------------------------- fitness


def test_division_strict_threshold():
    assert fitness_division(record_of([(0, 0, 400)], [(0, 0, 15.0)]), 1) == [0.0]
    assert fitness_division(record_of([(0, 0, 400)], [(0, 0, 15.0001)]), 1) == [1.0]


def test_division_counts_only_final_frame():
    # Second droplet vanishes before the last frame.
    assert fitness_division(record_of([(0, 0, 100), (50, 50, 100)], [(0, 0, 100)]), 1) == [1.0]


def test_division_empty():
    assert fitness_division(record_of(), 1) == [0.0]


division_frame = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3).map(lambda v: 10.0 * v),
        st.integers(min_value=-3, max_value=3).map(lambda v: 10.0 * v),
        st.sampled_from([5.0, 15.0, 15.000001, 20.0, math.nan]),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda frames: st.lists(st.lists(division_frame, min_size=frames, max_size=frames),
                            min_size=1, max_size=4)))
@example([[[(0.0, 0.0, 20.0)], []], [[(0.0, 0.0, 15.0)], [(0.0, 0.0, math.nan)]]])
def test_division_of_a_pass_counts_what_tracking_counted(replicates):
    # Division reads the record. Per replicate of a pass it must give what it
    # gave on the tracked record: the oracle tracker's droplets alive in the
    # replicate's final frame with area above 15 (empty final frames, areas
    # of exactly 15.0 and NaN areas included).
    rec = record_of(*[d for lists in replicates for d in [[], *lists]][1:])
    want = [float(oracle_division(oracle_track(lists), len(lists))) for lists in replicates]
    assert fitness_division(rec, replicates=len(replicates)) == want


def test_movement_straight_line():
    ts = track(record_of([(0, 0, 9)], [(3, 4, 9)], [(6, 8, 9)]))
    assert fitness_movement(ts, 1) == pytest.approx([5.0])


def test_movement_unequal_pair_sizes():
    # Pair 1: droplets move 1 and 3 px (mean 2). Pair 2: one droplet moves
    # 10 px (mean 10). Mean over pairs = 6, not the grand mean 14/3.
    ts = track(record_of([(0, 0, 9), (50, 0, 9)],
                         [(1, 0, 9), (53, 0, 9)],
                         [(11, 0, 9)]))
    assert fitness_movement(ts, 1) == pytest.approx([6.0])


def test_movement_needs_two_frames():
    assert fitness_movement(track(record_of([(0, 0, 9)])), 1) == [0.0]


def test_directionality_turn_angle_cases():
    def angle(v, w):
        points = [(0.0, 0.0), v, (v[0] + w[0], v[1] + w[1])]
        ts = trajectory_set([[(t, float(x), float(y), 9.0)
                              for t, (x, y) in enumerate(points)]], 3)
        [score] = fitness_directionality(ts, 1)
        return score

    assert angle((1, 0), (0, 1)) == pytest.approx(math.pi / 2)
    assert angle((1, 0), (-1, 0)) == pytest.approx(math.pi)
    assert angle((1, 0), (2, 0)) == pytest.approx(0.0)
    assert angle((0, 0), (1, 0)) == 0.0  # a zero vector has no angle
    # Near-parallel vectors can push the cosine just past 1; must not raise.
    assert angle((1e8, 1), (1e8, 1)) == pytest.approx(0.0, abs=1e-6)
    # Steps of 1e-200 and 1e-162 px: their squares underflow to 0, so they
    # have zero length and no angle, without a RuntimeWarning (nv * nw of two
    # nonzero lengths, each at least about 2.2e-162, cannot round to 0).
    assert angle((1e-200, 0), (1e-200, 0)) == 0.0
    assert angle((1e-162, 0), (1e-162, 0)) == 0.0


def test_directionality_right_angles():
    ts = track(record_of([(0, 0, 9)], [(1, 0, 9)], [(1, 1, 9)], [(0, 1, 9)]))
    assert fitness_directionality(ts, 1) == pytest.approx([math.pi / 2])


def test_directionality_needs_triples():
    assert fitness_directionality(track(record_of([(0, 0, 9)], [(1, 0, 9)])), 1) == [0.0]


def test_directionality_skips_zero_vectors():
    # Stationary middle step contributes no angle; remaining triple is 90 deg.
    ts = track(record_of([(0, 0, 9)], [(1, 0, 9)], [(1, 0, 9)],
                         [(2, 0, 9)], [(2, 1, 9)]))
    assert fitness_directionality(ts, 1) == pytest.approx([math.pi / 2])


def test_fitness_matches_oracles_on_simulations():
    cfg = ArenaConfig(duration=4.0)
    for seed in range(10):
        frames = simulate(behavior_from_formulation(Formulation((0.1, 0.3, 0.4, 0.2))),
                          cfg, [np.random.SeedSequence(seed)])
        ts = track(frames)
        tracks = oracle_track(frames_of(frames))
        assert fitness_division(frames, 1) == [oracle_division(tracks, len(frames))]
        assert fitness_movement(ts, 1) == pytest.approx(
            [oracle_movement(tracks)], abs=1e-9)
        assert fitness_directionality(ts, 1) == pytest.approx(
            [oracle_directionality(tracks)], abs=1e-9)


# ------------------------------------------ scalar reference scores, exact


def step_length(dx, dy):
    return math.sqrt(dx * dx + dy * dy)


def reference_turn_angle(v, w):
    nv = step_length(*v)
    nw = step_length(*w)
    if nv == 0.0 or nw == 0.0:
        return None
    c = (v[0] * w[0] + v[1] * w[1]) / (nv * nw)
    return math.acos(max(-1.0, min(1.0, c)))


def reference_scores(ts: TrajectorySet):
    """The per-trajectory scalar scores: dicts filled in trajectory order,
    np.mean per frame, then np.mean over frames. Division, movement and
    directionality, 0.0 without a frame pair or an angle."""
    last = ts.total_frames - 1
    trajectories = as_tracks(ts).values()
    division = float(sum(1 for s in trajectories if s[-1][0] == last and s[-1][3] > 15.0))
    pairs, triples = {}, {}
    for s in trajectories:
        for k in range(1, len(s)):
            pairs.setdefault(s[k][0], []).append(
                step_length(s[k][1] - s[k - 1][1], s[k][2] - s[k - 1][2]))
        for k in range(2, len(s)):
            a, b, c = s[k - 2], s[k - 1], s[k]
            alpha = reference_turn_angle((b[1] - a[1], b[2] - a[2]),
                                         (c[1] - b[1], c[2] - b[2]))
            if alpha is not None:
                triples.setdefault(b[0], []).append(alpha)
    movement = float(np.mean([np.mean(d) for d in pairs.values()])) if pairs else 0.0
    directionality = float(np.mean([np.mean(a) for a in triples.values()])) if triples else 0.0
    return division, movement, directionality


def scores(rec: DetectionRecord, ts: TrajectorySet):
    """The three scores of one replicate: division from its record, movement
    and directionality from its TrajectorySet."""
    [division], [movement], [directionality] = (
        fitness_division(rec, 1), fitness_movement(ts, 1), fitness_directionality(ts, 1))
    return division, movement, directionality


def test_scores_match_reference_on_pipeline():
    # The evaluator's pipeline on full-length default arenas.
    cfg = ArenaConfig()
    rng = np.random.default_rng(17)
    for seed in range(12):
        p = tuple(rng.dirichlet(np.ones(4)))
        frames = simulate(behavior_from_formulation(Formulation(p)), cfg,
                          [np.random.SeedSequence(seed)])
        rec = filter_analytic_arena(frames, cfg.arena_radius)
        ts = track(rec)
        assert scores(rec, ts) == reference_scores(ts)


def test_group_means_match_np_mean_for_all_sizes():
    # Rows of one size averaged together give the bits of np.mean per row.
    rng = np.random.default_rng(3)
    for size in range(1, 201):
        values = rng.exponential(3.0, size * 3)
        frame = np.repeat([5, 2, 9], size)
        droplet = np.tile(np.arange(size), 3)
        want = float(np.mean([np.mean(values[frame == f].tolist()) for f in (5, 2, 9)]))
        got = tracking._mean_of_group_means(values.tolist(), frame, droplet, 10, 1)
        assert got == [want], size


grid_frame = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3).map(lambda v: 10.0 * v),
        st.integers(min_value=-3, max_value=3).map(lambda v: 10.0 * v),
        st.sampled_from([5.0, 15.0, 20.0]),
    ),
    max_size=8,
)
grid_frames = st.lists(grid_frame, min_size=2, max_size=10)


@settings(max_examples=300, deadline=None)
@given(grid_frames)
def test_track_and_scores_on_grid_frames(lists):
    # Coordinates on a 10 px grid: exact distance ties, shared nearest
    # droplets and zero-length steps are common.
    rec = record_of(*lists)
    ts = track(rec)
    assert as_tracks(ts) == oracle_track(lists)
    assert scores(rec, ts) == reference_scores(ts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda frames: st.lists(st.lists(grid_frame, min_size=frames, max_size=frames),
                            min_size=1, max_size=3)))
def test_records_joined_by_empty_frames_track_and_score_apart(replicates):
    # An arena pass: replicates of F frames each, joined by empty frames.
    # Tracked together, each replicate gets the parents and droplet ids it
    # gets alone, offset by the detections and droplets before it, and each
    # score gives every replicate its own value (0.0 without a triple).
    period = len(replicates[0]) + 1
    joined_rec = record_of(*[d for lists in replicates for d in [[], *lists]][1:])
    joined = track(joined_rec)
    parent, droplet, frame, alone = [], [], [], []
    for r, lists in enumerate(replicates):
        ts = track(record_of(*lists))
        parent += [p + len(parent) if p >= 0 else -1 for p in ts.parent.tolist()]
        droplet += (ts.droplet + (max(droplet) + 1 if droplet else 0)).tolist()
        frame += (ts.frame + r * period).tolist()
        alone.append(reference_scores(ts))
    assert joined.parent.tolist() == parent
    assert joined.droplet.tolist() == droplet
    assert joined.frame.tolist() == frame
    together = [fitness_division(joined_rec, replicates=len(replicates)),
                *(score(joined, replicates=len(replicates))
                  for score in (fitness_movement, fitness_directionality))]
    assert list(zip(*together)) == alone


def test_track_split_children_share_nearest_parent():
    frames = [[(0.0, 0.0, 20), (40.0, 0.0, 20)],
              [(0.0, 1.0, 10), (0.0, -1.0, 10), (40.0, 1.0, 10), (40.0, -1.0, 10)]]
    tracks = as_tracks(track(record_of(*frames)))
    assert tracks == oracle_track(frames)
    # The first child of each parent keeps its id; the second is new.
    assert [len(s) for s in tracks.values()] == [2, 2, 1, 1]
    assert tracks[2][0][2] == -1.0


def test_track_tie_lower_id_at_higher_position():
    # Frame 1 lists the new droplet 1 before droplet 0; the frame-2 detection
    # is equidistant from both and must join droplet 0, the lower id.
    frames = [[(50.0, 0.0, 9)],
              [(0.0, 0.0, 9), (50.0, 0.0, 9)],
              [(25.0, 0.0, 9)]]
    tracks = as_tracks(track(record_of(*frames)))
    assert tracks == oracle_track(frames)
    assert [s[0] for s in tracks[0]] == [0, 1, 2]


def test_track_dirty_frames_among_clean_ones():
    # 40 random walkers over 53 frames, with dirty frames (duplicated
    # positions) spread through the run among clean ones.
    rng = np.random.default_rng(8)
    xy = rng.uniform(-200, 200, size=(40, 2))
    lists = []
    for t in range(53):
        xy = xy + rng.normal(0, 4, size=xy.shape)
        rows = [(float(x), float(y), 9.0) for x, y in xy]
        if t % 7 == 3:
            rows[5] = rows[4]  # a collision: two detections at one place
        lists.append(rows)
    rec = record_of(*lists)
    ts = track(rec)
    assert as_tracks(ts) == oracle_track(lists)
    assert scores(rec, ts) == reference_scores(ts)


def test_track_coincident_static_pair_every_frame():
    # Two coincident static detections give every frame an exact tie and a
    # shared pick, so every frame is replayed; a third droplet circles alone.
    lists = [[(0.0, 0.0, 9.0), (0.0, 0.0, 9.0),
              (80.0 + 20.0 * math.cos(t / 50), 20.0 * math.sin(t / 50), 9.0)]
             for t in range(1800)]
    assert as_tracks(track(record_of(*lists))) == oracle_track(lists)


@st.composite
def crowded_frames(draw):
    """Frames of 20-40 detections on a 10 px grid, inside the 30 px gate of
    their neighbours: a frame is empty, drawn afresh, or the previous frame
    moved a grid step per detection with a few detections dropped or added
    (equal and unequal counts, coincident detections, exact ties)."""
    cells = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
    lists, prev = [], []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        kind = draw(st.sampled_from(["empty", "fresh", "moved", "moved"]))
        if kind == "moved" and prev:
            step = st.integers(-1, 1).map(lambda v: 10.0 * v)
            rows = [(x + draw(step), y + draw(step), a) for x, y, a in prev]
            for _ in range(draw(st.integers(0, min(3, len(rows) - 20)))):
                del rows[draw(st.integers(0, len(rows) - 1))]
            extra = draw(st.lists(cells, max_size=40 - len(rows)))
            rows += [(10.0 * i, 10.0 * j, 9.0) for i, j in extra]
        elif kind == "empty":
            rows = []
        else:
            rows = [(10.0 * i, 10.0 * j, 9.0)
                    for i, j in draw(st.lists(cells, min_size=20, max_size=40))]
        lists.append(rows)
        prev = rows
    return lists


@settings(max_examples=100, deadline=None)
@given(crowded_frames())
def test_track_matches_oracle_on_crowded_frames(lists):
    assert as_tracks(track(record_of(*lists))) == oracle_track(lists)


def test_scores_match_reference_on_trajectory_lists():
    # Trajectory lists built by hand, in any order: the scores take groups in
    # order of their first trajectory in the list, as a scan over it would.
    rng = np.random.default_rng(11)
    for _ in range(200):
        total_frames = int(rng.integers(3, 12))
        trajectories = []
        for _droplet in range(int(rng.integers(1, 7))):
            start = int(rng.integers(0, total_frames - 1))
            length = int(rng.integers(1, total_frames - start + 1))
            x, y = rng.uniform(-50, 50, size=2)
            samples = []
            for t in range(start, start + length):
                if rng.random() < 0.7:
                    x, y = x + rng.uniform(-5, 5), y + rng.uniform(-5, 5)
                samples.append((t, float(x), float(y), float(rng.uniform(5, 25))))
            trajectories.append(samples)
        ts = trajectory_set(trajectories, total_frames)
        assert scores(record_of_set(ts), ts) == reference_scores(ts)


# A link never spans more than the 30 px gate, so no step the program
# scores has a larger component.
_MIN_NORMAL = 2.2250738585072014e-308
_COMPONENT = st.one_of(st.floats(-30.0, 30.0), st.floats(-_MIN_NORMAL, _MIN_NORMAL),
                       st.integers(-30, 30).map(float))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.lists(st.tuples(_COMPONENT, _COMPONENT), min_size=1, max_size=40))
@example(steps=[(0.0, -0.0), (5e-324, 1e-310), (-5e-324, 0.0), (1e-162, 1e-162),
                (30.0, 0.0), (-30.0, 30.0), (3.0, 4.0), (-2.5, 2.5)])
def test_step_lengths_are_sqrt_of_the_gated_square(steps):
    # Each droplet steps from the origin by (dx, dy), so its step length is
    # sqrt(dx * dx + dy * dy), the square the tracker compares with the gate.
    # A square that underflows to 0 gives a zero step.
    ts = trajectory_set([[(0, 0.0, 0.0, 9.0), (1, dx, dy, 9.0)] for dx, dy in steps], 2)
    k, step = tracking._steps(ts)
    assert k.tolist() == list(range(1, 2 * len(steps), 2))
    np.testing.assert_array_equal(step[k], [step_length(dx, dy) for dx, dy in steps])


def test_step_lengths_and_angles_match_the_scalar_reference():
    # One droplet, three samples: each score is a function of two step
    # lengths or one angle, so a last-bit difference from math.sqrt of the
    # squared step or from math.acos (numpy's arccos differs from it on
    # some inputs) shows.
    rng = np.random.default_rng(12)
    for _ in range(1000):
        xy = np.cumsum(rng.uniform(-20, 20, size=(3, 2)), axis=0).tolist()
        ts = trajectory_set([[(t, x, y, 9.0) for t, (x, y) in enumerate(xy)]], 3)
        assert scores(record_of_set(ts), ts) == reference_scores(ts)
