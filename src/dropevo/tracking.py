"""Frame-to-frame droplet identity and the three behaviour fitness scores.

Tracking is nearest-neighbour within a 30 px gate, the gating of Crocker &
Grier (1996) without a motion model: the detections of a frame are taken in
input order, and each claims the nearest not-yet-claimed droplet of the
previous frame whose centre lies within the gate, distance ties going to the
lower droplet id; a detection without a candidate starts a new identity.
Droplet ids number trajectories in the order of their first detection.

The tracker makes one sparse pass over the columnar `DetectionRecord`. It
sorts each frame's detections by x once and gives every detection an x band
in the previous frame: the gate, or, where the two frames hold equally many
detections, the distance to the previous frame's detection in the same slot,
which bounds the nearest candidate and all its ties. The exact squared
distances of the band's candidates give each detection's nearest previous
detection. A frame is clean when no nearest distance is an exact tie and no
two detections pick the same previous detection; there the greedy claims are
exactly these picks, and every clean frame is linked at once. Dirty frames
(splits, collisions, ties) replay the greedy rule in frame order, each over
its own gated candidate lists.

Movement and directionality average per frame pair (respectively frame
triple) over the droplets contributing to that pair/triple, then over time,
so the scores stay well defined when the droplet count varies.

An empty frame ends every trajectory, so the record of an arena.simulate pass,
its replicates joined by empty frames, tracks as each replicate alone would,
with flat indices and droplet ids offset. Each score takes such a pass of
`replicates` replicates (one by default), as a TrajectorySet or, for division,
the record, and returns one score per replicate, the same as that replicate's
alone; a replicate without a frame pair (respectively triple) scores 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arena import DetectionRecord

TRACK_RADIUS_PX = 30.0
DIVISION_AREA_THRESHOLD = 15.0


@dataclass
class Trajectory:
    droplet_id: int
    samples: list  # of (frame, x, y, area), frames contiguous


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """The tracked droplets of one experiment, column-wise.

    Per detection: `frame`, `x`, `y`, `area`, `parent` (index of the same
    droplet's previous detection, -1 where a trajectory starts) and `droplet`
    (its trajectory's id, numbering the trajectories 0, 1, 2, ...).
    `trajectories` serves only perfbench's tracer, until the tracer reads
    the program's own counters.
    """

    total_frames: int
    frame: np.ndarray
    x: np.ndarray
    y: np.ndarray
    area: np.ndarray
    parent: np.ndarray
    droplet: np.ndarray

    @property
    def droplet_count(self) -> int:
        return int(self.droplet.max(initial=-1)) + 1

    @cached_property
    def trajectories(self) -> list[Trajectory]:
        order = np.lexsort((self.frame, self.droplet))
        rows = list(zip(self.frame[order].tolist(), self.x[order].tolist(),
                        self.y[order].tolist(), self.area[order].tolist()))
        ends = [0, *np.cumsum(np.bincount(self.droplet, minlength=self.droplet_count))]
        return [Trajectory(droplet_id=i, samples=rows[ends[i]:ends[i + 1]])
                for i in range(self.droplet_count)]


def _grow(keys: np.ndarray, pos: np.ndarray, bound: np.ndarray, step: int) -> np.ndarray:
    """Move each pos by `step` (1 or -1) while the sorted key it passes lies
    within its bound: keys[pos] <= bound going up, keys[pos - 1] >= bound
    going down. The -inf and inf that end `keys` stop every walk."""
    def inside(at, b):
        return keys[at] <= b if step > 0 else keys[at - 1] >= b

    pos = pos.copy()
    live = np.flatnonzero(inside(pos, bound))
    while len(live):
        pos[live] += step
        live = live[inside(pos[live], bound[live])]
    return pos


def _squared_distance(rec: DetectionRecord | TrajectorySet, i: np.ndarray,
                      j: np.ndarray) -> np.ndarray:
    """dx * dx + dy * dy of each pair of detections (i, j), dx = x[i] - x[j]."""
    dx = rec.x[i] - rec.x[j]
    dy = rec.y[i] - rec.y[j]
    return dx * dx + dy * dy


def _pairs(rec: DetectionRecord, order: np.ndarray, cur: np.ndarray, lo: np.ndarray,
           hi: np.ndarray) -> tuple:
    """The pairs (i, j) of each detection i of `cur` and each detection j
    order[lo - 1:hi - 1] of its band, grouped by i in `cur` order, with each
    pair's squared distance."""
    count = hi - lo
    i = np.repeat(cur, count)
    j = order[np.arange(len(i)) + np.repeat(lo - 1 - (np.cumsum(count) - count), count)]
    return i, j, _squared_distance(rec, i, j)


def _search_width(d2: np.ndarray) -> np.ndarray:
    """A half-width in x that holds every j whose computed dx * dx + dy * dy
    is at most d2: sqrt(d2) widened past the rounding of dx, its square and
    the square root (1e-150 covers squares that underflow to zero)."""
    return np.sqrt(d2) * (1.0 + 1e-9) + 1e-150


def _root(parent: np.ndarray, roots: dict, i: int) -> int:
    """Flat index of the first detection of i's trajectory; `roots` memoizes
    the answer for every detection on the way."""
    path = []
    while i not in roots and parent[i] >= 0:
        path.append(i)
        i = int(parent[i])
    root = roots.get(i, i)
    for k in path:
        roots[k] = root
    return root


def _replay(i: np.ndarray, j: np.ndarray, d2: np.ndarray, frame: np.ndarray,
            parent: np.ndarray) -> None:
    """The greedy rule on whole frames, in frame order, over their gated
    pairs sorted by (i, d2, j): each detection takes its nearest unclaimed
    candidate, an exact tie going to the lower droplet id. Every earlier
    frame must be linked already, since droplet ids follow the flat index of
    each trajectory's first detection."""
    first = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
    groups = zip(i[first].tolist(), frame[i[first]].tolist(), first.tolist(),
                 [*first[1:].tolist(), len(i)])
    j, d2 = j.tolist(), d2.tolist()
    roots = {}
    claimed = set()
    t = None
    for det, det_frame, a, b in groups:
        if det_frame != t:
            t = det_frame
            claimed = set()
        best = None
        for k in range(a, b):
            c = j[k]
            if c in claimed:
                continue
            if best is None:
                best, best_d2 = c, d2[k]
            elif d2[k] != best_d2:
                break
            elif _root(parent, roots, c) < _root(parent, roots, best):
                best = c
        if best is not None:
            claimed.add(best)
            parent[det] = best
            if best in roots:  # a tie looked it up: det's is the same
                roots[det] = roots[best]


def track(rec: DetectionRecord) -> TrajectorySet:
    """Greedy nearest-neighbour association, detections processed in input
    order; distance ties break toward the lower previous-frame droplet id."""
    n = np.diff(rec.offsets)
    frame = np.repeat(np.arange(len(rec)), n)
    parent = np.full(len(rec.x), -1, dtype=np.int64)
    r2 = TRACK_RADIUS_PX * TRACK_RADIUS_PX
    # Sort detections by (frame, x) on the key frame + x / scale. x / scale
    # stays below a quarter and a band's half-width below a half, so no band
    # reaches another frame's keys; `margin` widens every band past the
    # rounding of the keys. A non-finite x, which links to nothing, sorts as 0.
    x = np.nan_to_num(rec.x, nan=0.0, posinf=0.0, neginf=0.0)
    scale = 4.0 * float(np.max(np.abs(x), initial=0.0)) + 2.0 * TRACK_RADIUS_PX + 1.0
    key = frame + x / scale
    order = np.argsort(key)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    key = np.r_[-np.inf, key[order], np.inf]
    margin = 4.0 * math.ulp(len(rec) + 1.0)

    def bands(cur, same, half):
        """For each detection of `cur`, its band lo:hi of positions in the
        sorted `key`: the detections of its previous frame within `half` of
        it in x, grown from its same-slot detection `same` there, which the
        band always holds."""
        base = (frame[cur] - 1) + x[cur] / scale
        half = half / scale + margin
        start = rank[same] + 1
        return _grow(key, start, base - half, -1), _grow(key, start + 1, base + half, 1)

    # Detections with a previous frame, and their same-slot detection there
    # (its last where there is none).
    n_prev = np.r_[0, n][frame]
    cur = np.flatnonzero(n_prev > 0)
    cur_frame = frame[cur]
    same = np.minimum(cur - n_prev[cur], rec.offsets[cur_frame] - 1)
    # Where a frame pair has equal counts, the same-slot detection bounds the
    # nearest distance and all its ties.
    d2_same = _squared_distance(rec, cur, same)
    bound = np.where((n[cur_frame] == n_prev[cur]) & (d2_same <= r2), d2_same, r2)
    lo, hi = bands(cur, same, _search_width(bound))
    # Each detection's nearest pick within the gate: the same-slot detection
    # where the band holds it alone. A frame is clean when no nearest
    # distance is an exact tie and no two detections pick the same previous
    # detection; there the greedy claims are exactly these picks.
    nearest = np.where(d2_same <= r2, d2_same, np.inf)
    pick = same.copy()
    bad = np.zeros(len(cur), dtype=bool)
    multi = np.flatnonzero(hi - lo > 1)
    if len(multi):
        i, j, d2 = _pairs(rec, order, cur[multi], lo[multi], hi[multi])
        d2 = np.where(d2 <= r2, d2, np.inf)
        count = (hi - lo)[multi]
        first = np.cumsum(count) - count
        nearest[multi] = np.minimum.reduceat(d2, first)
        tie = d2 == np.repeat(nearest[multi], count)
        pick[multi] = j[np.minimum.reduceat(np.where(tie, np.arange(len(j)), len(j)), first)]
        bad[multi] = np.add.reduceat(tie, first) > 1
    linked = nearest <= r2
    bad |= np.bincount(pick[linked], minlength=len(parent))[pick] > 1
    dirty = np.zeros(len(rec), dtype=bool)
    dirty[cur_frame[linked & bad]] = True
    redo = dirty[cur_frame]
    keep = linked & ~redo
    parent[cur[keep]] = pick[keep]
    # Dirty frames (splits, collisions, ties) replay the greedy rule over all
    # their gated pairs.
    if redo.any():
        cur, same = cur[redo], same[redo]
        i, j, d2 = _pairs(rec, order, cur, *bands(cur, same,
                                                  _search_width(np.full(len(cur), r2))))
        gated = d2 <= r2
        i, j, d2 = i[gated], j[gated], d2[gated]
        by = np.lexsort((j, d2, i))
        _replay(i[by], j[by], d2[by], frame, parent)
    # Droplet ids number the trajectory roots in flat order. Each detection
    # finds its root by pointer jumping: a parent lies one frame back, so
    # after k jumps a pointer has covered 2**k frames or reached its root.
    root = np.where(parent < 0, np.arange(len(parent)), parent)
    for _ in range(max(len(rec) - 1, 0).bit_length()):
        root = root[root]
    droplet = (np.cumsum(parent < 0) - 1)[root]
    return TrajectorySet(len(rec), frame, rec.x, rec.y, rec.area, parent, droplet)


def _replicate_period(frames: int, replicates: int) -> int:
    """F + 1 for `frames` frames of `replicates` experiments of F frames each,
    laid out as one arena.simulate pass: replicate r's frame t is frame
    r * (F + 1) + t."""
    if replicates < 1 or (frames + 1) % replicates:
        raise ValueError(f"{frames} frames do not hold {replicates} replicates")
    return (frames + 1) // replicates


def fitness_division(rec: DetectionRecord, replicates: int = 1) -> list[float]:
    """Per replicate, the droplets alive in its final frame with area
    strictly above DIVISION_AREA_THRESHOLD."""
    period, o = _replicate_period(len(rec), replicates), rec.offsets
    return [float(np.count_nonzero(rec.area[o[t]:o[t + 1]] > DIVISION_AREA_THRESHOLD))
            for t in range(period - 2, len(rec), period)]


def _mean_of_group_means(values: list, group: np.ndarray, droplet: np.ndarray,
                         period: int, replicates: int) -> list[float]:
    """Per replicate, np.mean over its groups of the np.mean of each group's
    values; group g belongs to replicate g // period, and a replicate with
    no values gets 0.0.

    Both means see their inputs in the order of a scan over the trajectories
    in droplet order: groups ordered by (lowest contributing droplet, group),
    values within a group by droplet. Droplet ids follow flat order, so each
    replicate's groups are one slice of that order. Groups of one size are
    stacked and averaged row-wise, which gives the same bits as np.mean of
    each group.
    """
    if not len(values):
        return [0.0] * replicates
    order = np.lexsort((droplet, group))
    v, g = np.asarray(values)[order], group[order]
    first = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    sizes = np.diff(np.r_[first, len(g)])
    means = np.empty(len(first))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        means[rows] = v[first[rows, None] + np.arange(size)].mean(axis=1)
    by = np.lexsort((g[first], droplet[order][first]))
    ends = np.searchsorted(g[first][by] // period, np.arange(replicates + 1))
    return [float(np.mean(means[by[a:b]])) if b > a else 0.0
            for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())]


def _steps(ts: TrajectorySet) -> tuple:
    """The detections k that have a previous one, and the length of each
    detection's step from it (0.0 where it has none): the square root of
    the dx * dx + dy * dy that the tracker gated."""
    k = np.flatnonzero(ts.parent >= 0)
    step = np.zeros(len(ts.parent))
    step[k] = np.sqrt(_squared_distance(ts, k, ts.parent[k]))
    return k, step


def fitness_movement(ts: TrajectorySet, replicates: int = 1) -> list[float]:
    """Per replicate, the mean over frame pairs of the mean per-droplet
    displacement (px)."""
    k, step = _steps(ts)
    return _mean_of_group_means(step[k], ts.frame[k], ts.droplet[k],
                                _replicate_period(ts.total_frames, replicates), replicates)


def fitness_directionality(ts: TrajectorySet, replicates: int = 1) -> list[float]:
    """Per replicate, the mean over frame triples of the mean per-droplet
    turning angle (rad).

    The turning angle lies in [0, pi] between consecutive displacement
    vectors; a triple with a zero-length displacement (one whose square
    underflows to 0 included) has none."""
    period = _replicate_period(ts.total_frames, replicates)
    k, step = _steps(ts)
    c = k[ts.parent[ts.parent[k]] >= 0]
    b = ts.parent[c]
    a = ts.parent[b]
    vx, vy = ts.x[b] - ts.x[a], ts.y[b] - ts.y[a]
    wx, wy = ts.x[c] - ts.x[b], ts.y[c] - ts.y[b]
    nv, nw = step[b], step[c]
    ok = (nv != 0.0) & (nw != 0.0)
    cos = (vx * wx + vy * wy)[ok] / (nv * nw)[ok]
    angles = list(map(math.acos, np.fmax(np.fmin(cos, 1.0), -1.0).tolist()))
    return _mean_of_group_means(angles, ts.frame[b][ok], ts.droplet[c][ok], period, replicates)


FITNESS_FUNCTIONS = {
    "division": fitness_division,
    "movement": fitness_movement,
    "directionality": fitness_directionality,
}
