"""Frame-to-frame droplet identity and the three behaviour fitness scores.

Tracking is nearest-neighbour within a 30 px gate, the gating of Crocker &
Grier (1996) without a motion model: the detections of a frame are taken in
input order, and each claims the nearest not-yet-claimed droplet of the
previous frame whose centre lies within the gate, distance ties going to the
lower droplet id; a detection without a candidate starts a new identity.
Droplet ids number trajectories in the order of their first detection.

The tracker works on the columnar `DetectionRecord`. For every frame pair it
computes the gated squared distances in blocks and takes each detection's
nearest previous detection. A frame is clean when no nearest distance is an
exact tie and no two detections pick the same previous detection; there the
greedy claims are exactly these picks. Dirty frames (splits, collisions,
ties) replay the greedy rule on their own block, in frame order.

Movement and directionality average per frame pair (respectively frame
triple) over the droplets contributing to that pair/triple, then over time,
so the scores stay well defined when the droplet count varies.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .arena import DetectionRecord

TRACK_RADIUS_PX = 30.0
DIVISION_AREA_THRESHOLD = 15.0
# Distance cells per block of frame pairs: bounds the tracker's scratch
# memory (a few arrays of this many float64) whatever the droplet count.
CELL_BUDGET = 1 << 16


class TrackingError(ValueError):
    pass


class EmptyExperiment(TrackingError):
    pass


class NoFramePairs(TrackingError):
    pass


class NoTriples(TrackingError):
    pass


@dataclass
class Trajectory:
    droplet_id: int
    samples: list  # of (frame, x, y, area), frames contiguous

    @property
    def last_frame(self) -> int:
        return self.samples[-1][0]


class TrajectorySet:
    """The tracked droplets of one experiment, column-wise.

    Per detection: `frame`, `x`, `y`, `area`, `parent` (index of the same
    droplet's previous detection, -1 where a trajectory starts) and `droplet`
    (the position of its trajectory in `trajectories`, which for `track`'s
    output is the droplet id). Built by `track`, or from a list of
    Trajectory objects; `trajectories` is built on first use.
    """

    def __init__(self, trajectories: list[Trajectory], total_frames: int):
        self.total_frames = total_frames
        self._trajectories = list(trajectories)
        lengths = [len(tr.samples) for tr in self._trajectories]
        samples = [s for tr in self._trajectories for s in tr.samples]
        frame, x, y, area = zip(*samples) if samples else ((),) * 4
        self.frame = np.array(frame, dtype=np.int64)
        self.x, self.y, self.area = (np.array(c, dtype=float) for c in (x, y, area))
        self.droplet = np.repeat(np.arange(len(lengths)), lengths)
        same = np.r_[False, self.droplet[1:] == self.droplet[:-1]]
        self.parent = np.where(same, np.arange(len(samples)) - 1, -1)
        self.droplet_count = len(lengths)

    @classmethod
    def _from_columns(cls, total_frames, frame, rec: DetectionRecord, parent,
                      droplet, droplet_count) -> TrajectorySet:
        ts = cls.__new__(cls)
        ts.total_frames = total_frames
        ts._trajectories = None
        ts.frame, ts.x, ts.y, ts.area = frame, rec.x, rec.y, rec.area
        ts.parent, ts.droplet, ts.droplet_count = parent, droplet, droplet_count
        return ts

    @property
    def trajectories(self) -> list[Trajectory]:
        if self._trajectories is None:
            order = np.lexsort((self.frame, self.droplet))
            rows = list(zip(self.frame[order].tolist(), self.x[order].tolist(),
                            self.y[order].tolist(), self.area[order].tolist()))
            ends = [0, *np.cumsum(np.bincount(self.droplet, minlength=self.droplet_count))]
            self._trajectories = [Trajectory(droplet_id=i, samples=rows[ends[i]:ends[i + 1]])
                                  for i in range(self.droplet_count)]
        return self._trajectories


def _link_clean(rec: DetectionRecord, frames: np.ndarray, width: int, r2: float,
                parent: np.ndarray) -> np.ndarray:
    """Link the clean frames among `frames` (frames whose own and previous
    detection counts are at most `width`) and return the dirty ones."""
    lane = np.arange(width)
    o = rec.offsets
    cur = o[frames, None] + lane
    prev = o[frames - 1, None] + lane
    cur_ok = cur < o[frames + 1, None]
    prev_ok = prev < o[frames, None]
    cur[~cur_ok] = 0  # padding lanes: any valid row, masked below
    prev[~prev_ok] = 0
    d2 = rec.x[cur][:, :, None] - rec.x[prev][:, None, :]
    d2 *= d2
    dy = rec.y[cur][:, :, None] - rec.y[prev][:, None, :]
    dy *= dy
    d2 += dy
    d2[~((d2 <= r2) & prev_ok[:, None, :])] = np.inf
    pick = d2.argmin(axis=2)
    nearest = d2.min(axis=2)
    linked = (nearest < np.inf) & cur_ok
    tie = ((d2 == nearest[:, :, None]).sum(axis=2) > 1) & linked
    slot = (np.arange(len(frames))[:, None] * width + pick)[linked]
    shared = np.bincount(slot, minlength=len(frames) * width).reshape(len(frames), width) > 1
    dirty = tie.any(axis=1) | shared.any(axis=1)
    keep = linked & ~dirty[:, None]
    parent[cur[keep]] = (o[frames - 1, None] + pick)[keep]
    return frames[dirty]


def _root(parent: np.ndarray, roots: dict, i: int) -> int:
    """Flat index of the first detection of i's trajectory; `roots` memoizes
    the answer for every detection on the way."""
    path = []
    while i not in roots and parent[i] >= 0:
        path.append(i)
        i = int(parent[i])
    root = roots.get(i, i)
    roots.update(dict.fromkeys(path, root))
    return root


def _link_greedy(xs: list, ys: list, prev: range, cur: range, r2: float,
                 parent: np.ndarray, roots: dict) -> None:
    """The scalar greedy rule on one frame pair. Every earlier frame must be
    linked already: an exact tie compares droplet ids, which follow the flat
    index of each trajectory's first detection."""
    claimed = set()
    for i in cur:
        best = None
        best_d2 = None
        for j in prev:
            if j in claimed:
                continue
            dx, dy = xs[i] - xs[j], ys[i] - ys[j]
            d2 = dx * dx + dy * dy
            if d2 > r2:
                continue
            if best is None or d2 < best_d2 or (
                    d2 == best_d2
                    and _root(parent, roots, j) < _root(parent, roots, best)):
                best, best_d2 = j, d2
        if best is not None:
            claimed.add(best)
            parent[i] = best


def track(frames, radius: float = TRACK_RADIUS_PX) -> TrajectorySet:
    """Greedy nearest-neighbour association, detections processed in input
    order; distance ties break toward the lower previous-frame droplet id.
    Takes a DetectionRecord or a list of DetectionFrames."""
    rec = DetectionRecord.of(frames)
    n = np.diff(rec.offsets)
    parent = np.full(len(rec.x), -1, dtype=np.int64)
    r2 = radius * radius
    pairs = np.flatnonzero((n[1:] > 0) & (n[:-1] > 0)) + 1
    # Pad each frame pair to the next power of two of its larger count, so a
    # few block shapes cover every pair.
    widths = 1 << np.ceil(np.log2(np.maximum(n[pairs], n[pairs - 1]))).astype(np.int64)
    dirty = []
    for width in np.unique(widths).tolist():
        frames = pairs[widths == width]
        step = max(1, CELL_BUDGET // (width * width))
        for k in range(0, len(frames), step):
            dirty.extend(_link_clean(rec, frames[k:k + step], width, r2, parent).tolist())
    if dirty:
        o, xs, ys, roots = rec.offsets.tolist(), rec.x.tolist(), rec.y.tolist(), {}
        for t in sorted(dirty):
            _link_greedy(xs, ys, range(o[t - 1], o[t]), range(o[t], o[t + 1]), r2,
                         parent, roots)
    # Droplet ids number the trajectory roots in flat order; each detection
    # finds its root by pointer jumping.
    root = np.where(parent < 0, np.arange(len(parent)), parent)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    start = parent < 0
    droplet = (np.cumsum(start) - 1)[root]
    frame = np.repeat(np.arange(len(rec)), n)
    return TrajectorySet._from_columns(len(rec), frame, rec, parent, droplet,
                                       int(start.sum()))


def fitness_division(ts: TrajectorySet, area_threshold: float = DIVISION_AREA_THRESHOLD) -> float:
    """Droplets alive in the final frame with area strictly above threshold."""
    if ts.total_frames == 0:
        raise EmptyExperiment("no frames")
    last = ts.total_frames - 1
    return float(np.count_nonzero((ts.frame == last) & (ts.area > area_threshold)))


def _mean_of_group_means(values: list, group: np.ndarray, droplet: np.ndarray) -> float:
    """np.mean over groups of the np.mean of each group's values.

    Both means see their inputs in the order of a scan over the trajectories
    in droplet order: groups ordered by (lowest contributing droplet, group),
    values within a group by droplet. Groups of one size are stacked and
    averaged row-wise, which gives the same bits as np.mean of each group.
    """
    if not values:
        return 0.0
    order = np.lexsort((droplet, group))
    v, g = np.asarray(values)[order], group[order]
    first = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    sizes = np.diff(np.r_[first, len(g)])
    means = np.empty(len(first))
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        means[rows] = v[first[rows, None] + np.arange(size)].mean(axis=1)
    return float(np.mean(means[np.lexsort((g[first], droplet[order][first]))]))


def fitness_movement(ts: TrajectorySet) -> float:
    """Mean over frame pairs of the mean per-droplet displacement (px)."""
    if ts.total_frames < 2:
        raise NoFramePairs("need at least 2 frames")
    k = np.flatnonzero(ts.parent >= 0)
    p = ts.parent[k]
    steps = list(map(math.hypot, (ts.x[k] - ts.x[p]).tolist(), (ts.y[k] - ts.y[p]).tolist()))
    return _mean_of_group_means(steps, ts.frame[k], ts.droplet[k])


def fitness_directionality(ts: TrajectorySet) -> float:
    """Mean over frame triples of the mean per-droplet turning angle (rad).

    The turning angle lies in [0, pi] between consecutive displacement
    vectors; a triple with a zero-length displacement has none."""
    c = np.flatnonzero(ts.parent >= 0)
    c = c[ts.parent[ts.parent[c]] >= 0]
    if not len(c):
        raise NoTriples("no droplet has 3 consecutive samples")
    b = ts.parent[c]
    a = ts.parent[b]
    vx, vy = ts.x[b] - ts.x[a], ts.y[b] - ts.y[a]
    wx, wy = ts.x[c] - ts.x[b], ts.y[c] - ts.y[b]
    nv = np.array(list(map(math.hypot, vx.tolist(), vy.tolist())))
    nw = np.array(list(map(math.hypot, wx.tolist(), wy.tolist())))
    ok = (nv != 0.0) & (nw != 0.0)
    cos = (vx * wx + vy * wy)[ok] / (nv * nw)[ok]
    angles = [math.acos(max(-1.0, min(1.0, v))) for v in cos.tolist()]
    return _mean_of_group_means(angles, ts.frame[b][ok], ts.droplet[c][ok])


FITNESS_FUNCTIONS = {
    "division": fitness_division,
    "movement": fitness_movement,
    "directionality": fitness_directionality,
}


def trajectories_to_csv(ts: TrajectorySet) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["droplet_id", "frame", "x", "y", "area"])
    for tr in ts.trajectories:
        for t, x, y, area in tr.samples:
            w.writerow([tr.droplet_id, t, repr(x), repr(y), repr(area)])
    return buf.getvalue()
