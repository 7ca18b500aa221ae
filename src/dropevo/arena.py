"""Synthetic droplet arena: a deterministic stand-in for the wet experiment.

Maps an oil formulation to per-frame droplet detections via a correlated
random walk with splitting, shrinking, and wall death. The formulation ->
behaviour map is an explicitly invented affine model driven by the measured
oil properties (solubility drives speed, inverse viscosity drives turning,
surface-tension deficit drives splitting); its constants are module-level and
documented so the ground truth of the landscape is auditable.

An experiment's detections travel as one columnar `DetectionRecord`: frame
offsets plus flat float64 x, y and area arrays. Iterating a record yields one
`DetectionFrame` per frame; only perfbench's tracer counts detections that
way, and both go once it reads the program's own counters. `simulate` can
run several replicates of one recipe as one pass, whose record holds them
one after another with an empty frame between each two.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .formulation import (Formulation, OilProperties, _total, check_number, check_vector,
                          oils_for_order)


FRAME_RATE = 30.0              # Hz; the CV pipeline's native rate
INITIAL_DROPLET_AREA = 400.0   # px^2 of every injected droplet


@dataclass(frozen=True)
class ArenaConfig:
    duration: float = 60.0            # s
    arena_radius: float = 200.0       # px
    injection_count: int = 4
    injection_positions: tuple = ((-60.0, -60.0), (60.0, -60.0),
                                  (-60.0, 60.0), (60.0, 60.0))

    def __post_init__(self):
        for name in ("duration", "arena_radius"):
            check_number(name, getattr(self, name), 0, strict=True)
        if not math.isfinite(FRAME_RATE * self.duration) or self.total_frames < 2:
            raise ValueError(f"duration must give at least 2 frames at {FRAME_RATE} Hz")
        check_number("injection_count", self.injection_count, 0, integer=True)
        positions = self.injection_positions
        if not (isinstance(positions, (list, tuple)) and len(positions) == self.injection_count):
            raise ValueError(f"injection_positions must hold injection_count = "
                             f"{self.injection_count} [x, y] pairs, got {positions!r}")
        object.__setattr__(self, "injection_positions", tuple(
            check_vector("injection_positions item", xy, 2) for xy in positions))
        r = float(self.arena_radius)  # so that an integer's square, too, overflows to inf
        r2 = r * r  # as simulate squares it
        if not math.isfinite(r2):
            raise ValueError(f"arena_radius = {self.arena_radius} is too large")
        for x, y in self.injection_positions:
            if x * x + y * y >= r2:
                raise ValueError(f"injection_positions item {[x, y]} must lie inside "
                                 f"arena_radius = {self.arena_radius}")

    @property
    def total_frames(self) -> int:
        return int(round(FRAME_RATE * self.duration))


@dataclass(frozen=True)
class BehaviorParams:
    speed: float              # px/frame
    turn_noise: float         # rad, SD of per-frame heading change
    split_probability: float  # per droplet per frame
    shrink_rate: float        # px^2/frame

    def __post_init__(self):
        for name in ("speed", "turn_noise", "shrink_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.split_probability <= 1.0:
            raise ValueError("split_probability must lie in [0, 1]")


@dataclass(frozen=True)
class DetectionFrame:
    frame_index: int
    detections: tuple  # of (x, y, area)


@dataclass(frozen=True, eq=False)
class DetectionRecord:
    """All detections of one experiment, column-wise: frame t holds rows
    offsets[t]:offsets[t + 1] of the float64 arrays x, y and area."""

    offsets: np.ndarray  # int64, one more entry than there are frames
    x: np.ndarray
    y: np.ndarray
    area: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        return iter(self._frames)

    @cached_property
    def _frames(self) -> list[DetectionFrame]:
        o = self.offsets.tolist()
        rows = list(zip(self.x.tolist(), self.y.tolist(), self.area.tolist()))
        return [DetectionFrame(t, tuple(rows[o[t]:o[t + 1]])) for t in range(len(o) - 1)]


# Affine behaviour-map constants (invented; fixed before any tuning against
# the GA). Solubility in g/L, surface tension in mN/m, viscosity in mPa.s.
SPEED_FLOOR = 0.2            # px/frame at zero weighted solubility
SPEED_PER_SOLUBILITY = 0.25  # px/frame per g/L
TURN_PER_INV_VISCOSITY = 0.8       # rad per (mPa.s)^-1
SURFACE_TENSION_REF = 28.0   # mN/m; deficit below this drives splitting
SPLIT_PER_DEFICIT = 2e-4     # per-frame probability per mN/m deficit
SHRINK_PER_SOLUBILITY = 0.01  # px^2/frame per g/L
MIN_SPLIT_AREA = 30.0        # px^2; droplets below this no longer split


def behavior_from_formulation(f: Formulation, oils: list[OilProperties] | None = None) -> BehaviorParams:
    """Proportion-weighted affine map from oil properties to walk parameters."""
    if oils is None:
        oils = oils_for_order()
    if len(oils) != 4:
        raise ValueError("need exactly 4 oils")
    # ((p0*v0 + p1*v1) + p2*v2) + p3*v3: np.dot's result depends on the BLAS
    # kernel that OpenBLAS picks by CPU.
    p = [float(v) for v in f.proportions]
    solubility = _total([pk * o.effective_solubility for pk, o in zip(p, oils)])
    inv_viscosity = _total([pk * (1.0 / o.viscosity) for pk, o in zip(p, oils)])
    tension = _total([pk * o.surface_tension for pk, o in zip(p, oils)])
    deficit = max(0.0, SURFACE_TENSION_REF - tension)
    return BehaviorParams(
        speed=SPEED_FLOOR + SPEED_PER_SOLUBILITY * solubility,
        turn_noise=TURN_PER_INV_VISCOSITY * inv_viscosity,
        split_probability=min(1.0, SPLIT_PER_DEFICIT * deficit),
        shrink_rate=SHRINK_PER_SOLUBILITY * solubility,
    )


# The unimodal map's speed above SPEED_FLOOR: a Gaussian bump of SD
# UNIMODAL_WIDTH around UNIMODAL_OPTIMUM on the simplex.
UNIMODAL_PEAK_SPEED = 5.0   # px/frame
UNIMODAL_OPTIMUM = (0.1, 0.6, 0.2, 0.1)
UNIMODAL_WIDTH = 0.35


def unimodal_behavior(f: Formulation) -> BehaviorParams:
    """Walk parameters of `f` under the unimodal behaviour map, in place of
    behavior_from_formulation; used for ground-truth landscape and GA
    efficacy checks."""
    d2 = float(np.sum((np.asarray(f.proportions, dtype=float)
                       - np.asarray(UNIMODAL_OPTIMUM, dtype=float)) ** 2))
    speed = SPEED_FLOOR + UNIMODAL_PEAK_SPEED * math.exp(
        -d2 / (2.0 * UNIMODAL_WIDTH * UNIMODAL_WIDTH))
    return BehaviorParams(speed=speed, turn_noise=0.5,
                          split_probability=0.0, shrink_rate=0.0)


# A droplet's two RNG streams: children TURN and SPLIT of its SeedSequence.
TURN, SPLIT = 0, 1
# Steps in a droplet's first block of draws; a droplet with no event in a
# block draws a block twice as long next. The blocks only bound the draws
# wasted past a droplet's first event: the walk is the same for any block
# sizes. Most default-arena droplets end within a few hundred steps: over
# 150 default recipes, doubling walked 7,868 steps per recipe for 4,254
# detections, against 11,512 with one second block for the rest of the walk.
FIRST_BLOCK = 256


def _words(values) -> list[int]:
    """The little-endian 32-bit words of each non-negative int in `values`,
    one int after another, as SeedSequence splits its entropy and spawn key."""
    words = []
    for value in values:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"seed words must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return words


def _seed_words(seed: np.random.SeedSequence) -> list[int]:
    """The first words of the entropy SeedSequence assembles for any child
    key of `seed`: its entropy's words, zero-padded to the pool size, then
    those of its spawn key."""
    entropy = seed.entropy
    entropy = _words([entropy] if isinstance(entropy, (int, np.integer)) else entropy)
    return entropy + [0] * (seed.pool_size - len(entropy)) + _words(seed.spawn_key)


def _stream(words: list) -> np.random.Generator:
    """The generator of SeedSequence(words) for a list of uint32 words."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        np.array(words, dtype=np.uint32))))


def droplet_stream(seed: np.random.SeedSequence, lineage: tuple,
                   stream: int) -> np.random.Generator:
    """Stream `stream` (TURN or SPLIT) of the droplet with this lineage in
    the replicate seeded by `seed`: child `stream` of
    SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, *lineage)).

    The stream is built from one uint32 array and no spawn key, the words
    _seed_words(seed) followed by those of the lineage and `stream`: NumPy
    assembles a spawned SeedSequence's entropy in exactly this order, so
    the pool, and every draw, is the same as the spawned sequence's."""
    return _stream(_seed_words(seed) + _words((*lineage, stream)))


def simulate(f: Formulation, cfg: ArenaConfig, seed,
             behavior: BehaviorParams | None = None) -> DetectionRecord:
    """Run the correlated random walk and record every frame's detections.

    `seed` is one replicate's SeedSequence, or a sequence of them to simulate
    those replicates in one pass. With F = cfg.total_frames, replicate r's
    frame t is then frame r * (F + 1) + t of the record: the replicates
    follow one another in seed order, each but the last followed by one
    empty frame, so a record of R replicates holds R * (F + 1) - 1 frames
    and nothing tracks across replicates. One seed gives the record of that
    replicate alone, and each replicate of a pass is the same as its own.

    Each step a live droplet turns by turn_noise * N(0, 1), moves `speed`
    along its new heading and loses `shrink_rate` of area, so a droplet born
    with area a has area a - shrink_rate * k after k steps. Then, in this
    order: a droplet with area <= 0 disappears; a droplet whose new position
    touches the wall (|p| >= arena_radius) dies there, so it has no
    detection from that frame on and does not split; a droplet with area >=
    MIN_SPLIT_AREA splits when its uniform draw is below split_probability.
    A split replaces the droplet by two children, each with half its area
    and its heading, 1 px to its left (child 0) and right (child 1); a child
    born on or beyond the wall dies at birth. ArenaConfig keeps every
    injection inside the wall, so no detection lies on or beyond it.

    RNG contract v2: every droplet draws from its own streams,
    droplet_stream(seed, lineage, TURN) and (..., SPLIT), where `seed` is its
    replicate's SeedSequence and `lineage` is the droplet's injection index
    followed by its child number at each split. An injected droplet's TURN
    stream first gives its heading, uniform on [0, 2 pi); after that the
    k-th normal of TURN and the k-th uniform of SPLIT belong to the
    droplet's k-th step; SPLIT is drawn only while split_probability > 0
    and the droplet's area is at least MIN_SPLIT_AREA. A droplet's walk
    therefore depends only on its own streams. The detections of a frame
    are ordered by lineage, which is the order splits in place give.

    The walk is event-driven and runs in lockstep: the droplets born in one
    frame, of every replicate of the pass, are walked together, each drawing
    its steps from its own streams in blocks (one row per droplet), taking
    its headings, positions and areas as running sums along its row, and
    stopping at its first event (disappearance, wall contact or split);
    children are walked the same way from their birth frame.
    """
    seeds = [seed] if isinstance(seed, np.random.SeedSequence) else list(seed)
    if not seeds:
        raise ValueError("simulate needs at least one seed")
    b = behavior if behavior is not None else behavior_from_formulation(f)
    frames = cfg.total_frames
    words = [_seed_words(s) for s in seeds]  # each replicate's, computed once
    keys = []  # (replicate, lineage) of each droplet walked, by walk number
    runs = []
    # birth frame -> [(replicate, lineage, x, y, heading or None, area)] of
    # the droplets to walk
    born = {0: [(r, (i,), x, y, None, INITIAL_DROPLET_AREA)
                for r in range(len(seeds)) for i, (x, y) in enumerate(cfg.injection_positions)]}
    while born:
        t0 = min(born)
        group = born.pop(t0)
        group_runs, children = _walk(b, words, cfg.arena_radius * cfg.arena_radius, frames,
                                     t0, group, len(keys))
        keys.extend(d[:2] for d in group)
        runs += group_runs
        for t, child in children:
            born.setdefault(t, []).append(child)
    droplet, first, length, x, y, area = (np.concatenate(c) for c in zip(*runs))
    first += (frames + 1) * np.array([k[0] for k in keys], dtype=np.int64)[droplet]
    frame = np.arange(len(x)) - np.repeat(np.cumsum(length) - length - first, length)
    # Frames list their detections in lineage order. Each run is sorted by
    # frame already, which the stable sort (a merge of sorted runs) exploits.
    rank = np.empty(len(keys), dtype=np.int64)
    rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    order = np.argsort(frame * len(keys) + np.repeat(rank[droplet], length), kind="stable")
    counts = np.bincount(frame, minlength=len(seeds) * (frames + 1) - 1)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return DetectionRecord(offsets, x[order], y[order], area[order])


def _walk(b: BehaviorParams, words: list, r2: float, frames: int, t0: int, group: list,
          first_id: int) -> tuple:
    """Walk the droplets born in frame t0 of their replicates in lockstep,
    one row each. `group` holds their (replicate, lineage, x, y, heading or
    None, area), a replicate being an index into `words`, which holds each
    replicate's _seed_words; their walk numbers count from first_id. Returns
    their runs of detections, each one droplet's detections in consecutive
    frames as (walk numbers, first frame in its replicate, lengths, x, y,
    area), and the (birth frame, droplet to walk) of every child their
    splits leave inside the wall."""
    ids = np.arange(first_id, first_id + len(group))
    # droplet_stream's words: lineage elements and streams are below 2**32,
    # one word each.
    turn = [_stream([*words[d[0]], *d[1], TURN]) for d in group]
    split = [None] * len(group)
    x, y, a0 = (np.array([d[c] for d in group], dtype=float) for c in (2, 3, 5))
    h = np.array([t.uniform(0.0, 2.0 * math.pi) if d[4] is None else d[4]
                  for t, d in zip(turn, group)])
    a = a0.copy()
    rows = np.arange(len(group))  # the droplets still walking
    steps = frames - 1 - t0
    runs, children = [], []
    k, block = 0, FIRST_BLOCK
    while k < steps and len(rows):
        m = min(block, steps - k)
        block *= 2
        ab = a0[rows, None] - b.shrink_rate * np.arange(k, k + m + 1)
        hb = np.empty((len(rows), m + 1))
        hb[:, 0] = h[rows]
        # u holds the SPLIT draws of the rows that can split, and 1 (no
        # split) for the others.
        u = np.ones((len(rows), m)) if b.split_probability > 0 else None
        can = (ab[:, 1] >= MIN_SPLIT_AREA).tolist()
        for row, r in enumerate(rows.tolist()):
            turn[r].standard_normal(out=hb[row, 1:])
            if u is not None and can[row]:
                if split[r] is None:
                    split[r] = _stream([*words[group[r][0]], *group[r][1], SPLIT])
                split[r].random(out=u[row])
        hb[:, 1:] *= b.turn_noise
        hb = np.cumsum(hb, axis=1)
        xb = np.empty_like(hb)
        yb = np.empty_like(hb)
        xb[:, 0], yb[:, 0] = x[rows], y[rows]
        xb[:, 1:] = b.speed * np.cos(hb[:, 1:])
        yb[:, 1:] = b.speed * np.sin(hb[:, 1:])
        xb = np.cumsum(xb, axis=1)
        yb = np.cumsum(yb, axis=1)
        stop = (xb[:, 1:] * xb[:, 1:] + yb[:, 1:] * yb[:, 1:] >= r2) | (ab[:, 1:] <= 0)
        if u is not None:
            stop |= (u < b.split_probability) & (ab[:, 1:] >= MIN_SPLIT_AREA)
        event = stop.any(axis=1)
        n = np.where(event, stop.argmax(axis=1) + 1, m)
        kept = np.arange(m) < n[:, None]
        runs.append((ids[rows], np.full(len(rows), t0 + k), n,
                     xb[:, :m][kept], yb[:, :m][kept], ab[:, :m][kept]))
        at = (np.arange(len(rows)), n)
        x[rows], y[rows], h[rows], a[rows] = xb[at], yb[at], hb[at], ab[at]
        for r, steps_taken in zip(rows[event].tolist(), n[event].tolist()):
            cx, cy, ch, ca = float(x[r]), float(y[r]), float(h[r]), float(a[r])
            if ca <= 0 or cx * cx + cy * cy >= r2:
                continue
            px, py = -math.sin(ch), math.cos(ch)
            replicate, lineage = group[r][:2]
            for child, sign in ((0, 1.0), (1, -1.0)):
                bx, by = cx + sign * px, cy + sign * py
                if bx * bx + by * by < r2:
                    children.append((t0 + k + steps_taken,
                                     (replicate, (*lineage, child), bx, by, ch, ca / 2.0)))
        rows = rows[~event]
        k += m
    # the state at the last frame of the droplets that walked to it
    runs.append((ids[rows], np.full(len(rows), frames - 1), np.ones_like(rows),
                 x[rows], y[rows], a[rows]))
    return runs, children


ANALYTIC_ARENA_SHRINK = 0.95


def filter_analytic_arena(rec: DetectionRecord, arena_radius: float) -> DetectionRecord:
    """Drop detections outside the analytic arena, the open disc of radius
    ANALYTIC_ARENA_SHRINK * arena_radius; the kept ones stay in their frame
    and order. Wall death is `simulate`'s job: it emits no detection on or
    beyond the wall."""
    r = ANALYTIC_ARENA_SHRINK * arena_radius
    keep = rec.x * rec.x + rec.y * rec.y < r * r
    offsets = np.concatenate(([0], np.cumsum(keep)))[rec.offsets]
    return DetectionRecord(offsets, rec.x[keep], rec.y[keep], rec.area[keep])
