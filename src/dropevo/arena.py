"""Synthetic droplet arena: a deterministic stand-in for the wet experiment.

Maps an oil formulation to per-frame droplet detections via a correlated
random walk with splitting, shrinking, and wall death. The formulation ->
behaviour map is an explicitly invented affine model driven by the measured
oil properties (solubility drives speed, inverse viscosity drives turning,
surface-tension deficit drives splitting); its constants are module-level and
documented so the ground truth of the landscape is auditable.

An experiment's detections travel as one columnar `DetectionRecord`: frame
offsets plus flat float64 x, y and area arrays. Iterating a record yields one
`DetectionFrame` per frame for callers that want tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .formulation import (Formulation, OilProperties, check_number, check_vector,
                          oils_for_order)


@dataclass(frozen=True)
class ArenaConfig:
    frame_rate: float = 30.0          # Hz; the CV pipeline's native rate
    duration: float = 60.0            # s
    arena_radius: float = 200.0       # px
    injection_count: int = 4
    injection_positions: tuple = ((-60.0, -60.0), (60.0, -60.0),
                                  (-60.0, 60.0), (60.0, 60.0))
    initial_droplet_area: float = 400.0   # px^2

    def __post_init__(self):
        for name in ("frame_rate", "duration", "arena_radius", "initial_droplet_area"):
            check_number(name, getattr(self, name), 0, strict=True)
        if not math.isfinite(self.frame_rate * self.duration) or self.total_frames < 2:
            raise ValueError("frame_rate * duration must give at least 2 frames")
        check_number("injection_count", self.injection_count, 0, integer=True)
        positions = self.injection_positions
        if not (isinstance(positions, (list, tuple)) and len(positions) == self.injection_count):
            raise ValueError(f"injection_positions must hold injection_count = "
                             f"{self.injection_count} [x, y] pairs, got {positions!r}")
        object.__setattr__(self, "injection_positions", tuple(
            check_vector("injection_positions item", xy, 2) for xy in positions))
        try:
            r2 = self.arena_radius ** 2  # as simulate squares it
        except OverflowError:
            raise ValueError(f"arena_radius = {self.arena_radius} is too large") from None
        for x, y in self.injection_positions:
            if x * x + y * y >= r2:
                raise ValueError(f"injection_positions item {[x, y]} must lie inside "
                                 f"arena_radius = {self.arena_radius}")

    @property
    def total_frames(self) -> int:
        return int(round(self.frame_rate * self.duration))


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

    @classmethod
    def of(cls, frames) -> DetectionRecord:
        """The record itself, or the record of a list of DetectionFrames
        numbered 0, 1, 2, ..."""
        if isinstance(frames, cls):
            return frames
        counts = [0]
        cols = []
        for t, fr in enumerate(frames):
            if fr.frame_index != t:
                raise ValueError(f"frame {t} has frame_index {fr.frame_index}")
            counts.append(len(fr.detections))
            cols.extend(fr.detections)
        x, y, area = np.array(cols, dtype=float).reshape(-1, 3).T
        return cls(np.cumsum(counts), x, y, area)

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
    p = f.as_array()
    solubility = float(np.dot(p, [o.effective_solubility for o in oils]))
    inv_viscosity = float(np.dot(p, [1.0 / o.viscosity for o in oils]))
    tension = float(np.dot(p, [o.surface_tension for o in oils]))
    deficit = max(0.0, SURFACE_TENSION_REF - tension)
    return BehaviorParams(
        speed=SPEED_FLOOR + SPEED_PER_SOLUBILITY * solubility,
        turn_noise=TURN_PER_INV_VISCOSITY * inv_viscosity,
        split_probability=min(1.0, SPLIT_PER_DEFICIT * deficit),
        shrink_rate=SHRINK_PER_SOLUBILITY * solubility,
    )


def unimodal_behavior_map(optimum, width: float = 0.35, peak_speed: float = 5.0):
    """A behaviour map with a single speed peak at `optimum` on the simplex.

    Returns a callable usable in place of behavior_from_formulation; used for
    ground-truth landscape and GA efficacy checks.
    """
    opt = np.asarray(optimum, dtype=float)

    def _map(f: Formulation, oils=None) -> BehaviorParams:
        d2 = float(np.sum((f.as_array() - opt) ** 2))
        speed = SPEED_FLOOR + peak_speed * math.exp(-d2 / (2.0 * width ** 2))
        return BehaviorParams(speed=speed, turn_noise=0.5,
                              split_probability=0.0, shrink_rate=0.0)

    return _map


# A droplet's two RNG streams: children TURN and SPLIT of its SeedSequence.
TURN, SPLIT = 0, 1
# Steps in a droplet's first block of draws; a droplet with no event in it
# draws the rest of its walk as a second block. The block only bounds the
# draws wasted past a droplet's first event: the walk is the same for any
# block size.
FIRST_BLOCK = 256


def droplet_stream(seed: np.random.SeedSequence, lineage: tuple,
                   stream: int) -> np.random.Generator:
    """Stream `stream` (TURN or SPLIT) of the droplet with this lineage in
    the replicate seeded by `seed`: child `stream` of
    SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, *lineage))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed.entropy, spawn_key=(*seed.spawn_key, *lineage, stream))))


def simulate(f: Formulation, cfg: ArenaConfig, seed: np.random.SeedSequence,
             behavior: BehaviorParams | None = None) -> DetectionRecord:
    """Run the correlated random walk and record every frame's detections.

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
    droplet_stream(seed, lineage, TURN) and (..., SPLIT), where `seed` is the
    replicate's SeedSequence and `lineage` is the droplet's injection index
    followed by its child number at each split. An injected droplet's TURN
    stream first gives its heading, uniform on [0, 2 pi); after that the
    k-th normal of TURN and the k-th uniform of SPLIT belong to the
    droplet's k-th step; SPLIT is drawn only while split_probability > 0
    and the droplet's area is at least MIN_SPLIT_AREA. A droplet's walk
    therefore depends only on its own streams. The detections of a frame
    are ordered by lineage, which is the order splits in place give.

    The walk is event-driven: each droplet draws its steps in blocks, takes
    its headings, positions and areas as running sums, and stops at its
    first event (disappearance, wall contact or split); children are
    walked the same way from their birth frame.
    """
    b = behavior if behavior is not None else behavior_from_formulation(f)
    frames = cfg.total_frames
    r2 = cfg.arena_radius ** 2
    done = []  # (lineage, first frame, x, y, area) of each walk
    # (lineage, birth frame, x, y, heading or None, area) of each droplet to walk
    live = [((i,), 0, x, y, None, float(cfg.initial_droplet_area))
            for i, (x, y) in enumerate(cfg.injection_positions)]
    while live:
        lineage, t0, x, y, h, a0 = live.pop()
        turn = droplet_stream(seed, lineage, TURN)
        split = None
        if h is None:
            h = turn.uniform(0.0, 2.0 * math.pi)
        xs, ys, areas = [], [], []
        steps = frames - 1 - t0
        k, a, block, event = 0, a0, FIRST_BLOCK, False
        while k < steps and not event:
            m = min(block, steps - k)
            block = steps  # after the first block, draw the rest at once
            hb = np.cumsum(np.concatenate(([h], b.turn_noise * turn.standard_normal(m))))
            xb = np.cumsum(np.concatenate(([x], b.speed * np.cos(hb[1:]))))
            yb = np.cumsum(np.concatenate(([y], b.speed * np.sin(hb[1:]))))
            ab = a0 - b.shrink_rate * np.arange(k, k + m + 1)
            stop = (xb[1:] * xb[1:] + yb[1:] * yb[1:] >= r2) | (ab[1:] <= 0)
            if b.split_probability > 0 and ab[1] >= MIN_SPLIT_AREA:
                if split is None:
                    split = droplet_stream(seed, lineage, SPLIT)
                stop |= (split.random(m) < b.split_probability) & (ab[1:] >= MIN_SPLIT_AREA)
            hits = np.flatnonzero(stop)
            event = hits.size > 0
            n = int(hits[0]) + 1 if event else m
            xs.append(xb[:n])
            ys.append(yb[:n])
            areas.append(ab[:n])
            x, y, h, a = float(xb[n]), float(yb[n]), float(hb[n]), float(ab[n])
            k += n
        if not event:  # the droplet's state at the last frame
            xs.append([x])
            ys.append([y])
            areas.append([a])
        done.append((lineage, t0, np.concatenate(xs), np.concatenate(ys),
                     np.concatenate(areas)))
        if not event or a <= 0 or x * x + y * y >= r2:
            continue
        px, py = -math.sin(h), math.cos(h)
        for child, sign in ((0, 1.0), (1, -1.0)):
            cx, cy = x + sign * px, y + sign * py
            if cx * cx + cy * cy < r2:
                live.append(((*lineage, child), t0 + k, cx, cy, h, a / 2.0))
    if not done:
        empty = np.zeros(0)
        return DetectionRecord(np.zeros(frames + 1, dtype=np.int64), empty, empty, empty)
    done.sort(key=lambda d: d[0])
    lengths = np.array([len(d[2]) for d in done])
    first_row = np.cumsum(lengths) - lengths
    frame = np.arange(lengths.sum()) - np.repeat(first_row - [d[1] for d in done], lengths)
    # Rows are grouped by lineage; a stable sort on frame keeps lineage
    # order within each frame.
    order = np.argsort(frame, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(frame, minlength=frames))))
    return DetectionRecord(offsets, *(np.concatenate([d[c] for d in done])[order]
                                      for c in (2, 3, 4)))


def filter_analytic_arena(frames, arena_radius: float,
                          shrink: float = 0.95) -> DetectionRecord:
    """Drop detections outside the analytic arena, the open disc of radius
    shrink * arena_radius. Wall death is not the filter's job: `simulate`
    emits no detection on or beyond the wall.

    Takes a DetectionRecord or a list of DetectionFrames; the kept detections
    stay in their frame and order."""
    rec = DetectionRecord.of(frames)
    r2 = (shrink * arena_radius) ** 2
    # The test is x ** 2 + y ** 2 < r2, squared through libm pow as Python's
    # x ** 2 does. x * x differs from pow(x, 2) by at most an ulp (for about
    # one value in a thousand), so pow decides only the sums within a hair
    # of r2.
    q = rec.x * rec.x + rec.y * rec.y
    keep = q < r2
    near = np.flatnonzero(np.abs(q - r2) <= 1e-9 * r2)
    keep[near] = np.float_power(rec.x[near], 2) + np.float_power(rec.y[near], 2) < r2
    offsets = np.concatenate(([0], np.cumsum(keep)))[rec.offsets]
    return DetectionRecord(offsets, rec.x[keep], rec.y[keep], rec.area[keep])
