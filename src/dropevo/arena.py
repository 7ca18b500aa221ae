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

import csv
import io
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
        if self.speed < 0:
            raise ValueError("speed must be >= 0")
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


@dataclass
class _Droplet:
    x: float
    y: float
    heading: float
    area: float
    frozen: bool = False


def simulate(f: Formulation, cfg: ArenaConfig, rng: np.random.Generator,
             behavior: BehaviorParams | None = None) -> DetectionRecord:
    """Run the correlated random walk and record every frame's detections.

    Droplets touching the arena wall freeze in place ("dead") but are still
    emitted; downstream analytic-arena filtering removes them. Droplets whose
    area reaches zero disappear. A split halves the parent's area between two
    children displaced 1 px to either side, perpendicular to the heading.

    RNG contract: one uniform heading per injection, then, per frame and per
    live (not frozen) droplet in list order, one normal heading change
    followed by one uniform only when the droplet can split. Frozen droplets
    draw nothing and never change, so once no droplet is live the remaining
    frames repeat the last one and the walk stops early.
    """
    if behavior is None:
        behavior = behavior_from_formulation(f)
    b = behavior
    droplets = [
        _Droplet(x=float(x), y=float(y),
                 heading=float(rng.uniform(0.0, 2.0 * math.pi)),
                 area=float(cfg.initial_droplet_area))
        for x, y in cfg.injection_positions
    ]
    r2 = cfg.arena_radius ** 2
    xs, ys, areas, counts = [], [], [], [0]
    live = len(droplets)
    for t in range(cfg.total_frames):
        xs += [d.x for d in droplets]
        ys += [d.y for d in droplets]
        areas += [d.area for d in droplets]
        counts.append(len(droplets))
        if not live or t == cfg.total_frames - 1:
            break
        new_droplets = []
        live = 0
        for d in droplets:
            if not d.frozen:
                d.heading += rng.normal(0.0, b.turn_noise)
                nx = d.x + b.speed * math.cos(d.heading)
                ny = d.y + b.speed * math.sin(d.heading)
                if nx * nx + ny * ny >= r2:
                    d.frozen = True  # wall contact: dead, stays in place
                else:
                    d.x, d.y = nx, ny
                d.area -= b.shrink_rate
                if d.area <= 0:
                    continue
                if (d.area >= MIN_SPLIT_AREA and b.split_probability > 0
                        and rng.random() < b.split_probability):
                    half = d.area / 2.0
                    px = -math.sin(d.heading)
                    py = math.cos(d.heading)
                    for sign in (1.0, -1.0):
                        cx, cy = d.x + sign * px, d.y + sign * py
                        if cx * cx + cy * cy < r2:
                            new_droplets.append(_Droplet(
                                x=cx, y=cy, heading=d.heading, area=half))
                            live += 1
                        else:
                            child = _Droplet(x=d.x, y=d.y, heading=d.heading,
                                             area=half, frozen=True)
                            new_droplets.append(child)
                    continue
                live += not d.frozen
            new_droplets.append(d)
        droplets = new_droplets
    # Every droplet is frozen or gone: the remaining frames repeat the last.
    rest = cfg.total_frames - (len(counts) - 1)
    counts.extend([counts[-1]] * rest)
    k = counts[-1]
    cols = []
    for values in (xs, ys, areas):
        col = np.array(values, dtype=float)
        cols.append(np.concatenate((col, np.tile(col[len(col) - k:], rest))))
    return DetectionRecord(np.cumsum(counts), *cols)


def filter_analytic_arena(frames, arena_radius: float,
                          shrink: float = 0.95) -> DetectionRecord:
    """Drop detections outside the analytic arena (wall-dead droplets).

    Takes a DetectionRecord or a list of DetectionFrames; the kept detections
    stay in their frame and order."""
    rec = DetectionRecord.of(frames)
    r2 = (shrink * arena_radius) ** 2
    # float_power squares through libm pow, as Python's x ** 2 does; x * x
    # rounds differently for about one value in a thousand.
    keep = np.float_power(rec.x, 2) + np.float_power(rec.y, 2) < r2
    frame_of = np.repeat(np.arange(len(rec)), np.diff(rec.offsets))
    counts = np.bincount(frame_of[keep], minlength=len(rec))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return DetectionRecord(offsets, rec.x[keep], rec.y[keep], rec.area[keep])


def detections_to_csv(frames) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["frame", "x", "y", "area"])
    for fr in frames:
        for x, y, area in fr.detections:
            w.writerow([fr.frame_index, repr(x), repr(y), repr(area)])
    return buf.getvalue()


def detections_from_csv(text: str) -> list[DetectionFrame]:
    by_frame: dict[int, list] = {}
    max_frame = -1
    for row in csv.DictReader(io.StringIO(text)):
        t = int(row["frame"])
        max_frame = max(max_frame, t)
        by_frame.setdefault(t, []).append(
            (float(row["x"]), float(row["y"]), float(row["area"])))
    return [DetectionFrame(t, tuple(by_frame.get(t, ()))) for t in range(max_frame + 1)]
