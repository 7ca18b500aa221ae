"""Recipe representation: 4-locus genomes, simplex formulations and oil data.

A genome holds GENOME_LENGTH = 4 raw quantitative trait loci in [0, 1]. It
only becomes a recipe (a Formulation, a point on the 4-component unit simplex)
when it is normalized at phenotype time; genetic operators act on the raw
loci. oils.json is parsed once per process.

The module is pure Python, so the G-code commands that use it load no numpy.
A four-component total is ((a + b) + c) + d, the bits of numpy's sum of a
4-element float64 array (builtin sum() compensates from Python 3.12 on).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache
from importlib import resources

GENOME_LENGTH = 4
WELL_TOTAL_UL = 360.0

# Fixed component order in every serialized formulation. The paper's
# alternative fourth oil, dodecane, is in the table for oils_for_order.
DEFAULT_OIL_ORDER = ("1-octanol", "1-pentanol", "DEP", "octanoic acid")


class FormulationError(ValueError):
    pass


def check_number(name: str, value, minimum=None, *, integer=False, strict=False):
    """`value`; ValueError unless it (any JSON value) is a finite number, not
    a bool, an integer if `integer`, and >= minimum (> if `strict`). An
    integer that does not convert to a float counts as not finite."""
    try:
        ok = (isinstance(value, numbers.Integral if integer else numbers.Real)
              and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an integer too large to convert to a float
        ok = False
    if ok and minimum is not None:
        ok = value > minimum if strict else value >= minimum
    if not ok:
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
        raise ValueError(f"{name} must be {'a finite integer' if integer else 'a finite number'}"
                         f"{bound}, got {value!r}")
    return value


def check_vector(name: str, values, length: int) -> tuple:
    """`values` as a tuple; ValueError unless it is a list or tuple of
    `length` finite numbers."""
    if not (isinstance(values, (list, tuple)) and len(values) == length):
        raise ValueError(f"{name} must be {length} numbers, got {values!r}")
    for value in values:
        check_number(name, value)
    return tuple(values)


@dataclass(frozen=True)
class OilProperties:
    """One row of the oil property table.

    solubility is g/L in water; None marks an insoluble oil (treated as
    0 g/L in simulator arithmetic).
    """

    name: str
    density: float
    solubility: float | None
    surface_tension: float
    viscosity: float

    def __post_init__(self):
        for field in ("density", "surface_tension", "viscosity"):
            if getattr(self, field) <= 0:
                raise FormulationError(f"{self.name}: {field} must be positive")
        if self.solubility is not None and self.solubility <= 0:
            raise FormulationError(f"{self.name}: solubility must be positive or None")

    @property
    def effective_solubility(self) -> float:
        return 0.0 if self.solubility is None else self.solubility


@cache
def _oils() -> tuple[OilProperties, ...]:
    raw = json.loads(resources.files("dropevo.data").joinpath("oils.json").read_text())
    return tuple(OilProperties(**row) for row in raw["oils"])


def oil_lookup(name: str) -> OilProperties:
    for oil in _oils():
        if oil.name == name:
            return oil
    raise KeyError(name)


def oils_for_order(order: tuple[str, ...] = DEFAULT_OIL_ORDER) -> list[OilProperties]:
    """The four OilProperties rows in serialization order."""
    return [oil_lookup(name) for name in order]


def _total(p: list) -> float:
    """((p[0] + p[1]) + p[2]) + p[3]."""
    return ((p[0] + p[1]) + p[2]) + p[3]


@dataclass(frozen=True)
class Formulation:
    """A point on the 4-component unit simplex: the proportion of each oil."""

    proportions: tuple[float, float, float, float]

    def __post_init__(self):
        p = [float(v) for v in self.proportions]
        if len(p) != GENOME_LENGTH:
            raise FormulationError(f"expected {GENOME_LENGTH} proportions, got {len(p)}")
        if not all(0.0 <= v <= 1.0 for v in p):   # also rejects NaN
            raise FormulationError(f"proportions must lie in [0, 1], got {p}")
        total = _total(p)
        if abs(total - 1.0) > 1e-12:
            raise FormulationError(f"proportions sum to {total!r}, not 1")


def normalize(raw) -> Formulation:
    """Scale four nonnegative components so they sum to 1.

    Raises FormulationError if every component is 0, or if any is
    negative, NaN or infinite.
    """
    r = [float(v) for v in raw]
    if len(r) != GENOME_LENGTH:
        raise FormulationError(f"expected {GENOME_LENGTH} components, got {len(r)}")
    if not all(math.isfinite(v) for v in r):
        raise FormulationError(f"non-finite component in {r}")
    if any(v < 0 for v in r):
        raise FormulationError(f"negative component in {r}")
    total = _total(r)
    if math.isinf(total):  # the finite parts' sum overflowed; x * 0.25 is exact for normal x
        r = [v * 0.25 for v in r]
        total = _total(r)
    if total == 0:
        raise FormulationError("all components are zero")
    # Inputs already on the simplex (to within a few ulps) pass through
    # unchanged; dividing by a total this close to 1 could only churn the
    # last bit, and passing through makes normalize exactly idempotent.
    if abs(total - 1.0) <= 16 * sys.float_info.epsilon:
        return Formulation(tuple(r))
    return Formulation(tuple(v / total for v in r))


def well_volumes(f: Formulation) -> tuple:
    """Per-oil volumes (uL) for a mixing well holding WELL_TOTAL_UL."""
    return tuple(float(v) * WELL_TOTAL_UL for v in f.proportions)
