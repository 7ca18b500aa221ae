"""Robot controller layer: line emitters and compilers that write G-code,
the pump instruction dialect, and a virtual firmware that executes programs
against modeled pumps, syringes and vessels.

Dialect (one instruction per line, '#' starts a comment):

    G1 X<mm> Y<mm>            carriage move, coordinates quantized to 0.1 mm
    M10 S<id> / M11 S<id>     lower / raise carriage syringe <id>
    M12 S<id> V<uL>           actuate syringe plunger: aspirate V
    M13 S<id> V<uL>           actuate syringe plunger: dispense V
    M15 / M16                 stirrer on / off
    P<p> M<m> D<d> S<a> E<b>  pump dialect: pump p in [0..6], motor m in
                              {0 plunger, 1 valve}, direction d in {0, 1},
                              a ms between steps, b steps, b <= 50000

The M-codes above are conventions of this virtual robot, documented here;
the pump dialect is the controller's native instruction format. Pump
calibration is 1 step = 0.1 uL for 5 mL syringes and 0.02 uL for 1 mL
syringes, so 50000 steps is one full barrel either way.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field

from .formulation import (DEFAULT_OIL_ORDER, Formulation, check_number, check_vector,
                          well_volumes)

PUMP_MAX_STEPS = 50000
PUMP_IDS = range(7)
# Names that compiled programs and the firmware look up in a layout.
LAYOUT_LOCATIONS = ("mixing_well", "dish_center", "drop_1", "drop_2", "drop_3", "drop_4",
                    "waste")
LAYOUT_APPARATUS = ("syringe", "pump_tube")
COORD_STEP_MM = 0.1
CARRIAGE_MS_PER_MM = 10.0
SERVO_ACTION_MS = 300.0
SYRINGE_CAPACITY_UL = 100.0       # carriage servo syringe (Hamilton 100 uL)
APPARATUS_TOLERANCE_MM = 0.5
VALVE_TURN_STEPS = 100
VALVE_SPEED_MS = 5
PUMP_SPEED_MS = 2

EXPERIMENT_ASPIRATE_UL = 80.0
DROPLET_UL = 5.0
ACETONE_WASHES_ML = (4.0, 4.0, 3.0)
AQUEOUS_WASHES_ML = (1.5, 1.5, 1.0)
NEEDLE_DIP_UL = 50.0
DRAIN_DISPLACEMENT_ML = 4.6       # per drain stroke; covers wash + residue
DISH_AQUEOUS_RETAINED_UL = 100.0  # drain dead volume, aqueous phase only


class GcodeError(ValueError):
    """A stage, compile or parse error, so a data error to the command line;
    a known `line_no` prefixes the message as 'line N: '."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class StateFault(GcodeError):
    def __init__(self, message, pc):
        super().__init__(f"instruction {pc}: {message}")


# ---------------------------------------------------------------------------
# Pump dialect

@dataclass(frozen=True)
class PumpInstruction:
    pump: int        # X in [0..6]
    motor: int       # Y in {0 plunger, 1 valve}
    direction: int   # Z in {0, 1}
    speed_ms: int    # A, ms between steps
    steps: int       # B in [0..50000]

    def __post_init__(self):
        for fld, value, ok, msg in (
                ("X", self.pump, self.pump in PUMP_IDS, "valid pumps are 0..6"),
                ("Y", self.motor, self.motor in (0, 1), "motor select is 0 or 1"),
                ("Z", self.direction, self.direction in (0, 1), "direction is 0 or 1"),
                ("A", self.speed_ms, self.speed_ms > 0, "speed must be > 0 ms"),
                ("B", self.steps, 0 <= self.steps <= PUMP_MAX_STEPS,
                 f"steps limited to {PUMP_MAX_STEPS}")):
            if not ok:
                raise GcodeError(f"{fld}={value}: {msg}")

    def serialize(self) -> str:
        return f"P{self.pump} M{self.motor} D{self.direction} S{self.speed_ms} E{self.steps}"


_PUMP_RE = re.compile(r"^P(-?\d+) M(-?\d+) D(-?\d+) S(-?\d+) E(-?\d+)$")


def parse_pump_line(line: str, line_no: int) -> PumpInstruction:
    """Parse one 'PX MY DZ SA EB' line, line `line_no` of its program;
    tokens are required, in order."""
    m = _PUMP_RE.match(line.strip())
    if not m:
        raise GcodeError(f"expected 'PX MY DZ SA EB', got {line.strip()!r}", line_no)
    try:
        return PumpInstruction(*(int(g) for g in m.groups()))
    except GcodeError as exc:
        raise GcodeError(str(exc), line_no) from None


# ---------------------------------------------------------------------------
# Stage layout

@dataclass(frozen=True)
class StageLayout:
    """Geometry and plumbing of the virtual robot.

    locations: named XY points in mm. location_vessel maps each location to
    the vessel a lowered needle reaches there. apparatus_offsets shift the
    carriage so a given tool ends up over the target. pump_ports gives, per
    pump, what each valve port connects to ('carriage' means the tubing
    outlet on the X-Y carriage).
    """

    bounds_mm: tuple = (500.0, 400.0)
    locations: dict = field(default_factory=dict)
    location_vessel: dict = field(default_factory=dict)
    apparatus_offsets: dict = field(default_factory=dict)
    pump_ports: dict = field(default_factory=dict)      # pump -> {0: ..., 1: ...}
    pump_syringe_ml: dict = field(default_factory=dict)
    vessel_initial_ul: dict = field(default_factory=dict)  # vessel -> {liquid: uL}
    vessel_retained_ul: dict = field(default_factory=dict)  # vessel -> {liquid: uL}

    def on_stage(self, x: float, y: float) -> bool:
        xmax, ymax = self.bounds_mm
        return 0.0 <= x <= xmax and 0.0 <= y <= ymax

    def pump_calibration_ul_per_step(self, pump: int) -> float:
        barrel_ml = self.pump_syringe_ml[pump]
        return barrel_ml * 1000.0 / PUMP_MAX_STEPS

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StageLayout":
        """Inverse of to_json; GcodeError names the field of a malformed layout
        (a port target or location vessel that is not a string, a vessel
        amount that is not a finite number >= 0, ...), or of one that lacks
        a name that programs or the firmware use: a location or apparatus of
        LAYOUT_LOCATIONS and LAYOUT_APPARATUS, the ports and barrel of each
        pump, the vessel of each location, or the initial contents of a
        vessel that a location or pump port names; or of one that puts a
        location off the stage."""
        def string(value):
            if not isinstance(value, str):
                raise ValueError(f"{value!r} is not a name")
            return value

        points = lambda v: {k: check_vector(f"point {k!r}", p, 2) for k, p in v.items()}
        amounts = lambda v: {vessel: {liquid: check_number(f"{vessel!r} {liquid!r} uL", ul, 0)
                                      for liquid, ul in contents.items()}
                             for vessel, contents in v.items()}
        convert = {
            "bounds_mm": lambda v: check_vector("bounds", v, 2),
            "locations": points, "apparatus_offsets": points,
            "pump_ports": lambda v: {int(k): {int(p): string(n) for p, n in ports.items()}
                                     for k, ports in v.items()},
            "pump_syringe_ml": lambda v: {int(k): check_number("barrel mL", ml, 0, strict=True)
                                          for k, ml in v.items()},
            "location_vessel": lambda v: {k: string(n) for k, n in v.items()},
            "vessel_initial_ul": amounts, "vessel_retained_ul": amounts,
        }
        required = {"bounds_mm", "locations", "apparatus_offsets", "pump_ports",
                    "pump_syringe_ml"}
        name = "file"
        try:
            d = json.loads(text)
            if not isinstance(d, dict):
                raise ValueError("top level must be an object")
            missing = sorted(required - d.keys())
            unknown = sorted(d.keys() - cls.__dataclass_fields__.keys())
            if missing or unknown:
                raise ValueError(f"missing fields {missing}, unknown fields {unknown}")
            for name, check in convert.items():
                d[name] = check(d.get(name, {}))
            ports = d["pump_ports"]
            port_vessels = {v for pp in ports.values() for v in pp.values() if v != "carriage"}
            needed = [  # (field, names it must hold, what it holds), checked in order
                ("locations", LAYOUT_LOCATIONS, d["locations"]),
                ("apparatus_offsets", LAYOUT_APPARATUS, d["apparatus_offsets"]),
                ("pump_ports", PUMP_IDS, ports),
                *((f"pump_ports {p}", (0, 1), ports[p]) for p in PUMP_IDS if p in ports),
                ("pump_syringe_ml", PUMP_IDS, d["pump_syringe_ml"]),
                ("location_vessel", d["locations"], d["location_vessel"]),
                ("vessel_initial_ul", {*d["location_vessel"].values(), *port_vessels},
                 d["vessel_initial_ul"]),
            ]
            for name, names, present in needed:
                missing = sorted(set(names) - set(present), key=str)
                if missing:
                    raise ValueError(f"missing {missing}")
            layout, name = cls(**d), "locations"
            off = [k for k, point in layout.locations.items() if not layout.on_stage(*point)]
            if off:
                raise ValueError(f"{off} outside stage bounds {layout.bounds_mm}")
        except (AttributeError, TypeError, ValueError) as exc:
            raise GcodeError(f"layout {name}: {exc}") from exc
        return layout


def default_layout() -> StageLayout:
    """Standard stage: mixing well at centre, dish with the four droplet
    points, waste dish, and seven pumps (0-3 oils, 4 aqueous, 5 acetone in,
    6 acetone out)."""
    oil_liquids = [f"oil:{name}" for name in DEFAULT_OIL_ORDER]
    locations = {
        "mixing_well": (250.0, 200.0),
        "dish_center": (120.0, 200.0),
        "drop_1": (105.0, 185.0),
        "drop_2": (135.0, 185.0),
        "drop_3": (105.0, 215.0),
        "drop_4": (135.0, 215.0),
        "waste": (400.0, 200.0),
    }
    location_vessel = {
        "mixing_well": "well",
        "dish_center": "dish",
        "drop_1": "dish", "drop_2": "dish", "drop_3": "dish", "drop_4": "dish",
        "waste": "waste",
    }
    pump_ports = {i: {0: f"bottle:{oil_liquids[i]}", 1: "carriage"} for i in range(4)}
    pump_ports[4] = {0: "bottle:aqueous", 1: "carriage"}
    pump_ports[5] = {0: "bottle:acetone", 1: "carriage"}
    pump_ports[6] = {0: "dish", 1: "waste"}
    vessels = {
        "well": {},
        "dish": {"aqueous": 3000.0},   # standing aqueous sub-phase
        "waste": {},
    }
    for liq in oil_liquids:
        vessels[f"bottle:{liq}"] = {liq: 200000.0}
    vessels["bottle:acetone"] = {"acetone": 500000.0}
    vessels["bottle:aqueous"] = {"aqueous": 500000.0}
    return StageLayout(
        locations=locations,
        location_vessel=location_vessel,
        apparatus_offsets={"syringe": (0.0, 0.0), "needle": (15.0, 0.0),
                           "pump_tube": (-20.0, 0.0)},
        pump_ports=pump_ports,
        pump_syringe_ml={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 5.0, 5: 5.0, 6: 5.0},
        vessel_initial_ul=vessels,
        vessel_retained_ul={"dish": {"aqueous": DISH_AQUEOUS_RETAINED_UL}},
    )


# ---------------------------------------------------------------------------
# Line emitters and compilers

def _quantize(v: float) -> float:
    return round(v / COORD_STEP_MM) * COORD_STEP_MM


def move(layout: StageLayout, x: float, y: float, apparatus: str = "syringe") -> list:
    """The carriage move that puts `apparatus` over (x, y) mm."""
    ox, oy = layout.apparatus_offsets[apparatus]
    x, y = _quantize(x - ox), _quantize(y - oy)
    if not layout.on_stage(x, y):
        raise GcodeError(f"carriage target ({x:.1f}, {y:.1f}) mm "
                         f"outside stage {layout.bounds_mm}")
    return [f"G1 X{x:.1f} Y{y:.1f}"]


def plunger(verb: str, volume_ul: float) -> list:
    """M12 ('aspirate') or M13 ('dispense') of `volume_ul` with syringe 0;
    no line for 0 uL."""
    code = {"aspirate": 12, "dispense": 13}[verb]
    return [f"M{code} S0 V{volume_ul:.1f}"] if volume_ul > 0 else []


def stroke(layout: StageLayout, pump: int, volume_ml: float, direction: int) -> list:
    """Pump `volume_ml` in one plunger stroke: direction 0 draws through the
    current valve port, 1 expels; no line for 0 steps."""
    steps = int(round(volume_ml * 1000.0 / layout.pump_calibration_ul_per_step(pump)))
    if steps > PUMP_MAX_STEPS:
        raise GcodeError(f"E={steps}: {volume_ml} mL exceeds one barrel stroke")
    if steps == 0:
        return []
    return [PumpInstruction(pump, 0, direction, PUMP_SPEED_MS, steps).serialize()]


def valve(pump: int, port: int) -> list:
    """Turn `pump`'s valve to `port`."""
    return [PumpInstruction(pump, 1, port, VALVE_SPEED_MS, VALVE_TURN_STEPS).serialize()]


def _transfer(layout: StageLayout, pump: int, volume_ml: float) -> list:
    """Draw `volume_ml` through valve port 0 and push it out through port 1;
    no lines, not even the valve turns, for a stroke of 0 steps."""
    draw = stroke(layout, pump, volume_ml, 0)
    return draw and [*valve(pump, 0), *draw, *valve(pump, 1), *stroke(layout, pump, volume_ml, 1)]


def _syringe_at(layout: StageLayout, point, *actions: str) -> list:
    """Move the syringe over `point`, lower it, do `actions`, raise it."""
    return [*move(layout, *point), "M10 S0", *actions, "M11 S0"]


def compile_experiment(f: Formulation, layout: StageLayout) -> str:
    """Mix one well per the formulation, stir, draw 80 uL and place four
    5 uL droplets, raising the syringe after each; leftover goes to waste."""
    at = layout.locations
    lines = move(layout, *at["mixing_well"], apparatus="pump_tube")
    for pump, vol in enumerate(well_volumes(f)):
        lines += _transfer(layout, pump, vol / 1000.0)
    lines += ["M15", "M16"]
    lines += _syringe_at(layout, at["mixing_well"], *plunger("aspirate", EXPERIMENT_ASPIRATE_UL))
    for k in range(1, 5):
        lines += _syringe_at(layout, at[f"drop_{k}"], *plunger("dispense", DROPLET_UL))
    leftover = EXPERIMENT_ASPIRATE_UL - 4 * DROPLET_UL
    lines += _syringe_at(layout, at["waste"], *plunger("dispense", leftover))
    return "".join(line + "\n" for line in lines)


def compile_cleaning_cycle(layout: StageLayout) -> str:
    """Acetone washes of 4, 4 and 3 mL (with a needle dip-and-actuate between
    washes 1-2 and 2-3), then aqueous washes of 1.5, 1.5 and 1 mL; the dish
    is drained to waste after every wash."""
    dish = layout.locations["dish_center"]
    washes = [(5, vol) for vol in ACETONE_WASHES_ML] + [(4, vol) for vol in AQUEOUS_WASHES_ML]
    lines = []
    for k, (pump, vol) in enumerate(washes):
        lines += move(layout, *dish, apparatus="pump_tube") + _transfer(layout, pump, vol)
        if k < 2:  # built in program order: a failing wash move is reported first
            lines += _syringe_at(layout, dish, *plunger("aspirate", NEEDLE_DIP_UL),
                                 *plunger("dispense", NEEDLE_DIP_UL))
        lines += _transfer(layout, 6, DRAIN_DISPLACEMENT_ML)
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Parsing full programs

_G1_RE = re.compile(r"^G1 X(-?\d+(?:\.\d+)?) Y(-?\d+(?:\.\d+)?)$")
_SERVO_RE = re.compile(r"^M1([0-3]) S(\d+)(?: V(\d+(?:\.\d+)?))?$")


@dataclass(frozen=True)
class ParsedLine:
    kind: str        # 'move' | 'lower' | 'raise' | 'aspirate' | 'dispense'
                     # | 'stir_on' | 'stir_off' | 'pump'
    args: tuple = ()


def parse_line(line: str, line_no: int) -> ParsedLine | None:
    """Parse line `line_no` of a program; None for blanks and comments."""
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    if body.startswith("P"):
        return ParsedLine("pump", (parse_pump_line(body, line_no),))
    if body in ("M15", "M16"):
        return ParsedLine("stir_on" if body == "M15" else "stir_off")
    m = _G1_RE.match(body)
    if m:
        return ParsedLine("move", (float(m.group(1)), float(m.group(2))))
    m = _SERVO_RE.match(body)
    if m:
        code, syringe = m.group(1), int(m.group(2))
        kind = {"0": "lower", "1": "raise", "2": "aspirate", "3": "dispense"}[code]
        if kind in ("aspirate", "dispense"):
            if m.group(3) is None:
                raise GcodeError(f"M1{code} requires a V volume", line_no)
            return ParsedLine(kind, (syringe, float(m.group(3))))
        if m.group(3) is not None:
            raise GcodeError(f"M1{code} takes no V argument", line_no)
        return ParsedLine(kind, (syringe,))
    raise GcodeError(f"unrecognized instruction {body!r}", line_no)


def parse_program(text: str) -> list[ParsedLine]:
    parsed = (parse_line(line, n) for n, line in enumerate(text.splitlines(), start=1))
    return [p for p in parsed if p is not None]


def check_program(text: str) -> list[str]:
    """Parser totality helper: list of positioned error strings, no raising."""
    errors = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            parse_line(line, line_no)
        except GcodeError as exc:
            errors.append(str(exc))
    return errors


# ---------------------------------------------------------------------------
# Virtual firmware

@dataclass
class SyringeState:
    contents: dict = field(default_factory=dict)   # liquid -> uL
    lowered: bool = False

    @property
    def volume_ul(self) -> float:
        return sum(self.contents.values())


@dataclass
class PumpState:
    position_steps: int = 0     # plunger travel = barrel displacement
    valve_port: int = 0
    contents: dict = field(default_factory=dict)


@dataclass
class VirtualState:
    carriage: tuple = (0.0, 0.0)
    syringes: dict = field(default_factory=lambda: {0: SyringeState()})
    pumps: dict = field(default_factory=lambda: {i: PumpState() for i in PUMP_IDS})
    vessels: dict = field(default_factory=dict)
    stirring: bool = False
    time_ms: float = 0.0

    @classmethod
    def initial(cls, layout: StageLayout) -> "VirtualState":
        return cls(vessels={name: dict(contents)
                            for name, contents in layout.vessel_initial_ul.items()})

    def total_liquid_ul(self) -> float:
        total = sum(sum(c.values()) for c in self.vessels.values())
        total += sum(s.volume_ul for s in self.syringes.values())
        total += sum(sum(p.contents.values()) for p in self.pumps.values())
        return total

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _mix_out(contents: dict, volume: float) -> dict:
    """Remove `volume` from a mixture proportionally; returns what was taken."""
    total = sum(contents.values())
    taken = {}
    if total <= 0 or volume <= 0:
        return taken
    frac = min(1.0, volume / total)
    for liq in list(contents):
        amount = contents[liq] * frac
        contents[liq] -= amount
        if contents[liq] <= 1e-12:
            del contents[liq]
        taken[liq] = amount
    return taken


def _mix_in(contents: dict, added: dict) -> None:
    for liq, amount in added.items():
        contents[liq] = contents.get(liq, 0.0) + amount


class VirtualRobot:
    """Deterministic interpreter for compiled programs."""

    def __init__(self, layout: StageLayout):
        self.layout = layout
        self.state = VirtualState.initial(self.layout)
        self.events: list[tuple] = []

    def _vessel_at_carriage(self, pc: int) -> str:
        cx, cy = self.state.carriage
        for name, (lx, ly) in self.layout.locations.items():
            for ox, oy in self.layout.apparatus_offsets.values():
                if math.hypot(cx + ox - lx, cy + oy - ly) <= APPARATUS_TOLERANCE_MM:
                    return self.layout.location_vessel[name]
        raise StateFault(f"no vessel at carriage position ({cx}, {cy})", pc)

    def _log(self, pc, event, vessel, delta_ul):
        self.events.append((self.state.time_ms, pc, event, vessel, delta_ul))

    def _draw(self, pc, event, vessel: str, volume: float, into: dict) -> None:
        """Move `volume` uL from `vessel` into a syringe or pump barrel."""
        contents = self.state.vessels[vessel]
        retained = self.layout.vessel_retained_ul.get(vessel, {})
        if sum(contents.values()) <= 0:
            raise StateFault(f"aspirating from empty vessel {vessel!r}", pc)
        if not retained:
            taken = _mix_out(contents, volume)
        else:
            # Liquids with a retained dead volume (the standing aqueous phase)
            # are drawn last and never below their dead volume; everything
            # else (solvated oil and solvent) comes out first.
            loose = {liq: v for liq, v in contents.items() if liq not in retained}
            taken = _mix_out(loose, volume)
            for liq in contents.keys() - retained.keys():
                if loose.get(liq, 0.0) <= 1e-12:
                    del contents[liq]
                else:
                    contents[liq] = loose[liq]
            remaining = volume - sum(taken.values())
            if remaining > 1e-12:
                for liq, dead in retained.items():
                    avail = max(0.0, contents.get(liq, 0.0) - dead)
                    amount = min(avail, remaining)
                    if amount > 0:
                        contents[liq] -= amount
                        taken[liq] = taken.get(liq, 0.0) + amount
                        remaining -= amount
        _mix_in(into, taken)
        self._log(pc, event, vessel, -sum(taken.values()))

    def _push(self, pc, event, vessel: str, volume: float, source: dict) -> None:
        """Move `volume` uL from a syringe or pump barrel into `vessel`."""
        given = _mix_out(source, volume)
        _mix_in(self.state.vessels[vessel], given)
        self._log(pc, event, vessel, sum(given.values()))

    # -- instruction semantics, one method per ParsedLine.kind ----------------

    def _exec_move(self, pc, x, y):
        if not self.layout.on_stage(x, y):
            raise StateFault(f"carriage target ({x:.1f}, {y:.1f}) mm "
                             f"outside stage {self.layout.bounds_mm}", pc)
        cx, cy = self.state.carriage
        self.state.time_ms += math.hypot(x - cx, y - cy) * CARRIAGE_MS_PER_MM
        self.state.carriage = (x, y)
        self._log(pc, "move", "", 0.0)

    def _exec_stir_on(self, pc):
        self.state.stirring = True
        self._log(pc, "stir_on", "", 0.0)

    def _exec_stir_off(self, pc):
        self.state.stirring = False
        self._log(pc, "stir_off", "", 0.0)

    def _servo(self, pc, syringe: int) -> SyringeState:
        if syringe not in self.state.syringes:
            raise StateFault(f"no syringe {syringe} on the carriage", pc)
        self.state.time_ms += SERVO_ACTION_MS
        return self.state.syringes[syringe]

    def _exec_lower(self, pc, syringe):
        self._servo(pc, syringe).lowered = True
        self._log(pc, "lower", "", 0.0)

    def _exec_raise(self, pc, syringe):
        self._servo(pc, syringe).lowered = False
        self._log(pc, "raise", "", 0.0)

    def _exec_aspirate(self, pc, syringe, volume):
        held = self._servo(pc, syringe)
        if not held.lowered:
            raise StateFault("aspirate with syringe raised", pc)
        if held.volume_ul + volume > SYRINGE_CAPACITY_UL + 1e-9:
            raise StateFault("syringe plunger over-travel", pc)
        self._draw(pc, "aspirate", self._vessel_at_carriage(pc), volume, held.contents)

    def _exec_dispense(self, pc, syringe, volume):
        held = self._servo(pc, syringe)
        if not held.lowered:
            raise StateFault("dispense with syringe raised", pc)
        if held.volume_ul + 1e-9 < volume:
            raise StateFault("dispensing more than the syringe holds", pc)
        self._push(pc, "dispense", self._vessel_at_carriage(pc), volume, held.contents)

    def _exec_pump(self, pc, instr: PumpInstruction):
        pump = self.state.pumps[instr.pump]
        self.state.time_ms += instr.steps * instr.speed_ms
        if instr.motor == 1:
            pump.valve_port = instr.direction
            self._log(pc, "valve", "", 0.0)
            return
        volume = instr.steps * self.layout.pump_calibration_ul_per_step(instr.pump)
        target = self.layout.pump_ports[instr.pump][pump.valve_port]
        vessel = self._vessel_at_carriage(pc) if target == "carriage" else target
        travel = -instr.steps if instr.direction else instr.steps
        if not 0 <= pump.position_steps + travel <= PUMP_MAX_STEPS:
            raise StateFault(f"pump {instr.pump} plunger over-travel", pc)
        pump.position_steps += travel
        if instr.direction:
            self._push(pc, "pump_push", vessel, volume, pump.contents)
        else:
            self._draw(pc, "pump_draw", vessel, volume, pump.contents)

    def execute(self, program: str) -> VirtualState:
        for pc, parsed in enumerate(parse_program(program)):
            getattr(self, f"_exec_{parsed.kind}")(pc, *parsed.args)
        return self.state

    def events_csv(self) -> str:
        lines = ["time_ms,instruction_index,event,vessel,delta_ul"]
        lines += [f"{t!r},{pc},{event},{vessel},{delta!r}"
                  for t, pc, event, vessel, delta in self.events]
        return "".join(line + "\n" for line in lines)
