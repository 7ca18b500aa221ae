import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dropevo.formulation import Formulation, normalize
from dropevo.gcode import (
    GcodeError,
    PumpInstruction,
    StageLayout,
    StateFault,
    VirtualRobot,
    VirtualState,
    check_program,
    compile_cleaning_cycle,
    compile_experiment,
    default_layout,
    move,
    parse_line,
    parse_program,
    parse_pump_line,
    plunger,
    stroke,
    valve,
)


# --------------------------------------------------------------- dialect


def test_pump_instruction_serialize():
    instr = PumpInstruction(3, 0, 1, 2, 4500)
    assert instr.serialize() == "P3 M0 D1 S2 E4500"


def test_pump_round_trip():
    for text in ["P0 M0 D0 S1 E0", "P6 M1 D1 S999 E50000", "P2 M0 D1 S2 E123"]:
        assert parse_pump_line(text, 1).serialize() == text


def test_pump_range_validation():
    with pytest.raises(GcodeError):
        PumpInstruction(7, 0, 0, 1, 10)
    with pytest.raises(GcodeError):
        PumpInstruction(0, 2, 0, 1, 10)
    with pytest.raises(GcodeError):
        PumpInstruction(0, 0, 2, 1, 10)
    with pytest.raises(GcodeError):
        PumpInstruction(0, 0, 0, 0, 10)   # speed must be positive
    with pytest.raises(GcodeError):
        PumpInstruction(0, 0, 0, 1, 50001)
    with pytest.raises(GcodeError):
        PumpInstruction(0, 0, 0, 1, -1)


def test_pump_syntax_errors_positioned():
    with pytest.raises(GcodeError, match=r"^line 7: expected 'PX MY DZ SA EB', "
                                         r"got 'P0 M0 D0 S1'$") as err:
        parse_pump_line("P0 M0 D0 S1", line_no=7)
    assert type(err.value) is GcodeError
    with pytest.raises(GcodeError, match=r"^line 9: B=99999: steps limited to 50000$"):
        parse_pump_line("P0 M0 D0 S1 E99999", line_no=9)
    # The positioned error keeps the field's own reason.
    with pytest.raises(GcodeError) as err:
        parse_pump_line("P9 M0 D0 S1 E1", line_no=3)
    assert str(err.value) == "line 3: X=9: valid pumps are 0..6"


@given(st.integers(0, 6), st.integers(0, 1), st.integers(0, 1),
       st.integers(1, 10000), st.integers(0, 50000))
def test_pump_round_trip_exhaustive(p, m, d, s, e):
    instr = PumpInstruction(p, m, d, s, e)
    assert parse_pump_line(instr.serialize(), 1) == instr


# --------------------------------------------------------------- parsing


def test_parse_line_comments_and_blanks():
    assert parse_line("", 1) is None
    assert parse_line("   # just a comment", 1) is None
    parsed = parse_line("G1 X10.0 Y20.0  # go to well", 3)
    assert parsed.kind == "move" and parsed.args == (10.0, 20.0)


def test_parse_line_servo_codes():
    assert parse_line("M10 S0", 1).kind == "lower"
    assert parse_line("M11 S0", 1).kind == "raise"
    assert parse_line("M12 S0 V80.0", 1).args == (0, 80.0)
    assert parse_line("M13 S0 V5.0", 1).kind == "dispense"
    assert parse_line("M15", 1).kind == "stir_on"
    assert parse_line("M16", 1).kind == "stir_off"


def test_parse_line_rejects_malformed():
    for bad, message in [
            ("G1 X10", "unrecognized instruction 'G1 X10'"),
            ("M12 S0", "M12 requires a V volume"),
            ("M10 S0 V5", "M10 takes no V argument"),
            ("M99", "unrecognized instruction 'M99'"),
            ("bogus", "unrecognized instruction 'bogus'"),
            ("P1 M0", "expected 'PX MY DZ SA EB', got 'P1 M0'")]:
        with pytest.raises(GcodeError) as err:
            parse_line(bad, 1)
        assert (type(err.value), str(err.value)) == (GcodeError, f"line 1: {message}")


def test_check_program_collects_errors():
    text = "G1 X1.0 Y2.0\nbogus one\nM15\nP9 M0 D0 S1 E1\n"
    errors = check_program(text)
    assert len(errors) == 2
    assert "line 2" in errors[0]
    assert "line 4" in errors[1]


# ----------------------------------------------------------- compilation


def test_compile_quantizes_coordinates():
    layout = default_layout()
    assert move(layout, 10.04, 20.06) == ["G1 X10.0 Y20.1"]


def test_compile_apparatus_offset():
    layout = default_layout()
    # Needle offset (15, 0): carriage goes 15 mm left of the target.
    assert move(layout, 100.0, 50.0, apparatus="needle") == ["G1 X85.0 Y50.0"]


def test_compile_bounds_check():
    layout = default_layout()
    for x, y in ((600.0, 10.0), (10.0, -5.0)):
        with pytest.raises(GcodeError) as err:
            move(layout, x, y)
        assert (type(err.value), str(err.value)) == (
            GcodeError, f"carriage target ({x:.1f}, {y:.1f}) mm outside stage (500.0, 400.0)")


def test_firmware_faults_on_a_move_off_the_stage():
    # The firmware holds a program to the stage that the move emitter holds
    # its lines to; the stage's edges are on it.
    robot = VirtualRobot(default_layout())
    robot.execute("G1 X500.0 Y0.0\n")
    for move in ("G1 X500.1 Y0.0", "G1 X9999.0 Y-50.0", "G1 X10.0 Y400.1"):
        with pytest.raises(StateFault, match=r"instruction 0: carriage target .* mm "
                                             r"outside stage \(500\.0, 400\.0\)"):
            robot.execute(move + "\n")
    assert robot.state.carriage == (500.0, 0.0)
    assert len(robot.events) == 1


def test_compile_pump_transfer_calibration():
    layout = default_layout()
    # Pump 4 (5 mL barrel): 1 step = 0.1 uL, so 1 mL = 10000 steps.
    assert stroke(layout, 4, 1.0, 0) == ["P4 M0 D0 S2 E10000"]
    # Pump 0 (1 mL barrel): 1 step = 0.02 uL, so 0.5 mL = 25000 steps.
    assert stroke(layout, 0, 0.5, 1) == ["P0 M0 D1 S2 E25000"]
    with pytest.raises(GcodeError):
        stroke(layout, 4, 5.1, 0)  # > one barrel stroke


def test_compile_zero_volume_elided():
    layout = default_layout()
    assert [*plunger("aspirate", 0.0), *plunger("dispense", 0.0),
            *stroke(layout, 0, 0.0, 0)] == []


def test_compiled_programs_parse_cleanly():
    f = Formulation((0.4, 0.3, 0.2, 0.1))
    layout = default_layout()
    for text in (compile_experiment(f, layout), compile_cleaning_cycle(layout)):
        assert check_program(text) == []
        assert len(parse_program(text)) == text.count("\n")


def test_compile_experiment_structure():
    text = compile_experiment(Formulation((0.25, 0.25, 0.25, 0.25)), default_layout())
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("M12")) == 1   # one 80 uL draw
    assert sum(1 for l in lines if l.startswith("M13")) == 5   # 4 drops + waste
    assert "M15" in lines and "M16" in lines
    assert sum(1 for l in lines if l.startswith("P")) == 16    # 4 oils x 4 pump ops


def test_compile_experiment_skips_zero_components():
    text = compile_experiment(Formulation((1.0, 0.0, 0.0, 0.0)), default_layout())
    pumps = {l.split()[0] for l in text.splitlines() if l.startswith("P")}
    assert pumps == {"P0"}


# sha256 of compile_experiment over pinned_formulations(), then
# compile_cleaning_cycle, all on the default layout. It pins the compilers'
# bytes: a change to any program line must update the digest on purpose.
COMPILED_PROGRAMS_SHA256 = "0cfda2c84dfe1da8afafa9d719694717788c5cccb1ccf8b20226ed04e14ceb67"


def pinned_formulations():
    """The four corners, the equal mix and seeded recipes, a fifth of whose
    components are zero: 303 formulations."""
    rng = random.Random(21)
    raws = [[float(i == k) for i in range(4)] for k in range(4)] + [[1, 1, 1, 1]]
    while len(raws) < 303:
        raw = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(4)]
        if any(raw):
            raws.append(raw)
    return [normalize(raw) for raw in raws]


def test_compiled_program_bytes_pinned():
    layout = default_layout()
    digest = hashlib.sha256()
    for f in pinned_formulations():
        digest.update(compile_experiment(f, layout).encode())
    digest.update(compile_cleaning_cycle(layout).encode())
    assert digest.hexdigest() == COMPILED_PROGRAMS_SHA256


BASE = default_layout()


def moved(layout=BASE, **points):
    return dataclasses.replace(layout, locations={**layout.locations, **points})


def barrels(ml: dict, layout=BASE):
    return dataclasses.replace(layout, pump_syringe_ml={**layout.pump_syringe_ml, **ml})


def off_stage(x, y):
    return GcodeError, f"carriage target ({x:.1f}, {y:.1f}) mm outside stage (500.0, 400.0)"


def over_stroke(steps, ml):
    return GcodeError, f"E={steps}: {ml} mL exceeds one barrel stroke"


@pytest.mark.parametrize("layout, experiment, cleaning", [
    pytest.param(moved(mixing_well=(490.0, 200.0)), off_stage(510, 200), None,
                 id="well-off-for-the-pump-tube"),
    pytest.param(moved(mixing_well=(600.0, 200.0)), off_stage(620, 200), None,
                 id="well-off-for-both-first-move-reported"),
    pytest.param(dataclasses.replace(BASE, apparatus_offsets={
        **BASE.apparatus_offsets, "syringe": (0.0, -210.0)}),
                 off_stage(250, 410), off_stage(120, 410), id="off-for-the-syringe"),
    pytest.param(moved(drop_3=(105.0, 399.0), drop_4=(135.0, 500.0)),
                 off_stage(135, 500), None, id="drop-off"),
    pytest.param(moved(waste=(-1.0, 200.0)), off_stage(-1, 200), None, id="waste-off"),
    pytest.param(barrels({0: 0.1}, moved(waste=(-1.0, 200.0))),
                 over_stroke(180000, 0.36), None, id="oil-stroke-before-waste-move"),
    pytest.param(moved(dish_center=(600.0, 200.0)), None, off_stage(620, 200),
                 id="dish-off-for-both-wash-move-before-dip"),
    pytest.param(barrels({6: 4.0}, moved(dish_center=(-10.0, 200.0))),
                 None, off_stage(-10, 200), id="dip-move-before-drain-stroke"),
    pytest.param(barrels({5: 3.0}), None, over_stroke(66667, 4.0), id="acetone-barrel"),
    pytest.param(barrels({4: 1.2}), None, over_stroke(62500, 1.5), id="aqueous-barrel"),
    pytest.param(barrels({6: 4.0}), None, over_stroke(57500, 4.6), id="drain-barrel"),
])
def test_compile_errors_keep_their_type_message_and_order(layout, experiment, cleaning):
    # The first failing check in program order is the one reported.
    for compile_program, expected in (
            (lambda: compile_experiment(normalize([1, 0, 0, 0]), layout), experiment),
            (lambda: compile_cleaning_cycle(layout), cleaning)):
        if expected is None:
            assert check_program(compile_program()) == []
            continue
        with pytest.raises(GcodeError) as err:
            compile_program()
        assert (type(err.value), str(err.value)) == expected


# -------------------------------------------------------- virtual robot


def run_lines(lines, layout, state=None):
    """Run program `lines` on a robot with a fresh (or the given) state."""
    robot = VirtualRobot(layout)
    if state is not None:
        robot.state = state
    return robot.execute("".join(line + "\n" for line in lines))


def test_layout_json_round_trip():
    layout = default_layout()
    assert StageLayout.from_json(layout.to_json()) == layout


def test_execute_experiment_conserves_liquid():
    layout = default_layout()
    robot = VirtualRobot(layout)
    before = robot.state.total_liquid_ul()
    robot.execute(compile_experiment(Formulation((0.4, 0.3, 0.2, 0.1)), layout))
    assert robot.state.total_liquid_ul() == pytest.approx(before, abs=1e-6)
    # 4 droplets of 5 uL of oil mix landed in the dish.
    dish = robot.state.vessels["dish"]
    oil_in_dish = sum(v for k, v in dish.items() if k.startswith("oil:"))
    assert oil_in_dish == pytest.approx(20.0, abs=1e-6)
    # 60 uL leftover went to waste.
    assert sum(robot.state.vessels["waste"].values()) == pytest.approx(60.0)


def test_experiment_then_cleaning_resets_dish():
    layout = default_layout()
    robot = VirtualRobot(layout)
    before = robot.state.total_liquid_ul()
    robot.execute(compile_experiment(Formulation((0.4, 0.3, 0.2, 0.1)), layout))
    robot.execute(compile_cleaning_cycle(layout))
    dish = robot.state.vessels["dish"]
    # Only the retained aqueous dead volume survives the drain.
    assert set(dish) == {"aqueous"}
    assert dish["aqueous"] == pytest.approx(100.0, abs=1e-6)
    assert robot.state.total_liquid_ul() == pytest.approx(before, abs=1e-6)


def test_full_campaign_cycles_are_stable():
    # Alternating experiment/cleaning must not accumulate residue.
    layout = default_layout()
    robot = VirtualRobot(layout)
    before = robot.state.total_liquid_ul()
    for k in range(5):
        robot.execute(compile_experiment(Formulation((0.25, 0.25, 0.25, 0.25)), layout))
        robot.execute(compile_cleaning_cycle(layout))
    dish = robot.state.vessels["dish"]
    assert set(dish) == {"aqueous"}
    assert robot.state.total_liquid_ul() == pytest.approx(before, abs=1e-5)


def test_state_faults():
    layout = default_layout()
    wx, wy = layout.locations["mixing_well"]
    # Aspirating with the syringe raised.
    with pytest.raises(StateFault):
        run_lines([*move(layout, wx, wy), *plunger("aspirate", 10.0)], layout)
    # Dispensing more than the syringe holds.
    with pytest.raises(StateFault):
        run_lines([*move(layout, wx, wy), "M10 S0", *plunger("dispense", 10.0)], layout)
    # Syringe over-capacity (100 uL barrel) from a non-empty well.
    state = VirtualState.initial(layout)
    state.vessels["well"]["aqueous"] = 500.0
    with pytest.raises(StateFault):
        run_lines([*move(layout, wx, wy), "M10 S0", *plunger("aspirate", 80.0),
                   *plunger("aspirate", 30.0)], layout, state=state)
    # Aspirating from an empty vessel.
    with pytest.raises(StateFault):
        run_lines([*move(layout, wx, wy), "M10 S0", *plunger("aspirate", 10.0)], layout)
    # Pump plunger over-travel, at the dish so the port reaches a vessel:
    # expel from an empty barrel, and draw past a full one.
    at_dish = move(layout, *layout.locations["dish_center"], apparatus="pump_tube")
    with pytest.raises(StateFault, match="plunger over-travel"):
        run_lines([*at_dish, *valve(4, 1), *stroke(layout, 4, 1.0, 1)], layout)
    with pytest.raises(StateFault, match="plunger over-travel"):
        run_lines([*at_dish, *valve(4, 0), *stroke(layout, 4, 5.0, 0),
                   *stroke(layout, 4, 0.1, 0)], layout)
    # Nowhere vessel: pump port 'carriage' with the carriage parked at origin.
    with pytest.raises(StateFault, match=r"^instruction 1: no vessel at carriage position"):
        run_lines([*valve(4, 1), *stroke(layout, 4, 1.0, 0)], layout)


@pytest.mark.parametrize("line", ["M10 S3", "M11 S1", "M12 S3 V10.0", "M13 S2 V5.0"])
def test_firmware_faults_on_a_syringe_the_carriage_does_not_hold(line):
    # The carriage holds one syringe, S0; the firmware makes up no other.
    robot = VirtualRobot(default_layout())
    before = robot.state.to_json()
    with pytest.raises(StateFault) as err:
        robot.execute(line + "\n")
    syringe = line.split()[1][1:]
    assert str(err.value) == f"instruction 0: no syringe {syringe} on the carriage"
    assert robot.state.to_json() == before and robot.events == []


def test_retained_dead_volume_drawn_last():
    layout = default_layout()
    robot = VirtualRobot(layout)
    robot.state.vessels["dish"]["acetone"] = 200.0
    cx, cy = layout.locations["dish_center"]
    ox, oy = layout.apparatus_offsets["pump_tube"]
    # Drain 250 uL: all 200 uL acetone out first, then 50 uL aqueous.
    lines = [*move(layout, cx, cy, apparatus="pump_tube"),
             *valve(6, 0), *stroke(layout, 6, 0.25, 0)]
    robot.execute("".join(line + "\n" for line in lines))
    dish = robot.state.vessels["dish"]
    assert "acetone" not in dish
    assert dish["aqueous"] == pytest.approx(2950.0)


def test_events_csv_format():
    layout = default_layout()
    robot = VirtualRobot(layout)
    robot.execute("G1 X250.0 Y200.0\nM10 S0\nM12 S0 V10.0\n".replace(
        "M12 S0 V10.0\n", ""))  # move + lower only
    lines = robot.events_csv().splitlines()
    assert lines[0] == "time_ms,instruction_index,event,vessel,delta_ul"
    assert lines[1].split(",")[2] == "move"
    assert lines[2].split(",")[2] == "lower"


def test_time_accounting():
    layout = default_layout()
    robot = VirtualRobot(layout)
    robot.execute("G1 X30.0 Y40.0\n")  # 50 mm at 10 ms/mm
    assert robot.state.time_ms == pytest.approx(500.0)
    robot.execute("P4 M0 D1 S2 E0\n")  # zero steps: no time
    assert robot.state.time_ms == pytest.approx(500.0)


# sha256 of the robot's state JSON and events CSV after it runs an
# experiment-plus-cleaning program and a pure 1-pentanol experiment, twice
# over. They pin the firmware's liquid accounting, timing and event log to
# the byte: a change to any of these must update the digests on purpose.
FIRMWARE_STATE_SHA256 = "3c081f8e0ef576dade2ea023677c5f21c8dbb09b937769fa2cfdfd127ceb8417"
FIRMWARE_EVENTS_SHA256 = "07a160b7268d69deeb3993a463e4a7e0964b42f226a868f20d791074b48895fc"


def test_firmware_output_bytes_pinned():
    layout = default_layout()
    programs = [compile_experiment(normalize([4, 3, 2, 1]), layout)
                + compile_cleaning_cycle(layout),
                compile_experiment(normalize([0, 1, 0, 0]), layout)]
    robot = VirtualRobot(layout)
    for program in programs * 2:
        robot.execute(program)
    state, events = robot.state.to_json().encode(), robot.events_csv().encode()
    assert hashlib.sha256(state).hexdigest() == FIRMWARE_STATE_SHA256
    assert hashlib.sha256(events).hexdigest() == FIRMWARE_EVENTS_SHA256


# ------------------------------------------------------------- fuzzing


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="PGMDSEXYV0123456789 .-#\n", max_size=60))
def test_parser_totality(text):
    # Any input either parses or raises a positioned GcodeError; nothing else.
    try:
        parse_program(text)
    except GcodeError:
        pass
