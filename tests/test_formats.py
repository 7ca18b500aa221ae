import json

import pytest

from dropevo import ga, stats
from dropevo.formats import CSV_FORMATS, validate_file, validate_text
from dropevo.formulation import Formulation
from dropevo.gcode import (GcodeError, StageLayout, VirtualRobot, compile_experiment,
                           default_layout)

BANDS_HEADER = "generation,median,p25,p75,p10,p90"


def test_format_registry():
    # The CSV formats and the G-code dialect; StageLayout.from_json checks a
    # layout where it is read.
    assert set(CSV_FORMATS) == {"history", "landscape", "events", "bands"}
    assert validate_text("", "gcode") == []
    for unknown in ("telemetry", "layout"):
        with pytest.raises(KeyError) as err:
            validate_text("", unknown)
        assert (type(err.value), err.value.args) == (KeyError, (unknown,))


def test_bands_valid_and_invalid():
    good = f"{BANDS_HEADER}\n1,1.0,0.5,1.5,0.2,1.8\n2,1.1,0.6,1.6,0.3,1.9\n"
    assert validate_text(good, "bands") == []
    assert validate_text("generation,median\n1,1.0\n", "bands") != []
    bad_generation = f"{BANDS_HEADER}\n0,1.0,0.5,1.5,0.2,1.8\n"
    issues = validate_text(bad_generation, "bands")
    assert len(issues) == 1 and "generation" in issues[0] and "row 2" in issues[0]
    bad_type = f"{BANDS_HEADER}\n1,abc,0.5,1.5,0.2,1.8\n"
    assert "not a float" in validate_text(bad_type, "bands")[0]


def test_empty_file_rejected():
    assert validate_text("", "bands") == ["empty file"]


def test_field_count_mismatch():
    text = f"{BANDS_HEADER}\n1,1.0,0.5\n"
    assert "expected 6 fields" in validate_text(text, "bands")[0]


def test_real_outputs_validate():
    hist = ga.run_ga(ga.GAConfig(generations=2, rng_seed=1),
                     lambda p, rid: (1.0, 1.0, 1.0))
    assert validate_text(ga.history_to_csv(hist), "history") == []
    report = stats.trajectory_report([hist])
    assert validate_text(stats.bands_csv(report), "bands") == []

    layout = default_layout()
    robot = VirtualRobot(layout)
    robot.execute(compile_experiment(Formulation((0.4, 0.3, 0.2, 0.1)), layout))
    assert validate_text(robot.events_csv(), "events") == []
    assert validate_text(compile_experiment(Formulation((1, 0, 0, 0)), layout), "gcode") == []
    assert StageLayout.from_json(layout.to_json()) == layout


def test_history_rejects_out_of_range_locus():
    header = ("run,generation,individual_id,parent_ids,locus1,locus2,locus3,"
              "locus4,replicate1,replicate2,replicate3,fitness")
    row = "0,1,0,,1.5,0.5,0.5,0.5,1.0,1.0,1.0,1.0"
    issues = validate_text(header + "\n" + row + "\n", "history")
    assert len(issues) == 1 and "locus1" in issues[0]


def test_gcode_validation_reports_lines():
    issues = validate_text("G1 X1.0 Y2.0\nnonsense\n", "gcode")
    assert len(issues) == 1 and "line 2" in issues[0]


def test_layout_validation():
    layout = default_layout()
    assert StageLayout.from_json(layout.to_json()) == layout
    with pytest.raises(GcodeError, match="missing fields"):
        StageLayout.from_json("{}")
    d = json.loads(layout.to_json())
    d["locations"]["rogue"] = [9999.0, 0.0]
    d["location_vessel"]["rogue"] = "dish"
    with pytest.raises(GcodeError) as err:
        StageLayout.from_json(json.dumps(d))
    assert str(err.value) == ("layout locations: ['rogue'] outside stage bounds "
                              "(500.0, 400.0)")
    # The stage's edges are on it.
    d["locations"]["rogue"] = [500.0, 0.0]
    assert StageLayout.from_json(json.dumps(d)).locations["rogue"] == (500.0, 0.0)


def test_validate_file(tmp_path):
    p = tmp_path / "bands.csv"
    p.write_text(f"{BANDS_HEADER}\n1,1.0,0.5,1.5,0.2,1.8\n")
    assert validate_file(p, "bands") == []


@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_float_columns_reject_non_finite(bad):
    issues = validate_text(f"{BANDS_HEADER}\n1,1.0,{bad},1.5,0.2,1.8\n", "bands")
    assert len(issues) == 1
    assert issues[0].startswith("row 2: p25=") and "not finite" in issues[0]

    header = ("run,generation,individual_id,parent_ids,locus1,locus2,locus3,"
              "locus4,replicate1,replicate2,replicate3,fitness")
    rows = [f"0,1,{k},,0.5,0.5,0.5,0.5,1.0,1.0,1.0,{bad if k == 1 else '1.0'}"
            for k in range(3)]
    issues = validate_text("\n".join([header, *rows]) + "\n", "history")
    assert len(issues) == 1
    assert issues[0].startswith("row 3: fitness=") and "not finite" in issues[0]


def test_rows_are_typed_and_validate_reports_their_violations():
    header = ("run,generation,individual_id,parent_ids,locus1,locus2,locus3,"
              "locus4,replicate1,replicate2,replicate3,fitness")
    text = "\n".join([header,
                      "0,1,4,,0.25,0.5,0.5,1,1.5,,,1.5",
                      "0,2,5,4;2,x,0.5,0.5,2,1.0,1.0,1.0,-1",
                      "0,2",
                      "3,2,6,4,0.0,1e-3,0.5,0.5,2.0,2.0,2.0,2.0"]) + "\n"
    violations = []
    rows = list(CSV_FORMATS["history"].rows(text, violations))
    assert rows == [(0, 1, 4, None, 0.25, 0.5, 0.5, 1.0, 1.5, None, None, 1.5),
                    (3, 2, 6, "4", 0.0, 1e-3, 0.5, 0.5, 2.0, 2.0, 2.0, 2.0)]
    assert [type(v) for v in rows[1]] == [int, int, int, str] + [float] * 8
    assert violations == ["row 3: locus1='x' is not a float",
                          "row 3: locus4=2 violates locus4 <= 1",
                          "row 3: fitness=-1 violates fitness >= 0",
                          "row 4: expected 12 fields"]
    assert validate_text(text, "history") == violations


def test_validation_holds_no_rows():
    # A landscape CSV of ~180k rows, the size of one at resolution 301.
    # io.StringIO keeps the text at 4 bytes per character, so the pass peaks
    # at about 4x the text; keeping the rows would take it to about 8x.
    import tracemalloc

    rows = (f"{face},{i},{j},{i / 300!r},{j / 300!r},{1 - (i + j) / 300!r},"
            f"{(i * j) % 97 / 7!r},{(i + j) % 5 or ''}"
            for face in range(4) for i in range(301) for j in range(151))
    text = "face,i,j,X,Y,Z,fitness,island_label\n" + "\n".join(rows) + "\n"
    tracemalloc.start()
    try:
        assert validate_text(text, "landscape") == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text)
