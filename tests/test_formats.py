import pytest

from dropevo import ga, stats
from dropevo.formats import (
    CSV_FORMATS,
    FORMAT_IDS,
    UnknownFormat,
    format_spec_text,
    validate_file,
    validate_text,
)
from dropevo.formulation import Formulation
from dropevo.gcode import VirtualRobot, compile_experiment, default_layout

BANDS_HEADER = "generation,median,p25,p75,p10,p90"


def test_format_registry():
    assert set(FORMAT_IDS) == {"history", "landscape", "events", "bands", "gcode", "layout"}
    with pytest.raises(UnknownFormat):
        validate_text("", "telemetry")


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

    robot = VirtualRobot()
    robot.execute(compile_experiment(Formulation((0.4, 0.3, 0.2, 0.1))))
    assert validate_text(robot.events_csv(), "events") == []
    assert validate_text(compile_experiment(Formulation((1, 0, 0, 0))), "gcode") == []
    assert validate_text(default_layout().to_json(), "layout") == []


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
    assert validate_text(layout.to_json(), "layout") == []
    assert validate_text("{}", "layout") != []
    import json
    d = json.loads(layout.to_json())
    d["locations"]["rogue"] = [9999.0, 0.0]
    issues = validate_text(json.dumps(d), "layout")
    assert any("rogue" in v for v in issues)


def test_validate_file(tmp_path):
    p = tmp_path / "bands.csv"
    p.write_text(f"{BANDS_HEADER}\n1,1.0,0.5,1.5,0.2,1.8\n")
    assert validate_file(p, "bands") == []


def test_format_spec_text_mentions_every_format():
    text = format_spec_text()
    for fid in FORMAT_IDS:
        assert fid in text
    for fmt in CSV_FORMATS.values():
        for col in fmt.columns:
            assert col.name in text


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
