"""File format specifications and validators.

Every data file the package reads or writes has a versioned format here:
column names, units and value ranges. validate_file checks a file against its
declared format and returns a list of violations (empty means ok).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .gcode import GcodeError, StageLayout, check_program


class UnknownFormat(KeyError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str              # 'int' | 'float' | 'str'
    unit: str = ""
    minimum: float | None = None
    maximum: float | None = None
    strict_min: bool = False
    allow_empty: bool = False

    def check(self, raw: str, row: int) -> str | None:
        if raw == "":
            return None if self.allow_empty else f"row {row}: {self.name} is empty"
        try:
            value = int(raw) if self.kind == "int" else (
                float(raw) if self.kind == "float" else raw)
        except ValueError:
            return f"row {row}: {self.name}={raw!r} is not a {self.kind}"
        if self.kind == "str":
            return None
        if self.kind == "float" and not math.isfinite(value):
            return f"row {row}: {self.name}={raw!r} is not finite"
        if self.minimum is not None:
            if value < self.minimum or (self.strict_min and value == self.minimum):
                op = ">" if self.strict_min else ">="
                return f"row {row}: {self.name}={raw} violates {self.name} {op} {self.minimum}"
        if self.maximum is not None and value > self.maximum:
            return f"row {row}: {self.name}={raw} violates {self.name} <= {self.maximum}"
        return None


@dataclass(frozen=True)
class CsvFormat:
    format_id: str
    version: int
    columns: tuple

    def validate(self, text: str) -> list[str]:
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            return ["empty file"]
        expected = [c.name for c in self.columns]
        if header != expected:
            return [f"header {header} != expected {expected}"]
        violations = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(self.columns):
                violations.append(f"row {row_no}: expected {len(self.columns)} fields")
                continue
            for col, raw in zip(self.columns, row):
                issue = col.check(raw, row_no)
                if issue:
                    violations.append(issue)
        return violations


CSV_FORMATS = {
    "detections": CsvFormat("detections", 1, (
        ColumnSpec("frame", "int", "frame index", minimum=0),
        ColumnSpec("x", "float", "px"),
        ColumnSpec("y", "float", "px"),
        ColumnSpec("area", "float", "px^2", minimum=0, strict_min=True),
    )),
    "trajectories": CsvFormat("trajectories", 1, (
        ColumnSpec("droplet_id", "int", "", minimum=0),
        ColumnSpec("frame", "int", "frame index", minimum=0),
        ColumnSpec("x", "float", "px"),
        ColumnSpec("y", "float", "px"),
        ColumnSpec("area", "float", "px^2", minimum=0, strict_min=True),
    )),
    "history": CsvFormat("history", 1, (
        ColumnSpec("run", "int", "", minimum=0),
        ColumnSpec("generation", "int", "", minimum=1),
        ColumnSpec("individual_id", "int", "", minimum=0),
        ColumnSpec("parent_ids", "str", "semicolon-separated ids", allow_empty=True),
        *(ColumnSpec(f"locus{k}", "float", "raw QTL in [0,1]", minimum=0, maximum=1)
          for k in range(1, 5)),
        *(ColumnSpec(f"replicate{k}", "float", "raw fitness", minimum=0,
                     allow_empty=True) for k in range(1, 4)),
        ColumnSpec("fitness", "float", "aggregated fitness", minimum=0),
    )),
    "landscape": CsvFormat("landscape", 1, (
        ColumnSpec("face", "int", "held-at-zero component", minimum=0, maximum=3),
        ColumnSpec("i", "int", "", minimum=0),
        ColumnSpec("j", "int", "", minimum=0),
        ColumnSpec("X", "float", "proportion", minimum=0, maximum=1),
        ColumnSpec("Y", "float", "proportion", minimum=0, maximum=1),
        ColumnSpec("Z", "float", "proportion", maximum=1),
        ColumnSpec("fitness", "float", "model prediction"),
        ColumnSpec("island_label", "int", "island rank", minimum=0, allow_empty=True),
    )),
    "events": CsvFormat("events", 1, (
        ColumnSpec("time_ms", "float", "ms", minimum=0),
        ColumnSpec("instruction_index", "int", "", minimum=0),
        ColumnSpec("event", "str"),
        ColumnSpec("vessel", "str", allow_empty=True),
        ColumnSpec("delta_ul", "float", "uL"),
    )),
    "bands": CsvFormat("bands", 1, (
        ColumnSpec("generation", "int", "", minimum=1),
        *(ColumnSpec(name, "float", "fitness")
          for name in ("median", "p25", "p75", "p10", "p90")),
    )),
}


def _validate_layout(text: str) -> list[str]:
    try:
        layout = StageLayout.from_json(text)
    except GcodeError as exc:
        return [f"not a layout config: {exc}"]
    violations = []
    xmax, ymax = layout.bounds_mm
    for name, (x, y) in layout.locations.items():
        if not (0 <= x <= xmax and 0 <= y <= ymax):
            violations.append(f"location {name} ({x}, {y}) outside stage bounds")
    return violations


FORMAT_IDS = sorted([*CSV_FORMATS, "gcode", "layout"])


def validate_text(text: str, format_id: str) -> list[str]:
    if format_id in CSV_FORMATS:
        return CSV_FORMATS[format_id].validate(text)
    if format_id == "gcode":
        return check_program(text)
    if format_id == "layout":
        return _validate_layout(text)
    raise UnknownFormat(format_id)


def validate_file(path, format_id: str) -> list[str]:
    """Validate a file against a named format; returns violations."""
    return validate_text(Path(path).read_text(), format_id)


def format_spec_text() -> str:
    """Human-readable summary of every registered format."""
    out = []
    for fmt in CSV_FORMATS.values():
        out.append(f"{fmt.format_id} (CSV, v{fmt.version})")
        for col in fmt.columns:
            bounds = []
            if col.minimum is not None:
                bounds.append(f"{'>' if col.strict_min else '>='} {col.minimum}")
            if col.maximum is not None:
                bounds.append(f"<= {col.maximum}")
            unit = f" [{col.unit}]" if col.unit else ""
            out.append(f"  {col.name}: {col.kind}{unit} {' and '.join(bounds)}".rstrip())
    out.append("gcode (text, v1): see dropevo.gcode module docstring")
    out.append("layout (JSON, v1): stage geometry, named mm coordinates, pump plumbing")
    return "\n".join(out) + "\n"
