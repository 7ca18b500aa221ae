"""File format specifications and validators.

Every CSV file the package reads or writes has a versioned format here:
column names, units and value ranges. validate_file checks a file against
one of these, or a G-code program against the dialect, and returns a list of
violations (empty means ok); CsvFormat.rows, the one parser of the CSV
files, also yields each row's typed fields. A stage layout is checked where
it is parsed, by gcode.StageLayout.from_json.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str              # 'int' | 'float' | 'str'
    unit: str = ""
    minimum: float | None = None
    maximum: float | None = None
    allow_empty: bool = False

    def convert(self, raw: str, row: int):
        """The field as a value of its kind, None when it is empty and may
        be; a violation raises ValueError with its message."""
        if raw == "":
            if self.allow_empty:
                return None
            raise ValueError(f"row {row}: {self.name} is empty")
        try:
            value = int(raw) if self.kind == "int" else (
                float(raw) if self.kind == "float" else raw)
        except ValueError:
            raise ValueError(f"row {row}: {self.name}={raw!r} is not a {self.kind}") from None
        if self.kind == "float" and not math.isfinite(value):
            raise ValueError(f"row {row}: {self.name}={raw!r} is not finite")
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"row {row}: {self.name}={raw} violates {self.name} >= {self.minimum}")
        if self.maximum is not None and value > self.maximum:
            raise ValueError(f"row {row}: {self.name}={raw} violates {self.name} <= {self.maximum}")
        return value


@dataclass(frozen=True)
class CsvFormat:
    format_id: str
    version: int
    columns: tuple
    rows_required: bool = False  # a file with a header and no rows is invalid

    def rows(self, text: str, violations: list):
        """Yield each row without a violation as a tuple of its converted
        fields, in file order; every violation goes on `violations`."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            violations.append("empty file")
            return
        expected = [c.name for c in self.columns]
        if header != expected:
            violations.append(f"header {header} != expected {expected}")
            return
        row_no = 1
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(self.columns):
                violations.append(f"row {row_no}: expected {len(self.columns)} fields")
                continue
            values = []
            for col, raw in zip(self.columns, row):
                try:
                    values.append(col.convert(raw, row_no))
                except ValueError as exc:
                    violations.append(str(exc))
            if len(values) == len(row):
                yield tuple(values)
        if self.rows_required and row_no == 1:
            violations.append("no rows after the header")

    def validate(self, text: str) -> list[str]:
        violations = []
        for _ in self.rows(text, violations):
            pass
        return violations


CSV_FORMATS = {
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
    ), rows_required=True),
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


def validate_text(text: str, format_id: str) -> list[str]:
    if format_id in CSV_FORMATS:
        return CSV_FORMATS[format_id].validate(text)
    if format_id == "gcode":
        from .gcode import check_program

        return check_program(text)
    raise KeyError(format_id)


def validate_file(path, format_id: str) -> list[str]:
    """Validate a file against a named format; returns violations."""
    return validate_text(Path(path).read_text(), format_id)

