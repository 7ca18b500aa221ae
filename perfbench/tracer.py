"""Per-layer spans for the traced benchmark run.

Run as a program, this executes one ``dropevo`` command in-process with the
package's layer entry points wrapped, and writes the recorded spans as JSON
when the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json TRACE_ID -- landscape h0.csv ...

The data files the command writes are the same bytes as without tracing; the
benchmark checks that on every traced iteration.

Each span holds its name, start and end (``time.perf_counter`` seconds), the
id of the span that was open when it began (its parent), the trace id shared
by every span of one benchmark iteration, and counts computed from the
call's arguments and return value. Spans stay in memory until the command
returns. Calls made inside pool worker processes are not recorded, so the
benchmark takes arena and tracking spans from a ``--jobs 1`` run.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, count=None):
        """Return fn wrapped in a span. count(args, kwargs, result) -> dict of
        counts; it runs after the span has ended, so its cost stays out of the
        span's duration."""
        def traced(*args, **kwargs):
            span = {"name": name, "trace": self.trace_id, "id": len(self.spans),
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced


def _detections(frames) -> int:
    return sum(len(fr.detections) for fr in frames)


def _pair_checks(frames) -> int:
    """Candidate pairs the greedy tracker examines: sum of n(t-1) * n(t)."""
    sizes = [len(fr.detections) for fr in frames]
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


def _kendall_pairs(histories) -> int:
    n = sum(len(gen) for hist in histories for gen in hist.generations)
    return n * (n - 1) // 2


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points that the dropevo command calls through
    module attributes."""
    from dropevo import arena, evaluators, formats, ga, gcode, landscape, stats, tracking

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    patch(arena, "simulate", "arena.simulate",
          lambda a, k, r: {"detections": _detections(r)})
    patch(arena, "filter_analytic_arena", "arena.filter",
          lambda a, k, r: {"emitted": _detections(a[0]), "kept": _detections(r)})
    patch(tracking, "track", "tracking.track",
          lambda a, k, r: {"pair_checks": _pair_checks(a[0]),
                           "identities": len(r.trajectories)})
    scores = tracking.FITNESS_FUNCTIONS
    for objective, score in scores.items():
        scores[objective] = tracer.wrap(score, f"tracking.score.{objective}")
    patch(evaluators, "run_replicate", "evaluators.run_replicate")

    make_batch_evaluator = evaluators.make_batch_evaluator

    def traced_make_batch_evaluator(*args, **kwargs):
        return tracer.wrap(make_batch_evaluator(*args, **kwargs), "evaluators.batch")

    evaluators.make_batch_evaluator = traced_make_batch_evaluator
    patch(ga, "run_ga", "ga.run_ga")
    patch(ga, "history_to_csv", "ga.history_to_csv")
    patch(formats, "validate_file", "formats.validate_file")
    patch(landscape, "fit", "landscape.fit")
    patch(landscape, "face_grid", "landscape.face_grid",
          lambda a, k, r: {"cells": int(r.valid.sum()),
                           "kernel_evals": int(r.valid.sum()) * len(a[0].X)})
    patch(landscape, "catchment_map", "landscape.catchment",
          lambda a, k, r: {"islands": len(r.islands)})
    patch(landscape, "landscape_csv", "landscape.csv",
          lambda a, k, r: {"csv_bytes": len(r.encode())})
    patch(stats, "trajectory_report", "stats.report",
          lambda a, k, r: {"kendall_pairs": _kendall_pairs(a[0])})
    patch(gcode, "compile_experiment", "gcode.compile")
    patch(gcode, "compile_cleaning_cycle", "gcode.compile")
    patch(gcode, "check_program", "gcode.check",
          lambda a, k, r: {"lines": len(a[0].splitlines())})
    patch(gcode.VirtualRobot, "execute", "gcode.exec")


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: tracer.py SPANS.json TRACE_ID -- DROPEVO_ARGS...", file=sys.stderr)
        return 1
    spans_path, trace_id, _, *command = argv
    tracer = Tracer(trace_id)
    instrument(tracer)
    from dropevo import cli

    try:
        return tracer.wrap(cli.main, "cli.main")(command)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
