"""CSV / JSON output of the commands, and the trajectory CSV that `reach` reads."""

from __future__ import annotations

import csv
import json
import math
import os
from typing import List, Tuple

from .errors import ConfigError
from .knowledge import Sample
from .reach import ReachTube
from .systems import RunReport


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: list, rows) -> None:
    """Write the header row, unless it is empty, and then the rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def read_trajectory_csv(path) -> Tuple[List[Sample], int, int]:
    """Read samples from a CSV with header t, x1..xn, xdot1..xdotn, u1..um.

    Blank lines are skipped.  A path that is not a string or path object, a
    file that cannot be opened, an empty file, another header, or a row with
    another number of values or a value that is not a finite number, raises
    ConfigError naming the file (and the line).
    """
    # open() would take an integer as a file descriptor
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"trajectory must be a file path, not {path!r}")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"trajectory {path} is empty")
        header = [c.strip() for c in header]
        n = sum(1 for c in header if c.startswith("x") and not c.startswith("xdot"))
        m = sum(1 for c in header if c.startswith("u"))
        expected = (["t"] + [f"x{i+1}" for i in range(n)]
                    + [f"xdot{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)])
        if header != expected:
            raise ConfigError(f"bad trajectory header {header}; expected {expected}")
        rows = []
        for row in filter(None, reader):
            where = f"trajectory {path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ConfigError(f"{where}: {len(row)} values, expected {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise ConfigError(f"{where}: values must be finite, not {row}")
    samples = [Sample(rest[:n], rest[n : 2 * n], rest[2 * n :], t) for t, *rest in rows]
    return samples, n, m


def write_tube_csv(path, tube: ReachTube) -> None:
    n = len(tube.steps[0].R)
    _write_csv(
        path,
        ["i", "t"]
        + [f"lo_{k+1}" for k in range(n)] + [f"hi_{k+1}" for k in range(n)]
        + [f"S_lo_{k+1}" for k in range(n)] + [f"S_hi_{k+1}" for k in range(n)]
        + ["beta"],
        ([i, _fmt(rec.t)]
         + [_fmt(v) for v in rec.R.lo] + [_fmt(v) for v in rec.R.hi]
         + [_fmt(v) for v in rec.S.lo] + [_fmt(v) for v in rec.S.hi]
         + [_fmt(rec.beta)] for i, rec in enumerate(tube.steps)),
    )


def write_steps_csv(path, report: RunReport) -> None:
    m = report.logs[0].u.shape[0] if report.logs else 0
    _write_csv(
        path,
        ["i", "t"] + [f"u_{l+1}" for l in range(m)]
        + ["cost", "bound", "solver_iters", "micros", "kb_micros"],
        ([log.i, _fmt(log.t)] + [_fmt(v) for v in log.u]
         + [_fmt(log.realized_cost), _fmt(log.bound), log.iters,
            _fmt(log.micros), _fmt(log.kb_micros)] for log in report.logs),
    )


def write_predicted_boxes_csv(path, report: RunReport) -> None:
    """Each step's `StepLog.predicted_box`, the model's next-state box."""
    boxes = [log.predicted_box for log in report.logs]
    n = len(boxes[0]) if boxes else 0
    _write_csv(
        path,
        ["i", "t"] + [f"lo_{k+1}" for k in range(n)] + [f"hi_{k+1}" for k in range(n)],
        ([log.i, _fmt(log.t)] + [_fmt(v) for v in box.lo] + [_fmt(v) for v in box.hi]
         for log, box in zip(report.logs, boxes)),
    )


def write_run_json(path, report: RunReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)


def write_benchmark_csv(path, rows: List[dict]) -> None:
    """One row per dict, under the first dict's keys; no rows make an empty file."""
    keys = list(rows[0]) if rows else []
    _write_csv(path, keys, ([row[k] for k in keys] for row in rows))
