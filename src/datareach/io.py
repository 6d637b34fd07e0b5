"""CSV / JSON emission and ingestion for trajectories, tubes and run reports."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from typing import List, Tuple

import numpy as np

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


def _trajectory_header(n: int, m: int) -> list:
    """The trajectory CSV header: t, x1..xn, xdot1..xdotn, u1..um."""
    return (["t"] + [f"x{i+1}" for i in range(n)]
            + [f"xdot{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)])


@contextmanager
def _csv_reader(path, what: str):
    """A csv reader over the file at ``path`` and its header row; a path
    that is not a string or path object, a file that cannot be opened, or
    one with no header, raises ConfigError naming it."""
    # open() would take an integer as a file descriptor
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"{what} must be a file path, not {path!r}")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{what} {path} is empty")
        yield reader, header


def _numeric_rows(reader, what: str, path, width: int, finite: bool = False) -> np.ndarray:
    """The remaining rows of `reader` as a (rows, width) float array.

    Blank lines are skipped; a row with another number of values, a non-numeric
    value or, with `finite`, a non-finite one raises ConfigError naming the file and line.
    """
    rows = []
    for row in reader:
        if not row:
            continue
        where = f"{what} {path}, line {reader.line_num}"
        if len(row) != width:
            raise ConfigError(f"{where}: {len(row)} values, expected {width}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if finite and not np.isfinite(rows[-1]).all():
            raise ConfigError(f"{where}: values must be finite, not {row}")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def read_trajectory_csv(path) -> Tuple[List[Sample], int, int]:
    """Read samples from a CSV with header t, x1..xn, xdot1..xdotn, u1..um."""
    with _csv_reader(path, "trajectory") as (reader, header):
        header = [c.strip() for c in header]
        n = sum(1 for c in header if c.startswith("x") and not c.startswith("xdot"))
        m = sum(1 for c in header if c.startswith("u"))
        expected = _trajectory_header(n, m)
        if header != expected:
            raise ConfigError(f"bad trajectory header {header}; expected {expected}")
        samples = [
            Sample(rest[:n], rest[n : 2 * n], rest[2 * n : 2 * n + m], t)
            for t, *rest in _numeric_rows(reader, "trajectory", path, len(header),
                                          finite=True).tolist()
        ]
    return samples, n, m


def write_trajectory_csv(path, samples: List[Sample]) -> None:
    _write_csv(path, _trajectory_header(samples[0].x.shape[0], samples[0].u.shape[0]),
               ([_fmt(v) for v in [0.0 if s.t is None else s.t, *s.x, *s.xdot, *s.u]]
                for s in samples))


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


def read_tube_csv(path):
    """Read back a tube CSV as (times, R_lo, R_hi, S_lo, S_hi, beta) arrays."""
    with _csv_reader(path, "tube") as (reader, header):
        n = sum(1 for c in header if c.startswith("lo_"))
        arr = _numeric_rows(reader, "tube", path, len(header))
    # the lo, hi, S_lo and S_hi blocks of n columns each follow i and t
    blocks = (arr[:, 2 + j * n : 2 + (j + 1) * n] for j in range(4))
    return (arr[:, 1], *blocks, arr[:, -1])


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


def read_steps_csv(path):
    """Read back a steps CSV as (header, rows array)."""
    with _csv_reader(path, "steps") as (reader, header):
        return header, _numeric_rows(reader, "steps", path, len(header))


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
