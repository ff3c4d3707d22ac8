"""Per-trial time series and their CSV serialization."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from array import array
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TrialRecord", "config_hash", "write_csv"]

CSV_FIELDS = ("t", "theta_dist", "loss", "grad_norm", "aborted")
CSV_BLOCK_ROWS = 1024


def config_hash(meta) -> str:
    """Stable hash of configuration metadata (canonical JSON, sha256)."""
    blob = json.dumps(meta, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _cell(x) -> str:
    """A cell as csv.writer writes it: text quoted where it holds a comma,
    a quote or a line break; an int as str; any other number as the repr
    of a float."""
    if isinstance(x, str):
        return '"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\r\n') else x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _cells(column):
    """The cells of a column: a numeric array formatted whole (`tolist`,
    then str of an int, repr of a float), anything else cell by cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        return map(repr if column.dtype.kind == "f" else str, column.tolist())
    return map(_cell, column)


def write_csv(path, header, columns):
    """Write the columns under header as a CSV, via a temp file and a
    rename so readers never see partials. The bytes are csv.writer's
    (lines end in CRLF), without a formatting call per cell of a numeric
    array column; with no rows the file is the header alone."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(map(_cell, header)) + "\r\n")
            # Blocks of rows bound the memory of the formatted cells.
            for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK_ROWS):
                cells = [_cells(c[start : start + CSV_BLOCK_ROWS]) for c in columns]
                fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class TrialRecord:
    """Time series of one learning trial.

    Rows are indexed by the recorded step times `t` (starting at t=0, the
    state before any update). `theta_dist` is ||theta_t - theta*|| (NaN if
    no reference parameter was supplied), `loss` the instantaneous loss,
    `grad_norm` ||v_t||. `abort_t` is set when the trial overflowed; the
    abort itself is data for the divergence experiments. `interval_k`,
    when present, is the truncation-interval index and is emitted as an
    extra CSV column.
    """

    t: np.ndarray
    theta_dist: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    abort_t: int | None = None
    interval_k: np.ndarray | None = None
    config_hash: str = ""
    final_theta: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def aborted(self) -> bool:
        return self.abort_t is not None

    def final_dist(self) -> float:
        return float(self.theta_dist[-1])

    def columns(self):
        aborted_col = np.zeros(len(self.t), dtype=int)
        if self.abort_t is not None:
            aborted_col[self.t >= self.abort_t] = 1
        cols = [self.t, self.theta_dist, self.loss, self.grad_norm, aborted_col]
        if self.interval_k is not None:
            cols.append(self.interval_k)
        return cols

    def header(self):
        fields = list(CSV_FIELDS)
        if self.interval_k is not None:
            fields.append("interval_k")
        return fields

    def converged(self, tol: float) -> bool:
        """Finished (no abort) with the final recorded distance within
        tol; recomputable from the trial CSV alone."""
        return not self.aborted and self.final_dist() <= tol

    def to_csv(self, path):
        write_csv(path, self.header(), self.columns())

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        t = np.array([int(r["t"]) for r in rows])
        aborted = np.array([int(r["aborted"]) for r in rows])
        abort_t = int(t[aborted == 1][0]) if aborted.any() else None
        interval_k = None
        if rows and "interval_k" in rows[0]:
            interval_k = np.array([int(r["interval_k"]) for r in rows])
        return cls(
            t=t,
            theta_dist=np.array([float(r["theta_dist"]) for r in rows]),
            loss=np.array([float(r["loss"]) for r in rows]),
            grad_norm=np.array([float(r["grad_norm"]) for r in rows]),
            abort_t=abort_t,
            interval_k=interval_k,
        )


class RecordBuilder:
    """Accumulates rows during a run; avoids growing numpy arrays. The
    columns are typed arrays, 8 bytes a cell, since a seed-batched run
    keeps the builders of all its seeds at once, and `build` hands them
    to the record without a copy (the builder takes no rows after it)."""

    def __init__(self, config_meta=None, with_intervals=False):
        self.ts, self.intervals = array("q"), array("q") if with_intervals else None
        self.dists, self.losses, self.gnorms = array("d"), array("d"), array("d")
        self.abort_t = None
        self.meta = dict(config_meta) if config_meta else {}

    def add(self, t, dist, loss, gnorm, interval=None):
        # The typed arrays convert each cell themselves: t and interval as
        # integers (a float raises), the rest as float() would.
        self.ts.append(t)
        self.dists.append(dist)
        self.losses.append(loss)
        self.gnorms.append(gnorm)
        if self.intervals is not None:
            self.intervals.append(0 if interval is None else interval)

    def build(self, final_theta=None):
        return TrialRecord(
            t=np.frombuffer(self.ts, dtype=np.int64),
            theta_dist=np.frombuffer(self.dists),
            loss=np.frombuffer(self.losses),
            grad_norm=np.frombuffer(self.gnorms),
            abort_t=self.abort_t,
            interval_k=None if self.intervals is None else np.frombuffer(self.intervals, dtype=np.int64),
            config_hash=config_hash(self.meta) if self.meta else "",
            final_theta=None if final_theta is None else np.asarray(final_theta, dtype=float),
            meta=self.meta,
        )
