"""Per-trial time series and their CSV serialization."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = ["TrialRecord", "config_hash", "write_csv"]

# Each trial CSV column and how a cell of it is read: int() into an int64
# array or float() into a float64 one. interval_k, the last, is written
# only by truncated runs.
CSV_COLUMNS = {"t": int, "theta_dist": float, "loss": float, "grad_norm": float, "aborted": int, "interval_k": int}
CSV_FIELDS = tuple(CSV_COLUMNS)[:-1]
_TYPECODES = {int: "q", float: "d"}
CSV_BLOCK_ROWS = 1024
# A RecordBuilder derives its norm columns once per block of rows. A block
# keeps at most this many parameter floats alive, and as many update
# direction floats. Each block's stacked copy (120 KiB) then stays below the
# 128 KiB from which malloc maps fresh pages for it: blocks of twice this
# size cost four times as much per row as the per-row norms at p = 4,224.
RECORD_BLOCK_ENTRIES = 15 * 1024


def config_hash(values) -> str:
    """Stable hash of a config's values (canonical JSON, sha256); it keys
    the random streams of the config's trials."""
    blob = json.dumps(values, sort_keys=True, default=str).encode()
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


def _formatted(column):
    """(directive, cells) of a column for a % template: a float array's
    floats for %r (repr), an int array's ints for %d (str), anything else
    as `_cell` text for %s."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        return "%r" if column.dtype.kind == "f" else "%d", column.tolist()
    return "%s", list(map(_cell, column))


def write_csv(path, header, columns):
    """Write the columns under header as a CSV, via a temp file and a
    rename so readers never see partials. The bytes are csv.writer's
    (lines end in CRLF). Each block of CSV_BLOCK_ROWS rows is one %
    template, a line of the columns' directives per row, applied to the
    block's cells, without a formatting call per cell; with no rows the
    file is the header alone."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(map(_cell, header)) + "\r\n")
            width = len(columns)
            # Blocks of rows bound the memory of the formatted cells.
            for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK_ROWS):
                directives, blocks = zip(*(_formatted(c[start : start + CSV_BLOCK_ROWS]) for c in columns))
                rows = len(blocks[0])
                cells = [None] * (rows * width)
                for j, block in enumerate(blocks):  # row-major: cell (i, j) at i * width + j
                    cells[j::width] = block
                fh.write((",".join(directives) + "\r\n") * rows % tuple(cells))
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
    extra CSV column. `final_theta` is the parameter the learner ended on.
    A record holds the trial's series and nothing of the config that ran
    it.
    """

    t: np.ndarray
    theta_dist: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    abort_t: int | None = None
    interval_k: np.ndarray | None = None
    final_theta: np.ndarray | None = None

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
        return list(CSV_FIELDS if self.interval_k is None else CSV_COLUMNS)

    def converged(self, tol: float) -> bool:
        """Finished (no abort) with the final recorded distance within
        tol; recomputable from the trial CSV alone."""
        return not self.aborted and self.final_dist() <= tol

    def to_csv(self, path):
        write_csv(path, self.header(), self.columns())

    @classmethod
    def from_csv(cls, path):
        """The record of a trial CSV written by `to_csv`; abort_t is the
        first t marked aborted, and interval_k is read when the file has it.

        Streams the file in blocks of CSV_BLOCK_ROWS rows into one typed
        column per field, each cell through int() or float(): 8 bytes a cell
        plus one block of cell strings, and every value (NaN, +-inf and -0.0
        included) as written. t, aborted and interval_k are int64, also with
        no rows. ValueError, naming the file and the data row (or line), for
        a file the writer does not write: another header (a missing, unknown
        or reordered column), a row of another width, a cell that does not
        parse or fit int64, an aborted cell other than 0 or 1, or text that
        csv.reader refuses.
        """
        with open(path, newline="") as fh:
            reader = _csv_rows(path, fh)
            header = next(reader, [])
            if header not in (list(CSV_FIELDS), list(CSV_COLUMNS)):
                raise ValueError(f"{path}: header {','.join(header)!r} is not the trial header "
                                 f"{','.join(CSV_FIELDS)!r}, with or without ',interval_k'")
            columns = {name: array(_TYPECODES[CSV_COLUMNS[name]]) for name in header}
            parsers = [(columns[name], CSV_COLUMNS[name]) for name in header]
            rows_read = 0
            while block := list(islice(reader, CSV_BLOCK_ROWS)):
                # zip(*block) would cut a ragged block short without a word.
                if set(map(len, block)) != {len(header)}:
                    raise ValueError(_first_bad_row(path, header, block, rows_read))
                try:
                    for (column, parse), cells in zip(parsers, zip(*block)):
                        column.extend(map(parse, cells))
                except (ValueError, OverflowError):
                    raise ValueError(_first_bad_row(path, header, block, rows_read)) from None
                rows_read += len(block)
        t, aborted = (np.frombuffer(columns[name], dtype=np.int64) for name in ("t", "aborted"))
        bad = np.flatnonzero((aborted != 0) & (aborted != 1))
        if bad.size:
            raise ValueError(f"{path}: data row {bad[0] + 1}: aborted is {aborted[bad[0]]}, not 0 or 1")
        return cls(
            t=t,
            theta_dist=np.frombuffer(columns["theta_dist"]),
            loss=np.frombuffer(columns["loss"]),
            grad_norm=np.frombuffer(columns["grad_norm"]),
            abort_t=int(t[np.argmax(aborted)]) if aborted.any() else None,
            interval_k=np.frombuffer(columns["interval_k"], dtype=np.int64) if "interval_k" in columns else None,
        )


def _csv_rows(path, fh):
    """The rows of csv.reader over fh; ValueError naming path and the line
    for text csv.reader refuses (a NUL byte, a cell over the field limit)."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _first_bad_row(path, header, block, rows_before):
    """Where and why the first malformed row of block (which follows
    rows_before data rows of path) fails: its width, or a cell that does
    not parse as its column's type."""
    for number, row in enumerate(block, start=rows_before + 1):
        if len(row) != len(header):
            return f"{path}: data row {number} has {len(row)} cells, the header {len(header)}"
        for name, cell in zip(header, row):
            parse = CSV_COLUMNS[name]
            try:
                array(_TYPECODES[parse], [parse(cell)])
            except (ValueError, OverflowError) as exc:
                return f"{path}: data row {number}, column {name}: {exc}"
    raise AssertionError("no malformed row in the block")


class RecordBuilder:
    """Accumulates the rows of one trial, and derives its two norm columns
    a block of rows at a time.

    A row is (t, theta, v, loss[, interval]): the parameter theta_t and
    the update direction v_t (None where grad_norm is NaN: the first row
    and an abort row) as float arrays that nobody writes into afterwards,
    since they are kept until the block ends. Then theta_dist =
    ||theta[:dist_dims] - theta_star[:dist_dims]|| (NaN without theta_star)
    and grad_norm = ||v|| of the whole block come from one `np.vecdot` of
    the stacked rows and one `np.sqrt` each, the bits of the formula
    math.sqrt(x.dot(x)) that a block missing a direction takes per row.
    A block ends at CSV_BLOCK_ROWS rows, or sooner once its parameters
    keep RECORD_BLOCK_ENTRIES floats alive (a row of a seed-batched
    parameter keeps its whole batch); the first row is a block of its
    own, which sizes the others.

    The columns are typed arrays, 8 bytes a cell, since a seed-batched run
    keeps the builders of all its seeds at once, and `build` hands them to
    the record without a copy (the builder takes no rows after it)."""

    def __init__(self, with_intervals=False, theta_star=None, dist_dims=None):
        self.ts, self.intervals = array("q"), array("q") if with_intervals else None
        self.dists, self.losses, self.gnorms = array("d"), array("d"), array("d")
        self.abort_t = None
        self.ref = None if theta_star is None else np.asarray(theta_star, dtype=float)[:dist_dims]
        self.dist_dims = dist_dims
        self.thetas, self.directions, self.block_rows = [], [], 1

    def add(self, t, theta, v, loss, interval=0):
        # The typed arrays convert each cell themselves: t and interval as
        # integers (a float raises), loss as float() would.
        self.ts.append(t)
        self.losses.append(loss)
        if self.intervals is not None:
            self.intervals.append(interval)
        thetas = self.thetas
        thetas.append(theta)
        self.directions.append(v)
        if len(thetas) == self.block_rows:
            self._flush()

    def _flush(self):
        """Derive theta_dist and grad_norm of the pending rows."""
        thetas, directions = self.thetas, self.directions
        if len(thetas) == len(self.ts):  # the first block: size the others
            base = thetas[0].base
            kept = base.size if isinstance(base, np.ndarray) else thetas[0].size
            self.block_rows = max(1, min(CSV_BLOCK_ROWS, RECORD_BLOCK_ENTRIES // kept))
        if self.ref is None:
            self.dists.extend([np.nan] * len(thetas))
        else:
            d = np.array(thetas)[:, : self.dist_dims]  # a fresh copy, so subtract in place
            d -= self.ref
            self.dists.frombytes(np.sqrt(np.vecdot(d, d)).tobytes())
        if all(v is not None for v in directions):
            v = np.array(directions)
            self.gnorms.frombytes(np.sqrt(np.vecdot(v, v)).tobytes())
        else:  # the first row or an abort row: NaN where there is no direction
            self.gnorms.extend([np.nan if v is None else math.sqrt(v.dot(v)) for v in directions])
        self.thetas, self.directions = [], []

    def build(self, final_theta=None):
        if self.thetas:
            self._flush()
        return TrialRecord(
            t=np.frombuffer(self.ts, dtype=np.int64),
            theta_dist=np.frombuffer(self.dists),
            loss=np.frombuffer(self.losses),
            grad_norm=np.frombuffer(self.gnorms),
            abort_t=self.abort_t,
            interval_k=None if self.intervals is None else np.frombuffer(self.intervals, dtype=np.int64),
            final_theta=None if final_theta is None else np.asarray(final_theta, dtype=float),
        )
