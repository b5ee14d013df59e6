"""Time grids, sampled trajectories, Brownian samplers and CSV round-trip."""

from __future__ import annotations

import functools
import math
import numbers
import os
import pathlib
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .rng import RngStream, _check_int, normal_from_words


class CsvFormatError(ValueError):
    """Malformed path CSV; the message cites the offending 1-based line."""


def _real(value) -> float | None:
    """``value`` as a Python float if it is a real number, a 0-d array
    counting as its scalar; ``None`` otherwise.  A real number beyond the
    range of a double, such as ``10**400``, is ``±inf``, so each owner
    rejects it as not finite."""
    scalar = value[()] if isinstance(value, np.ndarray) else value
    if not isinstance(scalar, numbers.Real):
        return None
    try:
        return float(scalar)
    except OverflowError:
        return math.inf if scalar > 0 else -math.inf


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * horizon / n_steps covering [0, horizon].

    The horizon is stored as a Python float and ``n_steps`` as an int, so a
    grid built from numpy scalars equals, and hashes like, one built from
    the matching Python numbers.
    """

    horizon: float
    n_steps: int

    def __post_init__(self):
        horizon = _real(self.horizon)
        if horizon is None:
            raise ValueError(f"horizon must be a real number, got {self.horizon!r}")
        if not (math.isfinite(horizon) and horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {horizon}")
        n_steps = _check_int("n_steps", self.n_steps)
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "n_steps", n_steps)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class Path:
    """Trajectory sampled on a uniform grid; immutable after construction."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals is self.values:
            vals = vals.view()
        vals.flags.writeable = False
        if vals.ndim != 1 or vals.size != self.grid.n_steps + 1:
            raise ValueError(
                f"values must have length n_steps + 1 = {self.grid.n_steps + 1}, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must all be finite")
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

    @property
    def horizon(self) -> float:
        return self.grid.horizon


@dataclass(frozen=True)
class DriftedLaw:
    """Brownian law with linear drift and a deterministic start value."""

    drift: float = 0.0
    start: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.drift) and math.isfinite(self.start)):
            raise ValueError("drift and start must be finite")


def line_value(theta: float, t):
    """Height theta * t / 2 of the reference line at time t (vectorized in t)."""
    return 0.5 * theta * t


def sample_bm(grid: TimeGrid, law: DriftedLaw, stream: RngStream) -> Path:
    """One path of :func:`sample_bm_rows`, drawn from ``stream``.

    Consumes exactly ``n_steps`` words of the stream.
    """
    return Path(grid, sample_bm_rows(grid, law, stream._words(grid.n_steps)[None])[0])


def sample_bm_rows(grid: TimeGrid, law: DriftedLaw, words: np.ndarray) -> np.ndarray:
    """Drifted Brownian paths on the grid, one per row of ``words``.

    Each row of ``words`` holds at least ``n_steps`` words of one stream
    (see :func:`~germsim.rng.stream_words`), and the first ``n_steps`` make
    the increments.  w(0) equals ``law.start`` exactly and the increments
    are independent N(drift * dt, dt).
    """
    dt = grid.dt
    z = normal_from_words(words[:, : grid.n_steps])
    increments = law.drift * dt + math.sqrt(dt) * z
    vals = np.empty((words.shape[0], grid.n_steps + 1))
    vals[:, 0] = law.start
    np.cumsum(increments, axis=1, out=vals[:, 1:])
    vals[:, 1:] += law.start
    return vals


@functools.lru_cache(maxsize=8)
def _csv_template(grid: TimeGrid) -> str:
    """The text of :func:`write_csv` for ``grid``: the header, then one
    ``f"{t!r},%r\\n"`` row per grid time, a ``%r`` slot for each value.

    Kept for the 8 most recently used grids; a template is ASCII and takes
    at most 26 B per grid point (a 17-digit repr with an exponent, then
    ``,%r\\n``)."""
    times = grid.times().tolist()
    return "t,value\n" + ("%r,%%r\n" * len(times)) % tuple(times)


def write_csv(path: Path, destination) -> None:
    """Write ``t,value`` rows at full round-trip precision: each cell is the
    ``repr`` of a Python float, and the times are ``path.grid.times()``."""
    text = _csv_template(path.grid) % tuple(path.values.tolist())
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        _write_text(destination, text)


def _write_text(destination, text: str) -> None:
    """Write ``text`` to the file ``destination`` through ``<name>.tmp`` and a
    rename: a write that fails part-way leaves neither name holding part of
    ``text``."""
    tmp = pathlib.Path(f"{os.fspath(destination)}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, destination)
    finally:
        tmp.unlink(missing_ok=True)


# Rows that read_csv converts at a time: about 150 kB of cell strings.
_READ_CHUNK_ROWS = 1024


def read_csv(source) -> Path:
    """Parse a path CSV written by :func:`write_csv`.

    Round-trip identity holds bit-exactly: ``read_csv(write_csv(p)) == p``.
    Blank lines are skipped.  Every time must lie within
    ``1e-9 * max(1, T)`` of the uniform grid on [0, T], T > 0 the last time.
    Errors cite the 1-based line number of the offending row.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "t,value":
        raise CsvFormatError("line 1: expected header 't,value'")
    body = list(filter(str.strip, islice(lines, 1, None)))
    # Check and convert all rows with no Python step per row; only a text
    # holding a row that is not two finite numbers is scanned row by row, to
    # find the line the error cites.  Every row holds one comma, so joining
    # rows with commas and splitting there gives their cells in order; a
    # chunk of rows at a time bounds the cell strings alive at once.
    try:
        if set(map(str.count, body, repeat(","))) - {1}:
            raise ValueError
        cells = np.empty(2 * len(body))
        for start in range(0, len(body), _READ_CHUNK_ROWS):
            chunk = ",".join(body[start:start + _READ_CHUNK_ROWS]).split(",")
            cells[2 * start:2 * start + len(chunk)] = np.fromiter(
                map(float, chunk), dtype=np.float64, count=len(chunk))
        if not np.isfinite(cells).all():
            raise ValueError
    except ValueError:
        raise _row_error(lines) from None
    ts, vs = cells[0::2], np.ascontiguousarray(cells[1::2])
    if ts.size < 2:
        raise CsvFormatError("need at least 2 grid rows (n_steps >= 1)")
    if ts[0] != 0.0:
        raise CsvFormatError(
            f"line {_line_of_row(lines, 0)}: grid must start at t=0, got {float(ts[0])!r}"
        )
    if ts[-1] <= 0.0:
        raise CsvFormatError(f"line {_line_of_row(lines, ts.size - 1)}: last time (the "
                             f"horizon) must be > 0, got {float(ts[-1])!r}")
    grid = TimeGrid(horizon=float(ts[-1]), n_steps=ts.size - 1)
    tol = 1e-9 * max(1.0, grid.horizon)
    off = np.flatnonzero(np.abs(ts - grid.times()) > tol)
    if off.size:
        raise CsvFormatError(
            f"line {_line_of_row(lines, off[0])}: time {float(ts[off[0]])!r} "
            "deviates from the uniform grid"
        )
    return Path(grid, vs)


def _rows(lines):
    """(1-based line number, text) of each non-blank line after the header."""
    return ((n, raw) for n, raw in enumerate(islice(lines, 1, None), start=2) if raw.strip())


def _line_of_row(lines, row: int) -> int:
    """Line number of data row ``row`` (0-based, blank lines not counted)."""
    return next(islice(_rows(lines), row, None))[0]


def _row_error(lines) -> CsvFormatError:
    """The error of the first row that does not hold two finite numbers;
    called only once :func:`read_csv` has found that such a row exists."""
    for lineno, raw in _rows(lines):
        parts = raw.split(",")
        if len(parts) != 2:
            return CsvFormatError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        row = []
        for cell in parts:
            try:
                row.append(float(cell))
            except ValueError:
                return CsvFormatError(f"line {lineno}: non-numeric cell {cell.strip()!r}")
        if not all(math.isfinite(x) for x in row):
            return CsvFormatError(f"line {lineno}: non-finite cell")
