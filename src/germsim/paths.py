"""Time grids, sampled trajectories, Brownian samplers and CSV round-trip."""

from __future__ import annotations

import functools
import math
import numbers
import os
import pathlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from . import _repr
from .rng import _MAX_LENGTH, _check_int, normal_from_words


class CsvFormatError(ValueError):
    """Malformed path CSV; the message cites the offending 1-based line."""


def _real(name: str, value) -> float:
    """``value`` as a finite Python float, a 0-d array counting as its scalar;
    rejected under ``name`` otherwise, as :func:`~germsim.rng._check_int` does."""
    if isinstance(value, np.ndarray | np.generic) and value.ndim == 0:
        value = value.item()
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, ±inf, or beyond a double like 10**400
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * horizon / n_steps covering [0, horizon].

    The step dt = horizon / n_steps must be at least
    ``sys.float_info.min``, the smallest normal double: a subnormal step
    repeats grid times.  The horizon is stored as a Python float and
    ``n_steps`` as an int, so a grid built from numpy scalars equals, and
    hashes like, one built from the matching Python numbers.
    """

    horizon: float
    n_steps: int

    def __post_init__(self):
        horizon = _real("horizon", self.horizon)
        if not horizon > 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        n_steps = _check_int("n_steps", self.n_steps)
        # Exact, so a count beyond the range of a double is no OverflowError.
        if n_steps >= 1 and Fraction(horizon) / n_steps < sys.float_info.min:
            raise ValueError(f"horizon / n_steps must be >= {sys.float_info.min!r}, "
                             f"got {horizon!r} / {n_steps}")
        if not 1 <= n_steps < _MAX_LENGTH:
            raise ValueError(f"n_steps must be >= 1 and < {_MAX_LENGTH}, got {n_steps}")
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
        for name in ("drift", "start"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))


def line_value(theta: float, t):
    """Height theta * t / 2 of the reference line at time t (vectorized in t)."""
    return 0.5 * theta * t


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


_HEADER = b"t,value\n"


@functools.lru_cache(maxsize=8)
def _time_cells(grid: TimeGrid) -> _repr.Lead:
    """The time cells of :func:`write_csv` for ``grid``, laid out by
    :func:`germsim._repr.lead`: ``repr(t) + ","`` for each grid time, the
    header before the first, NUL-padded to the longest cell rounded up to a
    multiple of 8 bytes.

    Kept for the 8 most recently used grids: n_steps + 1 rows each."""
    cells = [f"{t!r}," for t in grid.times().tolist()]
    cells[0] = _HEADER.decode("ascii") + cells[0]
    width = -(-max(map(len, cells)) // 8) * 8
    return _repr.lead(np.array(cells, dtype=f"S{width}"))


def write_csv(path: Path, destination) -> None:
    """Write ``t,value`` rows at full round-trip precision: each cell is the
    ``repr`` of a Python float, and the times are ``path.grid.times()``.
    The values are formatted a block at a time by :mod:`germsim._repr`.

    ``destination`` is a file name, written in binary mode, or an object
    whose ``write`` takes text."""
    data = _repr.text(_time_cells(path.grid), path.values)
    if hasattr(destination, "write"):
        destination.write(data.decode("ascii"))
    else:
        _write_bytes(destination, data)


def _write_text(destination, text: str) -> None:
    """Write ``text`` to the file ``destination`` as UTF-8 bytes (see
    :func:`_write_bytes`), so that no newline is translated."""
    _write_bytes(destination, text.encode("utf-8"))


def _write_bytes(destination, data: bytes) -> None:
    """Write ``data`` to the file ``destination`` through ``<name>.tmp`` and
    a rename: a write that fails part-way leaves neither name holding part
    of ``data``."""
    tmp = pathlib.Path(f"{os.fspath(destination)}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, destination)
    finally:
        tmp.unlink(missing_ok=True)


# Bytes of rows that read_csv decodes and splits into cells at a time; the
# cell strings of a chunk take about four times its size.
_READ_CHUNK_BYTES = 1 << 16

# The bytes of a cell in a canonical text: all that repr and "%.17g" write
# for a finite double.
_CELL_BYTES = b"0123456789.eE+-"
_HEADER_LEFT = _HEADER.translate(None, _CELL_BYTES)  # b"t,valu\n"

_TOO_FEW_ROWS = "need at least 2 grid rows (n_steps >= 1)"


class _GridError(Exception):
    """A time column that is not a uniform grid: ``(row, message)``, the row
    0-based among the data rows, ``None`` when the message cites none."""


@functools.lru_cache(maxsize=8)
def _time_grid(column: str) -> TimeGrid:
    """The grid of a time column, its cells joined by commas.

    Kept for the 8 most recently used columns, so a process that reads many
    files on one grid converts and checks their times once.  A column that
    is not a grid raises, and so is never kept: ``ValueError`` for a cell
    that is not a finite number, :class:`_GridError` otherwise.

    The cells are split and converted ``_READ_CHUNK_BYTES`` of text at a
    time, into one array of the column's length.
    """
    ts = np.empty(column.count(",") + 1)
    row = start = 0
    while row < ts.size:
        end = column.find(",", start + _READ_CHUNK_BYTES)
        cells = column[start:end if end >= 0 else len(column)].split(",")
        ts[row:row + len(cells)] = np.fromiter(map(float, cells), dtype=np.float64,
                                               count=len(cells))
        row, start = row + len(cells), end + 1
    if not np.isfinite(ts).all():
        raise ValueError
    if ts.size < 2:
        raise _GridError(None, _TOO_FEW_ROWS)
    if ts[0] != 0.0:
        raise _GridError(0, f"grid must start at t=0, got {float(ts[0])!r}")
    if ts[-1] <= 0.0:
        raise _GridError(ts.size - 1, "last time (the horizon) must be > 0, "
                                      f"got {float(ts[-1])!r}")
    try:
        grid = TimeGrid(horizon=float(ts[-1]), n_steps=ts.size - 1)
    except ValueError as exc:  # a step below the smallest normal double
        raise _GridError(ts.size - 1, str(exc)) from None
    tol = 1e-9 * max(1.0, grid.horizon)
    off = np.flatnonzero(np.abs(ts - grid.times()) > tol)
    if off.size:
        raise _GridError(int(off[0]), f"time {float(ts[off[0]])!r} deviates from the uniform grid")
    return grid


def _cited(exc: _GridError, linenos) -> CsvFormatError:
    """``exc`` as a :class:`CsvFormatError` citing ``linenos[row]``, the
    line of the data row it names."""
    row, message = exc.args
    return CsvFormatError(message if row is None else f"line {linenos[row]}: {message}")


def read_csv(source) -> Path:
    """Parse a path CSV written by :func:`write_csv`.

    Round-trip identity holds bit-exactly: ``read_csv(write_csv(p)) == p``.
    Blank lines are skipped.  Every time must lie within
    ``1e-9 * max(1, T)`` of the uniform grid on [0, T], T > 0 the last time.
    Errors cite the 1-based line number of the offending row.

    ``source`` is a file name, read as UTF-8 bytes, or an object whose
    ``read`` returns text.  A canonical text (see :func:`_read_canonical`),
    as every file write_csv writes is, is converted with no Python step per
    row; any other text is read one row at a time by :func:`_scan_rows`.
    """
    if hasattr(source, "read"):
        text = source.read()
        data = text.encode("ascii") if text.isascii() else b""  # b"" is not canonical
    else:
        with open(os.fspath(source), "rb") as fh:
            data = fh.read()
        text = None
    path = _read_canonical(data)
    if path is None:
        path = _scan_rows(_decode(data) if text is None else text)
    return path


def _read_canonical(data: bytes) -> Path | None:
    """The path ``data`` holds if it is canonical and every cell is a finite
    number, ``None`` otherwise, for :func:`_scan_rows` to read or cite.

    A canonical text is the header ``t,value\\n``, then at least one row of
    two cells made of ``_CELL_BYTES``, a comma between them and ``\\n`` after,
    and nothing more.  Rows are decoded and split on both separators a
    chunk of ``_READ_CHUNK_BYTES`` at a time.  The values are converted
    there; the time cells, joined back into one column, go to
    :func:`_time_grid`.
    """
    # With the cell bytes gone, the header leaves _HEADER_LEFT, which holds
    # no ",\n", and a canonical body leaves exactly ",\n" once per row.
    seps = data.translate(None, _CELL_BYTES)
    n_rows = seps.count(b",\n")
    if not (n_rows and len(seps) == len(_HEADER_LEFT) + 2 * n_rows
            and data.startswith(_HEADER) and data.endswith(b"\n")):
        return None
    values = np.empty(n_rows)
    times = []
    row, start = 0, len(_HEADER)
    while start < len(data):
        end = data.index(b"\n", min(start + _READ_CHUNK_BYTES, len(data) - 1))
        cells = data[start:end].decode("ascii").replace("\n", ",").split(",")
        times.append(",".join(cells[0::2]))
        k = len(cells) // 2
        try:
            values[row:row + k] = np.fromiter(map(float, cells[1::2]), dtype=np.float64, count=k)
        except ValueError:
            return None
        row, start = row + k, end + 1
    if not np.isfinite(values).all():
        return None
    try:
        grid = _time_grid(",".join(times))
    except ValueError:
        return None
    except _GridError as exc:
        raise _cited(exc, range(2, n_rows + 2)) from None
    return Path(grid, values)


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text, or the error citing the line of its first
    byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise CsvFormatError(f"line {lineno}: not UTF-8 text") from None


def _scan_rows(text: str) -> Path:
    """The path ``text`` holds, read one line at a time.  Lines end as
    :meth:`str.splitlines` ends them, and blank lines are skipped.

    As on the canonical route, the time column goes to :func:`_time_grid`
    once every row holds two cells and a finite value; any other text is
    cited at its first offending line by :func:`_row_error`.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "t,value":
        raise CsvFormatError("line 1: expected header 't,value'")
    rows = [(n, raw.split(",")) for n, raw in enumerate(islice(lines, 1, None), start=2)
            if raw.strip()]
    if not rows:
        raise CsvFormatError(_TOO_FEW_ROWS)
    try:
        if any(len(parts) != 2 for _, parts in rows):
            raise ValueError
        values = np.array([float(parts[1]) for _, parts in rows])
        if not np.isfinite(values).all():
            raise ValueError
        grid = _time_grid(",".join(parts[0] for _, parts in rows))
    except ValueError:
        raise _row_error(rows) from None
    except _GridError as exc:
        raise _cited(exc, [n for n, _ in rows]) from None
    return Path(grid, values)


def _row_error(rows) -> CsvFormatError:
    """The error of the first row that does not hold two finite numbers;
    called only once :func:`_scan_rows` has found that such a row exists."""
    for lineno, parts in rows:
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
