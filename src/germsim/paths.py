"""Time grids, sampled trajectories, Brownian samplers and CSV round-trip."""

from __future__ import annotations

import math
import os
import pathlib
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, normal_from_words


class CsvFormatError(ValueError):
    """Malformed path CSV; the message cites the offending 1-based line."""


def _frozen_view(values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if vals is values:
        vals = vals.view()
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * horizon / n_steps covering [0, horizon]."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

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
        vals = _frozen_view(self.values)
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
class IrregularPath:
    """Trajectory on a strictly increasing, not necessarily uniform grid.

    Time inversion lands here: the image of a uniform grid under s = 1/t
    is irregular.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = _frozen_view(self.times)
        vs = _frozen_view(self.values)
        if ts.ndim != 1 or vs.ndim != 1 or ts.size != vs.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if ts.size < 2:
            raise ValueError("need at least 2 grid points")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
            raise ValueError("times and values must all be finite")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)


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


def write_csv(path: Path, destination) -> None:
    """Write ``t,value`` rows at full round-trip precision."""
    ts = path.times
    vs = path.values
    lines = ["t,value"]
    lines.extend(f"{t!r},{v!r}" for t, v in zip(ts.tolist(), vs.tolist()))
    text = "\n".join(lines) + "\n"
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


def read_csv(source) -> Path:
    """Parse a path CSV written by :func:`write_csv`.

    Round-trip identity holds bit-exactly: ``read_csv(write_csv(p)) == p``.
    Errors cite the 1-based line number of the offending row.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != "t,value":
        raise CsvFormatError("line 1: expected header 't,value'")
    ts: list[float] = []
    vs: list[float] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "":
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        row = []
        for cell in parts:
            try:
                row.append(float(cell))
            except ValueError:
                raise CsvFormatError(f"line {lineno}: non-numeric cell {cell.strip()!r}") from None
        if not all(math.isfinite(x) for x in row):
            raise CsvFormatError(f"line {lineno}: non-finite cell")
        ts.append(row[0])
        vs.append(row[1])
    if len(ts) < 2:
        raise CsvFormatError("need at least 2 grid rows (n_steps >= 1)")
    if ts[0] != 0.0:
        raise CsvFormatError(f"line 2: grid must start at t=0, got {ts[0]!r}")
    grid = TimeGrid(horizon=ts[-1], n_steps=len(ts) - 1)
    expected = grid.times()
    tol = 1e-9 * max(1.0, grid.horizon)
    for i, (got, want) in enumerate(zip(ts, expected.tolist())):
        if abs(got - want) > tol:
            raise CsvFormatError(f"line {i + 2}: time {got!r} deviates from the uniform grid")
    return Path(grid, np.array(vs))
