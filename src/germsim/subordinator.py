"""Fragmentation times over a grid of drifts and the dual first-passage view.

For a driftless stem started at 0, the fragmentation time against its
reflected drift-theta transform is the coupling's reflection start: the
grid time one past the stem's last grid visit to the line theta * t / 2.
Under time inversion that visit is the first inverted grid point at or
above the level theta / 2, so the dual reads the same grid time back as
the reciprocal of an inverted grid point.  Both routes return one time
and one censoring flag per drift, as a float array and a bool array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import _reflection_start, invert_time
from .paths import _real
from .rng import RngStream


@dataclass(frozen=True)
class DriftGrid:
    """Strictly increasing, finite, nonnegative drift values."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        try:
            thetas = tuple(map(_real, self.thetas))
        except TypeError:  # not iterable
            thetas = (None,)
        if None in thetas:
            raise ValueError(f"thetas must be real numbers, got {self.thetas!r}")
        if len(thetas) == 0:
            raise ValueError("thetas must be nonempty")
        if not all(math.isfinite(t) for t in thetas):
            raise ValueError(f"thetas must all be finite, got {thetas}")
        if any(t < 0 for t in thetas):
            raise ValueError("thetas must all be >= 0")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("thetas must be strictly increasing")
        object.__setattr__(self, "thetas", thetas)


def fragmentation_process(stem, grid: DriftGrid) -> tuple[np.ndarray, np.ndarray]:
    """Fragmentation time of the stem's reflected pair at each drift, and
    whether it is censored, as a float array and a bool array, one entry
    per drift.

    The stem must be a driftless path started at 0.  Each entry is the
    grid time where the reflection after the stem's last visit to the
    line theta * t / 2 starts, as :func:`~germsim.coupling.couple_rows`
    finds it, so it equals the ``frag_time`` of every reflected pair on
    this stem, and the times are non-increasing across the drifts.  It is
    ``inf`` when nothing is reflected: at theta = 0 and whenever the stem
    ends at or above the line, where the endpoint likelihood ratio is
    >= 1 and the keep branch always fires.  An entry is censored when it
    is ``inf`` or the horizon itself, where only the last grid point tells
    the pair from one that agrees to the horizon.
    """
    if stem.values[0] != 0.0:
        raise ValueError("stem must start at 0")
    ts = stem.times
    n = ts.size - 1
    thetas = np.array(grid.thetas)
    rows = np.broadcast_to(stem.values, (thetas.size, n + 1))
    # A line beyond the range of a double compares as inf, which is right.
    with np.errstate(over="ignore"):
        start = _reflection_start(ts, rows, thetas[:, None])
    start[thetas == 0.0] = n + 1
    return np.append(ts, math.inf)[start], start >= n


def fragmentation_process_dual(stem, grid: DriftGrid) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fragmentation_process` read off the inverted path.

    Inverts the stem on [dt, horizon], one grid cell onwards, so the
    inverted grid s ascends from 1/horizon to 1/dt.  The stem's last visit
    to each line theta * t / 2 is the first inverted grid point at or above
    theta / 2, and the entry is the reciprocal of the inverted point just
    before it: ``inf`` when the first point qualifies, and ``dt`` when no
    point does (only t = 0 is on or above the line).  theta = 0 is ``inf``
    as in the direct route.  Censoring marks the same grid indices, so the
    two routes differ only by the rounding of 1 / (1 / t).
    """
    s, inverted = invert_time(stem.times, stem.values, stem.grid.dt)
    thetas = np.array(grid.thetas)
    at_or_above = inverted >= 0.5 * thetas[:, None]
    first = np.where(at_or_above.any(axis=1), at_or_above.argmax(axis=1), s.size)
    first[thetas == 0.0] = 0
    recip = np.concatenate(([math.inf], 1.0 / s[:-1], [stem.grid.dt]))
    return recip[first], first <= 1


def sample_passage_time(level: float, stream: RngStream, size: int | None = None):
    """Exact draw(s) of the first passage time of standard BM to ``level``.

    Uses the identity T_a = a^2 / Z^2 in distribution with Z standard
    normal, so the sampler is exact (no path discretization).
    """
    if not level > 0:
        raise ValueError(f"level must be > 0, got {level}")
    z = stream.standard_normal(size)
    return level * level / (z * z)
