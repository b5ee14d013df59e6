"""Fragmentation times over a grid of drifts and the dual first-passage view.

For a driftless stem started at 0, the fragmentation time against its
drift-theta transform equals the stem's last visit to the line
theta * t / 2, and under time inversion its reciprocal is the first
passage of the inverted path to the level theta / 2.  Both routes are
implemented; they agree within one grid cell wherever both resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import _root, invert_time, last_line_visit
from .paths import _real, line_value
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


@dataclass(frozen=True)
class FragmentationProcess:
    """Fragmentation times per drift, non-increasing, ``inf`` where agreement
    outlives the window."""

    times: tuple[float, ...]
    censored: tuple[bool, ...]

    def is_nonincreasing(self) -> bool:
        # Compared, not differenced: inf - inf is nan.
        a = np.array(self.times)
        return bool(np.all(a[1:] <= a[:-1]))


def fragmentation_process(stem, grid: DriftGrid) -> FragmentationProcess:
    """Last visit of the stem to each line theta * t / 2 with censoring.

    The stem must be a driftless path started at 0.  An entry is
    ``inf`` when agreement is certain to outlive the window: at
    theta = 0, and whenever the stem ends strictly above the line (the
    endpoint likelihood ratio is then >= 1, so the keep branch of the
    transform always fires).  Otherwise the entry is the last visit,
    flagged censored when it falls inside the final cell, where the grid
    cannot tell whether the visit settles before the horizon.  A stem
    ending exactly on the line thus reports the horizon itself, censored.
    The stem starts on every line, so a last visit always exists.
    """
    if stem.values[0] != 0.0:
        raise ValueError("stem must start at 0")
    ts = stem.times
    horizon = float(ts[-1])
    penultimate = float(ts[-2])
    end = float(stem.values[-1])
    times: list[float] = []
    censored: list[bool] = []
    for theta in grid.thetas:
        if theta == 0.0 or end > line_value(theta, horizon):
            times.append(math.inf)
            censored.append(True)
        else:
            visit = last_line_visit(stem, theta)
            times.append(visit)
            censored.append(visit > penultimate)
    return FragmentationProcess(tuple(times), tuple(censored))


def fragmentation_process_dual(stem, grid: DriftGrid) -> FragmentationProcess:
    """Fragmentation times computed through the inverted path.

    Inverts the stem on [dt, horizon], one grid cell onwards, so the
    inverted grid covers [1/horizon, n_steps/horizon].  Finds the first
    passage of the inverted path to each level theta / 2 and returns
    reciprocals.  A drift whose level is never reached is censored at
    ``inf``.  Agrees with :func:`fragmentation_process` within one grid
    cell wherever both are uncensored.
    """
    passages = first_passage_process(invert_time(stem, stem.grid.dt), grid)
    times = tuple(1.0 / p if p else math.inf for p in passages)
    return FragmentationProcess(times, tuple(map(math.isinf, times)))


def first_passage_process(w, grid: DriftGrid) -> tuple[float | None, ...]:
    """First time the path reaches each level theta / 2, or None if never.

    Crossings are located by linear interpolation inside the crossing
    cell.  Times are non-decreasing in theta whenever the path starts at
    or below the smallest level.
    """
    ts = np.asarray(w.times)
    vs = np.asarray(w.values)
    return tuple(_root(ts, vs - 0.5 * theta) for theta in grid.thetas)


def sample_passage_time(level: float, stream: RngStream, size: int | None = None):
    """Exact draw(s) of the first passage time of standard BM to ``level``.

    Uses the identity T_a = a^2 / Z^2 in distribution with Z standard
    normal, so the sampler is exact (no path discretization).
    """
    if not level > 0:
        raise ValueError(f"level must be > 0, got {level}")
    z = stream.standard_normal(size)
    return level * level / (z * z)
