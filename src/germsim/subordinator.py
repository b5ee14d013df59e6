"""Fragmentation times over a grid of drifts and the dual first-passage view.

For a driftless stem started at 0, the fragmentation time against its
reflected drift-theta transform is the coupling's reflection start: the
grid time one past the stem's last grid visit to the line theta * t / 2.
Under time inversion that visit is the first inverted grid point at or
above the level theta / 2, so the dual reads the same grid time back as
the reciprocal of an inverted grid point.  Both routes return one time
per drift, ``inf`` where the pair agrees to the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import _check_start, _reflection_start, invert_time, validate_theta
from .paths import _real


@dataclass(frozen=True)
class DriftGrid:
    """Strictly increasing, finite, nonnegative drift values."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        try:
            thetas = tuple(validate_theta(t, "thetas") for t in self.thetas)
        except TypeError:  # not iterable
            raise ValueError(f"thetas must be a sequence of real numbers, "
                             f"got {self.thetas!r}") from None
        if len(thetas) == 0:
            raise ValueError("thetas must be nonempty")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("thetas must be strictly increasing")
        object.__setattr__(self, "thetas", thetas)


def fragmentation_process(times, stems, grid: DriftGrid) -> np.ndarray:
    """Fragmentation time of the stem's reflected pair at each drift, one
    entry per drift along the last axis.

    ``stems`` holds one driftless path started at 0, sampled on ``times``,
    along its last axis, or many in rows.  Each entry is the grid time
    where the reflection after the stem's last visit to the line
    theta * t / 2 starts, as :func:`~germsim.coupling.couple_rows` finds
    it, so it equals the fragmentation time of every reflected pair on
    this stem, and the times are non-increasing across the drifts.  It is
    ``inf`` when nothing is reflected: at theta = 0 and whenever the stem
    ends at or above the line, where the endpoint likelihood ratio is
    >= 1 and the keep branch always fires.
    """
    times, stems = np.asarray(times), np.asarray(stems)
    if stems.shape[-1:] != times.shape:
        raise ValueError("stems must hold one value per time along the last axis")
    _check_start(stems[..., 0])
    thetas = np.array(grid.thetas)
    # A line beyond the range of a double compares as inf, which is right.
    with np.errstate(over="ignore"):
        start = _reflection_start(times, stems[..., None, :], thetas[:, None])
    start[..., thetas == 0.0] = times.size
    return np.append(times, math.inf)[start]


def fragmentation_process_dual(times, stems, grid: DriftGrid) -> np.ndarray:
    """:func:`fragmentation_process` read off the inverted path.

    Inverts the stems on [dt, horizon], one grid cell onwards with
    dt = ``times[1]``, so the inverted grid s ascends from 1/horizon to
    1/dt.  The stem's last visit to each line theta * t / 2 is the first
    inverted grid point at or above theta / 2, and the entry is the
    reciprocal of the inverted point just before it: ``inf`` when the
    first point qualifies, and ``dt`` when no point does (only t = 0 is on
    or above the line).  theta = 0 is ``inf`` as in the direct route.
    Both routes pick the same grid index, so they differ only by the
    rounding of 1 / (1 / t).  Every stem must start at 0, as in the direct
    route.
    """
    times, stems = np.asarray(times), np.asarray(stems)
    dt = times[1]
    s, inverted = invert_time(times, stems, dt)
    _check_start(stems[..., 0])
    thetas = np.array(grid.thetas)
    at_or_above = inverted[..., None, :] >= 0.5 * thetas[:, None]
    first = np.where(at_or_above.any(axis=-1), at_or_above.argmax(axis=-1), s.size)
    first[..., thetas == 0.0] = 0
    recip = np.concatenate(([math.inf], 1.0 / s[:-1], [dt]))
    return recip[first]


def sample_passage_time(level: float, z):
    """First passage times of standard BM to ``level``, one per standard
    normal in ``z``.

    Uses the identity T_a = a^2 / Z^2 in distribution with Z standard
    normal, so the sampler is exact (no path discretization).
    """
    level = _real("level", level)
    if not level > 0:
        raise ValueError(f"level must be > 0, got {level}")
    return level * level / (z * z)
