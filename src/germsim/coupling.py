"""Core path transforms: reflection after the last line visit, the
finite-horizon germ transform, fragmentation and meeting times, and time
inversion.  Inversion and meeting times take plain arrays, paths sampled
on one grid of ``times``, because the inverted grid is not uniform.

Every fragmentation time is a grid time from one rule, the reflection
start: one past the last grid point at or above the line theta * t / 2.
The transforms copy the untouched prefix of their input verbatim, so
fragmentation detection compares values bit-exactly; no tolerance is
involved.  Only :func:`first_meeting`, an analysis quantity for the
meeting duality, interpolates inside a grid cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import DriftedLaw, Path, _real, line_value, sample_bm_rows
from .rng import RngStream, uniform01_from_words


@dataclass(frozen=True)
class CoupledPair:
    """A stem path, its drifted transform, and their detected fragmentation
    time, ``inf`` when they agree to the horizon."""

    stem: Path
    branch: Path
    theta: float
    frag_time: float

    def __post_init__(self):
        if self.stem.grid != self.branch.grid:
            raise ValueError("stem and branch must share a grid")

    @property
    def agreed_to_horizon(self) -> bool:
        return self.frag_time == math.inf


def reflect_after_last_visit(w: Path, theta: float) -> Path:
    """Mirror the path across the line theta * t / 2 after its last grid visit.

    A single backward sweep: every trailing grid point strictly below the
    line is replaced by theta * t - w(t), and the sweep stops at the last
    grid point at or above the line; everything before it is copied
    bit-exactly.  Returns ``w`` itself when nothing is mirrored.
    """
    validate_theta(theta)
    ts, row = w.times, w.values[None]
    with np.errstate(over="ignore"):
        start = _reflection_start(ts, row, theta)
        if start[0] > w.grid.n_steps:
            return w
        return _branch(w.grid, theta, _mirror(ts, row, theta, start)[0])


def _reflection_start(times: np.ndarray, rows: np.ndarray, theta: float) -> np.ndarray:
    """Per row, the first index the reflection after the last visit mirrors.

    That is one past the last grid point at or above the line theta * t / 2,
    found by ``argmax`` on the reversed row: ``n_steps + 1`` when the row
    ends at or above the line, 0 when no point is.  ``theta`` may be a
    column of one drift per row.
    """
    at_or_above = rows - line_value(theta, times) >= 0.0
    last = times.size - 1 - at_or_above[:, ::-1].argmax(axis=1)
    return np.where(at_or_above[np.arange(rows.shape[0]), last], last + 1, 0)


def _mirror(times: np.ndarray, rows: np.ndarray, theta: float, start: np.ndarray) -> np.ndarray:
    """``rows`` with theta * t - w(t) in place of w(t) from each row's ``start`` on."""
    return np.where(np.arange(times.size) >= start[:, None], theta * times - rows, rows)


def _branch(grid, theta: float, values: np.ndarray) -> Path:
    """The branch ``values`` on ``grid`` as a :class:`Path`; a reflected value
    beyond the range of a double is rejected under ``theta``.

    Callers compute one row with overflow silenced: an overflow in the
    reflection start compares correctly, and one in the mirror shows here.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"theta = {theta!r} on horizon {grid.horizon!r} takes the "
                         "reflection theta * t - w(t) beyond the range of a double")
    return Path(grid, values)


def validate_theta(theta: float) -> float:
    """``theta`` as a Python float; a drift the germ transform is not
    defined for is rejected."""
    value = _real(theta)
    if value is None:
        raise ValueError(f"theta must be a real number, got {theta!r}")
    if not math.isfinite(value):
        raise ValueError(f"theta must be finite, got {theta}")
    if value < 0:
        raise ValueError(
            "theta must be >= 0; for a negative drift use the negation "
            "symmetry: negate germ_transform(-w, u, -theta)"
        )
    return value


def _log_likelihood_ratio(w_end, theta: float, horizon: float):
    return theta * w_end - 0.5 * theta * theta * horizon


def _keeps(u: float, log_ratio: float) -> bool:
    """The keep-branch rule ``u <= exp(log_ratio)``.

    A nonnegative exponent keeps without evaluating exp: u <= 1 <= exp(x),
    so no decision changes, and exp cannot overflow.  Batched decisions
    call this too, because ``np.exp`` may differ from ``math.exp`` in the
    last ulp.
    """
    return log_ratio >= 0.0 or u <= math.exp(log_ratio)


def germ_transform(w: Path, u: float, theta: float) -> Path:
    """Couple a driftless path to a drift-theta one on the same window.

    If ``u`` is at most the endpoint likelihood ratio the input is returned
    unchanged (agreement survives the horizon); otherwise the path is
    reflected after its last line visit.  Either branch is a single sweep
    over the samples.
    """
    validate_theta(theta)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if _keeps(u, _log_likelihood_ratio(float(w.values[-1]), theta, w.horizon)):
        return w
    return reflect_after_last_visit(w, theta)


def fragmentation_time(p1: Path, p2: Path) -> float:
    """First grid time where the two paths differ bit-exactly.

    ``inf`` when they agree at every grid point.  Bit-exact
    comparison is sound because the coupling transforms copy the agreement
    prefix verbatim.
    """
    if p1.grid != p2.grid:
        raise ValueError("paths must share a grid")
    first = int(_first_difference(p1.values[None], p2.values[None])[0])
    return math.inf if first > p1.grid.n_steps else float(p1.times[first])


def _first_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the first index where ``a`` and ``b`` differ bit-exactly;
    the row length where they agree."""
    differs = a != b
    first = differs.argmax(axis=1)
    return np.where(differs[np.arange(a.shape[0]), first], first, a.shape[1])


def sample_coupled_pair(grid, theta: float, stream: RngStream) -> CoupledPair:
    """One pair of :func:`couple_rows`, drawn from ``stream``:
    branch = germ_transform(stem, u, theta).

    Consumes ``n_steps`` words for the stem increments and then one word
    for the uniform, in that order, so replay of a stream is exact.  The
    branch is the stem itself when nothing is reflected.
    """
    # A log ratio of inf - inf is nan, which reflects; _branch rejects a
    # reflection that overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        stems, branches, start = couple_rows(grid, theta, stream._words(grid.n_steps + 1)[None])
    stem = Path(grid, stems[0])
    branch = stem if start[0] > grid.n_steps else _branch(grid, theta, branches[0])
    return CoupledPair(stem, branch, theta, fragmentation_time(stem, branch))


def couple_rows(grid, theta: float, words: np.ndarray):
    """Coupled pairs, one per row: a driftless stem and its germ transform.

    ``words`` holds ``n_steps + 1`` words of each stream per row: the stem
    increments, then the uniform.  Returns the stems, the branches and the
    first reflected index of each branch (``n_steps + 1`` when it was kept
    or nothing was reflected).
    """
    validate_theta(theta)
    n = grid.n_steps
    stems = sample_bm_rows(grid, DriftedLaw(0.0, 0.0), words)
    times = grid.times()
    start = _reflection_start(times, stems, theta)
    u = uniform01_from_words(words[:, n])
    log_ratio = _log_likelihood_ratio(stems[:, -1], theta, grid.horizon)
    start[np.fromiter(map(_keeps, u.tolist(), log_ratio.tolist()), dtype=bool)] = n + 1
    return stems, _mirror(times, stems, theta, start), start


def invert_time(times: np.ndarray, values: np.ndarray, t_min: float):
    """Map the window t >= t_min of paths sampled on ``times`` through
    s -> s * w(1/s).

    ``values`` holds one path along its last axis, or many in rows.
    Returns the inverted grid {1/t : t >= t_min}, ascending, and the
    inverted values on it.  The t = 0 limit is not representable on a
    finite grid, so ``t_min`` must be strictly positive.
    """
    times, values = np.asarray(times), np.asarray(values)
    if not t_min > 0:
        raise ValueError(f"t_min must be > 0, got {t_min}")
    if not (times.ndim == 1 and np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("times must be a finite, strictly increasing 1-d array")
    if values.shape[-1:] != times.shape or not np.isfinite(values).all():
        raise ValueError("values must be finite, one per time along the last axis")
    mask = times >= t_min
    if np.count_nonzero(mask) < 2:
        raise ValueError("window t >= t_min keeps fewer than 2 grid points")
    sel_t = times[mask]
    return (1.0 / sel_t)[::-1], (values[..., mask] / sel_t)[..., ::-1]


def first_meeting(times: np.ndarray, a: np.ndarray, b: np.ndarray) -> float | None:
    """Earliest time where the paths ``a`` and ``b`` on the grid ``times`` meet.

    A grid point where their difference is exactly 0 counts as a meeting,
    and a sign change of the difference between adjacent grid points is
    resolved to the interpolated crossing inside the cell.  ``None`` when
    they never meet on the grid.
    """
    ts = np.asarray(times)
    d = np.asarray(a) - np.asarray(b)
    touches = np.nonzero(d == 0)[0]
    best = float(ts[touches[0]]) if touches.size else None
    # Every cell's interpolated root is a candidate, because one can round
    # past its cell's end and so past the next cell's root.  On a tie the
    # touch is kept.
    k = np.nonzero(((d[:-1] > 0) & (d[1:] < 0)) | ((d[:-1] < 0) & (d[1:] > 0)))[0]
    if k.size:
        root = float((ts[k] + (ts[k + 1] - ts[k]) * d[k] / (d[k] - d[k + 1])).min())
        best = root if best is None else min(best, root)
    return best
