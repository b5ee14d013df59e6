"""Core path transforms: reflection after the last line visit, the
finite-horizon germ transform, fragmentation and meeting times, and time
inversion.  Inversion and meeting times take plain arrays, paths sampled
on one grid of ``times``, because the inverted grid is not uniform.

One kernel, :func:`_couple_stems`, keeps or mirrors given stems in rows;
:func:`couple_rows`, ``bouquet`` and :func:`reflect_after_last_visit`
(one path, no keep decision) all call it.

Every fragmentation time is a grid time from one rule, the reflection
start: one past the last grid point at or above the line theta * t / 2.
The transforms copy the untouched prefix of their input verbatim, so the
first bit-exact difference of stem and branch falls at that time; no
tolerance is involved.  Only :func:`first_meeting`, an analysis quantity
for the meeting duality, interpolates inside a grid cell.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .paths import DriftedLaw, Path, _real, line_value, sample_bm_rows
from .rng import RngStream, uniform01_from_words


def reflect_after_last_visit(w: Path, theta: float) -> Path:
    """Mirror the path across the line theta * t / 2 after its last grid visit:
    every trailing grid point strictly below the line becomes theta * t - w(t),
    and everything up to the last point at or above it is copied bit-exactly.
    Returns ``w`` itself when nothing is mirrored."""
    theta = validate_theta(theta)
    branches, frag = _couple_stems(w.grid, theta, w.values[None])
    return w if frag[0] == math.inf else Path(w.grid, branches[0])


def _reflection_start(times: np.ndarray, rows: np.ndarray, theta: float) -> np.ndarray:
    """Per row, the first index the reflection after the last visit mirrors.

    That is one past the last grid point at or above the line theta * t / 2,
    found by ``argmax`` on the reversed row: ``n_steps + 1`` when the row
    ends at or above the line, 0 when no point is.  ``rows`` runs along its
    last axis, and ``theta`` may be an array that broadcasts against it,
    such as a column of one drift per row.
    """
    at_or_above = rows - line_value(theta, times) >= 0.0
    last = times.size - 1 - at_or_above[..., ::-1].argmax(axis=-1)
    at_last = np.take_along_axis(at_or_above, last[..., None], axis=-1)[..., 0]
    return np.where(at_last, last + 1, 0)


def validate_theta(theta: float, name: str = "theta") -> float:
    """``theta`` as a Python float; a drift the germ transform is not
    defined for is rejected under ``name``."""
    value = _real(name, theta)
    if value < 0:
        raise ValueError(
            f"{name} must be >= 0; for a negative drift use the negation "
            "symmetry: negate germ_transform(-w, u, -theta)"
        )
    return value


def validate_u(u: float) -> float:
    """``u`` as a Python float in [0, 1], the range of the uniform picking the branch."""
    value = _real("u", u)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {value}")
    return value


def _check_start(starts) -> None:
    """Reject a stem that does not start at 0, the shared start w(0) = 0 the
    construction assumes: the log ratio theta * w(T) - theta**2 * T / 2 and
    the line theta * t / 2 both count from it.  ``starts`` holds the first
    value of one stem or of many."""
    starts = np.asarray(starts)
    if (starts != 0.0).any():
        raise ValueError(f"stem must start at 0, got {float(starts[starts != 0.0][0])!r}")


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

    ``w`` must start at 0.  If ``u`` is at most the endpoint likelihood
    ratio the input is returned unchanged (agreement survives the horizon);
    otherwise the path is reflected after its last line visit.  Either
    branch is a single sweep over the samples.
    """
    validate_theta(theta)
    u = validate_u(u)
    _check_start(w.values[0])
    if _keeps(u, _log_likelihood_ratio(float(w.values[-1]), theta, w.horizon)):
        return w
    return reflect_after_last_visit(w, theta)


def sample_coupled_pair(grid, theta: float, stream: RngStream):
    """One pair of :func:`couple_rows`, drawn from ``stream``: the stem and
    the branch germ_transform(stem, u, theta) as arrays on ``grid``, and
    their fragmentation time as a float.

    Consumes ``n_steps`` words for the stem increments and then one word
    for the uniform, in that order, so replay of a stream is exact.
    """
    stems, branches, frag = couple_rows(grid, theta, stream.words(grid.n_steps + 1)[None])
    return stems[0], branches[0], float(frag[0])


@functools.lru_cache(maxsize=8)
def _index_times(grid) -> np.ndarray:
    """The read-only time of each index of ``grid``, and ``inf`` at
    ``n_steps + 1``, the reflection start that mirrors nothing."""
    times = np.append(grid.times(), math.inf)
    times.flags.writeable = False
    return times


def couple_rows(grid, theta: float, words: np.ndarray):
    """Coupled pairs, one per row: a driftless stem and its germ transform.

    ``words`` holds ``n_steps + 1`` words of each stream per row: the stem
    increments, then the uniform.  Returns the stems, the branches and the
    fragmentation time of each pair, as :func:`_couple_stems` does.
    """
    theta = validate_theta(theta)
    stems = sample_bm_rows(grid, DriftedLaw(0.0, 0.0), words)
    return stems, *_couple_stems(grid, theta, stems, uniform01_from_words(words[:, grid.n_steps]))


def _couple_stems(grid, theta: float, stems: np.ndarray, u: np.ndarray | None = None):
    """The germ transform of each row of ``stems`` on ``grid``: kept where
    its uniform ``u`` is at most the endpoint likelihood ratio, otherwise
    mirrored to theta * t - w(t) from its reflection start on; ``u=None``
    mirrors every row.  Returns the branches and each pair's fragmentation
    time: the grid time of its reflection start, ``inf`` when it was kept or
    nothing was mirrored.  A mirror beyond a double is rejected under theta.
    """
    n = grid.n_steps
    times = _index_times(grid)
    # An overflow in the reflection start compares correctly and a log ratio
    # of inf - inf is nan, which reflects; one in the mirror is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        start = _reflection_start(times[:-1], stems, theta)
        if u is not None:
            log_ratio = _log_likelihood_ratio(stems[:, -1], theta, grid.horizon)
            start[np.fromiter(map(_keeps, u.tolist(), log_ratio.tolist()), dtype=bool)] = n + 1
        branches = np.where(np.arange(n + 1) >= start[:, None], theta * times[:-1] - stems, stems)
    if not np.isfinite(branches).all():
        raise ValueError(f"theta = {theta!r} on horizon {grid.horizon!r} takes the "
                         "reflection theta * t - w(t) beyond the range of a double")
    return branches, times[start]


def invert_time(times: np.ndarray, values: np.ndarray, t_min: float):
    """Map the window t >= t_min of paths sampled on ``times`` through
    s -> s * w(1/s).

    ``values`` holds one path along its last axis, or many in rows.
    Returns the inverted grid {1/t : t >= t_min}, ascending, and the
    inverted values on it.  The t = 0 limit is not representable on a
    finite grid, so ``t_min`` must be strictly positive.
    """
    times, values = np.asarray(times), np.asarray(values)
    t_min = _real("t_min", t_min)
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
