"""Closed-form reference laws and goodness-of-fit machinery."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .coupling import validate_theta
from .paths import _real
from .rng import _MAX_LENGTH, _check_int


def std_normal_cdf(x):
    """Standard normal CDF, accurate to well below 1e-10 (erfc based)."""
    return ndtr(x)


def _check_t(t) -> np.ndarray:
    """``t`` as a float array; a nan time is rejected under ``t``."""
    t_arr = np.asarray(t, dtype=float)
    if np.isnan(t_arr).any():
        raise ValueError("t must not be nan")
    return t_arr


def fragmentation_cdf(theta: float, t):
    """CDF of the fragmentation time of the maximal coupling of drifts 0 and theta.

    P(tau <= t) = 2 * Phi(|theta| * sqrt(t) / 2) - 1, the law of
    4 * theta^-2 * Z^2.  Vectorized in t.  ``theta`` is any finite, nonzero
    real: the law depends on its magnitude only.
    """
    theta = _real("theta", theta)
    if theta == 0:
        raise ValueError("theta must be nonzero: with equal drifts the paths never fragment")
    t_arr = _check_t(t)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    out = 2.0 * ndtr(0.5 * abs(theta) * np.sqrt(t_arr)) - 1.0
    return float(out) if np.isscalar(t) else out


def levy_cdf(a: float, t):
    """CDF of the first passage time of standard BM to level a > 0.

    P(T_a <= t) = 2 * (1 - Phi(a / sqrt(t))); 0 for t <= 0.  Vectorized in t.
    """
    a = _real("a", a)
    if not a > 0:
        raise ValueError(f"level a must be > 0, got {a}")
    t_arr = _check_t(t)
    with np.errstate(divide="ignore"):
        out = np.where(t_arr > 0, 2.0 * (1.0 - ndtr(a / np.sqrt(np.maximum(t_arr, 0)))), 0.0)
    return float(out) if np.isscalar(t) else out


def branch_probability(theta: float, horizon: float) -> float:
    """Probability the germ transform keeps its input unchanged.

    Equals P(agreement outlives the horizon) = 2 * (1 - Phi(theta * sqrt(T) / 2)),
    the mean of min(endpoint likelihood ratio, 1).  ``theta`` is checked as
    the germ transform checks it.
    """
    theta = validate_theta(theta)
    horizon = _real("horizon", horizon)
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    return float(2.0 * (1.0 - ndtr(0.5 * theta * math.sqrt(horizon))))


@dataclass(frozen=True)
class Ecdf:
    """Sorted, finite, nonempty sample."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.samples, dtype=float))
        if arr.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)


def ks_statistic(
    ecdf: Ecdf,
    cdf: Callable[[np.ndarray], np.ndarray],
    support: tuple[float, float] = (-math.inf, math.inf),
) -> float:
    """Sup over sample points of |ECDF - reference| for the law conditioned
    on the support [lo, hi].

    Samples outside the support are dropped, and the reference is
    (cdf(x) - cdf(lo)) / (cdf(hi) - cdf(lo)), an infinite end counting as
    0 or 1 without a call to ``cdf``.  On the whole line that is ``cdf``
    itself, bit for bit.
    """
    lo, hi = support
    x = ecdf.samples
    x = x[(x >= lo) & (x <= hi)]
    if x.size == 0:
        raise ValueError("no samples inside the support interval")
    f_lo = float(cdf(np.array([lo]))[0]) if math.isfinite(lo) else 0.0
    f_hi = float(cdf(np.array([hi]))[0]) if math.isfinite(hi) else 1.0
    norm = f_hi - f_lo
    if norm <= 0:
        raise ValueError("reference CDF has no mass on the support interval")
    ref = (np.asarray(cdf(x), dtype=float) - f_lo) / norm
    ranks = np.searchsorted(x, x, side="right") / x.size
    return float(np.max(np.abs(ranks - ref)))


def _check_alpha(alpha) -> float:
    """``alpha`` as a Python float, a test level in (0, 1)."""
    value = _real("alpha", alpha)
    if not 0 < value < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {value!r}")
    return value


def ks_threshold(n: int, alpha: float) -> float:
    """Asymptotic Kolmogorov quantile c(alpha) / sqrt(n).

    c(alpha) = sqrt(-ln(alpha / 2) / 2).  Intended for n >= 1000; exact
    small-sample tables are out of scope.
    """
    n = _check_int("n", n)
    if not 1 <= n <= _MAX_LENGTH:
        raise ValueError(f"n must lie in [1, {_MAX_LENGTH}], got {n}")
    alpha = _check_alpha(alpha)
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


@dataclass(frozen=True)
class GofReport:
    """One named verification check; pass holds iff statistic <= threshold."""

    test_name: str
    n: int
    statistic: float
    threshold: float
    alpha: float
    meta: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.statistic <= self.threshold))

    def to_dict(self) -> dict:
        return {
            "test": self.test_name,
            "n": self.n,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "alpha": self.alpha,
            "pass": self.passed,
            "meta": dict(self.meta),
        }


def reports_to_json(reports: list[GofReport]) -> str:
    """Deterministic JSON rendering of a report list (stable key order)."""
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n"
