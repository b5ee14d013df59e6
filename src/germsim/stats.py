"""Closed-form reference laws and goodness-of-fit machinery."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr


def std_normal_cdf(x):
    """Standard normal CDF, accurate to well below 1e-10 (erfc based)."""
    return ndtr(x)


def fragmentation_cdf(theta: float, t):
    """CDF of the fragmentation time of the maximal coupling of drifts 0 and theta.

    P(tau <= t) = 2 * Phi(|theta| * sqrt(t) / 2) - 1, the law of
    4 * theta^-2 * Z^2.  Vectorized in t.
    """
    if theta == 0:
        raise ValueError("theta must be nonzero: with equal drifts the paths never fragment")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    out = 2.0 * ndtr(0.5 * abs(theta) * np.sqrt(t_arr)) - 1.0
    return float(out) if np.isscalar(t) else out


def levy_cdf(a: float, t):
    """CDF of the first passage time of standard BM to level a > 0.

    P(T_a <= t) = 2 * (1 - Phi(a / sqrt(t))); 0 for t <= 0.  Vectorized in t.
    """
    if not a > 0:
        raise ValueError(f"level a must be > 0, got {a}")
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(t_arr > 0, 2.0 * (1.0 - ndtr(a / np.sqrt(np.maximum(t_arr, 0)))), 0.0)
    return float(out) if np.isscalar(t) else out


def branch_probability(theta: float, horizon: float) -> float:
    """Probability the germ transform keeps its input unchanged.

    Equals P(agreement outlives the horizon) = 2 * (1 - Phi(theta * sqrt(T) / 2)),
    the mean of min(endpoint likelihood ratio, 1).
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    return float(2.0 * (1.0 - ndtr(0.5 * theta * math.sqrt(horizon))))


@dataclass(frozen=True)
class Ecdf:
    """Sorted sample with an optional right-censoring bound.

    The censor bound records that values at or beyond it were not resolved
    by the experiment; goodness-of-fit against a reference CDF then
    renormalizes the reference on the observable region.
    """

    samples: np.ndarray
    censor_bound: float | None = None

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
    """Sup over sample points of |ECDF - cdf| restricted to the support.

    When the ECDF carries a censor bound, the reference is renormalized on
    [support_lo, min(support_hi, censor_bound)] so the comparison is
    against the conditional law on the observable region.  Without a
    censor bound the reference is used as given.
    """
    lo, hi = support
    x = ecdf.samples
    keep = (x >= lo) & (x <= hi)
    x = x[keep]
    if x.size == 0:
        raise ValueError("no samples inside the support interval")
    ref = np.asarray(cdf(x), dtype=float)
    if ecdf.censor_bound is not None:
        hi_eff = min(hi, ecdf.censor_bound)
        f_lo = float(cdf(np.array([lo]))[0]) if math.isfinite(lo) else 0.0
        f_hi = float(cdf(np.array([hi_eff]))[0]) if math.isfinite(hi_eff) else 1.0
        norm = f_hi - f_lo
        if norm <= 0:
            raise ValueError("reference CDF has no mass on the observable region")
        ref = (ref - f_lo) / norm
    ranks = np.searchsorted(x, x, side="right") / x.size
    return float(np.max(np.abs(ranks - ref)))


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def ks_threshold(n: int, alpha: float) -> float:
    """Asymptotic Kolmogorov quantile c(alpha) / sqrt(n).

    c(alpha) = sqrt(-ln(alpha / 2) / 2).  Intended for n >= 1000; exact
    small-sample tables are out of scope.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_alpha(alpha)
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
