"""Distribution-level verification suite.

Every check runs a deterministic simulation keyed off the configured seed
and returns :class:`~germsim.stats.GofReport` entries.  Stream ids are
namespaced per criterion (``tag << 32 | path_index``) so checks never
share randomness and the whole suite replays bit-for-bit.

Absolute tolerances are pinned for the default scale.  ``scale`` shrinks
sample counts for smoke runs and determinism checks; only the
formula-based thresholds (binomial sigmas, KS quantiles) stay calibrated
there, so a reduced-scale run is not a substitute for the full suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import _first_difference, couple_rows, first_meeting, invert_time
from .paths import DriftedLaw, TimeGrid, _real, sample_bm, sample_bm_rows
from .rng import _check_u64, stream_words, substream
from .stats import (
    Ecdf,
    GofReport,
    _check_alpha,
    branch_probability,
    fragmentation_cdf,
    ks_statistic,
    ks_threshold,
    levy_cdf,
    reports_to_json,
    std_normal_cdf,
)
from .subordinator import (
    DriftGrid,
    fragmentation_process,
    fragmentation_process_dual,
    sample_passage_time,
)

# Pinned acceptance tolerances (default scale).
FRAG_KS_TOL = 0.02          # KS quantile at alpha=0.001 plus discretization allowance
BRANCH_FREQ_TOL = 0.005     # three binomial sigmas at n = 1e5, rounded up
ENDPOINT_MEAN_TOL = 0.03
ENDPOINT_VAR_TOL = 0.05
PASSAGE_KS_TOL = 0.0195     # exact sampler, KS quantile at alpha=0.001, n = 1e4
INVOLUTION_REL_TOL = 1e-9

_DETERMINISM_SCALE = 0.05

# Batched criteria simulate chunks of paths holding about this many words,
# so each per-chunk array stays near 256 kB (c01: 3 paths of 10,001 words)
# and memory does not grow with the path count.  Measured on 2 CPUs over
# c01 (2,000 paths), c02, c03 and c08: 2**13 words took 2.2-2.4 s at a
# 57.0 MB peak, 2**15 1.7-1.9 s at 58.7 MB, 2**17 1.7-1.8 s at 66.4 MB.
CHUNK_WORDS = 1 << 15


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    alpha: float = 0.001
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_u64("seed", self.seed))
        _check_alpha(self.alpha)
        # 100_000 is the largest sample count the suite scales.
        scale = _real(self.scale)
        if scale is None or not (scale > 0 and math.isfinite(100_000 * scale)):
            raise ValueError(f"scale must be > 0 with 100000 * scale finite, got {self.scale!r}")


def _report(cfg: VerifyConfig, name: str, n: int, statistic: float, threshold: float,
            **meta) -> GofReport:
    """One check of the suite, at the run's alpha and with its seed in ``meta``."""
    return GofReport(name, n=n, statistic=statistic, threshold=threshold,
                     alpha=cfg.alpha, meta={**meta, "seed": cfg.seed})


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def _ns(tag: int) -> int:
    return tag << 32


def _chunks(n_paths: int, n_words: int):
    """Consecutive index arrays covering range(n_paths), CHUNK_WORDS words each."""
    rows = max(1, CHUNK_WORDS // n_words)
    for start in range(0, n_paths, rows):
        yield np.arange(start, min(start + rows, n_paths))


@dataclass(frozen=True)
class _CoupleSummary:
    """Per-path reductions of a coupled batch (full paths are not retained)."""

    theta: float
    horizon: float
    dt: float
    n_paths: int
    frag: np.ndarray        # fragmentation time, +inf where agreement held to T
    germ_ok: np.ndarray     # independent recheck of the reported fragmentation
    kept: np.ndarray        # keep-branch indicator (u at most the likelihood ratio)
    branch_end: np.ndarray  # branch value at the horizon


def _couple_batch(
    seed: int,
    namespace: int,
    theta: float,
    horizon: float,
    n_steps: int,
    n_paths: int,
) -> _CoupleSummary:
    grid = TimeGrid(horizon, n_steps)
    # Time of each index, inf at n_steps + 1: "no such index".
    times = np.append(grid.times(), math.inf)
    frag = np.empty(n_paths)
    germ_ok = np.empty(n_paths, dtype=bool)
    branch_end = np.empty(n_paths)
    for ids in _chunks(n_paths, n_steps + 1):
        words = stream_words(seed, namespace | ids, n_steps + 1)
        stems, branches, start = couple_rows(grid, theta, words)
        frag[ids] = times[start]
        # The germ recheck does not trust the reflection start: it scans
        # for the first bit-exact difference between stem and branch.
        first = _first_difference(stems, branches)
        germ_ok[ids] = (first >= 1) & (frag[ids] == times[first])
        branch_end[ids] = branches[:, -1]
    return _CoupleSummary(
        theta=theta,
        horizon=horizon,
        dt=grid.dt,
        n_paths=n_paths,
        frag=frag,
        germ_ok=germ_ok,
        kept=np.isinf(frag),
        branch_end=branch_end,
    )


def _frag_law_ks(summary: _CoupleSummary) -> tuple[float, int]:
    """KS of uncensored fragmentation times against the renormalized law."""
    uncensored = summary.frag[np.isfinite(summary.frag)]
    ecdf = Ecdf(uncensored, censor_bound=summary.horizon)
    stat = ks_statistic(
        ecdf, lambda t: fragmentation_cdf(summary.theta, t), support=(0.0, math.inf)
    )
    return stat, int(uncensored.size)


def _criterion_1(cfg: VerifyConfig) -> tuple[list[GofReport], _CoupleSummary]:
    theta, horizon = 2.0, 10.0
    n_steps = _scaled(10_000, cfg.scale, 250)
    n_paths = _scaled(20_000, cfg.scale, 400)
    summary = _couple_batch(cfg.seed, _ns(1), theta, horizon, n_steps, n_paths)
    meta = {"theta": theta, "horizon": horizon, "n_steps": n_steps}
    stat, n_unc = _frag_law_ks(summary)
    p = 1.0 - fragmentation_cdf(theta, horizon)
    p_hat = float(np.mean(~np.isfinite(summary.frag)))
    sigma = math.sqrt(p * (1.0 - p) / n_paths)
    return [
        _report(cfg, "c01_frag_time_ks", n_unc, stat, FRAG_KS_TOL, **meta),
        _report(cfg, "c01_censored_fraction", n_paths, abs(p_hat - p), 3.0 * sigma,
                **meta, expected=p, observed=p_hat),
    ], summary


def _criterion_2(cfg: VerifyConfig) -> GofReport:
    # The keep/reflect decision depends only on w(T) and u, whose joint law
    # is grid-exact, so a coarse grid loses nothing.
    theta, horizon, n_steps = 1.0, 1.0, 16
    n_paths = _scaled(100_000, cfg.scale, 2_000)
    summary = _couple_batch(cfg.seed, _ns(2), theta, horizon, n_steps, n_paths)
    target = branch_probability(theta, horizon)
    freq = float(np.mean(summary.kept))
    return _report(cfg, "c02_branch_frequency", n_paths, abs(freq - target),
                   BRANCH_FREQ_TOL, theta=theta, horizon=horizon, expected=target,
                   observed=freq)


def _criterion_3(cfg: VerifyConfig) -> list[GofReport]:
    # The branch endpoint has the exact drifted normal law for any grid.
    theta, horizon, n_steps = 2.0, 1.0, 100
    n_paths = _scaled(10_000, cfg.scale, 1_000)
    summary = _couple_batch(cfg.seed, _ns(3), theta, horizon, n_steps, n_paths)
    ends = summary.branch_end
    meta = {"theta": theta, "horizon": horizon}
    mean_target, var_target = theta * horizon, horizon
    mean, var = float(np.mean(ends)), float(np.var(ends, ddof=1))
    sd = math.sqrt(var_target)
    stat = ks_statistic(
        Ecdf(ends), lambda x: std_normal_cdf((x - mean_target) / sd)
    )
    return [
        _report(cfg, "c03_endpoint_mean", n_paths, abs(mean - mean_target),
                ENDPOINT_MEAN_TOL, **meta, observed=mean),
        _report(cfg, "c03_endpoint_var", n_paths, abs(var - var_target),
                ENDPOINT_VAR_TOL, **meta, observed=var),
        _report(cfg, "c03_endpoint_ks", n_paths, stat, ks_threshold(n_paths, cfg.alpha),
                **meta),
    ]


def _criterion_4(cfg: VerifyConfig, summary: _CoupleSummary) -> list[GofReport]:
    bad_germ = float(np.mean(~summary.germ_ok))
    uncensored = summary.frag[np.isfinite(summary.frag)]
    bad_pos = float(np.mean(uncensored <= 0.0)) if uncensored.size else 0.0
    meta = {"theta": summary.theta, "horizon": summary.horizon}
    return [
        _report(cfg, "c04_germ_prefix", summary.n_paths, bad_germ, 0.0, **meta),
        _report(cfg, "c04_positive_frag", int(uncensored.size), bad_pos, 0.0, **meta),
    ]


def _criterion_5(cfg: VerifyConfig) -> list[GofReport]:
    horizon, n_steps = 10.0, 1_000
    n_stems = _scaled(1_000, cfg.scale, 100)
    grid = TimeGrid(horizon, n_steps)
    dgrid = DriftGrid((0.5, 1.0, 2.0, 4.0, 8.0))

    non_monotone = 0
    diffs = []  # |direct - dual| wherever neither route is censored
    for i in range(n_stems):
        stem = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(cfg.seed, _ns(5) | i))
        direct, c_direct = fragmentation_process(stem, dgrid)
        dual, c_dual = fragmentation_process_dual(stem, dgrid)
        # Compared, and censored entries dropped before differencing:
        # inf - inf is nan.
        non_monotone += not np.all(direct[1:] <= direct[:-1])
        both = ~(c_direct | c_dual)
        diffs.append(np.abs(direct[both] - dual[both]))
    diffs = np.concatenate(diffs)
    bad = int(np.count_nonzero(diffs > grid.dt))
    meta = {"horizon": horizon, "n_steps": n_steps, "thetas": list(dgrid.thetas)}
    return [
        _report(cfg, "c05_monotone", n_stems, non_monotone / n_stems, 0.0, **meta),
        _report(cfg, "c05_dual_agreement", diffs.size, bad / diffs.size if diffs.size else 0.0,
                0.0, **meta, worst_diff=float(diffs.max(initial=0.0)), cell=grid.dt),
    ]


def _criterion_6(cfg: VerifyConfig, summary: _CoupleSummary) -> list[GofReport]:
    n_draws = _scaled(10_000, cfg.scale, 1_000)
    draws = sample_passage_time(1.0, substream(cfg.seed, _ns(6)), size=n_draws)
    stat = ks_statistic(Ecdf(draws), lambda t: levy_cdf(1.0, t), support=(0.0, math.inf))

    # Reciprocal fragmentation times against the passage law.  Samples at
    # the resolution floor (the grid reports every sub-cell fragmentation
    # at exactly one cell) are censored at 1/dt and the reference is
    # renormalized on the resolved region.
    level = summary.theta / 2.0
    uncensored = summary.frag[np.isfinite(summary.frag)]
    resolved = uncensored[uncensored > summary.dt]
    recip = 1.0 / resolved
    ecdf = Ecdf(recip, censor_bound=1.0 / summary.dt)
    cross_stat = ks_statistic(
        ecdf, lambda s: levy_cdf(level, s), support=(1.0 / summary.horizon, math.inf)
    )
    return [
        _report(cfg, "c06_passage_sampler_ks", n_draws, stat, PASSAGE_KS_TOL, level=1.0),
        _report(cfg, "c06_frag_passage_duality_ks", int(recip.size), cross_stat,
                FRAG_KS_TOL, level=level,
                resolution_censored=int(uncensored.size - resolved.size)),
    ]


def _criterion_7(cfg: VerifyConfig) -> list[GofReport]:
    n_paths = _scaled(1_000, cfg.scale, 100)
    grid = TimeGrid(2.0, 400)
    times = grid.times()
    t_min = 0.1

    worst = 0.0
    for ids in _chunks(n_paths, grid.n_steps):
        words = stream_words(cfg.seed, _ns(7) | ids, grid.n_steps)
        paths = sample_bm_rows(grid, DriftedLaw(0.5, -0.25), words)
        s, once = invert_time(times, paths, t_min)
        _, twice = invert_time(s, once, s[0])
        orig = paths[:, times >= t_min]
        # Relative error, absolute where the original value is zero.
        err = np.abs(twice - orig) / np.where(orig != 0, np.abs(orig), 1.0)
        worst = max(worst, float(err.max()))
    inv_rep = _report(cfg, "c07_involution", n_paths, worst, INVOLUTION_REL_TOL, t_min=t_min)

    # Synthetic piecewise-linear pairs with a known last meeting time m:
    # under inversion the first meeting must land within one inverted-grid
    # cell of 1/m.
    n_pairs = _scaled(1_000, cfg.scale, 100)
    fine = TimeGrid(10.0, 2_000)
    fine_t = fine.times()
    pair_t_min = 0.05

    def pair_one(i: int) -> bool:
        st = substream(cfg.seed, _ns(17) | i)
        u = st.uniform01(4)
        m = 0.2 + 4.8 * u[0]
        tail_slope = 0.5 + 1.5 * u[1]
        sign = 1.0 if u[2] < 0.5 else -1.0
        h0 = 0.5 + u[3]
        anchors_t = np.linspace(0.0, fine.horizon, 9)
        anchors_v = np.concatenate([[0.0], np.cumsum(st.standard_normal(8))])
        base = np.interp(fine_t, anchors_t, anchors_v)
        # The gap crosses zero transversally at m/2 and at m and nowhere
        # else; m is the last meeting time of the pair.  The overall sign
        # flip varies which path is on top without turning the final
        # crossing into a tangential touch a grid cannot see.
        knots_t = np.array([0.0, 0.5 * m, 0.75 * m, m, fine.horizon])
        knots_v = sign * np.array(
            [h0, 0.0, -0.5 * h0, 0.0, tail_slope * (fine.horizon - m)]
        )
        gap = np.interp(fine_t, knots_t, knots_v)
        s, inverted = invert_time(fine_t, np.stack((base, base + gap)), pair_t_min)
        met = first_meeting(s, *inverted)
        if met is None:
            return False
        expect = 1.0 / m
        j = int(np.searchsorted(s, expect))
        j = min(max(j, 1), s.size - 1)
        cell = float(s[j] - s[j - 1])
        return abs(met - expect) <= cell

    bad = sum(1 for i in range(n_pairs) if not pair_one(i))
    return [inv_rep, _report(cfg, "c07_meeting_duality", n_pairs, bad / n_pairs, 0.0,
                             t_min=pair_t_min)]


def _criterion_8(cfg: VerifyConfig) -> list[GofReport]:
    # Inversion swaps start and drift: the image of drift 1, start 0 is a
    # driftless motion started at 1, with marginal N(theta + delta*s, s)
    # at inverted time s.
    theta, delta = 1.0, 0.0
    grid = TimeGrid(2.0, 200)
    t_min = 0.01
    n_paths = _scaled(10_000, cfg.scale, 1_000)

    # The inverted grid is a deterministic function of the time grid, so the
    # probe indices can be fixed up front and shared by every path.
    inv_times = (1.0 / grid.times()[grid.times() >= t_min])[::-1]
    names = ("c08_inverted_marginal_s1", "c08_inverted_marginal_s05")
    probes = [int(np.argmin(np.abs(inv_times - s))) for s in (1.0, 0.5)]

    law = DriftedLaw(theta, delta)
    at = np.empty((len(probes), n_paths))
    for ids in _chunks(n_paths, grid.n_steps):
        words = stream_words(cfg.seed, _ns(8) | ids, grid.n_steps)
        _, inv = invert_time(grid.times(), sample_bm_rows(grid, law, words), t_min)
        at[:, ids] = inv[:, probes].T
    thr = ks_threshold(n_paths, cfg.alpha)
    reports = []
    for name, j, data in zip(names, probes, at):
        s = float(inv_times[j])
        mean, sd = theta + delta * s, math.sqrt(s)
        stat = ks_statistic(Ecdf(data), lambda x: std_normal_cdf((x - mean) / sd))
        reports.append(_report(cfg, name, n_paths, stat, thr, s=s, mean=mean, var=s))
    return reports


def _core_reports(cfg: VerifyConfig) -> list[GofReport]:
    """Criteria 1 through 8 (the distributional core of the suite)."""
    reports, summary = _criterion_1(cfg)
    return [*reports, _criterion_2(cfg), *_criterion_3(cfg), *_criterion_4(cfg, summary),
            *_criterion_5(cfg), *_criterion_6(cfg, summary), *_criterion_7(cfg),
            *_criterion_8(cfg)]


def _criterion_9(cfg: VerifyConfig) -> GofReport:
    sub = replace(cfg, scale=min(_DETERMINISM_SCALE, cfg.scale))
    first = reports_to_json(_core_reports(sub))
    second = reports_to_json(_core_reports(sub))
    return _report(cfg, "c09_report_determinism", 2, 0.0 if first == second else 1.0,
                   0.0, scale=sub.scale, bytes=len(first))


def _criterion_10(cfg: VerifyConfig) -> GofReport:
    # Negative control: couple at the wrong drift, theta = 1.5, and test the
    # fragmentation times against the theta = 2 law.  Most pairs fragment,
    # so the KS test runs, and the later fragmentation of the smaller drift
    # must blow past its tolerance.  The report is sign-flipped so that
    # pass means "the corrupted run failed".
    n_steps = _scaled(1_000, cfg.scale, 250)
    n_paths = _scaled(2_000, cfg.scale, 400)
    corrupted = replace(_couple_batch(cfg.seed, _ns(10), 1.5, 10.0, n_steps, n_paths),
                        theta=2.0)
    stat, n_unc = _frag_law_ks(corrupted)
    return _report(cfg, "c10_negative_control", n_paths, -stat, -FRAG_KS_TOL,
                   corrupted_ks=stat, ks_tolerance=FRAG_KS_TOL, uncensored=n_unc)


def run_verification(cfg: VerifyConfig | None = None) -> list[GofReport]:
    """Run the complete suite and return one report per check, in order."""
    cfg = cfg or VerifyConfig()
    return [*_core_reports(cfg), _criterion_9(cfg), _criterion_10(cfg)]


def format_report_lines(reports: list[GofReport]) -> list[str]:
    return [
        f"{'PASS' if r.passed else 'FAIL'} {r.test_name}: "
        f"statistic={r.statistic:.6g} threshold={r.threshold:.6g} n={r.n}"
        for r in reports
    ]
