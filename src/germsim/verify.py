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

from .coupling import couple_rows, first_meeting, invert_rows, invert_time
from .paths import DriftedLaw, Path, TimeGrid, sample_bm, sample_bm_rows
from .rng import stream_words, substream
from .stats import (
    Ecdf,
    GofReport,
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
    skip_reflection: bool = False,
) -> _CoupleSummary:
    grid = TimeGrid(horizon, n_steps)
    times = grid.times()
    frag = np.empty(n_paths)
    germ_ok = np.empty(n_paths, dtype=bool)
    branch_end = np.empty(n_paths)
    for ids in _chunks(n_paths, n_steps + 1):
        words = stream_words(seed, namespace | ids, n_steps + 1)
        stems, branches, start = couple_rows(
            grid, theta, words, skip_reflection=skip_reflection
        )
        reflected = start <= n_steps
        frag[ids] = np.where(reflected, times[np.minimum(start, n_steps)], math.inf)
        # The germ recheck does not trust the reflection start: it scans
        # for the first bit-exact difference between stem and branch.
        differs = stems != branches
        first = differs.argmax(axis=1)
        any_diff = differs[np.arange(ids.size), first]
        germ_ok[ids] = np.where(
            reflected, any_diff & (first >= 1) & (frag[ids] == times[first]), ~any_diff
        )
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
    """KS of uncensored fragmentation times against the renormalized law.

    Returns 1.0 when no sample is uncensored: the empirical law then has no
    mass on the observable region where the reference has all of it, which
    is the supremum distance.
    """
    uncensored = summary.frag[np.isfinite(summary.frag)]
    if uncensored.size == 0:
        return 1.0, 0
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
    meta = {"theta": theta, "horizon": horizon, "n_steps": n_steps, "seed": cfg.seed}

    stat, n_unc = _frag_law_ks(summary)
    ks_report = GofReport(
        "c01_frag_time_ks", n=n_unc, statistic=stat, threshold=FRAG_KS_TOL,
        alpha=cfg.alpha, meta=meta,
    )

    p = 1.0 - fragmentation_cdf(theta, horizon)
    p_hat = float(np.mean(~np.isfinite(summary.frag)))
    sigma = math.sqrt(p * (1.0 - p) / n_paths)
    cens_report = GofReport(
        "c01_censored_fraction", n=n_paths, statistic=abs(p_hat - p),
        threshold=3.0 * sigma, alpha=cfg.alpha,
        meta={**meta, "expected": p, "observed": p_hat},
    )
    return [ks_report, cens_report], summary


def _criterion_2(cfg: VerifyConfig) -> GofReport:
    # The keep/reflect decision depends only on w(T) and u, whose joint law
    # is grid-exact, so a coarse grid loses nothing.
    theta, horizon, n_steps = 1.0, 1.0, 16
    n_paths = _scaled(100_000, cfg.scale, 2_000)
    summary = _couple_batch(cfg.seed, _ns(2), theta, horizon, n_steps, n_paths)
    target = branch_probability(theta, horizon)
    freq = float(np.mean(summary.kept))
    return GofReport(
        "c02_branch_frequency", n=n_paths, statistic=abs(freq - target),
        threshold=BRANCH_FREQ_TOL, alpha=cfg.alpha,
        meta={"theta": theta, "horizon": horizon, "expected": target,
              "observed": freq, "seed": cfg.seed},
    )


def _criterion_3(cfg: VerifyConfig) -> list[GofReport]:
    # The branch endpoint has the exact drifted normal law for any grid.
    theta, horizon, n_steps = 2.0, 1.0, 100
    n_paths = _scaled(10_000, cfg.scale, 1_000)
    summary = _couple_batch(cfg.seed, _ns(3), theta, horizon, n_steps, n_paths)
    ends = summary.branch_end
    meta = {"theta": theta, "horizon": horizon, "seed": cfg.seed}
    mean_target, var_target = theta * horizon, horizon
    mean_rep = GofReport(
        "c03_endpoint_mean", n=n_paths, statistic=abs(float(np.mean(ends)) - mean_target),
        threshold=ENDPOINT_MEAN_TOL, alpha=cfg.alpha,
        meta={**meta, "observed": float(np.mean(ends))},
    )
    var_rep = GofReport(
        "c03_endpoint_var", n=n_paths,
        statistic=abs(float(np.var(ends, ddof=1)) - var_target),
        threshold=ENDPOINT_VAR_TOL, alpha=cfg.alpha,
        meta={**meta, "observed": float(np.var(ends, ddof=1))},
    )
    sd = math.sqrt(var_target)
    stat = ks_statistic(
        Ecdf(ends), lambda x: std_normal_cdf((x - mean_target) / sd)
    )
    ks_rep = GofReport(
        "c03_endpoint_ks", n=n_paths, statistic=stat,
        threshold=ks_threshold(n_paths, cfg.alpha), alpha=cfg.alpha, meta=meta,
    )
    return [mean_rep, var_rep, ks_rep]


def _criterion_4(cfg: VerifyConfig, summary: _CoupleSummary) -> list[GofReport]:
    bad_germ = float(np.mean(~summary.germ_ok))
    uncensored = summary.frag[np.isfinite(summary.frag)]
    bad_pos = float(np.mean(uncensored <= 0.0)) if uncensored.size else 0.0
    meta = {"theta": summary.theta, "horizon": summary.horizon, "seed": cfg.seed}
    return [
        GofReport("c04_germ_prefix", n=summary.n_paths, statistic=bad_germ,
                  threshold=0.0, alpha=cfg.alpha, meta=meta),
        GofReport("c04_positive_frag", n=int(uncensored.size), statistic=bad_pos,
                  threshold=0.0, alpha=cfg.alpha, meta=meta),
    ]


def _criterion_5(cfg: VerifyConfig) -> list[GofReport]:
    horizon, n_steps = 10.0, 1_000
    n_stems = _scaled(1_000, cfg.scale, 100)
    grid = TimeGrid(horizon, n_steps)
    dgrid = DriftGrid((0.5, 1.0, 2.0, 4.0, 8.0))

    def one(i: int):
        stem = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(cfg.seed, _ns(5) | i))
        fp = fragmentation_process(stem, dgrid)
        fd = fragmentation_process_dual(stem, dgrid)
        worst = 0.0
        compared = 0
        bad = 0
        for t_direct, c_direct, t_dual, c_dual in zip(
            fp.times, fp.censored, fd.times, fd.censored
        ):
            if c_direct or c_dual:
                continue
            compared += 1
            diff = abs(t_direct - t_dual)
            worst = max(worst, diff)
            if diff > grid.dt:
                bad += 1
        return fp.is_nonincreasing(), compared, bad, worst

    rows = [one(i) for i in range(n_stems)]
    non_monotone = sum(1 for r in rows if not r[0])
    compared = sum(r[1] for r in rows)
    bad = sum(r[2] for r in rows)
    worst = max((r[3] for r in rows), default=0.0)
    meta = {"horizon": horizon, "n_steps": n_steps, "thetas": list(dgrid.thetas),
            "seed": cfg.seed}
    return [
        GofReport("c05_monotone", n=n_stems, statistic=non_monotone / n_stems,
                  threshold=0.0, alpha=cfg.alpha, meta=meta),
        GofReport("c05_dual_agreement", n=compared,
                  statistic=bad / compared if compared else 0.0, threshold=0.0,
                  alpha=cfg.alpha, meta={**meta, "worst_diff": worst, "cell": grid.dt}),
    ]


def _criterion_6(cfg: VerifyConfig, summary: _CoupleSummary) -> list[GofReport]:
    n_draws = _scaled(10_000, cfg.scale, 1_000)
    draws = sample_passage_time(1.0, substream(cfg.seed, _ns(6)), size=n_draws)
    stat = ks_statistic(Ecdf(draws), lambda t: levy_cdf(1.0, t), support=(0.0, math.inf))
    sampler_rep = GofReport(
        "c06_passage_sampler_ks", n=n_draws, statistic=stat,
        threshold=PASSAGE_KS_TOL, alpha=cfg.alpha,
        meta={"level": 1.0, "seed": cfg.seed},
    )

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
    cross_rep = GofReport(
        "c06_frag_passage_duality_ks", n=int(recip.size), statistic=cross_stat,
        threshold=FRAG_KS_TOL, alpha=cfg.alpha,
        meta={"level": level, "resolution_censored": int(uncensored.size - resolved.size),
              "seed": cfg.seed},
    )
    return [sampler_rep, cross_rep]


def _criterion_7(cfg: VerifyConfig) -> list[GofReport]:
    n_paths = _scaled(1_000, cfg.scale, 100)
    grid = TimeGrid(2.0, 400)
    t_min = 0.1

    def inv_one(i: int) -> float:
        p = sample_bm(grid, DriftedLaw(0.5, -0.25), substream(cfg.seed, _ns(7) | i))
        once = invert_time(p, t_min)
        twice = invert_time(once, once.times[0])
        orig = p.values[p.times >= t_min]
        back = twice.values
        denom = np.abs(orig)
        err = np.zeros_like(orig)
        nz = denom > 0
        err[nz] = np.abs(back[nz] - orig[nz]) / denom[nz]
        err[~nz] = np.abs(back[~nz])
        return float(np.max(err))

    worst = max(inv_one(i) for i in range(n_paths))
    inv_rep = GofReport(
        "c07_involution", n=n_paths, statistic=worst,
        threshold=INVOLUTION_REL_TOL, alpha=cfg.alpha,
        meta={"t_min": t_min, "seed": cfg.seed},
    )

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
        p1 = Path(fine, base)
        p2 = Path(fine, base + gap)
        i1 = invert_time(p1, pair_t_min)
        i2 = invert_time(p2, pair_t_min)
        met = first_meeting(i1, i2, tol=0.0)
        if met is None:
            return False
        expect = 1.0 / m
        j = int(np.searchsorted(i1.times, expect))
        j = min(max(j, 1), i1.times.size - 1)
        cell = float(i1.times[j] - i1.times[j - 1])
        return abs(met - expect) <= cell

    bad = sum(1 for i in range(n_pairs) if not pair_one(i))
    pair_rep = GofReport(
        "c07_meeting_duality", n=n_pairs, statistic=bad / n_pairs, threshold=0.0,
        alpha=cfg.alpha, meta={"t_min": pair_t_min, "seed": cfg.seed},
    )
    return [inv_rep, pair_rep]


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
    j_half = int(np.argmin(np.abs(inv_times - 0.5)))
    j_one = int(np.argmin(np.abs(inv_times - 1.0)))
    s_half = float(inv_times[j_half])
    s_one = float(inv_times[j_one])

    law = DriftedLaw(theta, delta)
    at_one = np.empty(n_paths)
    at_half = np.empty(n_paths)
    for ids in _chunks(n_paths, grid.n_steps):
        words = stream_words(cfg.seed, _ns(8) | ids, grid.n_steps)
        _, inv = invert_rows(grid.times(), sample_bm_rows(grid, law, words), t_min)
        at_one[ids] = inv[:, j_one]
        at_half[ids] = inv[:, j_half]
    thr = ks_threshold(n_paths, cfg.alpha)
    reports = []
    for name, data, s in (
        ("c08_inverted_marginal_s1", at_one, s_one),
        ("c08_inverted_marginal_s05", at_half, s_half),
    ):
        mean, sd = theta + delta * s, math.sqrt(s)
        stat = ks_statistic(Ecdf(data), lambda x, m=mean, sd=sd: std_normal_cdf((x - m) / sd))
        reports.append(
            GofReport(name, n=n_paths, statistic=stat, threshold=thr, alpha=cfg.alpha,
                      meta={"s": s, "mean": mean, "var": s, "seed": cfg.seed})
        )
    return reports


def _core_reports(cfg: VerifyConfig) -> list[GofReport]:
    """Criteria 1 through 8 (the distributional core of the suite)."""
    reports, summary = _criterion_1(cfg)
    reports.append(_criterion_2(cfg))
    reports.extend(_criterion_3(cfg))
    reports.extend(_criterion_4(cfg, summary))
    reports.extend(_criterion_5(cfg))
    reports.extend(_criterion_6(cfg, summary))
    reports.extend(_criterion_7(cfg))
    reports.extend(_criterion_8(cfg))
    return reports


def _criterion_9(cfg: VerifyConfig) -> GofReport:
    sub = replace(cfg, scale=min(_DETERMINISM_SCALE, cfg.scale))
    first = reports_to_json(_core_reports(sub))
    second = reports_to_json(_core_reports(sub))
    identical = first == second
    return GofReport(
        "c09_report_determinism", n=2, statistic=0.0 if identical else 1.0,
        threshold=0.0, alpha=cfg.alpha,
        meta={"scale": sub.scale, "bytes": len(first), "seed": cfg.seed},
    )


def _criterion_10(cfg: VerifyConfig) -> GofReport:
    # Negative control: with the reflection branch suppressed every pair
    # agrees to the horizon, the observable region gets no mass, and the
    # fragmentation-law KS must blow past its threshold.  The report is
    # sign-flipped so that pass means "the corrupted run failed".
    n_steps = _scaled(1_000, cfg.scale, 250)
    n_paths = _scaled(2_000, cfg.scale, 400)
    corrupted = _couple_batch(
        cfg.seed, _ns(10), 2.0, 10.0, n_steps, n_paths, skip_reflection=True
    )
    stat, n_unc = _frag_law_ks(corrupted)
    return GofReport(
        "c10_negative_control", n=n_paths, statistic=-stat, threshold=-FRAG_KS_TOL,
        alpha=cfg.alpha,
        meta={"corrupted_ks": stat, "ks_tolerance": FRAG_KS_TOL,
              "uncensored": n_unc, "seed": cfg.seed},
    )


def run_verification(cfg: VerifyConfig | None = None) -> list[GofReport]:
    """Run the complete suite and return one report per check, in order."""
    cfg = cfg or VerifyConfig()
    if cfg.scale <= 0:
        raise ValueError(f"scale must be > 0, got {cfg.scale}")
    reports = _core_reports(cfg)
    reports.append(_criterion_9(cfg))
    reports.append(_criterion_10(cfg))
    return reports


def format_report_lines(reports: list[GofReport]) -> list[str]:
    return [
        f"{'PASS' if r.passed else 'FAIL'} {r.test_name}: "
        f"statistic={r.statistic:.6g} threshold={r.threshold:.6g} n={r.n}"
        for r in reports
    ]
