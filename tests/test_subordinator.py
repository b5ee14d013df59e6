import math

import numpy as np
import pytest

from germsim import verify
from germsim.coupling import validate_theta
from germsim.paths import DriftedLaw, TimeGrid, line_value, sample_bm_rows
from germsim.rng import normal_from_words, stream_words
from germsim.stats import Ecdf, ks_statistic, levy_cdf
from germsim.subordinator import (
    DriftGrid,
    fragmentation_process,
    fragmentation_process_dual,
    sample_passage_time,
)


def test_drift_grid_validation():
    with pytest.raises(ValueError):
        DriftGrid(())
    with pytest.raises(ValueError, match="^thetas must be >= 0"):
        DriftGrid((-1.0, 2.0))
    with pytest.raises(ValueError):
        DriftGrid((1.0, 1.0))
    assert DriftGrid((0.0, 1.0)).thetas == (0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_drift_grid_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="^thetas must be finite"):
        DriftGrid((1.0, bad))


@pytest.mark.parametrize("bad", [("a",), (None,), ("1.5",), "1,2", None, 2.0])
def test_drift_grid_rejects_non_numeric(bad):
    with pytest.raises(ValueError, match="^thetas must be a (sequence of )?real number"):
        DriftGrid(bad)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, -1.0, "a"])
def test_drift_grid_rejects_each_drift_as_validate_theta_does(bad):
    # One theta rule: a grid rejects a drift with validate_theta's message,
    # under the name thetas.
    with pytest.raises(ValueError) as want:
        validate_theta(bad, "thetas")
    with pytest.raises(ValueError) as got:
        DriftGrid((0.5, bad))
    assert str(got.value) == str(want.value)


def _stems(grid, seed, n):
    """Driftless stems of the streams ``(seed, 0)`` to ``(seed, n - 1)``, one per row."""
    words = stream_words(seed, np.arange(n), grid.n_steps)
    return sample_bm_rows(grid, DriftedLaw(0.0, 0.0), words)


def test_zero_drift_entry_is_horizon_censored():
    grid = TimeGrid(1.0, 100)
    times = fragmentation_process(grid.times(), _stems(grid, 31, 1)[0], DriftGrid((0.0, 1.0)))
    assert times[0] == math.inf


def test_stem_on_line_reports_horizon():
    # Exact arithmetic: theta=1 level times are halves of dyadic grid times.
    # The stem ends on the line, so the log likelihood ratio is 0 and the
    # keep branch fires: the pair agrees to the horizon.
    grid = TimeGrid(2.0, 8)
    theta0 = 1.0
    stem = line_value(theta0, grid.times())
    times = fragmentation_process(grid.times(), stem, DriftGrid((theta0,)))
    assert times[0] == math.inf


def test_fragmentation_process_monotone_on_samples():
    grid = TimeGrid(10.0, 500)
    dgrid = DriftGrid((0.5, 1.0, 2.0, 4.0, 8.0))
    times = fragmentation_process(grid.times(), _stems(grid, 32, 200), dgrid)
    # Compared, not differenced: inf - inf is nan.
    assert np.all(times[:, 1:] <= times[:, :-1])


def test_dual_agrees_within_one_cell():
    grid = TimeGrid(10.0, 500)
    dgrid = DriftGrid((0.5, 1.0, 2.0, 4.0, 8.0))
    stems = _stems(grid, 33, 100)
    direct = fragmentation_process(grid.times(), stems, dgrid)
    dual = fragmentation_process_dual(grid.times(), stems, dgrid)
    # Both routes agree to the horizon on the same entries, and fragment at
    # it on the same entries: the dual reads T back as 1 / (1 / T).
    assert np.array_equal(np.isinf(direct), np.isinf(dual))
    assert np.array_equal(direct == grid.horizon, dual == 1.0 / (1.0 / grid.horizon))
    differ = direct != dual
    assert np.all(np.abs(direct[differ] - dual[differ]) < grid.dt / 2)


def test_dual_agreement_gate_fails_on_a_dual_inf(monkeypatch):
    # c05 compares the routes wherever the direct one fragments before T.
    # A dual that reads inf at one such entry per chunk fails the gate
    # instead of dropping out of it.
    dual = verify.fragmentation_process_dual

    def dual_missing_one(times, stems, dgrid):
        out = dual(times, stems, dgrid)
        resolved = fragmentation_process(times, stems, dgrid) < times[-1]
        out.flat[np.flatnonzero(resolved)[:1]] = math.inf
        return out

    monkeypatch.setattr(verify, "fragmentation_process_dual", dual_missing_one)
    reports = {r.test_name: r for r in verify._criterion_5(verify.VerifyConfig(scale=0.05))}
    assert reports["c05_monotone"].passed
    assert not reports["c05_dual_agreement"].passed
    assert reports["c05_dual_agreement"].meta["worst_diff"] == math.inf


def test_fragmentation_process_rejects_bad_stems():
    times = TimeGrid(1.0, 2).times()
    with pytest.raises(ValueError, match="^stems must hold one value per time"):
        fragmentation_process(times, np.zeros((2, 4)), DriftGrid((1.0,)))
    for fn in (fragmentation_process, fragmentation_process_dual):
        with pytest.raises(ValueError, match=r"^stem must start at 0, got 1\.0$"):
            fn(times, np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 2.0]]), DriftGrid((1.0,)))


def test_dual_line_stem_round_trip():
    grid = TimeGrid(2.0, 8)
    theta0 = 1.0
    stem = line_value(theta0, grid.times())
    times = fragmentation_process_dual(grid.times(), stem, DriftGrid((theta0,)))
    # Inverted path is the constant theta0/2, so the first inverted point
    # is on the level: the stem ends on its line and the pair is kept.
    assert times[0] == math.inf


def test_dual_censors_unreachable_levels():
    grid = TimeGrid(2.0, 8)
    stem = line_value(1.0, grid.times())
    times = fragmentation_process_dual(grid.times(), stem, DriftGrid((50.0,)))
    # No inverted point reaches 25: the stem meets the line only at t = 0,
    # so the reflection starts one cell in, as `couple` reports it.
    assert times[0] == grid.dt


def test_passage_sampler_formula():
    assert sample_passage_time(1.0, 2.0) == 0.25
    assert sample_passage_time(3.0, -1.5) == 4.0
    assert sample_passage_time(1.0, np.array([2.0, -0.5])).tolist() == [0.25, 4.0]


def test_passage_sampler_rejects_bad_level():
    with pytest.raises(ValueError, match="level"):
        sample_passage_time(0.0, 1.0)


def test_passage_sampler_ks():
    draws = sample_passage_time(1.0, normal_from_words(stream_words(36, [0], 10_000)[0]))
    stat = ks_statistic(Ecdf(draws), lambda t: levy_cdf(1.0, t), support=(0.0, math.inf))
    assert stat < 0.0193  # alpha = 0.001 critical value for n = 1e4


def test_passage_sampler_median():
    # Analytic median of the level-1 passage law: (1 / Phi^-1(0.75))^2.
    median = (1.0 / 0.6744897501960817) ** 2
    assert math.isclose(levy_cdf(1.0, median), 0.5, abs_tol=1e-12)
    draws = sample_passage_time(1.0, normal_from_words(stream_words(37, [0], 10_000)[0]))
    assert abs(float(np.median(draws)) - median) < 0.16
