import math

import numpy as np
import pytest

from germsim.paths import DriftedLaw, Path, TimeGrid, line_value, sample_bm
from germsim.rng import substream
from germsim.stats import Ecdf, ks_statistic, levy_cdf
from germsim.subordinator import (
    DriftGrid,
    fragmentation_process,
    fragmentation_process_dual,
    sample_passage_time,
)


class _FixedStream:
    def __init__(self, z):
        self._z = z

    def standard_normal(self, size=None):
        return self._z if size is None else np.full(size, self._z)


def test_drift_grid_validation():
    with pytest.raises(ValueError):
        DriftGrid(())
    with pytest.raises(ValueError):
        DriftGrid((-1.0, 2.0))
    with pytest.raises(ValueError):
        DriftGrid((1.0, 1.0))
    assert DriftGrid((0.0, 1.0)).thetas == (0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_drift_grid_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="thetas must all be finite"):
        DriftGrid((1.0, bad))


@pytest.mark.parametrize("bad", [("a",), (None,), ("1.5",), "1,2", None, 2.0])
def test_drift_grid_rejects_non_numeric(bad):
    with pytest.raises(ValueError, match="^thetas must be real numbers"):
        DriftGrid(bad)


def test_zero_drift_entry_is_horizon_censored():
    stem = sample_bm(TimeGrid(1.0, 100), DriftedLaw(0.0, 0.0), substream(31, 0))
    times, censored = fragmentation_process(stem, DriftGrid((0.0, 1.0)))
    assert times[0] == math.inf
    assert censored[0]


def test_stem_on_line_reports_horizon():
    # Exact arithmetic: theta=1 level times are halves of dyadic grid times.
    # The stem ends on the line, so the log likelihood ratio is 0 and the
    # keep branch fires: the pair agrees to the horizon.
    grid = TimeGrid(2.0, 8)
    theta0 = 1.0
    stem = Path(grid, line_value(theta0, grid.times()))
    times, censored = fragmentation_process(stem, DriftGrid((theta0,)))
    assert times[0] == math.inf
    assert censored[0]


def test_fragmentation_process_monotone_on_samples():
    grid = TimeGrid(10.0, 500)
    dgrid = DriftGrid((0.5, 1.0, 2.0, 4.0, 8.0))
    for i in range(200):
        stem = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(32, i))
        times, _ = fragmentation_process(stem, dgrid)
        # Compared, not differenced: inf - inf is nan.
        assert np.all(times[1:] <= times[:-1])


def test_dual_agrees_within_one_cell():
    grid = TimeGrid(10.0, 500)
    dgrid = DriftGrid((0.5, 1.0, 2.0, 4.0, 8.0))
    for i in range(100):
        stem = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(33, i))
        direct = (a.tolist() for a in fragmentation_process(stem, dgrid))
        dual = (a.tolist() for a in fragmentation_process_dual(stem, dgrid))
        for t1, c1, t2, c2 in zip(*direct, *dual):
            assert c1 == c2
            assert t1 == t2 or abs(t1 - t2) < grid.dt / 2


def test_dual_line_stem_round_trip():
    grid = TimeGrid(2.0, 8)
    theta0 = 1.0
    stem = Path(grid, line_value(theta0, grid.times()))
    times, censored = fragmentation_process_dual(stem, DriftGrid((theta0,)))
    # Inverted path is the constant theta0/2, so the first inverted point
    # is on the level: the stem ends on its line and the pair is kept.
    assert times[0] == math.inf
    assert censored[0]


def test_dual_censors_unreachable_levels():
    grid = TimeGrid(2.0, 8)
    stem = Path(grid, line_value(1.0, grid.times()))
    times, censored = fragmentation_process_dual(stem, DriftGrid((50.0,)))
    # No inverted point reaches 25: the stem meets the line only at t = 0,
    # so the reflection starts one cell in, as `couple` reports it.
    assert times[0] == grid.dt
    assert not censored[0]


def test_passage_sampler_formula():
    assert sample_passage_time(1.0, _FixedStream(2.0)) == 0.25
    assert sample_passage_time(3.0, _FixedStream(-1.5)) == 4.0


def test_passage_sampler_rejects_bad_level():
    with pytest.raises(ValueError, match="level"):
        sample_passage_time(0.0, _FixedStream(1.0))


def test_passage_sampler_ks():
    draws = sample_passage_time(1.0, substream(36, 0), size=10_000)
    stat = ks_statistic(Ecdf(draws), lambda t: levy_cdf(1.0, t), support=(0.0, math.inf))
    assert stat < 0.0193  # alpha = 0.001 critical value for n = 1e4


def test_passage_sampler_median():
    # Analytic median of the level-1 passage law: (1 / Phi^-1(0.75))^2.
    median = (1.0 / 0.6744897501960817) ** 2
    assert math.isclose(levy_cdf(1.0, median), 0.5, abs_tol=1e-12)
    draws = sample_passage_time(1.0, substream(37, 0), size=10_000)
    assert abs(float(np.median(draws)) - median) < 0.16
