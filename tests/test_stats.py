import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germsim.rng import stream_words, uniform01_from_words
from germsim.stats import (
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

# Independent quadrature oracle for the normal CDF: Gauss-Legendre on
# [0, x] of the density, plus 1/2.  240 nodes is far beyond machine
# precision for |x| <= 8.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(240)


def phi_oracle(x: float) -> float:
    u = 0.5 * x * (_GL_NODES + 1.0)
    integral = 0.5 * x * float(np.sum(_GL_WEIGHTS * np.exp(-0.5 * u * u)))
    return 0.5 + integral / math.sqrt(2.0 * math.pi)


# Frozen oracle values (computed with phi_oracle before the build).
PHI_TABLE = {
    0.0: 0.5,
    0.5: 0.6914624612740131,
    1.0: 0.8413447460685429,
    2.0: 0.9772498680518208,
    3.1622776601683795: 0.9992172988709987,
}


def test_phi_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_phi_frozen_table():
    for x, want in PHI_TABLE.items():
        assert abs(float(std_normal_cdf(x)) - want) <= 1e-9


def test_phi_against_quadrature_lattice():
    for x in np.linspace(-6.0, 6.0, 49):
        assert abs(float(std_normal_cdf(x)) - phi_oracle(float(x))) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(-8.0, 8.0))
def test_phi_symmetry(x):
    assert math.isclose(
        float(std_normal_cdf(x)) + float(std_normal_cdf(-x)), 1.0, abs_tol=1e-14
    )


def test_frag_cdf_values():
    assert abs(fragmentation_cdf(2.0, 1.0) - 0.6826894921370859) <= 1e-9
    assert fragmentation_cdf(3.0, 0.0) == 0.0
    assert fragmentation_cdf(1.0, 1e8) > 1.0 - 1e-9


@pytest.mark.parametrize("call,name", [
    (lambda: branch_probability(math.nan, 1.0), "theta"),
    (lambda: branch_probability("2", 1.0), "theta"),
    (lambda: branch_probability(-1.0, 1.0), "theta"),
    (lambda: fragmentation_cdf(math.nan, 1.0), "theta"),
    (lambda: fragmentation_cdf(math.inf, 1.0), "theta"),
    (lambda: fragmentation_cdf("2", 1.0), "theta"),
    (lambda: fragmentation_cdf(1.0, math.nan), "t"),
    (lambda: fragmentation_cdf(1.0, np.array([1.0, math.nan])), "t"),
    (lambda: levy_cdf(1.0, math.nan), "t"),
    (lambda: levy_cdf(1.0, np.array([math.nan])), "t"),
], ids=["bp-nan", "bp-str", "bp-negative", "frag-nan-theta", "frag-inf-theta",
        "frag-str-theta", "frag-nan-t", "frag-nan-t-array", "levy-nan-t", "levy-nan-t-array"])
def test_laws_reject_bad_inputs_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


def test_frag_cdf_rejects_zero_theta():
    with pytest.raises(ValueError, match="theta"):
        fragmentation_cdf(0.0, 1.0)


def test_frag_cdf_sign_symmetric_and_monotone():
    ts = np.linspace(0.0, 20.0, 200)
    vals = fragmentation_cdf(2.0, ts)
    assert np.array_equal(vals, fragmentation_cdf(-2.0, ts))
    assert np.all(np.diff(vals) >= 0)
    assert np.all((0 <= vals) & (vals <= 1))


def test_levy_cdf_values():
    assert abs(levy_cdf(1.0, 1.0) - 0.31731050786291415) <= 1e-9
    assert levy_cdf(1.0, 1e10) > 1.0 - 1e-4
    assert levy_cdf(1.0, 0.0) == 0.0


def test_levy_cdf_rejects_bad_level():
    with pytest.raises(ValueError, match="level"):
        levy_cdf(0.0, 1.0)


def test_reciprocal_identity():
    # levy(theta/2, 1/t) + frag(theta, t) = 1 on a (theta, t) lattice.
    for theta in (0.5, 1.0, 2.0, 5.0):
        for t in (0.01, 0.1, 1.0, 4.0, 25.0):
            lhs = levy_cdf(theta / 2.0, 1.0 / t)
            rhs = 1.0 - fragmentation_cdf(theta, t)
            assert abs(lhs - rhs) <= 1e-12


def test_branch_probability_values():
    assert branch_probability(0.0, 1.0) == 1.0
    assert abs(branch_probability(1.0, 1.0) - 0.6170750774519738) <= 1e-9
    assert branch_probability(1.0, 1e8) < 1e-6


def test_branch_probability_complements_frag_cdf():
    for theta in (0.5, 1.0, 3.0):
        for horizon in (0.5, 2.0, 10.0):
            assert abs(
                branch_probability(theta, horizon)
                - (1.0 - fragmentation_cdf(theta, horizon))
            ) <= 1e-12


def test_ks_single_sample():
    stat = ks_statistic(Ecdf(np.array([0.3])), lambda x: np.full_like(x, 0.5))
    assert stat == 0.5


def test_ks_against_zero_cdf():
    stat = ks_statistic(Ecdf(np.array([1.0, 2.0, 3.0])), lambda x: np.zeros_like(x))
    assert stat == 1.0


def test_ks_null_draws_within_threshold():
    u = uniform01_from_words(stream_words(41, [0], 10_000)[0])
    stat = ks_statistic(Ecdf(u), lambda x: np.clip(x, 0.0, 1.0))
    assert stat < ks_threshold(10_000, 0.001)


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        Ecdf(np.array([]))
    ecdf = Ecdf(np.array([5.0]))
    with pytest.raises(ValueError, match="support"):
        ks_statistic(ecdf, lambda x: np.zeros_like(x), support=(0.0, 1.0))


def test_ks_censoring_renormalizes():
    # Uniform reference conditioned on [0, 0.5]: F is rescaled by 1/0.5.
    ecdf = Ecdf(np.array([0.1, 0.3]))
    stat = ks_statistic(ecdf, lambda x: np.clip(x, 0.0, 1.0), support=(0.0, 0.5))
    assert math.isclose(stat, 0.4, abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    samples=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=30),
    lo=st.one_of(st.just(-math.inf), st.floats(-3.0, 0.0)),
    hi=st.one_of(st.just(math.inf), st.floats(0.0, 3.0)),
)
def test_ks_on_a_support_is_ks_against_the_conditioned_law(samples, lo, hi):
    # Equal, bit for bit, to the in-support samples against the law
    # conditioned by hand and compared on the whole line.
    x = np.array(samples)
    inside = x[(x >= lo) & (x <= hi)]
    assume(inside.size > 0)
    f_lo = float(std_normal_cdf(lo)) if math.isfinite(lo) else 0.0
    f_hi = float(std_normal_cdf(hi)) if math.isfinite(hi) else 1.0
    assume(f_hi > f_lo)
    want = ks_statistic(Ecdf(inside), lambda t: (std_normal_cdf(t) - f_lo) / (f_hi - f_lo))
    assert ks_statistic(Ecdf(x), std_normal_cdf, support=(lo, hi)) == want


def test_ks_whole_line_uses_the_cdf_as_given():
    # The infinite ends cost no call to the reference.
    calls = []

    def cdf(x):
        calls.append(x.size)
        return np.clip(x, 0.0, 1.0)

    assert ks_statistic(Ecdf(np.array([0.1, 0.3])), cdf) == 1.0 - 0.3
    assert calls == [2]


def test_ks_tied_samples_use_right_continuous_ecdf():
    # Both copies of 1.0 sit at rank 2/3, where the reference already is.
    ecdf = Ecdf([1.0, 1.0, 2.0])
    assert ks_statistic(ecdf, lambda x: np.where(x < 1.5, 2 / 3, 1.0)) == 0.0


def test_ks_threshold_values():
    assert abs(ks_threshold(10_000, 0.001) - 0.019494746035204052) <= 1e-12
    assert abs(ks_threshold(100, 0.05) - 0.13581015157406195) <= 1e-12


def test_ks_threshold_monotone_in_n():
    ns = [1_000, 2_000, 5_000, 10_000, 100_000]
    vals = [ks_threshold(n, 0.001) for n in ns]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ks_threshold_validation():
    with pytest.raises(ValueError):
        ks_threshold(0, 0.05)
    with pytest.raises(ValueError):
        ks_threshold(10, 1.5)


def test_gof_report_invariant_and_json():
    rep = GofReport("demo", n=100, statistic=0.01, threshold=0.02, alpha=0.001,
                    meta={"theta": 2.0})
    assert rep.passed
    doc = rep.to_dict()
    assert doc["pass"] is True
    assert doc["test"] == "demo"
    assert doc["meta"]["theta"] == 2.0

    failing = GofReport("demo", n=100, statistic=0.03, threshold=0.02, alpha=0.001)
    assert not failing.passed
    assert failing.to_dict()["pass"] is False


def test_reports_to_json_deterministic():
    reps = [GofReport("a", 1, 0.0, 1.0, 0.5), GofReport("b", 2, 2.0, 1.0, 0.5)]
    assert reports_to_json(reps) == reports_to_json(list(reps))
    parsed = json.loads(reports_to_json(reps))
    for entry in parsed:
        assert entry["pass"] == (entry["statistic"] <= entry["threshold"])
