import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import first_difference, keeps, reflected, reflection_start

from germsim.coupling import (
    first_meeting,
    germ_transform,
    invert_time,
    reflect_after_last_visit,
    sample_coupled_pair,
    validate_theta,
)
from germsim.paths import DriftedLaw, Path, TimeGrid, line_value, sample_bm_rows
from germsim.rng import stream_words, substream
from germsim.stats import Ecdf, ks_statistic, ks_threshold, std_normal_cdf
from germsim.subordinator import DriftGrid, fragmentation_process, fragmentation_process_dual
from germsim.verify import _first_difference

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e6, max_value=1e6
)


def path_of(values, horizon=None):
    values = np.asarray(values, dtype=float)
    T = horizon if horizon is not None else float(len(values) - 1)
    return Path(TimeGrid(T, len(values) - 1), values)


def stems_of(grid, seed, ids):
    """Driftless stems of the streams ``(seed, id)``, one per row."""
    return sample_bm_rows(grid, DriftedLaw(0.0, 0.0), stream_words(seed, ids, grid.n_steps))


# ---------------------------------------------------------------- reflection

def test_reflect_no_op_when_endpoint_at_or_above():
    grid = TimeGrid(1.0, 4)
    w = stems_of(grid, 1, [0])[0]
    shifted = Path(grid, w + abs(w).max() + 1.0)
    out = reflect_after_last_visit(shifted, 0.0)
    assert out is shifted


def test_reflect_hand_traced_example():
    w = path_of([0.0, -0.5, -0.1], horizon=1.0)  # grid (0, 0.5, 1)
    out = reflect_after_last_visit(w, 2.0)
    assert np.array_equal(out.values, [0.0, 1.5, 2.1])


def test_reflect_zero_drift_negates_negative_tail():
    w = path_of([0.0, 0.5, -0.3, -0.2], horizon=1.5)
    out = reflect_after_last_visit(w, 0.0)
    assert np.array_equal(out.values, [0.0, 0.5, 0.3, 0.2])


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_reflect_rejects_non_finite_theta(theta):
    w = path_of([0.0, -0.5, -0.1], horizon=1.0)
    with pytest.raises(ValueError, match="^theta must be finite"):
        reflect_after_last_visit(w, theta)


def test_reflect_rejects_negative_theta():
    w = path_of([0.0, 0.5, 0.1], horizon=1.0)
    with pytest.raises(ValueError, match="^theta must be >= 0"):
        reflect_after_last_visit(w, -1.0)


def test_reflection_identity_mirror_images():
    # On reflected indices branch + stem equals theta * t up to rounding.
    grid = TimeGrid(5.0, 2_000)
    theta = 1.5
    for values in stems_of(grid, 21, range(20)):
        stem = Path(grid, values)
        branch = reflect_after_last_visit(stem, theta)
        mask = branch.values != stem.values
        if not mask.any():
            continue
        t = grid.times()[mask]
        resid = branch.values[mask] + stem.values[mask] - theta * t
        scale = np.maximum(np.abs(theta * t), np.abs(stem.values[mask]))
        assert np.all(np.abs(resid) <= 4 * np.spacing(scale + 1.0))


def test_sign_separation_on_reflected_indices():
    grid = TimeGrid(5.0, 2_000)
    theta = 2.0
    for values in stems_of(grid, 22, range(20)):
        stem = Path(grid, values)
        branch = reflect_after_last_visit(stem, theta)
        mask = branch.values != stem.values
        d = stem.values - line_value(theta, grid.times())
        assert np.all(d[mask] < 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_steps=st.integers(1, 40),
       horizon=st.floats(0.01, 100.0), theta=st.floats(0.0, 8.0), u=st.floats(0.0, 1.0),
       pin_end=st.booleans())
# w(T) one ulp below theta * T / 2 = 0.5: the log ratio is -2**-54, whose
# exp rounds to 1.0, so u = 1 keeps; yet w(T) lies below the line, so the
# reflection alone mirrors it.
@example(seed=0, n_steps=16, horizon=1.0, theta=1.0, u=1.0, pin_end=True)
def test_one_path_transforms_match_reference(seed, n_steps, horizon, theta, u, pin_end):
    # Both one-path transforms, bit for bit against the reference's backward
    # sweep and per-point mirror; each returns ``w`` itself where it leaves
    # every point as it is.
    grid = TimeGrid(horizon, n_steps)
    values = stems_of(grid, seed, [0])[0].tolist()
    if pin_end:
        values[-1] = math.nextafter(line_value(theta, horizon), -math.inf)
    w, times = Path(grid, values), grid.times().tolist()
    mirrored = reflection_start(times, values, theta) <= n_steps
    expected = np.array(reflected(times, values, theta)).tobytes()
    out = reflect_after_last_visit(w, theta)
    assert (out is w) == (not mirrored)
    assert out.values.tobytes() == expected
    if pin_end:
        assert out.values[-1] != values[-1]
    branch = germ_transform(w, u, theta)
    kept = keeps(theta, horizon, values[-1], u)
    assert (branch is w) == (kept or not mirrored)
    assert branch.values.tobytes() == (w.values.tobytes() if kept else expected)


# ------------------------------------------------------------ germ transform

def test_germ_transform_zero_drift_is_identity():
    grid = TimeGrid(1.0, 32)
    w = Path(grid, stems_of(grid, 2, [0])[0])
    for u in (0.0, 0.5, 1.0):
        assert germ_transform(w, u, 0.0) is w


def test_germ_transform_keep_branch_example():
    # T=1, theta=1, w(T)=1: ratio exp(0.5) ~ 1.6487 beats u=0.9.
    grid = TimeGrid(1.0, 2)
    w = Path(grid, np.array([0.0, 0.4, 1.0]))
    assert germ_transform(w, 0.9, 1.0) is w
    # exp(10 * 100 - 50) overflows a double: the path is kept, never an error.
    far = Path(grid, np.array([0.0, 50.0, 100.0]))
    assert germ_transform(far, 0.5, 10.0) is far


def test_germ_transform_reflect_branch_example():
    # exp(2*(-0.1) - 2) ~ 0.1108 < 0.9, so the reflection fires.
    w = path_of([0.0, -0.5, -0.1], horizon=1.0)
    out = germ_transform(w, 0.9, 2.0)
    assert np.array_equal(out.values, [0.0, 1.5, 2.1])


def test_germ_transform_rejects_negative_drift():
    w = path_of([0.0, 1.0], horizon=1.0)
    with pytest.raises(ValueError, match="negation symmetry"):
        germ_transform(w, 0.5, -1.0)


@pytest.mark.parametrize("theta", ["a", "1.5", None, np.array([1.0])])
def test_validate_theta_rejects_non_numeric(theta):
    with pytest.raises(ValueError, match="^theta must be a real number"):
        validate_theta(theta)


@pytest.mark.parametrize("theta", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_validate_theta_rejects_theta_beyond_double_range(theta):
    with pytest.raises(ValueError, match="^theta must be finite"):
        validate_theta(theta)


def test_germ_transform_rejects_bad_u():
    w = path_of([0.0, 1.0], horizon=1.0)
    with pytest.raises(ValueError, match="u must"):
        germ_transform(w, 1.5, 1.0)


def test_germ_transform_rejects_a_path_not_started_at_0():
    # From a common start of 5 the log ratio is 2 * (3 - 5) - 2, not 2 * 3 - 2,
    # so keeping this path at u = 0.99 would be wrong.
    w = path_of([5.0, 4.0, 3.0], horizon=1.0)
    with pytest.raises(ValueError, match=r"^stem must start at 0, got 5\.0$"):
        germ_transform(w, 0.99, 2.0)
    # The mirror alone takes any start.
    w = path_of([5.0, -1.0, -2.0], horizon=1.0)
    assert reflect_after_last_visit(w, 2.0).values.tolist() == [5.0, 2.0, 4.0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.floats(0.0, 4.0))
def test_keep_branch_certain_when_endpoint_above_line(task, u, theta):
    # w(T) >= theta*T/2 makes the likelihood ratio >= 1, so the reflection
    # branch is unreachable for every u in [0, 1].
    grid = TimeGrid(1.0, 16)
    w = Path(grid, stems_of(grid, 23, [task])[0])
    lift = line_value(theta, grid.horizon) - w.values[-1] + 0.125
    if lift > 0:  # along t / T, so the path still starts at 0
        w = Path(grid, w.values + lift * grid.times() / grid.horizon)
    assert w.values[-1] >= line_value(theta, grid.horizon)
    assert germ_transform(w, u, theta) is w


def test_keep_branch_at_exact_boundary():
    # w(T) exactly on the line: the likelihood ratio is exp(0) = 1, so even
    # u = 1 keeps the path.
    grid = TimeGrid(1.0, 2)
    w = Path(grid, np.array([0.0, -3.0, 1.0]))  # line level at T is 1.0 for theta=2
    assert germ_transform(w, 1.0, 2.0) is w


# --------------------------------------------------------- fragmentation time

# The suite's germ recheck finds each pair's fragmentation index by its own
# scan for the first bit-exact difference of stem and branch, one per row.

def test_fragmentation_identical_paths():
    w = np.array([[0.0, 1.0, 2.0]])
    assert _first_difference(w, w).tolist() == [3]


def test_fragmentation_first_differing_index():
    a = np.array([[0.0, 1.5, 2.1], [0.0, 1.0, 2.0]])
    b = np.array([[0.0, -0.5, -0.1], [0.0, 1.0, 2.0]])
    assert _first_difference(a, b).tolist() == [1, 3]


def test_fragmentation_final_point_only():
    a = np.array([[0.0, 1.0, 2.0, 3.0]])
    b = np.array([[0.0, 1.0, 2.0, 4.0]])
    assert _first_difference(a, b).tolist() == [3]


def test_sampled_pair_prefix_agreement():
    # The pair's fragmentation time, the reflection start, is where stem
    # and branch first differ, and that lies past t = 0.
    grid = TimeGrid(2.0, 500)
    for i in range(50):
        stem, branch, frag = sample_coupled_pair(grid, 2.0, substream(24, i))
        k = first_difference(stem.tolist(), branch.tolist())
        assert frag == (math.inf if k is None else grid.times()[k])
        assert k is None or k >= 1


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_steps=st.integers(1, 200),
    horizon=st.floats(0.05, 20.0),
    thetas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
                    min_size=1, max_size=6, unique=True).map(sorted),
)
def test_bouquet_replay_shares_stem_and_frag_is_monotone(seed, n_steps, horizon, thetas):
    # Pairs replaying one stream over an increasing drift grid couple the
    # same words at every drift, as `germsim bouquet` couples each row.
    grid = TimeGrid(horizon, n_steps)
    pairs = [sample_coupled_pair(grid, theta, substream(seed, 0)) for theta in thetas]
    frags = [frag for _, _, frag in pairs]
    times = grid.times()
    for stem, branch, frag in pairs:
        assert stem.tobytes() == pairs[0][0].tobytes()
        before = times < frag
        assert branch[before].tobytes() == stem[before].tobytes()
    assert all(b <= a for a, b in zip(frags, frags[1:]))


# -------------------------------------------------------------- time inversion

def test_invert_constant_path_becomes_line():
    grid = TimeGrid(4.0, 8)
    c = 3.25
    s, inv = invert_time(grid.times(), np.full(9, c), grid.dt)
    assert np.allclose(inv, c * s, rtol=1e-12)


def test_invert_line_becomes_constant():
    grid = TimeGrid(4.0, 8)
    theta = 1.75
    _, inv = invert_time(grid.times(), theta * grid.times(), grid.dt)
    assert np.allclose(inv, theta, rtol=1e-12)


def test_invert_requires_positive_t_min():
    with pytest.raises(ValueError, match="t_min"):
        invert_time(np.arange(3.0), np.arange(3.0), 0.0)


def test_invert_rejects_empty_window():
    with pytest.raises(ValueError, match="window"):
        invert_time(np.arange(3.0), np.arange(3.0), 100.0)


def test_invert_requires_increasing_times_and_finite_values():
    with pytest.raises(ValueError, match="^times"):
        invert_time(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.5)
    with pytest.raises(ValueError, match="window"):
        invert_time(np.array([1.0]), np.array([0.0]), 0.5)
    with pytest.raises(ValueError, match="^values"):
        invert_time(np.array([1.0, 2.0]), np.array([0.0, math.nan]), 0.5)
    with pytest.raises(ValueError, match="^values"):
        invert_time(np.array([1.0, 2.0]), np.zeros((2, 3)), 0.5)


def test_double_inversion_relative_error():
    grid = TimeGrid(2.0, 200)
    times = grid.times()
    paths = sample_bm_rows(grid, DriftedLaw(0.3, -0.1), stream_words(25, np.arange(100), 200))
    s, once = invert_time(times, paths, 0.1)
    _, twice = invert_time(s, once, s[0])
    orig = paths[:, times >= 0.1]
    nz = orig != 0
    assert np.max(np.abs(twice[nz] - orig[nz]) / np.abs(orig[nz])) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_rows=st.integers(1, 5),
    n_steps=st.integers(2, 80),
    horizon=st.floats(0.05, 20.0),
    cut=st.floats(0.0, 1.0),
)
def test_invert_rows_match_per_row_calls_and_invert_back(seed, n_rows, n_steps, horizon, cut):
    grid = TimeGrid(horizon, n_steps)
    times = grid.times()
    # A window start from the first grid cell to the last.
    t_min = float(times[1 + int(cut * (n_steps - 2))])
    rows = sample_bm_rows(grid, DriftedLaw(0.5, -0.25),
                          stream_words(seed, np.arange(n_rows), n_steps))
    s, inv = invert_time(times, rows, t_min)
    for row, inv_row in zip(rows, inv):
        s_row, one = invert_time(times, row, t_min)
        assert s_row.tobytes() == s.tobytes()
        assert one.tobytes() == inv_row.tobytes()
    back_t, back = invert_time(s, inv, s[0])
    window = times >= t_min
    assert np.allclose(back_t, times[window], rtol=1e-15, atol=0.0)
    assert np.all(np.abs(back - rows[:, window]) <= 1e-12 * np.abs(rows[:, window]))


# -------------------------------------------------------------- first meeting

def test_first_meeting_identical():
    w = np.array([0.0, 1.0, 2.0])
    assert first_meeting(np.arange(3.0), w, w) == 0.0


def test_first_meeting_interpolated_root():
    ts = np.array([0.0, 1.0])
    assert first_meeting(ts, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.5


def test_first_meeting_none_when_separated():
    ts = np.array([0.0, 1.0])
    assert first_meeting(ts, np.array([1.0, 2.0]), np.array([0.0, 0.5])) is None


# ------------------------------------------------------------ crossing finder

def _scan(ts, d):
    """Reference meeting finder: the earliest of every exact grid touch and
    the interpolated root of every cell whose ends have opposite signs."""
    hits = [float(ts[i]) for i in range(len(d)) if d[i] == 0]
    for k in range(len(d) - 1):
        a, b = float(d[k]), float(d[k + 1])
        if (a > 0 and b < 0) or (a < 0 and b > 0):
            t0, t1 = float(ts[k]), float(ts[k + 1])
            hits.append(t0 + (t1 - t0) * a / (a - b))
    return min(hits, default=None)


# Exact zeros, values equal to the levels theta / 2 of the drift grids
# below, and tiny values whose roots round onto a grid point.
_cells = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e-300, -1e-300]), finite_floats
)


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(_cells, min_size=3, max_size=40),
    sign=st.sampled_from(("mixed", "positive", "negative")),
    horizon=st.sampled_from((1.0, 3.0, 10.0)),
    inverted=st.booleans(),
)
# The root of the cell (185, -1e-300) rounds past its end, after the root
# of the next cell.
@example(row=[0.5, 185.0, -1e-300, 0.5], sign="mixed", horizon=10.0, inverted=False)
@example(row=[0.0, 185.0, -1e-300, 0.5], sign="mixed", horizon=10.0, inverted=False)
def test_crossing_finders_match_brute_force_scan(row, sign, horizon, inverted):
    d = np.array(row)
    if sign == "positive":
        d = np.abs(d) + 0.25
    elif sign == "negative":
        d = -np.abs(d) - 0.25
    grid = TimeGrid(horizon, d.size - 1)
    ts = grid.times()
    if inverted:
        ts, d = invert_time(ts, d, grid.dt)
    assert first_meeting(ts, d, np.zeros(d.size)) == _scan(ts, d)


def _frag_rule(ts, vs, theta):
    """One drift's entry of the fragmentation process, written out: the
    grid time where the backward sweep's reflection starts, the horizon
    when only the last point is reflected, inf at theta = 0 or when nothing
    is."""
    times = ts.tolist()
    k = reflection_start(times, vs, theta)
    if theta == 0.0 or k == len(times):
        return math.inf
    return times[k]


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(st.one_of(st.none(), _cells), min_size=1, max_size=40),
    horizon=st.sampled_from((1.0, 3.0, 10.0)),
    thetas=st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 8.0)), min_size=1, max_size=5,
                    unique=True),
    on=st.integers(0, 4),
)
# theta = 0 and a stem ending above the line; a stem ending exactly on it.
@example(cells=[1.0], horizon=1.0, thetas=[0.0, 1.0], on=0)
@example(cells=[-1.0, None], horizon=3.0, thetas=[0.0, 1.0, 2.0], on=1)
def test_fragmentation_process_matches_per_drift_rule(cells, horizon, thetas, on):
    # A None cell puts the stem on the line of one drift of the grid, so
    # stems touch lines and end exactly on them.
    thetas = sorted(thetas)
    line = thetas[on % len(thetas)]
    grid = TimeGrid(horizon, len(cells))
    ts = grid.times()
    vs = [0.0] + [line_value(line, t) if c is None else c for t, c in zip(ts[1:].tolist(), cells)]
    times = fragmentation_process(ts, np.array(vs), DriftGrid(tuple(thetas)))
    assert times.tolist() == [_frag_rule(ts, vs, th) for th in thetas]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_steps=st.integers(1, 200),
    horizon=st.floats(0.05, 20.0),
    thetas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
                    min_size=1, max_size=6, unique=True).map(sorted),
)
def test_fragmentation_process_is_the_reflected_pairs_frag_time(seed, n_steps, horizon, thetas):
    # Every pair replays one stream, so all share the stem and its uniform;
    # where a pair's stem and branch first differ is the process entry at
    # its drift.
    grid = TimeGrid(horizon, n_steps)
    ts = grid.times().tolist()
    pairs = [sample_coupled_pair(grid, theta, substream(seed, 0)) for theta in thetas]
    times = fragmentation_process(grid.times(), pairs[0][0], DriftGrid(tuple(thetas)))
    for (stem, branch, frag), entry in zip(pairs, times.tolist()):
        k = first_difference(stem.tolist(), branch.tolist())
        if k is not None:
            assert entry.hex() == frag.hex() == ts[k].hex()


def _outcome(fn, times, stems, dgrid):
    """The array ``fn`` returns, or the message of the error it raises."""
    try:
        return fn(times, stems, dgrid)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_rows=st.integers(1, 5),
    n_steps=st.integers(1, 60),
    horizon=st.floats(0.05, 20.0),
    thetas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
                    min_size=1, max_size=6, unique=True).map(sorted),
    on=st.one_of(st.none(), st.integers(0, 5)),
)
# theta = 0 on a one-step grid, where the dual's window holds one point; a
# stem ending exactly on a line of the grid.
@example(seed=0, n_rows=2, n_steps=1, horizon=1.0, thetas=[0.0, 1.0], on=None)
@example(seed=1, n_rows=3, n_steps=8, horizon=2.0, thetas=[0.0, 0.5, 2.0], on=2)
def test_fragmentation_process_rows_match_per_row_calls(seed, n_rows, n_steps, horizon,
                                                         thetas, on):
    # A rows array gives, bit for bit, the stack of the one-row calls, or
    # the same error.
    grid = TimeGrid(horizon, n_steps)
    times = grid.times()
    stems = stems_of(grid, seed, range(n_rows))
    if on is not None:
        stems[on % n_rows, -1] = line_value(thetas[on % len(thetas)], horizon)
    dgrid = DriftGrid(tuple(thetas))
    for fn in (fragmentation_process, fragmentation_process_dual):
        rows = _outcome(fn, times, stems, dgrid)
        per_row = [_outcome(fn, times, stem, dgrid) for stem in stems]
        if isinstance(rows, str):
            assert per_row == [rows] * n_rows
            continue
        assert rows.shape == (n_rows, len(thetas))
        assert rows.tobytes() == np.stack(per_row).tobytes()


def test_meeting_duality_single_pair():
    # w2 - w1 = c * (t - m) has its last zero at m; the inverted difference
    # is linear in s with root exactly at 1/m.
    grid = TimeGrid(10.0, 1_000)
    t = grid.times()
    m = 2.5
    base = np.sin(t)
    s, (i1, i2) = invert_time(t, np.stack((base, base + 0.8 * (t - m))), 0.05)
    met = first_meeting(s, i1, i2)
    assert met is not None
    assert abs(met - 1.0 / m) < 1e-9


def test_inverted_marginal_matches_swapped_law():
    # Inversion swaps start and drift: drift 1, start 0.5 maps to a motion
    # with marginal N(theta + delta*s, s) at inverted time s.
    theta, delta = 1.0, 0.5
    grid = TimeGrid(2.0, 8)
    paths = sample_bm_rows(grid, DriftedLaw(theta, delta), stream_words(26, np.arange(4_000), 8))
    s, inv = invert_time(grid.times(), paths, 0.25)
    vals = inv[:, np.argmin(np.abs(s - 0.5))]
    s = 0.5
    mean, sd = theta + delta * s, math.sqrt(s)
    stat = ks_statistic(Ecdf(vals), lambda x: std_normal_cdf((x - mean) / sd))
    assert stat < ks_threshold(4_000, 0.001)
