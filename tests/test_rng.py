import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germsim import rng
from germsim.rng import KEYED_MAX_WORDS, RngStream, stream_words, substream
from germsim.stats import Ecdf, ks_statistic, std_normal_cdf
from germsim.subordinator import sample_passage_time


def test_uniform_range_and_determinism():
    a = RngStream(1, 0)
    b = RngStream(1, 0)
    xs = a.uniform01(1000)
    assert np.all((0.0 <= xs) & (xs < 1.0))
    assert np.array_equal(xs, b.uniform01(1000))


def test_uniform_scalar_in_range():
    u = RngStream(1, 0).uniform01()
    assert isinstance(u, float)
    assert 0.0 <= u < 1.0


def test_uniform_mean():
    xs = RngStream(3, 0).uniform01(100_000)
    # 3 sigma CLT band: 3 * (1/sqrt(12)) / sqrt(1e5) ~ 0.0027, widened to 0.005
    assert abs(xs.mean() - 0.5) < 0.005


def test_normal_moments():
    zs = RngStream(4, 0).standard_normal(100_000)
    assert abs(zs.mean()) < 0.01
    assert abs(zs.var(ddof=1) - 1.0) < 0.02


def test_normal_ks_against_cdf():
    zs = RngStream(5, 0).standard_normal(10_000)
    stat = ks_statistic(Ecdf(zs), std_normal_cdf)
    assert stat < 0.0193  # alpha = 0.001 critical value for n = 1e4


def test_substreams_distinct_and_replayable():
    x = substream(7, 0).uniform01(100)
    y = substream(7, 1).uniform01(100)
    again = substream(7, 0).uniform01(100)
    assert not np.array_equal(x, y)
    assert np.array_equal(x, again)


def test_substream_correlation():
    a = substream(11, 0).standard_normal(10_000)
    b = substream(11, 1).standard_normal(10_000)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.03


def test_chunked_draws_match_single_draw():
    a = RngStream(9, 2)
    b = RngStream(9, 2)
    chunked = np.concatenate([a.standard_normal(10), a.standard_normal(15)])
    assert np.array_equal(chunked, b.standard_normal(25))


def test_mixed_draw_kinds_replay_exactly():
    a = RngStream(13, 4)
    b = RngStream(13, 4)
    seq_a = (a.standard_normal(5), a.uniform01(), a.standard_normal(3))
    seq_b = (b.standard_normal(5), b.uniform01(), b.standard_normal(3))
    assert np.array_equal(seq_a[0], seq_b[0])
    assert seq_a[1] == seq_b[1]
    assert np.array_equal(seq_a[2], seq_b[2])


@pytest.mark.parametrize("seed,stream_id", [(-1, 0), (2**64, 0), (0, -2), (0, 2**64)])
def test_rejects_out_of_range_keys(seed, stream_id):
    with pytest.raises(ValueError):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("seed,stream_id,name", [
    (2.9, 0, "seed"), (1.0, 0, "seed"), ("3", 0, "seed"),
    (0, 1.5, "stream_id"), (0, None, "stream_id"),
])
def test_rejects_non_integer_keys(seed, stream_id, name):
    # Truncation would give RngStream(2.9) the words of seed 2.
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("draw", [
    RngStream.uniform01,
    RngStream.standard_normal,
    lambda stream, size: sample_passage_time(1.0, stream, size=size),
], ids=["uniform01", "standard_normal", "sample_passage_time"])
def test_draw_counts_are_integers(draw):
    # Truncation would give 2 draws for size 2.5.  A rejected size draws
    # nothing, and an integer of any type draws what a Python int does.
    want = draw(RngStream(0), 3)
    stream = RngStream(0)
    for bad in (2.5, 3.9, 3.0, "3"):
        with pytest.raises(ValueError, match="^size must be an integer"):
            draw(stream, bad)
    for size in (np.int64(3), np.uint8(3)):
        assert np.array_equal(draw(RngStream(0), size), want)
    assert np.array_equal(draw(stream, 3), want)


@pytest.mark.parametrize("draw", [
    RngStream.uniform01,
    RngStream.standard_normal,
    lambda stream, size: sample_passage_time(1.0, stream, size=size),
], ids=["uniform01", "standard_normal", "sample_passage_time"])
def test_negative_draw_counts_name_size(draw):
    # A rejected size draws nothing; size 0 is an empty draw.
    stream = RngStream(0)
    for bad in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match=r"^size must be >= 0, got -1$"):
            draw(stream, bad)
    assert draw(stream, 0).shape == (0,)
    assert np.array_equal(draw(stream, 3), draw(RngStream(0), 3))


u64 = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=u64,
    ids=st.lists(u64, min_size=1, max_size=4),
    n=st.one_of(st.integers(1, 41), st.integers(KEYED_MAX_WORDS - 6, KEYED_MAX_WORDS + 6)),
)
@example(seed=2**64 - 1, ids=[0, 2**64 - 1], n=7)
@example(seed=0, ids=[2**64 - 1], n=KEYED_MAX_WORDS + 1)
def test_batched_words_match_c_philox(seed, ids, n):
    expect = np.stack([np.random.Philox(key=(seed << 64) | i).random_raw(n) for i in ids])
    assert np.array_equal(stream_words(seed, ids, n), expect)
    # The numpy Philox itself, also past the crossover where stream_words
    # switches to one C generator per key.
    assert np.array_equal(rng._philox_rows(seed, np.array(ids, dtype=np.uint64), n), expect)
