import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germsim import rng
from germsim.rng import (
    RngStream,
    normal_from_words,
    stream_words,
    substream,
    uniform01_from_words,
)
from germsim.stats import Ecdf, ks_statistic, std_normal_cdf


def test_uniform_range_and_determinism():
    xs = uniform01_from_words(RngStream(1, 0).words(1000))
    assert np.all((0.0 <= xs) & (xs < 1.0))
    assert np.array_equal(xs, uniform01_from_words(RngStream(1, 0).words(1000)))


def test_uniform_scalar_in_range():
    # One word per uniform, as a pair draws it; the extreme words map to 0
    # and to the largest 53-bit fraction below 1.
    u = uniform01_from_words(RngStream(1, 0).words(1))
    assert u.shape == (1,) and 0.0 <= u[0] < 1.0
    extremes = uniform01_from_words(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert extremes.tolist() == [0.0, 1.0 - 2.0**-53]


def test_uniform_mean():
    xs = uniform01_from_words(RngStream(3, 0).words(100_000))
    # 3 sigma CLT band: 3 * (1/sqrt(12)) / sqrt(1e5) ~ 0.0027, widened to 0.005
    assert abs(xs.mean() - 0.5) < 0.005


def test_normal_moments():
    zs = normal_from_words(RngStream(4, 0).words(100_000))
    assert abs(zs.mean()) < 0.01
    assert abs(zs.var(ddof=1) - 1.0) < 0.02


def test_normal_ks_against_cdf():
    zs = normal_from_words(RngStream(5, 0).words(10_000))
    stat = ks_statistic(Ecdf(zs), std_normal_cdf)
    assert stat < 0.0193  # alpha = 0.001 critical value for n = 1e4


def test_substreams_distinct_and_replayable():
    x = substream(7, 0).words(100)
    y = substream(7, 1).words(100)
    again = substream(7, 0).words(100)
    assert not np.array_equal(x, y)
    assert np.array_equal(x, again)


def test_substream_correlation():
    a = normal_from_words(substream(11, 0).words(10_000))
    b = normal_from_words(substream(11, 1).words(10_000))
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.03


def test_chunked_draws_match_single_draw():
    a = RngStream(9, 2)
    chunked = np.concatenate([a.words(10), a.words(15)])
    assert np.array_equal(chunked, RngStream(9, 2).words(25))


def test_mixed_draw_kinds_replay_exactly():
    # Every variate is one word, so draws of mixed kinds in sequence read
    # the same words as one draw split afterwards.
    a = RngStream(13, 4)
    seq = (normal_from_words(a.words(5)), uniform01_from_words(a.words(1)),
           normal_from_words(a.words(3)))
    w = RngStream(13, 4).words(9)
    assert np.array_equal(seq[0], normal_from_words(w[:5]))
    assert np.array_equal(seq[1], uniform01_from_words(w[5:6]))
    assert np.array_equal(seq[2], normal_from_words(w[6:]))


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


u64 = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=u64,
    ids=st.lists(u64, min_size=1, max_size=4),
    n=st.one_of(st.integers(1, 41), st.integers(378, 390)),
)
@example(seed=2**64 - 1, ids=[0, 2**64 - 1], n=7)
@example(seed=0, ids=[2**64 - 1], n=385)
def test_batched_words_match_c_philox(seed, ids, n):
    expect = np.stack([np.random.Philox(key=(seed << 64) | i).random_raw(n) for i in ids])
    assert np.array_equal(stream_words(seed, ids, n), expect)


@settings(max_examples=40, deadline=None)
@given(
    seed=u64,
    namespace=st.sampled_from([0, 5 << 32, 17 << 32]),
    n_rows=st.integers(1, 12),
    n_words=st.integers(1, 9),
    chunk_words=st.integers(1, 40),
)
def test_word_rows_chunks_cover_the_rows_in_order(seed, namespace, n_rows, n_words,
                                                  chunk_words):
    with mock.patch.object(rng, "CHUNK_WORDS", chunk_words):
        chunks = list(rng.word_rows(seed, n_rows, n_words, namespace))
    rows_per_chunk = max(1, chunk_words // n_words)
    assert [ids.size for ids, _ in chunks[:-1]] == [rows_per_chunk] * (len(chunks) - 1)
    assert 1 <= chunks[-1][0].size <= rows_per_chunk
    assert np.concatenate([ids for ids, _ in chunks]).tolist() == list(range(n_rows))
    for ids, words in chunks:
        assert np.array_equal(words, stream_words(seed, namespace | ids, n_words))


def test_word_rows_take_a_namespace_above_2_63():
    namespace = (2**32 - 1) << 32
    for ids, words in rng.word_rows(3, 5, 4, namespace):
        assert np.array_equal(words, stream_words(3, namespace | ids, 4))
        assert np.array_equal(words[-1], RngStream(3, namespace | int(ids[-1])).words(4))


def test_stream_words_from_two_threads_equal_the_serial_rows():
    # Each call keys a generator of its own, so concurrent calls share no state.
    ids = np.arange(200, dtype=np.uint64)
    serial = [stream_words(seed, ids, 33) for seed in (1, 2)]
    start = threading.Barrier(2)

    def draw(seed):
        start.wait()
        return [stream_words(seed, ids, 33) for _ in range(20)]

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(draw, (1, 2)))
    for want, got in zip(serial, results):
        assert all(np.array_equal(rows, want) for rows in got)
