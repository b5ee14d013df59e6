"""Deterministic, splittable random streams for reproducible Monte Carlo.

A stream is addressed by a ``(seed, stream_id)`` pair of 64-bit integers
which keys a counter-based Philox-4x64 bit generator, so creating a
substream is O(1) and needs no coordination between workers.  Replaying
the same pair reproduces the identical word sequence; distinct pairs give
statistically independent streams.

Draw accounting is fixed so that replay stays exact under any interleaving
of draw kinds: every variate, uniform or normal, consumes exactly one
64-bit word.  Uniforms keep the top 53 bits (``word >> 11``) scaled into
``[0, 1)``.  Normals are produced by the inverse normal CDF applied to the
offset variant ``(word >> 11 + 0.5) * 2**-53``, which never hits 0.  From
``word >> 11 = 2**52`` on, the half-step offset rounds to even, so the top
``2**11`` words give exactly 1 and an infinite variate, with probability
``2**-53`` per word.  The inverse CDF is ``scipy.special.ndtri``, fixed per
release.

:class:`RngStream` draws one stream's words in order,
:func:`stream_words` the words of many streams in one call, and
:func:`word_rows` the words of a run's streams in chunks of rows.
:func:`uniform01_from_words` / :func:`normal_from_words` are the only
word-to-variate rules, so every variate, per stream or in rows, agrees bit
for bit with any other route to the same words.
"""

from __future__ import annotations

import operator

import numpy as np
from scipy.special import ndtri

_TOP53 = np.uint64(11)
_INV53 = 2.0**-53
_U64_MAX = 2**64

# Philox4x64-10 constants (Salmon et al., "Parallel random numbers: as easy
# as 1, 2, 3", SC11): round multipliers and Weyl key increments.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Words per key above which constructing one C Philox per key beats the
# numpy Philox evaluated over the array of keys.  Measured on 2 CPUs with
# chunks of 2**15 words: per key, numpy took 1.5-1.7 / 7-8 / 23-28 / 37-40 us
# at 17 / 101 / 301 / 501 words, and C took 22-35 us at each of them.
KEYED_MAX_WORDS = 384


def _check_int(name: str, value) -> int:
    """``value`` as an int, by ``operator.index``, so 2.5 or 4.0 is rejected
    under ``name`` instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_u64(name: str, value: int) -> int:
    value = _check_int(name, value)
    if not 0 <= value < _U64_MAX:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


def uniform01_from_words(words: np.ndarray) -> np.ndarray:
    """Uniforms on ``[0, 1)``: the top 53 bits of each word, scaled."""
    return (words >> _TOP53).astype(np.float64) * _INV53


def normal_from_words(words: np.ndarray) -> np.ndarray:
    """N(0, 1) variates: ``ndtri`` of the half-step offset 53-bit uniforms."""
    u = (words >> _TOP53).astype(np.float64)
    u += 0.5
    u *= _INV53
    return ndtri(u, out=u)


class RngStream:
    """Single-owner random stream keyed by ``(seed, stream_id)``.

    No operation on one stream may run concurrently with another on the
    same stream; distinct streams are safe to use from distinct workers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _check_u64("seed", seed)
        self.stream_id = _check_u64("stream_id", stream_id)
        self._bits = np.random.Philox(key=(self.seed << 64) | self.stream_id)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def words(self, n: int) -> np.ndarray:
        """The stream's next ``n`` words; consecutive calls continue where
        the last one stopped."""
        return self._bits.random_raw(n)


def substream(seed: int, task_id: int) -> RngStream:
    """Stream for one task, independent of every other task under the same seed."""
    return RngStream(seed, task_id)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products ``a * m``."""
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    cross = a_hi * m_lo + ((a_lo * m_lo) >> _SHIFT32)
    carry = a_lo * m_hi + (cross & _LO32)
    hi = a_hi * m_hi + (cross >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, a * m


def _philox_rows(seed: int, ids: np.ndarray, n: int) -> np.ndarray:
    """Philox4x64-10 in numpy, evaluated over the array of keys at once.

    Key ``(seed << 64) | id`` is the pair (id, seed) of 64-bit words, and
    word k of a stream is lane ``k % 4`` of the block at counter
    ``k // 4 + 1``, as in ``np.random.Philox``.
    """
    blocks = -(-n // 4)
    k0, k1 = ids[:, None], np.full((1, 1), seed, dtype=np.uint64)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (ids.size, blocks))
    x1 = x2 = x3 = np.zeros((ids.size, blocks), dtype=np.uint64)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(ids.size, 4 * blocks)[:, :n]


def stream_words(seed: int, ids, n: int) -> np.ndarray:
    """The first ``n`` words of each stream ``(seed, id)``, one row per id.

    Row r equals ``RngStream(seed, ids[r]).words(n)``, so a row and the
    stream give the same variates.  Short rows come from the numpy
    Philox over all keys at once; rows longer than ``KEYED_MAX_WORDS``
    from one C Philox per key.
    """
    seed = _check_u64("seed", seed)
    ids = np.asarray(ids, dtype=np.uint64)
    if n <= KEYED_MAX_WORDS:
        return _philox_rows(seed, ids, n)
    out = np.empty((ids.size, n), dtype=np.uint64)
    for r, stream_id in enumerate(ids.tolist()):
        out[r] = np.random.Philox(key=(seed << 64) | stream_id).random_raw(n)
    return out


# Batched callers draw chunks of streams holding about this many words, so
# each per-chunk array stays near 256 kB (c01: 3 paths of 10,001 words)
# and memory does not grow with the path count.  Measured on 2 CPUs over
# c01 (2,000 paths), c02, c03 and c08: 2**13 words took 2.2-2.4 s at a
# 57.0 MB peak, 2**15 1.7-1.9 s at 58.7 MB, 2**17 1.7-1.8 s at 66.4 MB.
CHUNK_WORDS = 1 << 15


def word_rows(seed: int, n_rows: int, n_words: int, namespace: int):
    """The first ``n_words`` words of streams ``(seed, namespace | i)`` for
    i in range(n_rows), in chunks of about ``CHUNK_WORDS`` words: the ids
    ``i`` of a chunk, ascending, and its :func:`stream_words` rows."""
    rows = max(1, CHUNK_WORDS // n_words)
    for start in range(0, n_rows, rows):
        ids = np.arange(start, min(start + rows, n_rows))
        yield ids, stream_words(seed, namespace | ids, n_words)
