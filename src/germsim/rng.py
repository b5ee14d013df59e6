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
``2**11`` words round to exactly 1; u is clamped to ``1 - 2**-53``, the
largest double below 1, so every normal is finite.  The inverse CDF is
``scipy.special.ndtri``, fixed per release.

:class:`RngStream` draws one stream's words in order,
:func:`stream_words` the words of many streams in one call, and
:func:`word_rows` the words of a run's streams in chunks of rows.  All
three draw from numpy's C Philox, keyed by one helper that sets its state.
:func:`uniform01_from_words` / :func:`normal_from_words` are the only
word-to-variate rules, so every variate, per stream or in rows, agrees bit
for bit with any other route to the same words.
"""

from __future__ import annotations

import contextlib
import operator

import numpy as np
from scipy.special import ndtri

_TOP53 = np.uint64(11)
_INV53 = 2.0**-53
_U_MAX = 1.0 - 2.0**-53
_U64_MAX = 2**64

# The most 8-byte elements (doubles or words) a count may ask of one array: its
# bytes fit an intp, with half to spare for np.linspace rounding its length.
_MAX_LENGTH = np.iinfo(np.intp).max // 16

# Seeds each new generator before its key is set: a fixed sequence spares
# numpy drawing OS entropy and building a pool for every generator.
_UNKEYED = np.random.SeedSequence(0)


def _check_int(name: str, value) -> int:
    """``value`` as an int, by ``operator.index``, so 2.5, 4.0 or ``True`` (index
    1) is rejected under ``name`` instead of being truncated."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_u64(name: str, value: int) -> int:
    value = _check_int(name, value)
    if not 0 <= value < _U64_MAX:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


def _check_count(name: str, value, least: int, bounded: bool = True) -> int:
    """``value`` as an int of at least ``least`` and, if ``bounded``, below ``_MAX_LENGTH``."""
    value = _check_int(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if bounded and value >= _MAX_LENGTH:
        raise ValueError(f"{name} must be < {_MAX_LENGTH}, got {value}")
    return value


def uniform01_from_words(words: np.ndarray) -> np.ndarray:
    """Uniforms on ``[0, 1)``: the top 53 bits of each word, scaled."""
    return (words >> _TOP53).astype(np.float64) * _INV53


def normal_from_words(words: np.ndarray) -> np.ndarray:
    """N(0, 1) variates: ``ndtri`` of the half-step offset 53-bit uniforms, clamped below 1."""
    u = (words >> _TOP53).astype(np.float64)
    u += 0.5
    u *= _INV53
    # The top 2**11 words round to u = 1, whose ndtri is inf.
    np.minimum(u, _U_MAX, out=u)
    return ndtri(u, out=u)


def _keyed(bits: np.random.Philox, seed: int, stream_id: int) -> np.random.Philox:
    """``bits`` at the first word of stream ``(seed, stream_id)``: the key
    (stream_id, seed), the 64-bit words of ``(seed << 64) | stream_id``, at
    counter 0 with an empty buffer, the state ``np.random.Philox(key=...)`` starts in."""
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": (0, 0, 0, 0), "key": (stream_id, seed)},
                  "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return bits


class RngStream:
    """Single-owner random stream keyed by ``(seed, stream_id)``.

    No operation on one stream may run concurrently with another on the
    same stream; distinct streams are safe to use from distinct workers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _check_u64("seed", seed)
        self.stream_id = _check_u64("stream_id", stream_id)
        self._bits = _keyed(np.random.Philox(_UNKEYED), self.seed, self.stream_id)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def words(self, n: int) -> np.ndarray:
        """The stream's next ``n`` words; consecutive calls continue where
        the last one stopped."""
        return self._bits.random_raw(_check_count("n", n, 0))


def substream(seed: int, task_id: int) -> RngStream:
    """Stream for one task, independent of every other task under the same seed."""
    return RngStream(seed, task_id)


def stream_words(seed: int, ids, n: int) -> np.ndarray:
    """The first ``n`` words of each stream ``(seed, id)``, one row per id.

    Row r equals ``RngStream(seed, ids[r]).words(n)``, so a row and the
    stream give the same variates.  Each id is read as a 64-bit unsigned
    integer, so 2.5 is rejected under ``ids`` instead of truncated.
    """
    seed = _check_u64("seed", seed)
    ids = [_check_u64("ids", i) for i in np.asarray(ids, dtype=object).tolist()]
    return _rows(seed, ids, _check_count("n", n, 0))


def _rows(seed: int, ids: list[int], n: int) -> np.ndarray:
    """:func:`stream_words` of checked arguments: one C Philox, local to
    the call, re-keyed for each id."""
    bits = np.random.Philox(_UNKEYED)
    out = np.empty((len(ids), n), dtype=np.uint64)
    for r, stream_id in enumerate(ids):
        out[r] = _keyed(bits, seed, stream_id).random_raw(n)
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
    ``i`` of a chunk, ascending, and its :func:`stream_words` rows.  The
    arguments are checked once, by this call, not per chunk."""
    seed, namespace = _check_u64("seed", seed), _check_u64("namespace", namespace)
    n_rows = _check_count("n_rows", n_rows, 0, bounded=False)  # drawn a chunk at a time
    n_words = _check_count("n_words", n_words, 1)
    rows = max(1, CHUNK_WORDS // n_words)
    chunks = (np.arange(i, min(i + rows, n_rows), dtype=np.uint64) for i in range(0, n_rows, rows))
    return ((ids, _rows(seed, (namespace | ids).tolist(), n_words)) for ids in chunks)
