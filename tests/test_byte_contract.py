"""Goldens for each layer the byte contract rests on.

Every output byte depends on three things that ``pyproject.toml`` does
not pin: numpy's Philox bit generator, scipy's ``ndtri`` and Python's
``float.__repr__``.  Each test here pins one layer on fixed inputs, so an
upgrade that moves the bytes fails the test named after the layer that
moved, before any end-to-end digest does.
"""

import hashlib
import io

import numpy as np

from germsim.paths import Path, TimeGrid, write_csv
from germsim.rng import RngStream, normal_from_words, stream_words

_U64_MAX = 2**64 - 1

# The first 8 words of stream (seed, id), as hex.
PHILOX_WORDS = {
    (0, 0): ["02f4ba6408e4d89b", "3dd62b0b9ca8c5b2", "1c8667a55d902e79", "907d7a052fd5b4dc",
             "809bf322883987c3", "471128b9e807f7dd", "f250ba0dbec065b7", "fc6ed66767a457bc"],
    (1, 2): ["8c351f438fef3525", "d89cfaa13a18e987", "14cff1181bfc8224", "ed1e207b23c53dc2",
             "f1c12686ed1bde00", "d92489c88731bfe1", "eaa55fcef7de921b", "1ac87a98bc464f8d"],
    (_U64_MAX, _U64_MAX): ["6d46cc0e71f0be7e", "924ea1693f9a8bc0", "fdc35f0198c91181",
                           "b4a311f17aa6568d", "67e12c1eff8de57e", "6877618422b87b0e",
                           "0b6af2bc95a81510", "941b27e5d2440b04"],
}

# repr of the normal variate of each word.  Above 2**63 the half-step
# offset rounds to even, so word 2**63 gives u = 0.5 exactly, and the top
# 2**11 words would give u = 1; they are clamped to u = 1 - 2**-53.
NORMALS = {
    0: "-8.292361075813597",
    2**63 - 1: "-1.3914582123358836e-16",
    2**63: "0.0",
    2**64 - 2**11: "8.209536151601387",
    _U64_MAX: "8.209536151601387",
}

# sha256 of write_csv's text for CSV_VALUES on TimeGrid(1.0, 8).
CSV_VALUES = [0.0, 0.1, -1 / 3, 1e-300, -2.5e10, 5e-324, 1.7976931348623157e308, 2 / 3, -0.0]
CSV_SHA256 = "0f73065a0f52d14ceb0a2467da0eed1d0f715add279398b373672844d75a6524"


def test_layer_philox_stream_words():
    # Both routes: stream_words re-keys one generator per row, RngStream
    # keys one of its own.
    for (seed, stream_id), want in PHILOX_WORDS.items():
        batched = stream_words(seed, [stream_id], 8)[0]
        keyed = RngStream(seed, stream_id).words(8)
        assert [f"{w:016x}" for w in batched.tolist()] == want
        assert [f"{w:016x}" for w in keyed.tolist()] == want


def test_layer_normals_ndtri():
    words = np.array(list(NORMALS), dtype=np.uint64)
    assert [repr(z) for z in normal_from_words(words).tolist()] == list(NORMALS.values())


def test_layer_csv_float_repr():
    buf = io.StringIO()
    write_csv(Path(TimeGrid(1.0, 8), np.array(CSV_VALUES)), buf)
    assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == CSV_SHA256
