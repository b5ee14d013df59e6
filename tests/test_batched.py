"""The chunked, key-vectorized core against an independent per-path reference.

The coupling is implemented once, row-wise (``coupling.couple_rows``), and
the verification suite simulates its coupled batches in chunks of rows
(``verify._couple_batch``).  Every summary it derives must equal, bit for
bit, what the plain-loop model in ``reference.py`` gives one stream at a
time.
"""

import hashlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import couple_summary

from germsim import rng, verify
from germsim.stats import reports_to_json
from germsim.verify import VerifyConfig, run_verification

# sha256 of the seed-0, scale-0.05 report.  Every entry but the negative
# control is as the per-path core wrote it; the control couples at drift 1.5.
SEED0_SCALE005_SHA256 = "b624362c221a2879600e82d46ac73368377dce7dd2c4833e931792cc403257bc"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    theta=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
    horizon=st.floats(0.05, 20.0),
    n_steps=st.one_of(st.integers(1, 40), st.integers(381, 414)),
    rows_per_chunk=st.integers(1, 4),
    n_paths=st.integers(1, 11),
)
# An exact tie of the keep rule: here u == exp(theta * w(T) - theta^2 * T / 2)
# bit for bit, so only "u <= exp" (not "u < exp") keeps the pair.
@example(seed=0, theta=1.6826591390706058, horizon=1.0, n_steps=4, rows_per_chunk=1,
         n_paths=1)
def test_chunked_core_matches_per_path(seed, theta, horizon, n_steps, rows_per_chunk, n_paths):
    # A small chunk budget puts chunk boundaries inside n_paths.
    with mock.patch.object(rng, "CHUNK_WORDS", rows_per_chunk * (n_steps + 1)):
        got = verify._couple_batch(seed, verify._ns(1), theta, horizon, n_steps, n_paths)
    frag, germ_ok, kept, branch_end = map(np.array, couple_summary(
        seed, verify._ns(1), theta, horizon, n_steps, n_paths
    ))
    assert got.frag.tobytes() == frag.tobytes()
    assert np.array_equal(got.germ_ok, germ_ok)
    assert np.array_equal(np.isinf(got.frag), kept)
    assert got.branch_end.tobytes() == branch_end.tobytes()


def test_seed0_report_bytes_unchanged():
    text = reports_to_json(run_verification(VerifyConfig(seed=0, scale=0.05)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEED0_SCALE005_SHA256
