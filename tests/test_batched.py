"""The chunked, key-vectorized core against the per-path reference.

The verification suite simulates its coupled batches row-wise
(``verify._couple_batch``); every summary it derives must equal, bit for
bit, what ``sample_coupled_pair`` gives one stream at a time.
"""

import hashlib
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from germsim import verify
from germsim.coupling import sample_coupled_pair
from germsim.paths import TimeGrid
from germsim.rng import KEYED_MAX_WORDS, substream
from germsim.stats import reports_to_json
from germsim.verify import VerifyConfig, run_verification

# sha256 of the seed-0, scale-0.05 report, as the per-path core wrote it.
SEED0_SCALE005_SHA256 = "8c14917d3a6769ee61491ae7d88ec7c8c649908183d0405bfadb61845607ac6d"


def _per_path_summary(seed, namespace, theta, horizon, n_steps, n_paths, skip_reflection):
    grid = TimeGrid(horizon, n_steps)
    times = grid.times()
    frag, germ_ok, kept, branch_end = [], [], [], []
    for i in range(n_paths):
        pair = sample_coupled_pair(
            grid, theta, substream(seed, namespace | i), skip_reflection=skip_reflection
        )
        differs = np.nonzero(pair.stem.values != pair.branch.values)[0]
        if pair.agreed_to_horizon:
            frag.append(math.inf)
            germ_ok.append(differs.size == 0)
        else:
            frag.append(pair.frag_time)
            germ_ok.append(
                differs.size > 0
                and differs[0] >= 1
                and pair.frag_time == float(times[differs[0]])
            )
        kept.append(pair.agreed_to_horizon)
        branch_end.append(float(pair.branch.values[-1]))
    return np.array(frag), np.array(germ_ok), np.array(kept), np.array(branch_end)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    theta=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
    horizon=st.floats(0.05, 20.0),
    n_steps=st.one_of(st.integers(1, 40), st.integers(KEYED_MAX_WORDS - 3, KEYED_MAX_WORDS + 30)),
    rows_per_chunk=st.integers(1, 4),
    n_paths=st.integers(1, 11),
    skip_reflection=st.booleans(),
)
def test_chunked_core_matches_per_path(
    seed, theta, horizon, n_steps, rows_per_chunk, n_paths, skip_reflection
):
    # A small chunk budget puts chunk boundaries inside n_paths.
    with mock.patch.object(verify, "CHUNK_WORDS", rows_per_chunk * (n_steps + 1)):
        got = verify._couple_batch(
            seed, verify._ns(1), theta, horizon, n_steps, n_paths,
            skip_reflection=skip_reflection,
        )
    frag, germ_ok, kept, branch_end = _per_path_summary(
        seed, verify._ns(1), theta, horizon, n_steps, n_paths, skip_reflection
    )
    assert got.frag.tobytes() == frag.tobytes()
    assert np.array_equal(got.germ_ok, germ_ok)
    assert np.array_equal(got.kept, kept)
    assert got.branch_end.tobytes() == branch_end.tobytes()


def test_seed0_report_bytes_unchanged():
    text = reports_to_json(run_verification(VerifyConfig(seed=0, scale=0.05)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEED0_SCALE005_SHA256
