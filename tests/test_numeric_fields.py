"""Every numeric library argument is read by one of two rules: an integer
by ``rng._check_int``, a real number by ``paths._real``.  A value either
rule rejects, or a value outside the owner's range, is a ``ValueError``
whose message starts with the argument's name."""

import math
import re

import numpy as np
import pytest

from germsim.cli import RunConfig, cmd_germ_transform
from germsim.coupling import (
    couple_rows,
    germ_transform,
    invert_time,
    reflect_after_last_visit,
    sample_coupled_pair,
    validate_theta,
    validate_u,
)
from germsim.paths import DriftedLaw, Path, TimeGrid
from germsim.rng import _MAX_LENGTH, RngStream, stream_words, substream, word_rows
from germsim.stats import branch_probability, fragmentation_cdf, ks_threshold, levy_cdf
from germsim.subordinator import DriftGrid, sample_passage_time
from germsim.verify import VerifyConfig

_GRID = TimeGrid(1.0, 4)
_PATH = Path(_GRID, [0.0, 0.5, -0.25, 0.25, 0.5])
_WORDS = stream_words(0, [0, 1], 5)

HOSTILE = {"None": None, "str": "a", "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
           "10**400": 10**400, "array": np.array([1.0, 2.0])}

# (argument, field its errors name, call with the value in its place).
REAL = [
    ("TimeGrid.horizon", "horizon", lambda v: TimeGrid(v, 4)),
    ("DriftedLaw.drift", "drift", lambda v: DriftedLaw(drift=v)),
    ("DriftedLaw.start", "start", lambda v: DriftedLaw(start=v)),
    ("validate_theta", "theta", validate_theta),
    ("validate_u", "u", validate_u),
    ("DriftGrid.thetas", "thetas", lambda v: DriftGrid((v,))),
    ("reflect_after_last_visit.theta", "theta", lambda v: reflect_after_last_visit(_PATH, v)),
    ("germ_transform.u", "u", lambda v: germ_transform(_PATH, v, 1.0)),
    ("germ_transform.theta", "theta", lambda v: germ_transform(_PATH, 0.5, v)),
    ("couple_rows.theta", "theta", lambda v: couple_rows(_GRID, v, _WORDS)),
    ("sample_coupled_pair.theta", "theta",
     lambda v: sample_coupled_pair(_GRID, v, RngStream(0))),
    ("invert_time.t_min", "t_min", lambda v: invert_time(_GRID.times(), _PATH.values, v)),
    ("sample_passage_time.level", "level", lambda v: sample_passage_time(v, np.ones(3))),
    ("fragmentation_cdf.theta", "theta", lambda v: fragmentation_cdf(v, 1.0)),
    ("levy_cdf.a", "a", lambda v: levy_cdf(v, 1.0)),
    ("branch_probability.theta", "theta", lambda v: branch_probability(v, 1.0)),
    ("branch_probability.horizon", "horizon", lambda v: branch_probability(1.0, v)),
    ("ks_threshold.alpha", "alpha", lambda v: ks_threshold(1000, v)),
    ("VerifyConfig.alpha", "alpha", lambda v: VerifyConfig(alpha=v)),
    ("VerifyConfig.scale", "scale", lambda v: VerifyConfig(scale=v)),
    ("RunConfig.horizon", "horizon", lambda v: RunConfig(horizon=v)),
    ("RunConfig.thetas", "thetas", lambda v: RunConfig(thetas=(v,))),
    # Both are checked before the input file is opened, so none is needed.
    ("cmd_germ_transform.theta", "theta", lambda v: cmd_germ_transform("in.csv", v, 0.5, "x")),
    ("cmd_germ_transform.u", "u", lambda v: cmd_germ_transform("in.csv", 1.0, v, "x")),
]

# An integer argument rejects 10**400 only where its range ends below it.
# A step count at horizon 1e300 keeps a normal step, so its own bound answers.
INTEGER = [
    ("TimeGrid.n_steps", "n_steps", lambda v: TimeGrid(1e300, v), True),
    ("ks_threshold.n", "n", lambda v: ks_threshold(v, 0.001), True),
    ("RngStream.seed", "seed", lambda v: RngStream(v), True),
    ("RngStream.stream_id", "stream_id", lambda v: RngStream(0, v), True),
    ("substream.seed", "seed", lambda v: substream(v, 0), True),
    # A task's stream is keyed by its id, so the id is checked as one.
    ("substream.task_id", "stream_id", lambda v: substream(0, v), True),
    ("stream_words.seed", "seed", lambda v: stream_words(v, [0], 1), True),
    ("stream_words.ids", "ids", lambda v: stream_words(0, [v], 1), True),
    ("stream_words.n", "n", lambda v: stream_words(0, [0], v), True),
    ("RngStream.words.n", "n", lambda v: RngStream(0).words(v), True),
    ("word_rows.seed", "seed", lambda v: word_rows(v, 2, 3, 0), True),
    # Rows are drawn a chunk at a time, so no array bounds their count.
    ("word_rows.n_rows", "n_rows", lambda v: word_rows(0, v, 3, 0), False),
    ("word_rows.n_words", "n_words", lambda v: word_rows(0, 2, v, 0), True),
    ("word_rows.namespace", "namespace", lambda v: word_rows(0, 2, 3, v), True),
    ("VerifyConfig.seed", "seed", lambda v: VerifyConfig(seed=v), True),
    ("RunConfig.seed", "seed", lambda v: RunConfig(seed=v), True),
    ("RunConfig.n_steps", "n_steps", lambda v: RunConfig(horizon=1e300, n_steps=v), True),
    # Paths are drawn a chunk at a time, so no array bounds their count.
    ("RunConfig.n_paths", "n_paths", lambda v: RunConfig(n_paths=v), False),
]

CASES = [pytest.param(call, field, value, id=f"{arg}-{label}")
         for arg, field, call in REAL for label, value in HOSTILE.items()]
# ``operator.index(True)`` is 1, so a boolean is hostile to the integer rule.
CASES += [pytest.param(call, field, value, id=f"{arg}-{label}")
          for arg, field, call, huge in INTEGER
          for label, value in {**HOSTILE, "True": True}.items()
          if huge or label != "10**400"]


@pytest.mark.parametrize("call,field,value", CASES)
def test_numeric_argument_rejects_by_name(call, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must "):
        call(value)


def test_validate_u_returns_a_python_float():
    u = validate_u(np.float32(0.5))
    assert type(u) is float and u == 0.5


def test_ks_threshold_reads_n_as_an_integer():
    with pytest.raises(ValueError, match="^n must be an integer, got 2.5"):
        ks_threshold(2.5, 0.001)
    assert ks_threshold(np.int64(1000), 0.001) == ks_threshold(1000, 0.001)


# Values either rule reads, outside the owner's range, or stream ids that
# are not integers, which an unsigned array cast would truncate.
@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: stream_words(0, [1.5], 3), "ids must be an integer, got 1.5",
                 id="ids-1.5"),
    pytest.param(lambda: stream_words(0, np.array([2.9]), 3),
                 "ids must be an integer, got 2.9", id="ids-array-2.9"),
    pytest.param(lambda: stream_words(0, [-1], 3),
                 "ids must be a 64-bit unsigned integer, got -1", id="ids--1"),
    pytest.param(lambda: stream_words(0, [2**64], 3),
                 "ids must be a 64-bit unsigned integer, got 18446744073709551616",
                 id="ids-2**64"),
    pytest.param(lambda: stream_words(0, [0], -1), "n must be >= 0, got -1",
                 id="stream_words.n--1"),
    pytest.param(lambda: RngStream(0).words(-1), "n must be >= 0, got -1", id="words.n--1"),
    pytest.param(lambda: RngStream(0).words(2.5), "n must be an integer, got 2.5",
                 id="words.n-2.5"),
    pytest.param(lambda: word_rows(0, -3, 4, 0), "n_rows must be >= 0, got -3",
                 id="n_rows--3"),
    pytest.param(lambda: word_rows(0, 2, 0, 0), "n_words must be >= 1, got 0",
                 id="n_words-0"),
    pytest.param(lambda: word_rows(0, 2, 3, -1),
                 "namespace must be a 64-bit unsigned integer, got -1", id="namespace--1"),
    pytest.param(lambda: word_rows(0, 2, 3, 1.5), "namespace must be an integer, got 1.5",
                 id="namespace-1.5"),
    pytest.param(lambda: stream_words(0, [True], 2), "ids must be an integer, got True",
                 id="ids-True"),
    pytest.param(lambda: word_rows(0, 2, _MAX_LENGTH, 0),
                 f"n_words must be < {_MAX_LENGTH}, got {_MAX_LENGTH}", id="n_words-max"),
])
def test_rng_rejects_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_rng_counts_of_zero_draw_nothing():
    assert RngStream(0).words(0).size == 0
    assert stream_words(0, [0, 1], 0).shape == (2, 0)
    assert stream_words(0, [], 3).shape == (0, 3)
    assert list(word_rows(0, 0, 3, 0)) == []
