"""The block kernel of write_csv against ``repr``, value by value."""

import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from germsim import _repr
from germsim._repr import BLOCK

_EXP_ALL = 0x7FF << 52
_SRC = str(pathlib.Path(_repr.__file__).resolve().parents[1])


def _cells(values):
    """The kernel's text of each value, with no lead cell."""
    values = np.asarray(values, dtype=np.float64)
    text = "".join(_repr.rows(np.zeros(values.size, dtype="S8"), values))
    return text.split("\n")[:-1]


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = _cells(values), [repr(v) for v in values.tolist()]
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, wrong[:5]


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _around(value, ulps):
    """``value`` and its ``ulps`` neighbours on either side."""
    bits = np.array(value).view(np.uint64)
    return _from_bits(bits + np.arange(-ulps, ulps + 1).astype(np.uint64))


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr(np.concatenate([powers, -powers]))


def test_powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_repr(np.concatenate([tens, -tens]))


def test_decimals_of_1_to_17_digits():
    # Parsed decimals round to the nearest double; repr gives back the
    # decimal itself up to 15 digits, and the shortest that reads back
    # beyond.  Exponents cover the whole normal and subnormal range.
    rng = np.random.default_rng(20201)
    values = []
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, size=1_000).tolist()
        exponents = rng.integers(-330 - digits, 309 - digits, size=1_000).tolist()
        values += [float(f"{m}e{e}") for m, e in zip(mantissas, exponents)]
    values = np.array(values)
    assert np.isfinite(values).all()
    _assert_repr(np.concatenate([values, -values]))


def test_neighbours_of_repr_layout_switches():
    # 1e-4 and 1e-5 straddle the switch to the exponent form below 1e-4,
    # 1e16 the switch above 1e16; 2**53 is the last integer of 16 digits
    # a double holds.
    for value in (1e-4, 1e-5, 1e16, 2.0**53, 1.0):
        _assert_repr(np.concatenate([_around(value, 2_000), -_around(value, 2_000)]))


def test_normal_subnormal_boundary_and_extremes():
    smallest_normal = 2.2250738585072014e-308
    largest = 1.7976931348623157e308
    edges = np.concatenate([
        _around(smallest_normal, 1_000),
        _from_bits(np.arange(0, 1_000, dtype=np.uint64)),    # 0.0, 5e-324, ...
        _around(largest, 1_000)[:1_001],                     # up to the largest
        [0.0, -0.0, 5e-324, -5e-324, largest, -largest],
    ])
    _assert_repr(np.concatenate([edges, -edges]))


def test_random_walks_at_many_scales():
    rng = np.random.default_rng(7)
    for scale in (1e-7, 1e-3, 1.0, 30.0, 1e6, 1e12):
        _assert_repr(rng.standard_normal(3 * BLOCK + 17).cumsum() * scale)


def _finite(bits):
    """``bits`` as a finite double: an all-ones exponent loses its top bit."""
    return bits ^ (1 << 62) if bits & _EXP_ALL == _EXP_ALL else bits


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1).map(_finite), min_size=1, max_size=64),
       st.integers(0, 64), st.integers(0, 64), st.integers(0, 2**32 - 1))
def test_bit_patterns_across_block_edges(drawn, before, after, seed):
    # The drawn doubles sit in an array longer than one block, with the
    # block edge after the first ``before`` of them; the filler around
    # them is random finite bit patterns.
    start = BLOCK - min(before, len(drawn))
    size = start + len(drawn) + after
    filler = np.random.default_rng(seed).integers(0, 2**64, size=size, dtype=np.uint64,
                                                  endpoint=False)
    bits = np.array([_finite(b) for b in filler.tolist()], dtype=np.uint64)
    bits[start:start + len(drawn)] = drawn
    _assert_repr(_from_bits(bits))


def _floor_log(base, num, den):
    """floor(log_base(num / den)) for positive integers, exactly."""
    size = (lambda n: len(str(n))) if base == 10 else int.bit_length
    j = size(num) - size(den)
    while base ** max(j, 0) * den > num * base ** max(-j, 0):
        j -= 1
    while base ** max(j + 1, 0) * den <= num * base ** max(-j - 1, 0):
        j += 1
    return j


def test_integer_logarithms_are_exact():
    # Over every binary exponent of a double and every decimal exponent of
    # the table of g, with margin.
    for e in range(-1100, 1100):
        two = (2 ** max(e, 0), 2 ** max(-e, 0))
        assert _repr._flog10pow2(e) == _floor_log(10, *two)
        assert _repr._flog10_three_quarters_pow2(e) == _floor_log(10, 3 * two[0], 4 * two[1])
    for e in range(-400, 400):
        assert _repr._flog2pow10(e) == _floor_log(2, 10 ** max(e, 0), 10 ** max(-e, 0))


def test_table_of_g_brackets_each_power_of_ten():
    # g - 1 <= 10**-k * 2**(125 - r) < g with r = floor(log2(10**-k)).
    g_table = _repr._tables().g
    for column, k in enumerate(range(_repr._K_MIN, _repr._K_MAX + 1)):
        g = int(g_table[1, column]) << 63 | int(g_table[0, column])
        shift = 125 - _floor_log(2, 10 ** max(-k, 0), 10 ** max(k, 0))
        num = 10 ** max(-k, 0) << max(shift, 0)
        den = 10 ** max(k, 0) << max(-shift, 0)
        assert (g - 1) * den <= num < g * den
        assert 2**125 < g <= 2**126


def test_lead_cells_precede_each_value():
    lead = np.array([b"0.0,", b"0.25,", b"0.5,"], dtype="S24")
    text = "".join(_repr.rows(lead, np.array([-0.0, 1e-5, 123.0])))
    assert text == "0.0,-0.0\n0.25,1e-05\n0.5,123.0\n"


def test_tables_are_built_on_first_use():
    # Importing germsim builds nothing; the first write builds the tables.
    code = ("import germsim; from germsim import _repr; "
            "print(_repr._tables.cache_info().currsize)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": _SRC})
    assert run.stdout.split() == ["0"]
    _repr._tables.cache_clear()
    _cells([1.5])
    assert _repr._tables.cache_info().currsize == 1
