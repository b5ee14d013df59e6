import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import csv_text, read_csv_text

from germsim import paths
from germsim.paths import (
    CsvFormatError,
    DriftedLaw,
    Path,
    TimeGrid,
    line_value,
    read_csv,
    sample_bm,
    write_csv,
)
from germsim.rng import substream


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 4)
    assert g.dt == 0.5
    assert np.array_equal(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_coerces_numeric_horizon():
    # A 0-d array horizon is stored as a float, so the grid hashes and
    # write_csv (which caches on the grid) writes it like TimeGrid(1.0, 2).
    grid = TimeGrid(np.array(1.0), np.int64(2))
    assert type(grid.horizon) is float and type(grid.n_steps) is int
    assert grid == TimeGrid(1.0, 2) and hash(grid) == hash(TimeGrid(1.0, 2))
    values = np.array([0.0, 0.5, -1.0])
    assert _written(Path(grid, values)) == _written(Path(TimeGrid(1.0, 2), values))


@pytest.mark.parametrize("horizon", ["1.0", None, np.array([1.0]), 1j])
def test_grid_rejects_non_numeric_horizon(horizon):
    with pytest.raises(ValueError, match="^horizon must be a real number"):
        TimeGrid(horizon, 2)


@pytest.mark.parametrize("horizon", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_grid_rejects_horizon_beyond_double_range(horizon):
    with pytest.raises(ValueError, match="^horizon must be finite"):
        TimeGrid(horizon, 2)


@pytest.mark.parametrize("n_steps", [2.5, 4.0, "4", None])
def test_grid_rejects_non_integer_n_steps(n_steps):
    with pytest.raises(ValueError, match="^n_steps must be an integer"):
        TimeGrid(1.0, n_steps)


def test_path_validation():
    g = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        Path(g, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Path(g, np.array([0.0, np.inf, 1.0]))
    p = Path(g, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        p.values[0] = 5.0


def test_line_value():
    assert line_value(2.0, 1.0) == 1.0
    assert line_value(0.0, 5.0) == 0.0
    assert line_value(-3.0, 2.0) == -3.0


def test_sample_start_value_exact():
    p = sample_bm(TimeGrid(1.0, 1), DriftedLaw(0.0, 5.0), substream(0, 0))
    assert p.values[0] == 5.0


def test_endpoint_moments_driftless():
    ends = np.array([
        sample_bm(TimeGrid(1.0, 4), DriftedLaw(0.0, 0.0), substream(2, i)).values[-1]
        for i in range(10_000)
    ])
    assert abs(ends.mean()) < 0.03
    assert abs(ends.var(ddof=1) - 1.0) < 0.05


def test_endpoint_mean_with_drift():
    ends = np.array([
        sample_bm(TimeGrid(1.0, 4), DriftedLaw(2.0, 0.0), substream(3, i)).values[-1]
        for i in range(10_000)
    ])
    assert abs(ends.mean() - 2.0) < 0.03


def test_increment_moments():
    grid = TimeGrid(1.0, 8)
    incs = []
    for i in range(5_000):
        p = sample_bm(grid, DriftedLaw(1.5, 0.0), substream(4, i))
        incs.append(np.diff(p.values))
    incs = np.concatenate(incs)
    dt = grid.dt
    assert abs(incs.mean() - 1.5 * dt) < 3 * math.sqrt(dt / incs.size)
    assert abs(incs.var(ddof=1) - dt) < 3 * dt * math.sqrt(2.0 / incs.size)


def test_csv_round_trip_exact():
    p = sample_bm(TimeGrid(3.0, 17), DriftedLaw(0.7, -0.2), substream(5, 0))
    buf = io.StringIO()
    write_csv(p, buf)
    back = read_csv(io.StringIO(buf.getvalue()))
    assert back.grid == p.grid
    assert np.array_equal(back.values, p.values)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12),
        min_size=2,
        max_size=40,
    )
)
def test_csv_round_trip_property(values):
    grid = TimeGrid(1.0, len(values) - 1)
    p = Path(grid, np.array(values))
    buf = io.StringIO()
    write_csv(p, buf)
    back = read_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.values, p.values)


def test_csv_header_only_rejected():
    with pytest.raises(CsvFormatError):
        read_csv(io.StringIO("t,value\n"))


def test_csv_single_row_rejected():
    with pytest.raises(CsvFormatError, match="at least 2"):
        read_csv(io.StringIO("t,value\n0.0,0.0\n"))


def test_csv_bad_header():
    with pytest.raises(CsvFormatError, match="line 1"):
        read_csv(io.StringIO("time,val\n0.0,1.0\n"))


def test_csv_non_numeric_cell_cites_line():
    text = "t,value\n0.0,0.0\n0.5,1.0\nbogus,2.0\n"
    with pytest.raises(CsvFormatError, match="line 4"):
        read_csv(io.StringIO(text))


def test_csv_wrong_field_count_cites_line():
    text = "t,value\n0.0,0.0\n0.5\n"
    with pytest.raises(CsvFormatError, match="line 3"):
        read_csv(io.StringIO(text))


def test_csv_nonuniform_grid_rejected():
    text = "t,value\n0.0,0.0\n0.4,1.0\n1.0,2.0\n"
    with pytest.raises(CsvFormatError, match="uniform"):
        read_csv(io.StringIO(text))


def test_csv_grid_start_error_cites_physical_line():
    text = "t,value\n\n0.5,0.0\n1.0,1.0\n"
    with pytest.raises(CsvFormatError, match="^line 3: grid must start at t=0"):
        read_csv(io.StringIO(text))


@pytest.mark.parametrize("text,line", [
    ("t,value\n0,0\n0,1\n", 3),
    ("t,value\n0,0\n\n-1,1\n\n", 4),
])
def test_csv_last_time_not_positive_cites_its_line(text, line):
    with pytest.raises(CsvFormatError, match=f"^line {line}: last time .* must be > 0"):
        read_csv(io.StringIO(text))


def test_csv_grid_deviation_cites_physical_line():
    text = "t,value\n0.0,0.0\n\n0.4,1.0\n1.0,2.0\n"
    with pytest.raises(CsvFormatError, match="^line 4: time 0.4 deviates"):
        read_csv(io.StringIO(text))


# Values whose repr is hard to get right: signed zero, the smallest
# subnormal, exponent forms on either side of repr's switch, huge magnitudes.
_HARD_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e300, -1e300, 0.1, 1 / 3]
csv_values = st.one_of(
    st.sampled_from(_HARD_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
horizons = st.one_of(
    st.integers(1, 1_000),
    st.integers(1, 1_000).map(float),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)


def _written(path):
    buf = io.StringIO()
    write_csv(path, buf)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(horizons, st.data())
def test_write_csv_matches_per_row_reference(horizon, data):
    grid = TimeGrid(horizon, data.draw(st.integers(1, 60), label="n_steps"))
    values = data.draw(st.lists(csv_values, min_size=grid.n_steps + 1,
                                max_size=grid.n_steps + 1), label="values")
    assert _written(Path(grid, np.array(values))) == csv_text(grid, values)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 30), horizons, horizons, st.data())
def test_write_csv_alternating_grids_match_reference(n_steps, h1, h2, data):
    # Two grids with one step count, written in turn: each file must carry
    # its own grid's times, whatever the previous file's grid was.
    grids = [TimeGrid(h1, n_steps), TimeGrid(h2, n_steps), TimeGrid(float(h1), n_steps)]
    for grid in grids * 2:
        values = data.draw(st.lists(csv_values, min_size=n_steps + 1, max_size=n_steps + 1))
        assert _written(Path(grid, np.array(values))) == csv_text(grid, values)


def test_template_cache_formats_each_grid_once():
    # Files on several grids written in turn reuse each grid's template
    # while the cache holds them all.  Past its size the least recently used
    # go, so ten grids in turn miss on every write, and every file still
    # carries its own grid's times.
    few = [TimeGrid(1.0, 50), TimeGrid(10.0, 50), TimeGrid(1.0, 70)]
    many = [TimeGrid(1.0 + k, 40 + k % 3) for k in range(10)]
    for order, misses in ((few * 3 + few[::-1], len(few)), (many * 2, 2 * len(many))):
        values = {g: np.linspace(-1.0, 1.0, g.n_steps + 1) for g in order}
        paths._csv_template.cache_clear()
        texts = [_written(Path(g, values[g])) for g in order]
        assert paths._csv_template.cache_info().misses == misses
        assert texts == [csv_text(g, values[g].tolist()) for g in order]


@pytest.mark.parametrize("bad", [None, "x,1", "1,inf", "1,2,3"])
def test_read_csv_agrees_across_row_chunks(bad):
    # read_csv converts its rows a chunk at a time: a text of several chunks,
    # with blank lines, reads like the per-line reader, and a bad row in the
    # last chunk is cited at its own line.
    grid = TimeGrid(3.0, 2 * paths._READ_CHUNK_ROWS + 37)
    rows = [f"{t!r},{v!r}" for t, v in zip(grid.times().tolist(),
                                            np.sin(np.arange(grid.n_steps + 1)).tolist())]
    rows[100:100] = ["", " "]
    if bad is not None:
        rows[-5] = bad
    text = "\n".join(["t,value", *rows]) + "\n"
    got = _outcome(lambda s: read_csv(io.StringIO(s)), text)
    assert got == _outcome(read_csv_text, text)
    assert (got[0] == grid) == (bad is None)


def _outcome(read, text):
    """What reading ``text`` gives: the path's grid and value bytes, or the
    error's type and message."""
    try:
        path = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return path.grid, path.values.tobytes()


_HOSTILE = {
    "blank lines": "t,value\n\n0.0,0.0\n\n0.5,1.0\n\n\n1.0,2.0\n\n",
    "whitespace-only lines": "t,value\n \t\n0.0,0.0\n   \n0.5,1.0\n1.0,2.0\n \n",
    "CRLF": "t,value\r\n0.0,0.0\r\n0.5,1.0\r\n1.0,2.0\r\n",
    "CRLF with blank line": "t,value\r\n0.0,0.0\r\n\r\n0.6,1.0\r\n1.0,2.0\r\n",
    "padded cells": "t,value\n 0.0 , 1.0 \n\t0.5,  -2.5\n 1.0 ,2.0 \n",
    "padded header": "  t,value  \n0,0\n1,1\n",
    "no final newline": "t,value\n0.0,0.0\n1.0,1.0",
    "line separators": "t,value\u20280,0\x0c1,1\x1e2,3\n",
    "underscore value": "t,value\n0,1_0\n1,2\n",
    "underscore time": "t,value\n0,0\n1_0,1\n",
    "nan value": "t,value\n0,0\n1,nan\n",
    "NaN time": "t,value\n0,0\nNaN,1\n",
    "inf value": "t,value\n0,0\n0.5,inf\n1,1\n",
    "-inf time": "t,value\n0,0\n-inf,1\n",
    "1e999": "t,value\n0,0\n1,1e999\n",
    "non-finite before non-numeric": "t,value\n0,inf\n1,abc\n",
    "non-numeric beside non-finite": "t,value\ninf,abc\n1,1\n",
    "non-numeric cell": "t,value\n0,0\n0.5,1.0\nbogus,2.0\n",
    "empty cells": "t,value\n0,0\n,\n",
    "one field": "t,value\n0.0,0.0\n0.5\n1.0,1.0\n",
    "three fields": "t,value\n0.0,0.0,0.0\n1.0,1.0\n",
    "one and three fields": "t,value\n0.0\n0.5,1.0\n1.0,2.0,3.0\n",
    "trailing comma": "t,value\n0.0,0.0\n1.0,1.0,\n",
    "header only": "t,value\n",
    "header without newline": "t,value",
    "header and blank lines": "t,value\n\n \n",
    "empty text": "",
    "bad header": "time,val\n0.0,1.0\n",
    "single row": "t,value\n0.0,0.0\n",
    "single row after blank": "t,value\n\n0.0,0.0\n\n",
    "within grid tolerance": "t,value\n0,0\n0.5000000001,1\n1,2\n",
    "zero horizon": "t,value\n0,0\n0,0\n",
    "zero horizon, two values": "t,value\n0,0\n0,1\n",
    "negative horizon": "t,value\n0,0\n-1,1\n",
    "negative horizon after blank lines": "t,value\n0,0\n\n0.5,1\n\n-1,1\n\n",
    "signed zeros": "t,value\n-0.0,-0.0\n1,0.0\n",
}


@pytest.mark.parametrize("text", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_read_csv_agrees_with_per_line_reader(text):
    assert _outcome(lambda s: read_csv(io.StringIO(s)), text) == _outcome(read_csv_text, text)


_CELLS = ["0", "0.0", "-0.0", "0.5", "1", "1.0", " 1.0 ", "2", "1_0", "1e999", "nan", "inf",
          "-inf", "", "x", "5e-324"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.lists(st.sampled_from(_CELLS), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", "\t"]),
), max_size=6), st.sampled_from(["\n", "\r\n", "\r"]))
def test_read_csv_agrees_on_generated_text(rows, newline):
    text = newline.join(["t,value", *rows]) + newline
    assert _outcome(lambda s: read_csv(io.StringIO(s)), text) == _outcome(read_csv_text, text)
