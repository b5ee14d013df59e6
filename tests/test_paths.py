import io
import math
import pathlib
import sys
import tempfile
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import csv_text, read_csv_text

from germsim import paths
from germsim._repr import BLOCK
from germsim.paths import (
    CsvFormatError,
    DriftedLaw,
    Path,
    TimeGrid,
    line_value,
    read_csv,
    sample_bm_rows,
    write_csv,
)
from germsim.rng import stream_words


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


@pytest.mark.parametrize("horizon,n_steps", [(5e-324, 4), (1.5e-323, 4), (1.0, 10**400)],
                         ids=["zero step", "subnormal step", "10**400 steps"])
def test_grid_rejects_a_step_below_the_smallest_normal(horizon, n_steps):
    # A subnormal step repeats grid times: TimeGrid(1.5e-323, 4) would end
    # 1.5e-323, 1.5e-323.
    with pytest.raises(ValueError) as exc:
        TimeGrid(horizon, n_steps)
    assert str(exc.value) == ("horizon / n_steps must be >= 2.2250738585072014e-308, "
                              f"got {horizon!r} / {n_steps}")
    grid = TimeGrid(4 * sys.float_info.min, 4)
    assert grid.dt == sys.float_info.min
    assert (np.diff(grid.times()) > 0).all()


@pytest.mark.parametrize("n_steps", [2.5, 4.0, "4", None])
def test_grid_rejects_non_integer_n_steps(n_steps):
    with pytest.raises(ValueError, match="^n_steps must be an integer"):
        TimeGrid(1.0, n_steps)


@pytest.mark.parametrize("field", ["drift", "start"])
@pytest.mark.parametrize("value", [None, "a", 10**400, math.nan, math.inf],
                         ids=["None", "str", "10**400", "nan", "inf"])
def test_drifted_law_names_the_field_it_rejects(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "
                       + ("finite, got" if isinstance(value, float | int) else "a real number, got")):
        DriftedLaw(**{field: value})


def test_drifted_law_stores_python_floats():
    law = DriftedLaw(np.float64(0.5), np.array(-1.0))
    assert (type(law.drift), type(law.start)) == (float, float)
    assert law == DriftedLaw(0.5, -1.0)


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
    rows = sample_bm_rows(TimeGrid(1.0, 1), DriftedLaw(0.0, 5.0), stream_words(0, [0, 1], 1))
    assert rows[:, 0].tolist() == [5.0, 5.0]


def test_endpoint_moments_driftless():
    words = stream_words(2, np.arange(10_000), 4)
    ends = sample_bm_rows(TimeGrid(1.0, 4), DriftedLaw(0.0, 0.0), words)[:, -1]
    assert abs(ends.mean()) < 0.03
    assert abs(ends.var(ddof=1) - 1.0) < 0.05


def test_endpoint_mean_with_drift():
    words = stream_words(3, np.arange(10_000), 4)
    ends = sample_bm_rows(TimeGrid(1.0, 4), DriftedLaw(2.0, 0.0), words)[:, -1]
    assert abs(ends.mean() - 2.0) < 0.03


def test_increment_moments():
    grid = TimeGrid(1.0, 8)
    paths = sample_bm_rows(grid, DriftedLaw(1.5, 0.0), stream_words(4, np.arange(5_000), 8))
    incs = np.diff(paths, axis=1).ravel()
    dt = grid.dt
    assert abs(incs.mean() - 1.5 * dt) < 3 * math.sqrt(dt / incs.size)
    assert abs(incs.var(ddof=1) - dt) < 3 * dt * math.sqrt(2.0 / incs.size)


def test_csv_round_trip_exact():
    grid = TimeGrid(3.0, 17)
    p = Path(grid, sample_bm_rows(grid, DriftedLaw(0.7, -0.2), stream_words(5, [0], 17))[0])
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


def test_csv_subnormal_step_cites_the_horizon_line():
    text = "t,value\n0,0\n0,1\n\n5e-324,2\n"
    with pytest.raises(CsvFormatError, match="^line 5: horizon / n_steps must be >= "):
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


def test_time_cell_cache_formats_each_grid_once():
    # Files on several grids written in turn reuse each grid's time cells
    # while the cache holds them all.  Past its size the least recently used
    # go, so ten grids in turn miss on every write, and every file still
    # carries its own grid's times.
    few = [TimeGrid(1.0, 50), TimeGrid(10.0, 50), TimeGrid(1.0, 70)]
    many = [TimeGrid(1.0 + k, 40 + k % 3) for k in range(10)]
    for order, misses in ((few * 3 + few[::-1], len(few)), (many * 2, 2 * len(many))):
        values = {g: np.linspace(-1.0, 1.0, g.n_steps + 1) for g in order}
        paths._time_cells.cache_clear()
        texts = [_written(Path(g, values[g])) for g in order]
        assert paths._time_cells.cache_info().misses == misses
        assert texts == [csv_text(g, values[g].tolist()) for g in order]


def test_write_csv_memory_stays_blocked():
    # write_csv formats a block of values at a time, so one 10,000-step file
    # holds its text and a few blocks' temporaries, not a row array of the
    # whole file.
    grid = TimeGrid(10.0, 10_000)
    path = Path(grid, np.sin(np.arange(grid.n_steps + 1)) * 30.0)
    _written(path)  # builds the tables and the grid's time cells
    tracemalloc.start()
    try:
        _written(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


@pytest.mark.parametrize("rows", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 905])
def test_write_csv_block_edges_to_file_and_text(tmp_path, rows):
    # Rows on either side of a block edge, and a short last block, give the
    # reference bytes written to a file and the same text to a text object.
    grid = TimeGrid(10.0, rows - 1)
    values = np.random.default_rng(rows).standard_normal(rows).cumsum() * 0.1
    values[0] = 0.0
    want = csv_text(grid, values.tolist())
    write_csv(Path(grid, values), tmp_path / "path.csv")
    assert (tmp_path / "path.csv").read_bytes() == want.encode("ascii")
    assert _written(Path(grid, values)) == want


def test_read_csv_memory_stays_chunked(tmp_path):
    # read_csv decodes and splits a chunk of rows at a time, so a 15,000-row
    # file holds its bytes, a chunk's cell strings and the time column, not
    # a string per line of the whole file.
    grid = TimeGrid(10.0, 15_000)
    values = sample_bm_rows(grid, DriftedLaw(), stream_words(0, [0], grid.n_steps))[0]
    file = tmp_path / "path.csv"
    with open(file, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        np.savetxt(fh, np.column_stack([grid.times(), values]), fmt="%.17g", delimiter=",")
    # Cold, the time column is also converted a chunk at a time; warm, it is
    # a cache hit.
    for cold, bound in ((True, 2.4e6), (False, 2.0e6)):
        if cold:
            paths._time_grid.cache_clear()
        tracemalloc.start()
        try:
            read_csv(file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (cold, peak)


@pytest.mark.parametrize("bad", [None, "x,1", "1,inf", "1,2,3", "1,1e999", "1-2,1", "0.5,1"])
def test_read_csv_agrees_across_row_chunks(tmp_path, bad):
    # read_csv converts a canonical text a chunk at a time: a text of several
    # chunks reads like the per-line reader, on the canonical route and,
    # with blank lines, on the per-row scan, and a bad row in the last chunk
    # is cited at its own line.
    grid = TimeGrid(3.0, paths._READ_CHUNK_BYTES // 16 + 37)
    rows = [f"{t!r},{v!r}" for t, v in zip(grid.times().tolist(),
                                            np.sin(np.arange(grid.n_steps + 1)).tolist())]
    if bad is not None:
        rows[-5] = bad
    for blank in ([], ["", " "]):
        text = "\n".join(["t,value", *rows[:100], *blank, *rows[100:]]) + "\n"
        assert len(text) > 2 * paths._READ_CHUNK_BYTES
        got = _outcomes(text, tmp_path)
        assert got == [_outcome(read_csv_text, text)] * 2
        assert (got[0][0] == grid) == (bad is None)


def _outcome(read, source):
    """What ``read(source)`` gives: the path's grid and value bytes, or the
    error's type and message."""
    try:
        path = read(source)
    except ValueError as exc:
        return type(exc), str(exc)
    return path.grid, path.values.tobytes()


def _outcomes(text, directory):
    """The outcomes of read_csv on ``text`` from an ``io.StringIO`` and
    from a file in ``directory`` holding its UTF-8 bytes."""
    file = pathlib.Path(directory) / "path.csv"
    file.write_bytes(text.encode("utf-8"))
    return [_outcome(read_csv, io.StringIO(text)), _outcome(read_csv, file)]


_HOSTILE = {
    "blank lines": "t,value\n\n0.0,0.0\n\n0.5,1.0\n\n\n1.0,2.0\n\n",
    "whitespace-only lines": "t,value\n \t\n0.0,0.0\n   \n0.5,1.0\n1.0,2.0\n \n",
    "CRLF": "t,value\r\n0.0,0.0\r\n0.5,1.0\r\n1.0,2.0\r\n",
    "CRLF with blank line": "t,value\r\n0.0,0.0\r\n\r\n0.6,1.0\r\n1.0,2.0\r\n",
    "padded cells": "t,value\n 0.0 , 1.0 \n\t0.5,  -2.5\n 1.0 ,2.0 \n",
    "padded header": "  t,value  \n0,0\n1,1\n",
    "no final newline": "t,value\n0.0,0.0\n1.0,1.0",
    "cell after the final newline": "t,value\n0,0\n1,1\n5",
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
    "subnormal step": "t,value\n0.0,0.0\n0.0,1.0\n5e-324,2.0\n",
    "%.17g cells": "t,value\n0,0\n10,0.00020000000000000001\n20,3.6333057803809854e-05\n",
    "other float spellings": "t,value\n0,1E5\n.5,+1.5\n1.,.5\n1.5,5.\n2,-0.0\n2.5,1e-320\n",
    "1e999 time": "t,value\n0,0\n1e999,1\n",
    "lone minus": "t,value\n0,0\n1,-\n",
    "bare exponent": "t,value\n0,1e\n1,0\n",
    "minus inside a cell": "t,value\n0,0\n1-2,1\n",
    "two points": "t,value\n0,0\n1,..5\n",
}


@pytest.mark.parametrize("text", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_read_csv_agrees_with_per_line_reader(tmp_path, text):
    assert _outcomes(text, tmp_path) == [_outcome(read_csv_text, text)] * 2


_CELLS = ["0", "0.0", "-0.0", "0.5", "1", "1.0", " 1.0 ", "2", "1_0", "1e999", "nan", "inf",
          "-inf", "", "x", "5e-324", ".5", "1e", "-"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.lists(st.sampled_from(_CELLS), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", "\t"]),
), max_size=6), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
def test_read_csv_agrees_on_generated_text(rows, newline, final_newline):
    text = newline.join(["t,value", *rows]) + newline * final_newline
    with tempfile.TemporaryDirectory() as directory:
        assert _outcomes(text, directory) == [_outcome(read_csv_text, text)] * 2


def _cells_text(grid, values, fmt, blank_before=None):
    """A path CSV on ``grid`` with every cell formatted by ``fmt``, and a
    blank line before data row ``blank_before`` if one is given."""
    rows = [f"{fmt(t)},{fmt(v)}" for t, v in zip(grid.times().tolist(), values)]
    if blank_before is not None:
        rows.insert(blank_before, "")
    return "\n".join(["t,value", *rows]) + "\n"


def _with_time_cell(text, line, cell):
    """``text`` with the time cell on its 1-based line ``line`` replaced by
    ``cell``, a cell of the same length."""
    lines = text.split("\n")
    old, value = lines[line - 1].split(",")
    assert len(cell) == len(old)
    lines[line - 1] = f"{cell},{value}"
    return "\n".join(lines)


def test_time_column_cache_never_changes_an_outcome(tmp_path):
    # read_csv checks a time column once per process.  Texts read in turn,
    # from text and from a file's bytes, good and bad, each give what the
    # per-line reader gives, whatever was read before them.  Only the
    # columns that pass enter the cache, and it holds at most 8 of them.
    grid = TimeGrid(4.0, 8)  # every time is three characters: 0.0, 0.5, ..., 4.0
    values = np.cos(np.arange(grid.n_steps + 1)).tolist()
    good = _cells_text(grid, values, repr)
    bad = [_with_time_cell(good, 5, cell) for cell in ("1.6", "1.x", "inf")]
    texts = [
        good,
        _cells_text(grid, values, "%.17g".__mod__),  # same floats, other text
        *bad,
        _with_time_cell(good, 4, " 1."),  # a leading space: a third column
        _cells_text(grid, values, repr, blank_before=1),  # good's column again
        # Off the grid as bad[0] is, but cited one line further down.
        _with_time_cell(_cells_text(grid, values, repr, blank_before=1), 6, "1.6"),
        *bad,
        good,
        *(_cells_text(TimeGrid(4.0 + k, 8), values, repr) for k in range(1, 10)),
        *bad,
        good,
    ]
    # The cache as a model: least recently used first, bad columns never in.
    model, misses = OrderedDict(), 0
    paths._time_grid.cache_clear()
    file = tmp_path / "path.csv"
    for text in texts * 2:
        file.write_bytes(text.encode("utf-8"))
        for source in (io.StringIO(text), file):
            got = _outcome(read_csv, source)
            assert got == _outcome(read_csv_text, text)
            column = ",".join(row.partition(",")[0] for row in text.splitlines()[1:] if row)
            if column in model:
                model.move_to_end(column)
            else:
                misses += 1
                if isinstance(got[0], TimeGrid):
                    model[column] = got[0]
                if len(model) > 8:
                    model.popitem(last=False)
            info = paths._time_grid.cache_info()
            assert (info.misses, info.currsize, info.maxsize) == (misses, len(model), 8)


def test_time_column_cache_checks_each_column_once():
    # Files on several grids read in turn reuse each checked time column
    # while the cache holds them all.  Past its size the least recently used
    # go, so ten columns in turn miss on every read, and every path still
    # carries its own grid and values.
    few = [TimeGrid(1.0, 50), TimeGrid(10.0, 50), TimeGrid(1.0, 70)]
    many = [TimeGrid(1.0 + k, 40 + k % 3) for k in range(10)]
    for order, misses in ((few * 3 + few[::-1], len(few)), (many * 2, 2 * len(many))):
        written = {g: Path(g, np.linspace(-1.0, 1.0, g.n_steps + 1)) for g in order}
        texts = {g: _written(p) for g, p in written.items()}
        paths._time_grid.cache_clear()
        got = [read_csv(io.StringIO(texts[g])) for g in order]
        assert paths._time_grid.cache_info().misses == misses
        assert [p.grid for p in got] == order
        assert all(np.array_equal(p.values, written[g].values) for p, g in zip(got, order))
