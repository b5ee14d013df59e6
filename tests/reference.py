"""An independent per-path model of the coupling, written as plain loops.

germsim simulates coupled pairs only as the rows of arrays
(``coupling.couple_rows``).  This module rebuilds one pair at a time from
the paper's three steps, with Python floats and loops: a running sum of
the stem increments, a backward sweep that reflects the tail after the
last grid visit to the line theta * t / 2, the keep rule
``u <= exp(theta * w(T) - theta^2 * T / 2)``, and a scan for the first
index where stem and branch differ.  It shares only the word stream
(``RngStream.words``), the word-to-variate rules (``normal_from_words``,
``uniform01_from_words``) and the grid times (``TimeGrid.times``) with
germsim, so the tests compare two implementations, not one with itself.

It also holds the path CSV format as one loop step per row: a writer of
``repr`` cells and a reader that parses, checks and cites each line in
turn.  germsim's ``write_csv`` formats blocks of values at once and its
``read_csv`` converts a canonical text a chunk of rows at a time; both must
agree with them byte for byte and message for message.
"""

import math

import numpy as np

from germsim.paths import CsvFormatError, Path, TimeGrid
from germsim.rng import RngStream, normal_from_words, uniform01_from_words


def coupled_pair(times, horizon, theta, stream):
    """Stem and branch of one pair drawn from ``stream``: ``n_steps`` words
    for the stem increments, then one for the uniform."""
    n_steps = len(times) - 1
    sd = math.sqrt(horizon / n_steps)
    words = stream.words(n_steps + 1)
    stem = [0.0]
    for z in normal_from_words(words[:n_steps]).tolist():
        stem.append(stem[-1] + sd * z)
    u = float(uniform01_from_words(words[n_steps:])[0])
    if keeps(theta, horizon, stem[-1], u):
        return stem, list(stem)
    return stem, reflected(times, stem, theta)


def keeps(theta, horizon, w_end, u):
    """The keep rule ``u <= exp(theta * w(T) - theta^2 * T / 2)``; a
    nonnegative exponent keeps without evaluating exp."""
    x = theta * w_end - 0.5 * theta * theta * horizon
    return x >= 0 or u <= math.exp(x)


def reflected(times, values, theta):
    """``values`` with theta * t - w(t) in place of w(t) at every index
    from :func:`reflection_start` on, one point at a time."""
    branch = list(values)
    for k in range(reflection_start(times, values, theta), len(values)):
        branch[k] = theta * times[k] - values[k]
    return branch


def reflection_start(times, values, theta):
    """One past the last index at or above the line theta * t / 2, by a
    backward sweep over the trailing points strictly below it:
    ``len(values)`` when the last point is at or above, 0 when none is."""
    k = len(values) - 1
    while k >= 0 and values[k] - 0.5 * theta * times[k] < 0:
        k -= 1
    return k + 1


def first_difference(a, b):
    """First index where the two lists differ, ``None`` where they agree."""
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return k
    return None


def couple_summary(seed, namespace, theta, horizon, n_steps, n_paths):
    """Per path of streams ``(seed, namespace | i)``: the fragmentation time
    (inf where stem and branch agree), whether the first difference lies
    past t = 0, whether the pair agreed to the horizon, and the branch
    value at the horizon."""
    times = TimeGrid(horizon, n_steps).times().tolist()
    frag, germ_ok, kept, branch_end = [], [], [], []
    for i in range(n_paths):
        stem, branch = coupled_pair(times, horizon, theta, RngStream(seed, namespace | i))
        k = first_difference(stem, branch)
        frag.append(math.inf if k is None else times[k])
        germ_ok.append(k is None or k >= 1)
        kept.append(k is None)
        branch_end.append(branch[-1])
    return frag, germ_ok, kept, branch_end


def csv_text(grid, values):
    """The path CSV of ``values`` on ``grid``: a ``t,value`` header, then
    one ``repr`` row per grid time."""
    text = "t,value\n"
    for t, v in zip(grid.times().tolist(), values):
        text += f"{t!r},{v!r}\n"
    return text


def read_csv_text(text):
    """The ``Path`` a path CSV holds, reading one line at a time.  Blank
    lines are skipped; an error names the first offending line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "t,value":
        raise CsvFormatError("line 1: expected header 't,value'")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "":
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"line {lineno}: expected 2 fields, got {len(parts)}")
        row = []
        for cell in parts:
            try:
                row.append(float(cell))
            except ValueError:
                raise CsvFormatError(f"line {lineno}: non-numeric cell {cell.strip()!r}") from None
        if not (math.isfinite(row[0]) and math.isfinite(row[1])):
            raise CsvFormatError(f"line {lineno}: non-finite cell")
        rows.append((lineno, row[0], row[1]))
    if len(rows) < 2:
        raise CsvFormatError("need at least 2 grid rows (n_steps >= 1)")
    if rows[0][1] != 0.0:
        raise CsvFormatError(f"line {rows[0][0]}: grid must start at t=0, got {rows[0][1]!r}")
    if rows[-1][1] <= 0.0:
        raise CsvFormatError(
            f"line {rows[-1][0]}: last time (the horizon) must be > 0, got {rows[-1][1]!r}"
        )
    try:
        grid = TimeGrid(horizon=rows[-1][1], n_steps=len(rows) - 1)
    except ValueError as exc:
        raise CsvFormatError(f"line {rows[-1][0]}: {exc}") from None
    tol = 1e-9 * max(1.0, grid.horizon)
    for (lineno, t, _), want in zip(rows, grid.times().tolist()):
        if abs(t - want) > tol:
            raise CsvFormatError(f"line {lineno}: time {t!r} deviates from the uniform grid")
    return Path(grid, np.array([v for _, _, v in rows]))
