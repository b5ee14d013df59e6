"""Benchmark inputs and output checkers, independent of germsim.

Everything here uses only the standard library and numpy: the checkers
parse path CSVs with their own reader (never ``germsim.read_csv``) and
recompute the expected transform from its definition, so a defect in the
library cannot hide itself by agreeing with its own parser.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# transform_read input mix.  Every file is one operation of the workload.
TRANSFORM_FILES = 100
TRANSFORM_STEPS = (5_000, 10_000, 15_000)
TRANSFORM_THETAS = (0.5, 2.0, 8.0)
TRANSFORM_HORIZONS = (1.0, 10.0)
# Inputs whose endpoint makes exp(theta * w(T) - theta^2 * T / 2) overflow a
# double.  They are the known overflow of the endpoint likelihood ratio and
# stay in the mix, so a fix shows as fewer failed operations.
TRANSFORM_OVERFLOW_FILES = 2
_OVERFLOW_STEPS = 10_000
_OVERFLOW_THETA = 8.0
_OVERFLOW_HORIZON = 10.0
_OVERFLOW_DRIFT = 20.0

VERIFY_REPORTS = 18


@dataclass(frozen=True)
class CoupleConfig:
    """One ``germsim couple`` run; the workload uses the defaults."""

    seed: int
    paths: int = 100
    steps: int = 10_000
    horizon: float = 10.0
    theta: float = 2.0

    def argv(self, out: str) -> list[str]:
        return ["couple", "--seed", str(self.seed), "--paths", str(self.paths),
                "--steps", str(self.steps), "--horizon", repr(self.horizon),
                "--theta", repr(self.theta), "--out", out]


@dataclass(frozen=True)
class TransformInput:
    """One germ-transform operation: input file, drift and uniform."""

    name: str
    theta: float
    u: float
    overflows: bool


def write_path_csv(destination: str, times: np.ndarray, values: np.ndarray) -> None:
    """Write a ``t,value`` path CSV at round-trip precision (17 digits)."""
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        np.savetxt(fh, np.column_stack([times, values]), fmt="%.17g", delimiter=",")


def read_path_csv(source: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``t,value`` path CSV into (times, values) float arrays."""
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header != "t,value":
        raise ValueError(f"{source}: bad header {header!r}")
    cells = body.replace("\n", ",").split(",")
    if cells and cells[-1] == "":
        cells.pop()
    if len(cells) % 2 or len(cells) < 4:
        raise ValueError(f"{source}: expected an even number of cells, at least 4")
    data = np.array(cells, dtype=np.float64).reshape(-1, 2)
    return data[:, 0].copy(), data[:, 1].copy()


def make_transform_inputs(seed: int, directory: str) -> list[TransformInput]:
    """Write the transform_read input files for ``seed`` into ``directory``.

    The mix varies step count, horizon, drift theta, driftless versus
    drift-theta stems and u, so both the keep and the reflect branch run.
    Every seed gets the same number of files of each kind, cycling through
    all combinations, so the work per pass does not depend on the seed; the
    seed draws the paths, the u values, the order of the files and which
    files overflow.  The same seed gives byte-identical files.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    kinds = list(itertools.product(TRANSFORM_STEPS, TRANSFORM_THETAS, TRANSFORM_HORIZONS, (True, False)))
    normal = TRANSFORM_FILES - TRANSFORM_OVERFLOW_FILES
    mix = [kinds[j % len(kinds)] for j in range(normal)]
    mix += [(_OVERFLOW_STEPS, _OVERFLOW_THETA, _OVERFLOW_HORIZON, None)] * TRANSFORM_OVERFLOW_FILES
    inputs = []
    for i, k in enumerate(rng.permutation(TRANSFORM_FILES)):
        n_steps, theta, horizon, drifted = mix[k]
        drift = _OVERFLOW_DRIFT if drifted is None else theta if drifted else 0.0
        u = float(rng.random())
        times = np.linspace(0.0, horizon, n_steps + 1)
        dt = horizon / n_steps
        values = np.empty(n_steps + 1)
        values[0] = 0.0
        np.cumsum(drift * dt + math.sqrt(dt) * rng.standard_normal(n_steps), out=values[1:])
        name = f"in_{i:03d}.csv"
        write_path_csv(os.path.join(directory, name), times, values)
        inputs.append(TransformInput(name, float(theta), u, drifted is None))
    return inputs


def expected_transform(times: np.ndarray, values: np.ndarray, theta: float, u: float) -> np.ndarray:
    """The germ transform by its definition, for theta >= 0.

    Keep the path when ``log u <= theta * w(T) - theta^2 * T / 2``.  Otherwise
    keep it up to the last grid point at or above the line theta * t / 2 and
    replace every later point by ``theta * t - w(t)``.
    """
    if math.log(u) <= theta * float(values[-1]) - 0.5 * theta * theta * float(times[-1]):
        return values
    return reflected(times, values, theta)


def reflected(times: np.ndarray, values: np.ndarray, theta: float) -> np.ndarray:
    """Reflection across theta * t / 2 after the last grid point on or above it."""
    above = np.nonzero(values - 0.5 * theta * times >= 0.0)[0]
    stop = int(above[-1]) if above.size else -1
    out = values.copy()
    out[stop + 1 :] = theta * times[stop + 1 :] - values[stop + 1 :]
    return out


def check_transform_output(
    input_path: str, output_path: str, theta: float, u: float
) -> str | None:
    """None when the output is the exact transform of the input, else why not."""
    if not os.path.exists(output_path):
        return "output missing"
    t_in, w_in = read_path_csv(input_path)
    t_out, w_out = read_path_csv(output_path)
    if not np.array_equal(t_in, t_out):
        return "time column differs from the input grid"
    if not np.array_equal(w_out, expected_transform(t_in, w_in, theta, u)):
        return "values differ from the expected transform"
    return None


def check_couple_output(directory: str, cfg: CoupleConfig) -> tuple[int, list[str]]:
    """Check a ``couple`` output directory; returns (rejected pairs, reasons).

    Every stem/branch file, frag_times.csv and the manifest must be present.
    A pair is rejected unless stem and branch are bit-identical before the
    reported fragmentation time and differ at it, the branch after it is the
    reflection ``theta * t - w(t)``, and ``inf`` pairs are identical.
    """
    try:
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(directory, "frag_times.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        return cfg.paths, [f"{directory}: {exc}"]
    want = {"command": "couple", "seed": cfg.seed, "n_paths": cfg.paths,
            "n_steps": cfg.steps, "horizon": cfg.horizon, "theta": cfg.theta}
    wrong = {k: manifest.get(k) for k, v in want.items() if manifest.get(k) != v}
    if wrong:
        return cfg.paths, [f"{directory}: manifest fields {wrong}"]
    if rows[:1] != ["path_id,frag_time_or_inf"] or len(rows) != cfg.paths + 1:
        return cfg.paths, [f"{directory}: malformed frag_times.csv"]
    reasons = []
    for i, row in enumerate(rows[1:]):
        why = _check_pair(directory, i, row, cfg)
        if why is not None:
            reasons.append(f"{directory} pair {i}: {why}")
    return len(reasons), reasons


def _check_pair(directory: str, i: int, row: str, cfg: CoupleConfig) -> str | None:
    path_id, _, cell = row.partition(",")
    if path_id != str(i):
        return f"frag_times row {row!r} out of order"
    try:
        ts, stem = read_path_csv(os.path.join(directory, f"stem_{i:05d}.csv"))
        tb, branch = read_path_csv(os.path.join(directory, f"branch_{i:05d}.csv"))
    except (OSError, ValueError) as exc:
        return str(exc)
    if ts.size != cfg.steps + 1 or not np.array_equal(ts, tb):
        return "stem and branch grids differ or have the wrong length"
    differs = np.nonzero(stem != branch)[0]
    if cell == "inf":
        return None if differs.size == 0 else "reported agreement but the paths differ"
    if differs.size == 0:
        return f"reported fragmentation at {cell} but the paths agree"
    if float(ts[differs[0]]) != float(cell):
        return f"first difference at t={ts[differs[0]]!r}, reported {cell}"
    if not np.array_equal(branch, reflected(ts, stem, cfg.theta)):
        return "branch is not the reflected stem"
    return None


def check_verify_report(path: str) -> tuple[int, int, list[str]]:
    """(failed gates, malformed entries, reasons) for a verification report.

    A gate that reports failure is a failed operation.  An entry that is
    missing, or whose pass flag disagrees with statistic <= threshold, is a
    wrong output.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:
        return VERIFY_REPORTS, VERIFY_REPORTS, [f"{path}: {exc}"]
    if len(entries) != VERIFY_REPORTS:
        return VERIFY_REPORTS, VERIFY_REPORTS, [f"{path}: {len(entries)} reports, expected {VERIFY_REPORTS}"]
    failed, wrong, reasons = 0, 0, []
    for e in entries:
        if e.get("pass") is not (e["statistic"] <= e["threshold"]):
            wrong += 1
            reasons.append(f"{path}: {e.get('test')} pass flag disagrees with its statistic")
        if e.get("pass") is not True:
            failed += 1
            reasons.append(f"{path}: gate {e.get('test')} failed")
    return failed, wrong, reasons


def tree_digest(root: str) -> str:
    """sha256 over the relative names and bytes of every file under ``root``."""
    h = hashlib.sha256()
    files = sorted(
        os.path.relpath(os.path.join(d, f), root)
        for d, _, names in os.walk(root) for f in names
    )
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
