"""Experiment driver: reproducible sampling, coupling and verification runs.

Every command is deterministic for a given configuration: substreams are
keyed by path index and manifests carry the full configuration, so a rerun
reproduces every output byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Sized
from dataclasses import dataclass, field, fields
from pathlib import Path as FsPath

from . import __version__
from .coupling import germ_transform, sample_coupled_pair, validate_theta
from .paths import DriftedLaw, TimeGrid, _write_text, read_csv, sample_bm, write_csv
from .rng import _check_int, _check_u64, substream
from .stats import reports_to_json
from .subordinator import DriftGrid, fragmentation_process
from .verify import VerifyConfig, format_report_lines, run_verification


@dataclass(frozen=True)
class RunConfig:
    """A run command's configuration.  Each owner validates and converts its
    fields at construction, so the manifest records the values that run."""

    seed: int = 0
    n_paths: int = 1
    n_steps: int = 1_000
    horizon: float = 1.0
    thetas: tuple[float, ...] = field(default_factory=tuple)
    out_dir: FsPath | None = None
    fmt: str = "csv"

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_u64("seed", self.seed))
        grid = self.grid()
        object.__setattr__(self, "horizon", grid.horizon)
        object.__setattr__(self, "n_steps", grid.n_steps)
        no_drifts = isinstance(self.thetas, Sized) and len(self.thetas) == 0
        thetas = () if no_drifts else DriftGrid(self.thetas).thetas
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "n_paths", _check_int("n_paths", self.n_paths))
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt}")

    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)

    def manifest(self, command: str, extra: dict | None = None) -> dict:
        doc = {
            "command": command,
            "version": __version__,
            "seed": self.seed,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "horizon": self.horizon,
            "thetas": list(self.thetas),
            "format": self.fmt,
        }
        if extra:
            doc.update(extra)
        return doc


# Every file the run commands write, the manifest first.
_OUTPUTS = ("manifest.json", "path_*.csv", "stem_*.csv", "branch_*.csv",
            "frag_times.csv", "frag_times.json", "frag_process_*.csv", "frag_process_*.json")


def _make_dir(out: FsPath) -> None:
    """Create ``out`` and its parents; a failure is reported under ``out``."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"out: cannot create directory {str(out)!r}: "
                         f"{exc.strerror or exc}") from None


def _out_dir(cfg: RunConfig) -> FsPath:
    """Create the output directory and delete every output of an earlier run,
    and the ``.tmp`` file of an interrupted write of each, its manifest
    first, so the directory reads as incomplete until this run commits its
    own manifest and holds no file this run did not write."""
    if cfg.out_dir is None:
        raise ValueError("out_dir is required")
    out = FsPath(cfg.out_dir)
    _make_dir(out)
    for pattern in _OUTPUTS:
        for old in (*out.glob(pattern), *out.glob(f"{pattern}.tmp")):
            old.unlink()
    return out


def _write_json(path: FsPath, doc) -> None:
    """Write ``doc`` as sorted, indented JSON."""
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value)


def _write_table(out: FsPath, name: str, fmt: str, columns, rows, csv_columns=None) -> None:
    """Write ``rows`` as ``name.csv`` or as ``name.json``, a list of objects
    keyed by ``columns``.

    A censored time, ``inf``, is ``null`` in JSON.  CSV cells are
    ``repr`` numbers and lower-case booleans; ``csv_columns`` names a
    leading subset of the columns for the CSV header and rows.
    """
    if fmt == "json":
        _write_json(out / f"{name}.json", [
            {c: None if v == math.inf else v for c, v in zip(columns, row)}
            for row in rows
        ])
        return
    header = csv_columns or columns
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row[: len(header)])) for row in rows)
    _write_text(out / f"{name}.csv", "\n".join(lines) + "\n")


_FRAG_COLUMNS = ("theta", "tau_frag", "censored")


def cmd_sample(cfg: RunConfig) -> FsPath:
    """Write n_paths driftless stems as path_<id>.csv plus a manifest."""
    out = _out_dir(cfg)
    grid = cfg.grid()
    for i in range(cfg.n_paths):
        path = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(cfg.seed, i))
        write_csv(path, out / f"path_{i:05d}.csv")
    _write_json(out / "manifest.json", cfg.manifest("sample"))
    return out


def cmd_couple(cfg: RunConfig, theta: float) -> FsPath:
    """Per path: stem CSV, coupled branch CSV, and a fragmentation-time table."""
    theta = validate_theta(theta)
    out = _out_dir(cfg)
    grid = cfg.grid()
    rows = []
    for i in range(cfg.n_paths):
        pair = sample_coupled_pair(grid, theta, substream(cfg.seed, i))
        write_csv(pair.stem, out / f"stem_{i:05d}.csv")
        write_csv(pair.branch, out / f"branch_{i:05d}.csv")
        rows.append((i, pair.frag_time, pair.agreed_to_horizon))
    _write_table(out, "frag_times", cfg.fmt, ("path_id", "frag_time", "censored"), rows,
                 csv_columns=("path_id", "frag_time_or_inf"))
    _write_json(out / "manifest.json", cfg.manifest("couple", {"theta": theta}))
    return out


def cmd_bouquet(cfg: RunConfig) -> FsPath:
    """One stem per path id, one branch per drift from the same stem.

    Every branch replays the stream of its path id, so all branches of a
    stem share the stem and its uniform draw, and the whole family is
    coupled on one source of randomness; fragmentation times are
    non-increasing across the drift grid on every stem.
    """
    thetas = DriftGrid(cfg.thetas).thetas
    out = _out_dir(cfg)
    grid = cfg.grid()
    for i in range(cfg.n_paths):
        pairs = [sample_coupled_pair(grid, theta, substream(cfg.seed, i)) for theta in thetas]
        write_csv(pairs[0].stem, out / f"stem_{i:05d}.csv")
        for j, pair in enumerate(pairs):
            write_csv(pair.branch, out / f"branch_{i:05d}_theta{j}.csv")
        _write_table(out, f"frag_process_{i:05d}", cfg.fmt, _FRAG_COLUMNS,
                     [(p.theta, p.frag_time, p.agreed_to_horizon) for p in pairs])
    _write_json(out / "manifest.json", cfg.manifest("bouquet"))
    return out


def cmd_frag_process(cfg: RunConfig) -> FsPath:
    """Fragmentation-time process of fresh stems over the drift grid."""
    dgrid = DriftGrid(cfg.thetas)
    out = _out_dir(cfg)
    grid = cfg.grid()
    for i in range(cfg.n_paths):
        stem = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(cfg.seed, i))
        times, censored = fragmentation_process(stem, dgrid)
        _write_table(out, f"frag_process_{i:05d}", cfg.fmt, _FRAG_COLUMNS,
                     zip(dgrid.thetas, times.tolist(), censored.tolist()))
    _write_json(out / "manifest.json", cfg.manifest("frag-process"))
    return out


def cmd_germ_transform(source, theta: float, u: float, destination) -> None:
    """Read a path CSV, apply the transform, write the result.

    A file that cannot be read or written is reported under its flag,
    ``in`` or ``out``, and the path given there.
    """
    try:
        path = read_csv(source)
    except OSError as exc:
        raise ValueError(f"in: cannot read {source!r}: {exc.strerror or exc}") from None
    branch = germ_transform(path, u, theta)
    try:
        write_csv(branch, destination)
    except OSError as exc:
        raise ValueError(f"out: cannot write {destination!r}: {exc.strerror or exc}") from None


def cmd_verify(cfg: VerifyConfig, out_path: FsPath | None) -> int:
    """Run the verification suite; exit status 0 iff every check passes.

    The output directory is created first, so an unusable ``--out`` fails
    before the suite runs."""
    if out_path is not None:
        _make_dir(out_path.parent)
    reports = run_verification(cfg)
    text = reports_to_json(reports)
    if out_path is not None:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)
    for line in format_report_lines(reports):
        print(line, file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


_RUN_COMMANDS = {"sample": cmd_sample, "bouquet": cmd_bouquet, "frag-process": cmd_frag_process}


def _parse_thetas(raw: str | None) -> tuple[float, ...]:
    if not raw:
        return ()
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"thetas must be a comma-separated list of numbers, got {raw!r}") from None


def _run_parser(sub, name: str, summary: str, *, table: bool = True):
    """Subcommand taking ``--seed``, ``--out``, the grid flags ``--paths``,
    ``--steps`` and ``--horizon``, and ``--format`` if ``table``.  A flag
    left out takes its :class:`RunConfig` default."""
    p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--out", dest="out_dir", type=str, help="output directory")
    p.add_argument("--paths", dest="n_paths", type=int, help="number of paths (default 1)")
    p.add_argument("--steps", dest="n_steps", type=int, help="grid steps (default 1000)")
    p.add_argument("--horizon", type=float, help="time horizon T (default 1)")
    if table:
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       help="fragmentation table format (default csv)")
    return p


def _config(cls, args):
    """A ``cls`` from the flags given, each under its field's name."""
    given = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    if "thetas" in given:
        given["thetas"] = _parse_thetas(given["thetas"])
    if "out_dir" in given:
        given["out_dir"] = FsPath(given["out_dir"]) if given["out_dir"] else None
    return cls(**given)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of :func:`main`, built once per process; parsing
    leaves it unchanged, so every call reuses it."""
    parser = argparse.ArgumentParser(
        prog="germsim",
        description="Simulate and verify germ couplings of drifted Brownian motions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _run_parser(sub, "sample", "sample driftless stems to CSV", table=False)

    p = _run_parser(sub, "couple", "sample coupled stem/branch pairs")
    p.add_argument("--theta", type=float, required=True, help="branch drift (>= 0)")

    for name, summary in (("bouquet", "one stem, one branch per drift"),
                          ("frag-process", "fragmentation times over a drift grid")):
        p = _run_parser(sub, name, summary)
        p.add_argument("--thetas", type=str, required=True,
                       help="comma-separated increasing drifts")

    p = sub.add_parser("germ-transform", help="transform one path CSV")
    p.add_argument("--in", dest="source", type=str, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("verify", help="run the verification suite",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--alpha", type=float, help="test level (default 0.001)")
    p.add_argument("--scale", type=float, help="sample-count multiplier (default 1)")
    p.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "germ-transform":
            cmd_germ_transform(args.source, args.theta, args.u, args.out)
        elif args.command == "verify":
            out = FsPath(args.out) / "verify_report.json" if args.out else None
            return cmd_verify(_config(VerifyConfig, args), out)
        elif args.command == "couple":
            cmd_couple(_config(RunConfig, args), args.theta)
        else:
            _RUN_COMMANDS[args.command](_config(RunConfig, args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
