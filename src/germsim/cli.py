"""Experiment driver: reproducible sampling, coupling and verification runs.

Every command is deterministic for a given configuration: substreams are
keyed by path index and manifests carry the full configuration, so a rerun
reproduces every output byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from . import __version__
from .coupling import (
    BEYOND_HORIZON,
    fragmentation_time,
    germ_transform,
    sample_coupled_pair,
    validate_theta,
)
from .paths import DriftedLaw, TimeGrid, read_csv, sample_bm, write_csv
from .rng import substream
from .stats import reports_to_json
from .subordinator import DriftGrid, fragmentation_process
from .verify import VerifyConfig, format_report_lines, run_verification


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    n_paths: int = 1
    n_steps: int = 1_000
    horizon: float = 1.0
    thetas: tuple[float, ...] = field(default_factory=tuple)
    alpha: float = 0.001
    out_dir: FsPath | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError(f"horizon must be finite and > 0, got {self.horizon}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt}")

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
            "alpha": self.alpha,
            "format": self.fmt,
        }
        if extra:
            doc.update(extra)
        return doc


def _out_dir(cfg: RunConfig) -> FsPath:
    if cfg.out_dir is None:
        raise ConfigError("out_dir is required")
    out = FsPath(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: FsPath, doc: dict) -> None:
    (out / "manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _frag_cell(frag) -> str:
    return "inf" if frag is BEYOND_HORIZON else repr(frag)


def cmd_sample(cfg: RunConfig) -> FsPath:
    """Write n_paths driftless stems as path_<id>.csv plus a manifest."""
    out = _out_dir(cfg)
    grid = cfg.grid()
    for i in range(cfg.n_paths):
        path = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(cfg.seed, i))
        write_csv(path, out / f"path_{i:05d}.csv")
    _write_manifest(out, cfg.manifest("sample"))
    return out


def cmd_couple(cfg: RunConfig, theta: float) -> FsPath:
    """Per path: stem CSV, coupled branch CSV, and a fragmentation-time table."""
    validate_theta(theta)
    out = _out_dir(cfg)
    grid = cfg.grid()
    rows = []
    for i in range(cfg.n_paths):
        pair = sample_coupled_pair(grid, theta, substream(cfg.seed, i))
        write_csv(pair.stem, out / f"stem_{i:05d}.csv")
        write_csv(pair.branch, out / f"branch_{i:05d}.csv")
        rows.append((i, pair.frag_time))
    if cfg.fmt == "csv":
        lines = ["path_id,frag_time_or_inf"]
        lines.extend(f"{i},{_frag_cell(f)}" for i, f in rows)
        (out / "frag_times.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        doc = [
            {"path_id": i, "frag_time": None if f is BEYOND_HORIZON else f,
             "censored": f is BEYOND_HORIZON}
            for i, f in rows
        ]
        (out / "frag_times.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    _write_manifest(out, cfg.manifest("couple", {"theta": theta}))
    return out


def _write_frag_table(out: FsPath, stem_id: int, thetas, frags, censored, fmt: str) -> None:
    if fmt == "csv":
        lines = ["theta,tau_frag,censored"]
        lines.extend(
            f"{th!r},{_frag_cell(f)},{str(c).lower()}"
            for th, f, c in zip(thetas, frags, censored)
        )
        (out / f"frag_process_{stem_id:05d}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    else:
        doc = [
            {"theta": th, "tau_frag": None if f is BEYOND_HORIZON else f, "censored": c}
            for th, f, c in zip(thetas, frags, censored)
        ]
        (out / f"frag_process_{stem_id:05d}.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def cmd_bouquet(cfg: RunConfig) -> FsPath:
    """One stem per path id, one branch per drift from the same stem.

    All branches of a stem share its uniform draw, so the whole family is
    coupled on one source of randomness; fragmentation times are
    non-increasing across the drift grid on every stem.
    """
    if not cfg.thetas:
        raise ConfigError("thetas must be a nonempty list for bouquet runs")
    DriftGrid(cfg.thetas)
    out = _out_dir(cfg)
    grid = cfg.grid()
    for i in range(cfg.n_paths):
        stream = substream(cfg.seed, i)
        stem = sample_bm(grid, DriftedLaw(0.0, 0.0), stream)
        u = stream.uniform01()
        write_csv(stem, out / f"stem_{i:05d}.csv")
        frags, censored = [], []
        for j, theta in enumerate(cfg.thetas):
            branch = germ_transform(stem, u, theta)
            write_csv(branch, out / f"branch_{i:05d}_theta{j}.csv")
            f = fragmentation_time(stem, branch)
            frags.append(f)
            censored.append(f is BEYOND_HORIZON)
        _write_frag_table(out, i, cfg.thetas, frags, censored, cfg.fmt)
    _write_manifest(out, cfg.manifest("bouquet"))
    return out


def cmd_frag_process(cfg: RunConfig) -> FsPath:
    """Fragmentation-time process of fresh stems over the drift grid."""
    if not cfg.thetas:
        raise ConfigError("thetas must be a nonempty list for frag-process runs")
    dgrid = DriftGrid(cfg.thetas)
    out = _out_dir(cfg)
    grid = cfg.grid()
    for i in range(cfg.n_paths):
        stem = sample_bm(grid, DriftedLaw(0.0, 0.0), substream(cfg.seed, i))
        fp = fragmentation_process(stem, dgrid)
        _write_frag_table(out, i, dgrid.thetas, fp.times, fp.censored, cfg.fmt)
    _write_manifest(out, cfg.manifest("frag-process"))
    return out


def cmd_germ_transform(source, theta: float, u: float, destination) -> None:
    """Read a path CSV, apply the transform, write the result."""
    path = read_csv(source)
    write_csv(germ_transform(path, u, theta), destination)


def cmd_verify(cfg: RunConfig, scale: float, out_path: FsPath | None) -> int:
    """Run the verification suite; exit status 0 iff every check passes."""
    reports = run_verification(
        VerifyConfig(seed=cfg.seed, alpha=cfg.alpha, scale=scale)
    )
    text = reports_to_json(reports)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for line in format_report_lines(reports):
        print(line, file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _parse_thetas(raw: str | None) -> tuple[float, ...]:
    if not raw:
        return ()
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"thetas must be a comma-separated list of numbers, got {raw!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--paths", type=int, default=1, help="number of paths")
    p.add_argument("--steps", type=int, default=1000, help="grid steps")
    p.add_argument("--horizon", type=float, default=1.0, help="time horizon T")
    p.add_argument("--alpha", type=float, default=0.001, help="test level")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")


def _config(args) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        n_paths=args.paths,
        n_steps=args.steps,
        horizon=args.horizon,
        thetas=_parse_thetas(getattr(args, "thetas", None)),
        alpha=args.alpha,
        out_dir=FsPath(args.out) if args.out else None,
        fmt=args.fmt,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="germsim",
        description="Simulate and verify germ couplings of drifted Brownian motions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample driftless stems to CSV")
    _add_common(p)

    p = sub.add_parser("couple", help="sample coupled stem/branch pairs")
    _add_common(p)
    p.add_argument("--theta", type=float, required=True, help="branch drift (>= 0)")

    p = sub.add_parser("bouquet", help="one stem, one branch per drift")
    _add_common(p)
    p.add_argument("--thetas", type=str, required=True,
                   help="comma-separated increasing drifts")

    p = sub.add_parser("frag-process", help="fragmentation times over a drift grid")
    _add_common(p)
    p.add_argument("--thetas", type=str, required=True,
                   help="comma-separated increasing drifts")

    p = sub.add_parser("germ-transform", help="transform one path CSV")
    p.add_argument("--in", dest="source", type=str, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_common(p)
    p.add_argument("--scale", type=float, default=1.0,
                   help="sample-count multiplier (1.0 = full suite)")

    args = parser.parse_args(argv)
    try:
        if args.command == "sample":
            cmd_sample(_config(args))
        elif args.command == "couple":
            cmd_couple(_config(args), args.theta)
        elif args.command == "bouquet":
            cmd_bouquet(_config(args))
        elif args.command == "frag-process":
            cmd_frag_process(_config(args))
        elif args.command == "germ-transform":
            cmd_germ_transform(args.source, args.theta, args.u, args.out)
        elif args.command == "verify":
            out = FsPath(args.out) / "verify_report.json" if args.out else None
            return cmd_verify(_config(args), args.scale, out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
