import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from germsim import cli, coupling, verify
from germsim.cli import RunConfig, cmd_couple, main
from germsim.coupling import sample_coupled_pair
from germsim.paths import Path, TimeGrid, read_csv, sample_bm_rows, write_csv
from germsim.rng import RngStream, substream
from germsim.stats import ks_threshold, reports_to_json
from germsim.subordinator import DriftGrid
from germsim.verify import VerifyConfig


def _read(path):
    return path.read_bytes()


def test_run_config_validation_names_fields():
    with pytest.raises(ValueError, match="n_steps"):
        RunConfig(n_steps=0)
    with pytest.raises(ValueError, match="n_paths"):
        RunConfig(n_paths=0)
    with pytest.raises(ValueError, match="horizon"):
        RunConfig(horizon=-1.0)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ValueError, match="thetas"):
        RunConfig(thetas=(2.0, 1.0))


def _raises_the_owner_error(config, kwargs, owner):
    # Each rule lives with its owner; a config raises the owner's error as is.
    with pytest.raises(ValueError) as expected:
        owner()
    with pytest.raises(ValueError) as got:
        config(**kwargs)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


@pytest.mark.parametrize("kwargs,owner", [
    ({"seed": -1}, lambda: RngStream(-1)),
    ({"n_steps": 0}, lambda: TimeGrid(1.0, 0)),
    ({"horizon": float("nan")}, lambda: TimeGrid(float("nan"), 4)),
    ({"thetas": (2.0, 1.0)}, lambda: DriftGrid((2.0, 1.0))),
    ({"thetas": None}, lambda: DriftGrid(None)),
    ({"thetas": 2.0}, lambda: DriftGrid(2.0)),
])
def test_run_config_raises_the_owner_message(kwargs, owner):
    _raises_the_owner_error(RunConfig, kwargs, owner)


@pytest.mark.parametrize("empty", [(), [], np.array([])])
def test_run_config_empty_thetas_mean_no_drifts(empty):
    assert RunConfig(thetas=empty).thetas == ()


def test_verify_config_raises_the_owner_message():
    _raises_the_owner_error(VerifyConfig, {"alpha": 2.0}, lambda: ks_threshold(1, 2.0))


@pytest.mark.parametrize("kwargs,field", [
    ({"alpha": 2.0}, "alpha"),
    ({"alpha": 0.0}, "alpha"),
    ({"scale": 0}, "scale"),
    ({"scale": float("nan")}, "scale"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"scale": float("inf")}, "scale"),
    # Truncation would run seed 1 under a report that says 1.5.
    ({"seed": 1.5}, "seed"),
    # The largest scaled count, 100_000 * scale, would overflow.
    ({"scale": 1e308}, "scale"),
    ({"scale": 10**400}, "scale"),
    ({"alpha": "0.1"}, "alpha"),
])
def test_verify_config_validated_at_construction(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        VerifyConfig(**kwargs)


@pytest.mark.parametrize("name", ["seed", "n_paths", "n_steps"])
@pytest.mark.parametrize("bad", [2.5, 4.0, "4"])
def test_run_config_rejects_non_integer_counts(name, bad):
    # Truncation would run seed 2 for 2.5, and n_paths = 2.5 would fail
    # only later, in cmd_sample, with a bare TypeError.
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        RunConfig(**{name: bad})


def test_configs_store_python_ints():
    cfg = RunConfig(seed=np.uint64(5), n_paths=np.int64(2), n_steps=np.int64(4))
    assert [type(v) for v in (cfg.seed, cfg.n_paths, cfg.n_steps)] == [int, int, int]
    assert json.loads(json.dumps(cfg.manifest("sample")))["seed"] == 5
    assert type(VerifyConfig(seed=np.uint64(3)).seed) is int


@pytest.mark.parametrize("kwargs,key,want", [
    ({"horizon": 1}, "horizon", 1.0),
    ({"horizon": np.float32(1.5)}, "horizon", 1.5),
    ({"thetas": (1, 2)}, "thetas", [1.0, 2.0]),
    ({"thetas": np.array([0.5, 1.0], dtype=np.float32)}, "thetas", [0.5, 1.0]),
])
def test_run_config_manifest_records_the_floats_that_run(kwargs, key, want):
    # The manifest records the owner's float, which JSON can write: 1.0, not 1.
    doc = RunConfig(**kwargs).manifest("x")
    assert json.dumps(doc[key]) == json.dumps(want)
    json.dumps(doc)


@pytest.mark.parametrize("kwargs,key,want", [
    ({"alpha": np.float32(0.001)}, "alpha", float(np.float32(0.001))),
    ({"alpha": Fraction(1, 1000)}, "alpha", 0.001),
    ({"scale": Fraction(1, 50)}, "scale", 0.02),
    ({"scale": np.float32(0.5)}, "scale", 0.5),
    ({"scale": 1}, "scale", 1.0),
])
def test_verify_config_records_the_floats_that_run(kwargs, key, want):
    # The report records the config's Python float, which JSON can write,
    # so a suite never runs to the end only to fail in reports_to_json.
    cfg = VerifyConfig(**kwargs)
    assert type(getattr(cfg, key)) is float and getattr(cfg, key) == want
    report = verify._report(cfg, "x", 1, 0.0, 0.0, scale=cfg.scale)
    assert json.loads(reports_to_json([report]))[0]["alpha"] == cfg.alpha


def test_sample_writes_paths_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = main(["sample", "--paths", "2", "--steps", "4", "--out", str(out)])
    assert rc == 0
    for i in range(2):
        text = (out / f"path_{i:05d}.csv").read_text()
        assert text.splitlines()[0] == "t,value"
        assert len(text.splitlines()) == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["n_paths"] == 2
    assert manifest["seed"] == 0


def test_sample_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sample", "--seed", "5", "--paths", "3", "--steps", "16"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert _read(a / name) == _read(b / name)


def test_sample_invalid_steps_exits_2(tmp_path, capsys):
    rc = main(["sample", "--steps", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "n_steps" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sample"], ["couple", "--theta", "2"],
                                     ["bouquet", "--thetas", "1,2"],
                                     ["frag-process", "--thetas", "1,2"]])
@pytest.mark.parametrize("grid,message", [
    # A subnormal step repeats grid times.
    (["--horizon", "5e-324", "--steps", "4"],
     "error: horizon / n_steps must be >= 2.2250738585072014e-308, got 5e-324 / 4\n"),
    # 10**15 steps fail at once, allocating the first 7.11 PiB array.
    (["--horizon", "1e308", "--steps", "1000000000000000"],
     "error: out of memory, try a smaller --steps or --scale: Unable to allocate 7.11 PiB"),
    # 10**20 grid times are more than numpy can shape into one array.
    (["--steps", "100000000000000000000"],
     "error: n_steps must be >= 1 and < 576460752303423487, got 100000000000000000000\n"),
    # 10**15 steps on the default horizon fail the same way.
    (["--steps", "1000000000000000"],
     "error: out of memory, try a smaller --steps or --scale: Unable to allocate 7.11 PiB"),
])
def test_unusable_grid_exits_2_without_manifest(tmp_path, capsys, command, grid, message):
    out = tmp_path / "run"
    assert main([*command, *grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--format", "json"],
    ["couple", "--theta", "1", "--alpha", "0.01"],
    ["verify", "--paths", "2"],
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    # A rerun that fails part-way must not leave the earlier run's manifest
    # beside a mix of old and new path files.
    out = tmp_path / "run"
    args = ["couple", "--paths", "3", "--steps", "16", "--out", str(out)]
    assert main(args + ["--theta", "2"]) == 0
    write_csv = cli.write_csv
    calls = []

    def failing_write_csv(path, destination):
        calls.append(destination)
        if len(calls) == 3:
            raise OSError("disk full")
        write_csv(path, destination)

    monkeypatch.setattr(cli, "write_csv", failing_write_csv)
    assert main(args + ["--theta", "1"]) == 2
    assert not (out / "manifest.json").exists()
    monkeypatch.undo()
    assert main(args + ["--theta", "1"]) == 0
    assert json.loads((out / "manifest.json").read_text())["theta"] == 1.0
    assert not list(out.glob("*.tmp"))


def test_rerun_deletes_earlier_outputs(tmp_path):
    # A successful rerun into the same directory leaves only its own files
    # (and files germsim never writes) beside its manifest.
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("not a germsim output\n")
    runs = [
        (["bouquet", "--paths", "2", "--steps", "8", "--thetas", "0.5,1", "--format", "json"],
         ["branch_00000_theta0.csv", "branch_00000_theta1.csv", "branch_00001_theta0.csv",
          "branch_00001_theta1.csv", "frag_process_00000.json", "frag_process_00001.json",
          "stem_00000.csv", "stem_00001.csv"]),
        (["couple", "--paths", "3", "--steps", "16", "--theta", "2"],
         ["branch_00000.csv", "branch_00001.csv", "branch_00002.csv", "frag_times.csv",
          "stem_00000.csv", "stem_00001.csv", "stem_00002.csv"]),
        (["couple", "--paths", "1", "--steps", "16", "--theta", "1", "--format", "json"],
         ["branch_00000.csv", "frag_times.json", "stem_00000.csv"]),
        (["frag-process", "--paths", "2", "--steps", "8", "--thetas", "1"],
         ["frag_process_00000.csv", "frag_process_00001.csv"]),
        (["sample", "--paths", "1", "--steps", "8"], ["path_00000.csv"]),
    ]
    for argv, written in runs:
        assert main(argv + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            written + ["manifest.json", "notes.txt"]
        )


def test_rerun_deletes_leftover_tmp_files(tmp_path):
    # A write killed before its rename leaves <name>.tmp; a rerun removes it
    # like the finished output, and keeps files germsim never writes.
    out = tmp_path / "run"
    assert main(["sample", "--paths", "2", "--steps", "4", "--out", str(out)]) == 0
    leftovers = ["path_00001.csv.tmp", "manifest.json.tmp", "branch_00000.csv.tmp",
                 "frag_times.json.tmp", "frag_process_00000.csv.tmp", "notes.txt.tmp"]
    for name in leftovers:
        (out / name).write_text("partial\n")
    assert main(["sample", "--paths", "1", "--steps", "4", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "notes.txt.tmp", "path_00000.csv"]


@pytest.mark.parametrize("argv,name", [
    (["sample", "--paths", "2", "--steps", "8"], "path_00001.csv"),
    (["couple", "--paths", "2", "--steps", "8", "--theta", "1"], "frag_times.csv"),
    (["couple", "--paths", "2", "--steps", "8", "--theta", "1", "--format", "json"],
     "frag_times.json"),
    (["frag-process", "--steps", "8", "--thetas", "1"], "manifest.json"),
    (["verify", "--scale", "0.02"], "verify_report.json"),
    (["germ-transform", "--theta", "2", "--u", "0.9"], "branch.csv"),
])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, argv, name):
    out = tmp_path / "run"
    if argv[0] == "germ-transform":
        out.mkdir()
        src = tmp_path / "in.csv"
        src.write_text("t,value\n0.0,0.0\n0.5,-0.5\n1.0,-0.1\n")
        argv = argv + ["--in", str(src), "--out", str(out / name)]
    else:
        argv = argv + ["--out", str(out)]
    # Every file the CLI writes goes through Path.write_text on <name>.tmp.
    write_text = pathlib.Path.write_text

    def fail_midway(self, text, *args, **kwargs):
        if self.name.startswith(name):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", fail_midway)
    assert main(argv) == 2
    assert not (out / name).exists()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("argv", [
    ["sample", "--steps", "4"],
    ["couple", "--steps", "4", "--theta", "1"],
    ["bouquet", "--steps", "4", "--thetas", "1"],
    ["frag-process", "--steps", "4", "--thetas", "1"],
    ["verify", "--scale", "0.02"],
])
@pytest.mark.parametrize("under", ["", "sub"])
def test_out_that_is_a_file_exits_2_naming_out(tmp_path, capsys, monkeypatch, argv, under):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    out = afile / under if under else afile
    # verify must fail before its suite starts.
    suites = []
    monkeypatch.setattr(cli, "run_verification", lambda cfg: suites.append(cfg) or [])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out: cannot create directory {str(out)!r}: ")
    assert "Errno" not in err
    assert suites == []
    assert afile.read_text() == "not a directory\n"


def _main_outcome(argv, out, capsys):
    """Exit status, stdout, stderr and output digests of one ``main`` call."""
    try:
        status = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects the flags
        status = exc.code
    captured = capsys.readouterr()
    files = _digests(out) if out.is_dir() else None
    return status, captured.out, captured.err, files


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser.  A good call, a call that exits 2, an argparse
    # error and a good call that leaves out the first call's flags must each
    # give what a fresh parser gives.
    calls = [
        ["couple", "--seed", "5", "--horizon", "2", "--paths", "2", "--steps", "8",
         "--theta", "2", "--format", "json"],
        ["sample", "--steps", "0"],
        ["couple", "--paths", "x", "--theta", "2"],
        ["couple", "--paths", "2", "--steps", "8", "--theta", "2"],
    ]
    cli._parser.cache_clear()
    shared = [_main_outcome(argv, tmp_path / "shared" / str(k), capsys)
              for k, argv in enumerate(calls)]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for k, argv in enumerate(calls):
        cli._parser.cache_clear()
        fresh.append(_main_outcome(argv, tmp_path / "fresh" / str(k), capsys))
    assert [outcome[0] for outcome in shared] == [0, 2, 2, 0]
    assert shared == fresh


def test_couple_zero_drift_branches_equal_stems(tmp_path):
    out = tmp_path / "run"
    rc = main(["couple", "--paths", "3", "--steps", "32", "--theta", "0.0",
               "--out", str(out)])
    assert rc == 0
    for i in range(3):
        assert _read(out / f"stem_{i:05d}.csv") == _read(out / f"branch_{i:05d}.csv")
    rows = (out / "frag_times.csv").read_text().splitlines()
    assert rows[0] == "path_id,frag_time_or_inf"
    assert all(line.endswith(",inf") for line in rows[1:])


def test_couple_frag_times_positive(tmp_path):
    out = tmp_path / "run"
    rc = main(["couple", "--seed", "2", "--paths", "20", "--steps", "200",
               "--horizon", "4.0", "--theta", "2.0", "--out", str(out)])
    assert rc == 0
    rows = (out / "frag_times.csv").read_text().splitlines()[1:]
    assert len(rows) == 20
    for line in rows:
        _, cell = line.split(",")
        assert cell == "inf" or float(cell) > 0.0


@pytest.mark.parametrize("theta", [2, np.float32(2.0)])
def test_couple_records_the_float_it_validated(tmp_path, theta):
    # Same run as theta = 2.0, manifest included: "theta": 2.0, not 2, and
    # never a float32 that JSON cannot write after the paths are on disk.
    want, got = tmp_path / "want", tmp_path / "got"
    cmd_couple(RunConfig(n_paths=2, n_steps=8, out_dir=want), 2.0)
    cmd_couple(RunConfig(n_paths=2, n_steps=8, out_dir=got), theta)
    assert _digests(got) == _digests(want)
    assert json.loads((got / "manifest.json").read_text())["theta"] == 2.0


def test_couple_rejects_negative_theta(tmp_path, capsys):
    rc = main(["couple", "--theta", "-1.0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "negation symmetry" in capsys.readouterr().err


def test_couple_json_format(tmp_path):
    out = tmp_path / "run"
    rc = main(["couple", "--paths", "2", "--steps", "16", "--theta", "1.0",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "frag_times.json").read_text())
    assert len(doc) == 2
    for entry in doc:
        assert entry["censored"] == (entry["frag_time"] is None)


def test_bouquet_shared_prefix_and_monotone_frags(tmp_path):
    out = tmp_path / "run"
    rc = main(["bouquet", "--seed", "4", "--paths", "2", "--steps", "256",
               "--horizon", "4.0", "--thetas", "0.5,1.0,3.0", "--out", str(out)])
    assert rc == 0
    for i in range(2):
        stem = read_csv(out / f"stem_{i:05d}.csv")
        rows = (out / f"frag_process_{i:05d}.csv").read_text().splitlines()[1:]
        frags = []
        for j, line in enumerate(rows):
            _, cell, _ = line.split(",")
            frag = math.inf if cell == "inf" else float(cell)
            frags.append(frag)
            branch = read_csv(out / f"branch_{i:05d}_theta{j}.csv")
            before = stem.times < frag
            assert np.array_equal(stem.values[before], branch.values[before])
        assert all(b <= a for a, b in zip(frags, frags[1:]))


def test_bouquet_draws_rows_not_streams(tmp_path):
    # Every drift couples the words of one row draw; no per-path stream is keyed.
    route = AssertionError("bouquet keyed a per-path stream")
    with mock.patch.object(cli, "substream", side_effect=route), \
            mock.patch.object(RngStream, "__init__", side_effect=route):
        assert main(["bouquet", "--paths", "3", "--steps", "8", "--thetas", "0.5,2",
                     "--out", str(tmp_path / "B")]) == 0
    assert len(list((tmp_path / "B").iterdir())) == 13


def test_bouquet_builds_each_stem_once(tmp_path, monkeypatch):
    # Rows of 16,001 words come two to a chunk, so three paths take two
    # chunks; each chunk's stems are built once and coupled at both drifts.
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_bm_rows(*args)

    for module in (cli, coupling):
        monkeypatch.setattr(module, "sample_bm_rows", counted)
    assert main(["bouquet", "--paths", "3", "--steps", "16000", "--thetas", "0.5,2",
                 "--out", str(tmp_path / "B")]) == 0
    assert len(calls) == 2


def test_bouquet_rows_equal_per_stream_pairs(tmp_path):
    # Rows of 16,001 words come two to a chunk, so three paths take two
    # chunks.  Each file equals the pair of the path's own stream at that
    # drift, the route bouquet took before it drew rows.
    seed, thetas = 5, (0.0, 0.5, 2.0)
    assert main(["bouquet", "--seed", str(seed), "--paths", "3", "--steps", "16000",
                 "--horizon", "10", "--thetas", "0,0.5,2", "--out", str(tmp_path / "B")]) == 0
    grid, ref = TimeGrid(10.0, 16_000), tmp_path / "ref"
    ref.mkdir()
    for i in range(3):
        pairs = [sample_coupled_pair(grid, theta, substream(seed, i)) for theta in thetas]
        write_csv(Path(grid, pairs[0][0]), ref / f"stem_{i:05d}.csv")
        for j, (_, branch, _) in enumerate(pairs):
            write_csv(Path(grid, branch), ref / f"branch_{i:05d}_theta{j}.csv")
        cli._write_frag_process(ref, "csv", i, thetas, [frag for _, _, frag in pairs])
    names = sorted(f.name for f in ref.iterdir())
    assert len(names) == 15
    for name in names:
        assert _read(tmp_path / "B" / name) == _read(ref / name), name


def test_bouquet_requires_thetas(tmp_path, capsys):
    rc = main(["bouquet", "--thetas", "", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "thetas" in capsys.readouterr().err


def test_frag_process_command(tmp_path):
    out = tmp_path / "run"
    rc = main(["frag-process", "--paths", "2", "--steps", "128", "--horizon", "4.0",
               "--thetas", "0.5,1.0,2.0", "--out", str(out)])
    assert rc == 0
    rows = (out / "frag_process_00000.csv").read_text().splitlines()
    assert rows[0] == "theta,tau_frag,censored"
    assert len(rows) == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_frag_process_censors_like_bouquet_at_the_horizon(tmp_path, fmt):
    # On this stem theta = 0.5 fragments at the horizon itself.  Only a
    # pair that agrees to the horizon (time inf) is censored, in both tables.
    args = ["--seed", "24", "--paths", "1", "--steps", "4", "--horizon", "4",
            "--thetas", "0.5,2", "--format", fmt]
    assert main(["bouquet", *args, "--out", str(tmp_path / "B")]) == 0
    assert main(["frag-process", *args, "--out", str(tmp_path / "F")]) == 0
    name = f"frag_process_00000.{fmt}"
    assert _read(tmp_path / "F" / name) == _read(tmp_path / "B" / name)
    if fmt == "csv":
        rows = (tmp_path / "F" / name).read_text().splitlines()
        assert rows[1:] == ["0.5,4.0,false", "2.0,1.0,false"]


def test_bouquet_reads_frag_process_or_keeps(tmp_path):
    # frag-process reports the reflection start, which ignores the uniform.
    # A bouquet entry is that time, or inf where its pair is kept (u at
    # most a likelihood ratio below 1) and the branch is the stem itself.
    args = ["--seed", "0", "--paths", "200", "--steps", "64", "--horizon", "4",
            "--thetas", "0,0.5,2"]
    assert main(["bouquet", *args, "--out", str(tmp_path / "B")]) == 0
    assert main(["frag-process", *args, "--out", str(tmp_path / "F")]) == 0
    kept_only = 0
    for i in range(200):
        name = f"frag_process_{i:05d}.csv"
        b_rows = (tmp_path / "B" / name).read_text().splitlines()
        f_rows = (tmp_path / "F" / name).read_text().splitlines()
        assert b_rows[0] == f_rows[0] and len(b_rows) == len(f_rows) == 4
        stem = _read(tmp_path / "B" / f"stem_{i:05d}.csv")
        for j, (b, f) in enumerate(zip(b_rows[1:], f_rows[1:])):
            if b != f:
                assert b.split(",")[1:] == ["inf", "true"]
                assert _read(tmp_path / "B" / f"branch_{i:05d}_theta{j}.csv") == stem
                kept_only += 1
    assert kept_only > 0


def test_frag_process_at_the_largest_horizon(tmp_path, capsys):
    # At theta = 1e300 the line theta * t / 2 is beyond a double after
    # t = 0, so every stem is below it from the first cell on.  Tests turn
    # a numpy warning into an error.
    out = tmp_path / "run"
    assert main(["frag-process", "--horizon", "1.7e308", "--steps", "2", "--thetas",
                 "1e-300,1e300", "--paths", "5", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    tables = sorted(out.glob("frag_process_*.csv"))
    assert len(tables) == 5
    for table in tables:
        assert table.read_text().splitlines()[2] == "1e+300,8.5e+307,false"


def test_germ_transform_round_trip(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    src.write_text("t,value\n0.0,0.0\n0.5,-0.5\n1.0,-0.1\n")
    rc = main(["germ-transform", "--in", str(src), "--theta", "2.0", "--u", "0.9",
               "--out", str(dst)])
    assert rc == 0
    assert np.array_equal(read_csv(dst).values, [0.0, 1.5, 2.1])


def test_germ_transform_overflowing_ratio_keeps_input(tmp_path):
    # exp(10 * 100 - 50) overflows a double; the keep branch is certain.
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    src.write_text("t,value\n0.0,0.0\n0.5,50.0\n1.0,100.0\n")
    rc = main(["germ-transform", "--in", str(src), "--theta", "10", "--u", "0.5",
               "--out", str(dst)])
    assert rc == 0
    assert _read(dst) == _read(src)


@pytest.mark.parametrize("argv,field", [
    (["couple", "--theta", "nan"], "theta"),
    (["couple", "--theta", "inf"], "theta"),
    (["frag-process", "--thetas", "1,nan"], "thetas"),
    (["frag-process", "--thetas", "1,inf"], "thetas"),
    (["bouquet", "--thetas", "1,nan"], "thetas"),
])
def test_non_finite_theta_exits_2_before_output(tmp_path, capsys, argv, field):
    out = tmp_path / "run"
    assert main(argv + ["--steps", "8", "--out", str(out)]) == 2
    assert f"{field} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["couple", "--horizon", "1e308", "--steps", "1", "--theta", "2", "--out", "D"],
    ["bouquet", "--horizon", "1e308", "--steps", "1", "--thetas", "1,2", "--out", "D"],
    ["germ-transform", "--in", "in.csv", "--theta", "1e308", "--u", "0.5", "--out", "D"],
])
def test_overflowing_reflection_names_theta(tmp_path, capsys, monkeypatch, argv):
    # theta * t - w(t) overflows a double in each run; tests turn a numpy
    # warning into an error, so a warning would fail the run before it reports.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.csv").write_text("t,value\n0.0,0.0\n1.0,-1.7e308\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "theta" in err and "horizon" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "D").is_file()
    assert not (tmp_path / "D" / "manifest.json").exists()


def test_germ_transform_rejects_non_finite_theta(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("t,value\n0.0,0.0\n1.0,-0.5\n")
    dst = tmp_path / "out.csv"
    rc = main(["germ-transform", "--in", str(src), "--theta", "nan", "--u", "0.5",
               "--out", str(dst)])
    assert rc == 2
    assert "theta must be finite" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("flag", ["in", "out"])
def test_germ_transform_missing_file_names_its_flag(tmp_path, capsys, flag):
    src = tmp_path / "in.csv"
    src.write_text("t,value\n0.0,0.0\n1.0,-0.5\n")
    paths = {"in": src, "out": tmp_path / "out.csv"}
    paths[flag] = tmp_path / "nodir" / f"{flag}.csv"
    rc = main(["germ-transform", "--in", str(paths["in"]), "--theta", "1", "--u", "0.5",
               "--out", str(paths["out"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert repr(str(paths[flag])) in err
    assert ".tmp" not in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.tmp"))
    assert not (tmp_path / "out.csv").exists()


def test_germ_transform_bad_csv_names_its_flag_and_file(tmp_path, capsys):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    for data, message in ((b"t,value\n0.0,0.0\n0.5,nan\n1.0,-0.5\n", "line 3: non-finite cell"),
                          (b"t,value\n0,0\n1,\xff\n", "line 3: not UTF-8 text"),
                          (b"t,value\r\n0,\xc3\xa9\r\r\n\xff", "line 4: not UTF-8 text"),
                          # A path must start at 0, the start its log ratio counts from.
                          (b"t,value\n0,5\n0.5,4\n1,3\n", "stem must start at 0, got 5.0")):
        src.write_bytes(data)
        rc = main(["germ-transform", "--in", str(src), "--theta", "1", "--u", "0.5",
                   "--out", str(dst)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: in: {str(src)!r}: {message}\n"
        assert not dst.exists()


@pytest.mark.parametrize("theta,u,message", [
    ("nan", "0.5", "theta must be finite"),
    ("-1", "0.5", "theta must be >= 0"),
    ("1", "1.5", "u must lie in [0, 1]"),
    ("1", "nan", "u must be finite"),
])
def test_germ_transform_checks_theta_and_u_before_reading(tmp_path, capsys, monkeypatch,
                                                          theta, u, message):
    # A bad flag is reported as itself, not as the malformed input, and the
    # input is never parsed.
    reads = []
    monkeypatch.setattr(cli, "read_csv", lambda source: reads.append(source))
    src = tmp_path / "in.csv"
    src.write_text("t,value\n0.0,0.0\n0.5,bogus\n")
    rc = main(["germ-transform", "--in", str(src), "--theta", theta, "--u", u,
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert reads == []


def test_verify_rejects_infinite_scale(capsys):
    assert main(["verify", "--scale", "inf"]) == 2
    assert "scale must" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--scale", "inf"), ("--scale", "0"), ("--alpha", "2"), ("--seed", "-1"),
    ("--scale", "1e308"),
])
def test_verify_bad_flag_exits_2_before_out_exists(tmp_path, capsys, monkeypatch, flag, value):
    suites = []
    monkeypatch.setattr(cli, "run_verification", lambda cfg: suites.append(cfg) or [])
    out = tmp_path / "report"
    assert main(["verify", flag, value, "--out", str(out)]) == 2
    assert f"{flag[2:]} must" in capsys.readouterr().err
    assert not out.exists()
    assert suites == []


def test_verify_scale_too_large_for_an_array_exits_2_without_report(tmp_path, capsys):
    # 100000 * 1e300 samples is finite but no array holds them; the suite
    # itself runs here, so nothing but the config's check stops it.
    out = tmp_path / "V"
    assert main(["verify", "--scale", "1e300", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: scale must ")
    assert not (out / "verify_report.json").exists()


def test_failed_verify_rerun_leaves_no_stale_report(tmp_path, capsys):
    # An earlier report in --out is deleted before the suite runs, so a run
    # that then fails does not leave it standing as its own.
    out = tmp_path / "V"
    out.mkdir()
    (out / "verify_report.json").write_text("[]\n")
    (out / "verify_report.json.tmp").write_text("[")
    assert main(["verify", "--scale", "1e12", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert sorted(out.iterdir()) == []


def test_verify_smoke_schema_and_determinism(tmp_path):
    args = ["verify", "--seed", "1", "--scale", "0.02"]
    a, b = tmp_path / "a", tmp_path / "b"
    rc_a = main(args + ["--out", str(a)])
    rc_b = main(args + ["--out", str(b)])
    assert rc_a == rc_b
    ra = (a / "verify_report.json").read_bytes()
    rb = (b / "verify_report.json").read_bytes()
    assert ra == rb
    doc = json.loads(ra)
    assert len(doc) == 18
    for entry in doc:
        assert entry["pass"] == (entry["statistic"] <= entry["threshold"])


# sha256 of every file small runs write, as the writers produced them
# before they shared one commit rule (``germ-transform`` reads the sample
# run's path_00001.csv; u = 0.01 keeps it, u = 0.9 reflects it).
GOLDEN_RUNS = {
    "sample": ["sample", "--seed", "3", "--paths", "2", "--steps", "8"],
    "couple_csv": ["couple", "--seed", "1", "--paths", "2", "--steps", "16",
                   "--horizon", "4", "--theta", "2"],
    "couple_json_theta0": ["couple", "--paths", "2", "--steps", "8", "--theta", "0",
                           "--format", "json"],
    "bouquet": ["bouquet", "--seed", "4", "--steps", "32", "--horizon", "4",
                "--thetas", "0,0.5,3"],
    "frag_process": ["frag-process", "--paths", "2", "--steps", "64", "--horizon", "4",
                     "--thetas", "0,0.5,2"],
    # theta = 0 in the grid, so the JSON tables hold censored (null) rows.
    "bouquet_json": ["bouquet", "--seed", "4", "--paths", "2", "--steps", "32",
                     "--horizon", "4", "--thetas", "0,0.5,3", "--format", "json"],
    "frag_process_json": ["frag-process", "--paths", "2", "--steps", "64", "--horizon", "4",
                          "--thetas", "0,0.5,2", "--format", "json"],
}
GOLDEN_SHA256 = {
    "sample": {
        "manifest.json": "115e6e5af3a5b45be9141606c2fbad29215695dc333e49a6413ff58368ab29f0",
        "path_00000.csv": "ac6827c6b3415f686dabc3ccb068432e6340cdfe01363ce163050386792ac0a2",
        "path_00001.csv": "8d75e72f94b96dc19a02e1d963da099b57b882623108df4fcde1fd4f816970d4",
    },
    "couple_csv": {
        "branch_00000.csv": "6a58bd993c3a138fd2086b7df7348e7f137a4da0fd45e14921b1471387bd88dc",
        "branch_00001.csv": "ce4cedc6d65af661878d68b3cfab3a0916aab71724a090d756da269d1ae01c63",
        "frag_times.csv": "9e9c221a9015a9a2d6a212f06bc6cfa4fcc664b082360f1afee8ffe9a85566d7",
        "manifest.json": "c2e2851b91ca07c2463563e6d8895ec165260f289400a513c707008af70392c9",
        "stem_00000.csv": "286812d75b805afff3651ab22634a7ab138c16b2f315bb46928c5161ef1d1740",
        "stem_00001.csv": "66004d620df90c34365500b59aa7125b3f5aed02e6677699da5216b48d744de6",
    },
    "couple_json_theta0": {
        "branch_00000.csv": "f514712e345d2c735e95efe67c1634a06e8b45de884362c51edbf6fa83e8d453",
        "branch_00001.csv": "03612c6148903fd160c9ef19a701f714238763f4bb5158114ed2a37c228ba2cc",
        "frag_times.json": "6e0bc0c2982dd5517fd5f4c646f8380ef8cb27d3e1bb8885e989be28086d0636",
        "manifest.json": "4221bd2cfada1121eb62462c132dc99b69c4072a642f1f6728c50e42cb9af3df",
        "stem_00000.csv": "f514712e345d2c735e95efe67c1634a06e8b45de884362c51edbf6fa83e8d453",
        "stem_00001.csv": "03612c6148903fd160c9ef19a701f714238763f4bb5158114ed2a37c228ba2cc",
    },
    "bouquet": {
        "branch_00000_theta0.csv": "7061d8f0d04d16a3ce8267c6be6d84c434c238886c1ceb3e7fba08b1c653343d",
        "branch_00000_theta1.csv": "4036053fba85e36674af9723225b2d66e4044056c89c1b075ccd2d644519fff3",
        "branch_00000_theta2.csv": "056bb1c5a391881f849014defdb6bd292a2b4ee6245a4715a3b38af7c1eb5d80",
        "frag_process_00000.csv": "57c3a1be19aa84bfac806ca2ce5934e4e3047f7e9a6305227cc4c0a2a93acb12",
        "manifest.json": "07c4c13a863a36cfc156a5aa645fa46bfa0a1fd52882d30d75a6d447eaa1e184",
        "stem_00000.csv": "7061d8f0d04d16a3ce8267c6be6d84c434c238886c1ceb3e7fba08b1c653343d",
    },
    "frag_process": {
        "frag_process_00000.csv": "5f4244b6dc792c968c67d939a0df37489a843552c47c2ccb6b194b8a88f02866",
        "frag_process_00001.csv": "e6545b36847be61aba70f93a8023d91109def106be5408b755ff951d6e846ef4",
        "manifest.json": "3634d3789f2c2d7269a84c5d0a4e2f096516896b97c33e2f161078cc06093c43",
    },
    "bouquet_json": {
        "branch_00000_theta0.csv": "7061d8f0d04d16a3ce8267c6be6d84c434c238886c1ceb3e7fba08b1c653343d",
        "branch_00000_theta1.csv": "4036053fba85e36674af9723225b2d66e4044056c89c1b075ccd2d644519fff3",
        "branch_00000_theta2.csv": "056bb1c5a391881f849014defdb6bd292a2b4ee6245a4715a3b38af7c1eb5d80",
        "branch_00001_theta0.csv": "4bb7bae785b7e4564eb8286e1c1621d7fa6701ac8741649f429035e207218e26",
        "branch_00001_theta1.csv": "4bb7bae785b7e4564eb8286e1c1621d7fa6701ac8741649f429035e207218e26",
        "branch_00001_theta2.csv": "1600412e4669d4a6be0eb73f4f1621f389bf71a4f7b382c91630b4a367931240",
        "frag_process_00000.json": "96a22670c60641b1f1460390743440d99086e26624da5c3ac5d85ff882152998",
        "frag_process_00001.json": "e4bcf630001a7014bfbf06b24daa83a9990de50b65424a5832e71204b9208d11",
        "manifest.json": "56c616e9fb5cbf5e6a7559fbfc0f4c6bd187ad051ed81154105d997125fa7e8b",
        "stem_00000.csv": "7061d8f0d04d16a3ce8267c6be6d84c434c238886c1ceb3e7fba08b1c653343d",
        "stem_00001.csv": "4bb7bae785b7e4564eb8286e1c1621d7fa6701ac8741649f429035e207218e26",
    },
    "frag_process_json": {
        "frag_process_00000.json": "f3508b24ca8afd990d201562d5511793e0e19caa8303d56c6b3a77b4fb29226b",
        "frag_process_00001.json": "bbb9c3e488b775f0fbcf9585a5d53cbc99dcc0bdaa9dcf8687f0e5788be510f3",
        "manifest.json": "799a69126eeb13ab624b32ac344bbde5e8b246354df1da702a6122a13301972f",
    },
    "germ_transform": {
        "keep.csv": "8d75e72f94b96dc19a02e1d963da099b57b882623108df4fcde1fd4f816970d4",
        "reflect.csv": "f8deb58b65657680a095ef55bc7ea527ed0e5b8e95f4c354775b8f7c91244715",
    },
}


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_cli_output_bytes_unchanged(tmp_path):
    got = {}
    for run, argv in GOLDEN_RUNS.items():
        assert main(argv + ["--out", str(tmp_path / run)]) == 0
        got[run] = _digests(tmp_path / run)
    src = tmp_path / "sample" / "path_00001.csv"
    gt = tmp_path / "germ_transform"
    gt.mkdir()
    for name, theta, u in (("keep.csv", "0.5", "0.01"), ("reflect.csv", "2", "0.9")):
        assert main(["germ-transform", "--in", str(src), "--theta", theta, "--u", u,
                     "--out", str(gt / name)]) == 0
    got["germ_transform"] = _digests(gt)
    assert got == GOLDEN_SHA256
    # Strict JSON: a censored time is null, never the non-standard Infinity.
    for doc in tmp_path.rglob("*.json"):
        json.loads(doc.read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# Flag values no command should crash on, drawn beside each flag's usable
# values.  Counts stay small; of the two huge counts, 10**15 steps fails when
# its first array is allocated, and 10**20 steps, too many for one array,
# when the grid is built.
_HOSTILE = ["nan", "inf", "-inf", "-0.0", "1e308", "5e-324", "1,,2", ""]
_GRID = {"--seed": ["0", "7"], "--paths": ["1", "2"],
         "--steps": ["1", "3", "1000000000000000", "100000000000000000000"],
         "--horizon": ["1", "10"], "--out": ["run", "afile"]}
_TABLE = {**_GRID, "--format": ["csv", "json"]}
_FLAGS = {
    "sample": _GRID,
    "couple": {**_TABLE, "--theta": ["0", "2"]},
    "bouquet": {**_TABLE, "--thetas": ["0,1", "0.5,2"]},
    "frag-process": {**_TABLE, "--thetas": ["0,1", "0.5,2"]},
    "germ-transform": {"--in": ["in.csv", "afile", "missing.csv"], "--theta": ["0.5", "2"],
                       "--u": ["0.01", "0.9"], "--out": ["out.csv", "afile", "."]},
    "verify": {"--seed": ["0"], "--alpha": ["0.001"], "--scale": ["0.05"],
               "--out": ["run", "afile"]},
}
_REQUIRED = {"couple": {"--theta"}, "bouquet": {"--thetas"}, "frag-process": {"--thetas"},
             "germ-transform": {"--in", "--theta", "--u", "--out"}}
# The field names an error may give a flag in place of its own.
_FIELDS = {"--paths": "n_paths", "--steps": "n_steps", "--out": "out_dir"}


@st.composite
def _hostile_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, usable in _FLAGS[command].items():
        if flag in _REQUIRED.get(command, ()) or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(usable + _HOSTILE))]
    return argv


class _SuiteRan(Exception):
    """verify got past its checks; the property never runs the suite."""


@settings(max_examples=300, deadline=None)
@given(_hostile_argv())
def test_cli_contract_on_hostile_flags(argv):
    # Every command exits 0 or 2 (or 1 for verify) and prints no traceback;
    # an exit 2 names one of the command's flags and leaves no manifest in --out.
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "run_verification", side_effect=_SuiteRan):
        os.chdir(tmp)
        try:
            pathlib.Path("afile").write_text("not a directory\n")
            pathlib.Path("in.csv").write_text("t,value\n0.0,0.0\n0.5,-0.25\n1.0,0.5\n")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    status = main(argv)
                except SystemExit as exc:  # argparse rejects the flags
                    status = exc.code
                except _SuiteRan:
                    reject()
            manifest = out is not None and pathlib.Path(out, "manifest.json").exists()
        finally:
            os.chdir(cwd)
    err = stderr.getvalue()
    assert status in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), (status, err)
    assert "Traceback" not in err + stdout.getvalue()
    if status == 2:
        names = {n for flag in _FLAGS[argv[0]] for n in (flag[2:], _FIELDS.get(flag)) if n}
        assert any(re.search(rf"\b{n}\b", err) for n in names), err
        assert not manifest
