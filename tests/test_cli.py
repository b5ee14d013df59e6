import json
import math

import numpy as np
import pytest

from germsim import cli
from germsim.cli import ConfigError, RunConfig, main
from germsim.paths import read_csv


def _read(path):
    return path.read_bytes()


def test_run_config_validation_names_fields():
    with pytest.raises(ConfigError, match="n_steps"):
        RunConfig(n_steps=0)
    with pytest.raises(ConfigError, match="n_paths"):
        RunConfig(n_paths=0)
    with pytest.raises(ConfigError, match="horizon"):
        RunConfig(horizon=-1.0)
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError, match="alpha"):
        RunConfig(alpha=2.0)


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


def test_worker_count_does_not_change_outputs(tmp_path, monkeypatch):
    args = ["couple", "--seed", "3", "--paths", "4", "--steps", "64",
            "--horizon", "2.0", "--theta", "1.0"]
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("GERM_THREADS", "1")
    assert main(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("GERM_THREADS", "4")
    assert main(args + ["--out", str(b)]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert _read(a / name) == _read(b / name)


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


def test_germ_transform_rejects_non_finite_theta(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("t,value\n0.0,0.0\n1.0,-0.5\n")
    dst = tmp_path / "out.csv"
    rc = main(["germ-transform", "--in", str(src), "--theta", "nan", "--u", "0.5",
               "--out", str(dst)])
    assert rc == 2
    assert "theta must be finite" in capsys.readouterr().err
    assert not dst.exists()


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
