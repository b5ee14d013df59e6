"""Tests of the benchmark itself: inputs, checkers and the printed metrics.

Run from the repository root:  python -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from germsim import cli  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_transform_inputs_follow_the_seed(tmp_path):
    first = checks.make_transform_inputs(11, str(tmp_path / "a"))
    again = checks.make_transform_inputs(11, str(tmp_path / "b"))
    other = checks.make_transform_inputs(12, str(tmp_path / "c"))
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first != other
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert sum(i.overflows for i in first) == checks.TRANSFORM_OVERFLOW_FILES


def test_transform_work_does_not_depend_on_the_seed(tmp_path):
    first = checks.make_transform_inputs(11, str(tmp_path / "a"))
    other = checks.make_transform_inputs(12, str(tmp_path / "b"))

    def rows(directory):
        return sorted(len((directory / name).read_bytes().splitlines()) for name in os.listdir(directory))

    assert sorted(i.theta for i in first) == sorted(i.theta for i in other)
    assert rows(tmp_path / "a") == rows(tmp_path / "b")


def test_corrupted_branch_counts_a_failed_pair(tmp_path):
    cfg = checks.CoupleConfig(seed=5, paths=6, steps=200)
    assert cli.main(cfg.argv(str(tmp_path))) == 0
    assert checks.check_couple_output(str(tmp_path), cfg) == (0, [])

    branch = tmp_path / "branch_00003.csv"
    lines = branch.read_text(encoding="utf-8").splitlines()
    t, v = lines[100].split(",")
    lines[100] = f"{t},{-float(v) + 0.5!r}"
    branch.write_text("\n".join(lines) + "\n", encoding="utf-8")

    rejected, reasons = checks.check_couple_output(str(tmp_path), cfg)
    assert rejected == 1
    assert "pair 3" in reasons[0]


def test_corrupted_transform_output_is_rejected(tmp_path):
    inputs = checks.make_transform_inputs(3, str(tmp_path / "in"))
    item = next(i for i in inputs if not i.overflows)
    src, dst = str(tmp_path / "in" / item.name), str(tmp_path / "out.csv")
    argv = ["germ-transform", "--in", src, "--theta", repr(item.theta), "--u", repr(item.u), "--out", dst]
    assert cli.main(argv) == 0
    assert checks.check_transform_output(src, dst, item.theta, item.u) is None

    times, values = checks.read_path_csv(dst)
    values[-1] = values[-1] + 1.0
    checks.write_path_csv(dst, times, values)
    assert checks.check_transform_output(src, dst, item.theta, item.u) is not None


def test_probe_reads_during_a_body_and_tops_up_after_it():
    p = probe.Probe()
    p.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 0.35:
        pass
    p.stop()
    assert 1 <= len(p.samples) < probe.MIN_SAMPLES
    assert p.mean_s() > 0
    assert len(p.samples) == probe.MIN_SAMPLES


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "couple_write", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    table = spec["per_layer"] if trace else spec["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in table}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # couple_write writes 100 pairs from 100 streams and reads nothing.
        assert values["rng.streams"] == values["coupling.pairs"] == 100
        assert values["paths.write_calls"] == 200
        assert values["paths.read_calls"] == 0
        assert values["verify.self_s"] == 0
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "couple_write", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
