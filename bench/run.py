"""germsim benchmark: one command that times a workload, checks its outputs
and prints every metric by name with its unit.

    python3 bench/run.py --workload verify_full --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports germsim from ``src/``.
Workloads: verify_full, couple_write, transform_read (see bench/README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced body.  The line
before it is a run record: machine and library versions, per-body times
and the sha256 digest of each body's output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import probe

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Processes that time set-up alone; the workload process adds one more sample.
SETUP_SAMPLES = 7
# A run must finish within 180 s; leave room to check and report.
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "norm_paths_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "rng.streams": "count", "rng.construct_s": "s",
    "rng.normal_words": "count", "rng.normal_s": "s",
    "rng.uniform_words": "count", "rng.uniform_s": "s", "rng.ns_per_word": "ns",
    "parallel.calls": "count", "parallel.jobs": "count", "parallel.self_s": "s",
    "paths.sample_bm_calls": "count", "paths.sample_bm_s": "s",
    "paths.write_calls": "count", "paths.write_bytes": "B", "paths.write_s": "s",
    "paths.write_mb_per_s": "MB/s",
    "paths.read_calls": "count", "paths.read_bytes": "B", "paths.read_s": "s",
    "paths.read_mb_per_s": "MB/s",
    "coupling.pairs": "count", "coupling.pair_s": "s",
    "coupling.transform_calls": "count", "coupling.transform_s": "s",
    "coupling.reflect_calls": "count", "coupling.reflect_s": "s", "coupling.reflect_frac": "ratio",
    "coupling.frag_detect_s": "s", "coupling.invert_s": "s", "coupling.meeting_s": "s",
    "coupling.last_visit_s": "s",
    "subordinator.frag_process_s": "s", "subordinator.dual_s": "s",
    "subordinator.passage_draws": "count", "subordinator.passage_s": "s",
    "stats.ks_calls": "count", "stats.ks_samples": "count", "stats.ks_s": "s", "stats.cdf_s": "s",
    **{f"verify.c{i:02d}_s": "s" for i in range(1, 11)},
    "verify.self_s": "s",
    "cli.commands": "count", "cli.self_s": "s", "cli.files_written": "count", "cli.bytes_written": "B",
    "trace.spans": "count", "trace.overhead_frac": "ratio",
}

WORKLOADS = ("verify_full", "couple_write", "transform_read")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args, work: str, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("GERM_THREADS", None)  # the default single-worker configuration is measured
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran out of time and was stopped") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _norm_wall_s(body: dict) -> float:
    """Body time at the probe's reference speed (see probe.py)."""
    return body["wall_s"] * probe.REFERENCE_S / body["probe_s"]


def _per_layer(doc: dict) -> dict[str, float]:
    spans = doc["spans"]

    def total(key, *names):
        return sum(spans[n][key] for n in names if n in spans)

    def prefixed(key, prefix):
        return sum(v[key] for n, v in spans.items() if n.startswith(prefix))

    def rate(amount, seconds, scale):
        return amount / seconds * scale if seconds > 0 else 0.0

    init, normal, uniform = ("rng.RngStream." + m for m in ("__init__", "standard_normal", "uniform01"))
    words = total("amount", normal, uniform)
    word_s = total("self_s", normal, uniform)
    transforms = total("calls", "coupling.germ_transform")
    reflects = total("calls", "coupling.reflect_after_last_visit")
    m = {
        "rng.streams": total("calls", init),
        "rng.construct_s": total("self_s", init, "rng.substream"),
        "rng.normal_words": total("amount", normal),
        "rng.normal_s": total("self_s", normal),
        "rng.uniform_words": total("amount", uniform),
        "rng.uniform_s": total("self_s", uniform),
        "rng.ns_per_word": rate(word_s, words, 1e9),
        "parallel.calls": total("calls", "parallel.map_indexed"),
        "parallel.jobs": total("amount", "parallel.map_indexed"),
        "parallel.self_s": total("self_s", "parallel.map_indexed"),
        "paths.sample_bm_calls": total("calls", "paths.sample_bm"),
        "paths.sample_bm_s": total("self_s", "paths.sample_bm"),
        "coupling.pairs": total("calls", "coupling.sample_coupled_pair"),
        "coupling.pair_s": total("self_s", "coupling.sample_coupled_pair"),
        "coupling.transform_calls": transforms,
        "coupling.transform_s": total("self_s", "coupling.germ_transform"),
        "coupling.reflect_calls": reflects,
        "coupling.reflect_s": total("self_s", "coupling.reflect_after_last_visit"),
        "coupling.reflect_frac": reflects / transforms if transforms else 0.0,
        "coupling.frag_detect_s": total("self_s", "coupling.fragmentation_time"),
        "coupling.invert_s": total("self_s", "coupling.invert_time"),
        "coupling.meeting_s": total("self_s", "coupling.first_meeting"),
        "coupling.last_visit_s": total("self_s", "coupling.last_line_visit"),
        "subordinator.frag_process_s": total("self_s", "subordinator.fragmentation_process"),
        "subordinator.dual_s": total("self_s", "subordinator.fragmentation_process_dual",
                                     "subordinator.first_passage_process"),
        "subordinator.passage_draws": total("amount", "subordinator.sample_passage_time"),
        "subordinator.passage_s": total("self_s", "subordinator.sample_passage_time"),
        "stats.ks_calls": total("calls", "stats.ks_statistic"),
        "stats.ks_samples": total("amount", "stats.ks_statistic"),
        "stats.ks_s": total("self_s", "stats.ks_statistic"),
        "stats.cdf_s": total("self_s", "stats.std_normal_cdf", "stats.fragmentation_cdf",
                             "stats.levy_cdf", "stats.branch_probability"),
        "verify.self_s": prefixed("self_s", "verify."),
        "cli.commands": total("calls", "cli.main"),
        "cli.self_s": prefixed("self_s", "cli."),
        "trace.spans": sum(v["calls"] for v in spans.values()),
    }
    for op in ("write", "read"):
        name = f"paths.{op}_csv"
        nbytes, seconds = total("amount", name), total("self_s", name)
        m[f"paths.{op}_calls"] = total("calls", name)
        m[f"paths.{op}_bytes"] = nbytes
        m[f"paths.{op}_s"] = seconds
        m[f"paths.{op}_mb_per_s"] = rate(nbytes, seconds, 1e-6)
    for i in range(1, 11):
        m[f"verify.c{i:02d}_s"] = doc["criteria_s"].get(str(i), 0.0)
    traced = doc["traced"]
    cli_used = m["cli.commands"] > 0
    m["cli.files_written"] = traced["files"] if cli_used else 0
    m["cli.bytes_written"] = traced["bytes"] if cli_used else 0
    m["trace.overhead_frac"] = traced["wall_s"] / statistics.median(r["wall_s"] for r in doc["reps"]) - 1
    return m


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git working tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "germsim")
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (run record, result line)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.workload == "transform_read":
            inputs = checks.make_transform_inputs(args.seed, os.path.join(work, "inputs"))
            with open(os.path.join(work, "inputs.json"), "w", encoding="utf-8") as fh:
                json.dump([dataclasses.asdict(i) for i in inputs], fh)
        setup = [_child(args, work, deadline, setup_only=True)["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
        doc = _child(args, work, deadline)
        setup.append(doc["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = doc["reps"]
    bodies = reps + ([doc["traced"]] if args.trace else [])
    wrong = sum(b["wrong"] for b in bodies)
    same_digest = not args.trace or doc["traced"]["sha256"] == reps[0]["sha256"]
    attempted = sum(b["attempted"] for b in bodies)
    failed = sum(b["failed"] for b in bodies)
    if args.trace:
        values = _per_layer(doc)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "norm_wall_s": statistics.median(_norm_wall_s(r) for r in reps),
            "norm_paths_per_s": statistics.median(r["paths"] / _norm_wall_s(r) for r in reps),
            "peak_rss_mb": doc["maxrss_kb"] / 1024.0,
        }
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": _machine(), "versions": doc["versions"], "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "setup_samples_s": setup,
        "bodies": [{k: b[k] for k in ("name", "seed", "wall_s", "probes", "probe_s", "attempted",
                                      "failed", "sha256")}
                   for b in bodies],
        # Raw wall time and throughput, before the host-speed correction.
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "paths_per_s": statistics.median(r["paths"] / r["wall_s"] for r in reps),
        "output_sha256": reps[0]["sha256"],
        "traced_matches_untraced": same_digest,
        "failed_frac": failed / attempted,
        "failure_reasons": [r for b in bodies for r in b["reasons"]][:20],
        "spans_file": doc.get("spans_file"),
    }
    result = {
        "correct": wrong == 0 and same_digest,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "germsim", "__init__.py")):
        print(f"error: no germsim sources under {os.path.join(ROOT, 'src')}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    # On SIGTERM unwind normally, so the workload process is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
