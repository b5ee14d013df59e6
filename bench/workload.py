"""One benchmark workload in a fresh Python process.

Set-up (importing numpy, scipy and germsim plus one warm-up call) is timed
from process start.  Timed bodies then repeat until the next one would no
longer fit in ``--seconds`` (at least one runs).  With ``--trace 1`` one more
body runs under the span tracer on the inputs of body 0.  After each body,
outside the timed region, the process checks the body's output with the
benchmark's own checkers (``checks.py``), records its sha256 and deletes it.
It prints one JSON object as its last line.

Not meant to be run by hand: use ``python3 bench/run.py``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
from checks import CoupleConfig  # noqa: E402
from probe import Probe  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Brownian paths the scale-1 verification suite simulates, one stream each:
# c01 20,000; c02 100,000; c03 10,000; c05 1,000; c07 2 x 1,000; c08 10,000;
# c10 2,000; c09 reruns c01-c08 twice at scale 0.05 (2 x 8,300).
VERIFY_PATHS = 161_600


def rep_seed(seed: int, k: int) -> int:
    """Seed of body ``k``: body 0 uses the workload seed itself."""
    return (seed + (k << 32)) % 2**64


class Workload:
    """One workload: ``warm_up``, the timed ``body``, ``save`` of what the
    body returned (giving error strings), and the untimed ``check`` of the
    body's output."""

    def __init__(self, germsim, seed, work):
        self.g, self.seed, self.work = germsim, seed, work


class VerifyFull(Workload):
    """run_verification at scale 1: the time to a verified report."""

    def warm_up(self):
        g = self.g
        g.sample_coupled_pair(g.TimeGrid(10.0, 1_000), 2.0, g.substream(self.seed, 0))

    def body(self, k, out):
        return self.g.run_verification(self.g.VerifyConfig(seed=rep_seed(self.seed, k), scale=1.0))

    def save(self, reports, out):
        from germsim.stats import reports_to_json

        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "verify_report.json"), "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(reports))
        return []

    def check(self, body, out):
        if body["crashed"]:
            return checks.VERIFY_REPORTS, checks.VERIFY_REPORTS, 0, 0, []
        failed, wrong, why = checks.check_verify_report(os.path.join(out, "verify_report.json"))
        return checks.VERIFY_REPORTS, failed, wrong, VERIFY_PATHS, why


class CoupleWrite(Workload):
    """``germsim couple`` with 100 pairs of 10,000 steps, written as CSV."""

    def warm_up(self):
        cfg = CoupleConfig(seed=self.seed, paths=1, steps=1_000)
        if self.g.cli.main(cfg.argv(os.path.join(self.work, f"warmup-{os.getpid()}"))) != 0:
            raise RuntimeError("warm-up couple run failed")

    def body(self, k, out):
        return self.g.cli.main(CoupleConfig(seed=rep_seed(self.seed, k)).argv(out))

    def save(self, rc, out):
        return [] if rc == 0 else [f"exit code {rc}"]

    def check(self, body, out):
        cfg = CoupleConfig(seed=body["seed"])
        if body["errors"]:
            return cfg.paths, cfg.paths, 0, 0, []
        wrong, why = checks.check_couple_output(out, cfg)
        return cfg.paths, wrong, wrong, cfg.paths - wrong, why


class TransformRead(Workload):
    """``germsim germ-transform`` over every input file made by run.py."""

    def __init__(self, germsim, seed, work):
        super().__init__(germsim, seed, work)
        with open(os.path.join(work, "inputs.json"), encoding="utf-8") as fh:
            self.inputs = [checks.TransformInput(**item) for item in json.load(fh)]
        self.in_dir = os.path.join(work, "inputs")

    def _argv(self, item, out):
        return ["germ-transform", "--in", os.path.join(self.in_dir, item.name),
                "--theta", repr(item.theta), "--u", repr(item.u),
                "--out", os.path.join(out, item.name)]

    def warm_up(self):
        item = next(i for i in self.inputs if not i.overflows)
        out = os.path.join(self.work, f"warmup-{os.getpid()}")
        os.makedirs(out, exist_ok=True)
        if self.g.cli.main(self._argv(item, out)) != 0:
            raise RuntimeError("warm-up germ-transform run failed")

    def body(self, k, out):
        os.makedirs(out, exist_ok=True)
        failed = []
        for item in self.inputs:
            try:
                rc = self.g.cli.main(self._argv(item, out))
            except Exception as exc:  # an exception fails this operation, not the run
                failed.append(f"{item.name}: {type(exc).__name__}: {exc}")
                continue
            if rc != 0:
                failed.append(f"{item.name}: exit code {rc}")
        return failed

    def save(self, failed, out):
        return failed

    def check(self, body, out):
        errored = {e.partition(":")[0] for e in body["errors"]}
        wrong, reasons = 0, []
        for item in self.inputs:
            if item.name in errored:
                continue
            why = checks.check_transform_output(
                os.path.join(self.in_dir, item.name), os.path.join(out, item.name), item.theta, item.u)
            if why is not None:
                wrong += 1
                reasons.append(f"{body['name']}/{item.name}: {why}")
        failed = len(errored) + wrong
        return len(self.inputs), failed, wrong, len(self.inputs) - failed, reasons


WORKLOADS = {"verify_full": VerifyFull, "couple_write": CoupleWrite, "transform_read": TransformRead}


def _tree_size(root):
    files = size = 0
    for d, _, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(d, name))
    return files, size


def _run_body(wl, k, out, probe):
    """Run and time one body; returns (seconds, result or None, error).

    ``seconds`` leaves out the time spent in probe calls during the body.
    """
    if probe is not None:
        probe.start()
    t = time.perf_counter()
    try:
        result, error = wl.body(k, out), None
    except Exception as exc:  # the whole body failed; record it and go on
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if probe is not None:
            probe.stop()
        seconds = time.perf_counter() - t
    if probe is not None:
        seconds -= sum(probe.samples)
    return seconds, result, error


def _record_body(wl, k, name, probe=None, traced=None):
    """Run body ``k``, then check its output, digest it and delete it.

    Checking and deleting each body's output before the next body starts,
    outside the timed region, keeps the files one body writes from piling
    up on disk while later bodies are timed.
    """
    out = os.path.join(wl.work, name)
    if traced is not None:
        traced.install(wl.g)
    try:
        seconds, result, error = _run_body(wl, k, out, probe)
    finally:
        if traced is not None:
            traced.uninstall()
    errors = [error] if error else wl.save(result, out)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    files, size = _tree_size(out) if os.path.isdir(out) else (0, 0)
    body = {"name": name, "seed": rep_seed(wl.seed, k), "wall_s": seconds,
            "probes": len(probe.samples) if probe is not None else 0,
            "probe_s": probe.mean_s() if probe is not None else None,
            "crashed": error is not None, "errors": errors, "files": files, "bytes": size,
            "maxrss_kb": maxrss_kb}
    attempted, failed, wrong, paths, reasons = wl.check(body, out)
    body.update(attempted=attempted, failed=failed, wrong=wrong, paths=paths,
                reasons=[r.replace(wl.work + os.sep, "") for r in errors + reasons],
                sha256=checks.tree_digest(out) if os.path.isdir(out) else None)
    shutil.rmtree(out, ignore_errors=True)
    return body


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import scipy.special  # noqa: F401
    import germsim
    import germsim.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(germsim.__file__)) != os.path.join(SRC, "germsim"):
        raise SystemExit(f"germsim imported from {germsim.__file__}, not from {SRC}")
    wl = WORKLOADS[args.workload](germsim, args.seed, args.work)
    wl.warm_up()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    probe = Probe()
    reps = []
    while True:
        k = len(reps)
        reps.append(_record_body(wl, k, f"rep{k:02d}", probe))
        times = [r["wall_s"] for r in reps]
        if sum(times) + statistics.median(times) > args.seconds:
            break

    doc = {
        "setup_s": setup_s,
        "reps": reps,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "germsim": germsim.__version__},
        # The peak before the first check, so the checkers' memory is not in it.
        "maxrss_kb": reps[0]["maxrss_kb"],
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        doc["traced"] = _record_body(wl, 0, "traced", traced=tracer)
        doc["spans"] = tracer.summary()
        doc["criteria_s"] = tracer.criterion_times()
        trace_dir = os.path.join(os.path.dirname(args.work), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        spans_file = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.npz")
        tracer.save(spans_file)
        doc["spans_file"] = os.path.relpath(spans_file, ROOT)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
