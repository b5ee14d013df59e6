"""Span tracer that instruments germsim from outside, without editing it.

Every public function of the traced modules (plus the verification
criteria, which carry the per-criterion times) is replaced by a wrapper
that records a span: name, start, end and parent.  germsim modules bind
names with ``from .x import f``, so each wrapper is bound to every module
attribute that held the original function object.  ``RngStream`` methods
are wrapped on the class.  Callbacks handed to ``map_indexed`` become
``<caller>.job`` spans, so the pool's own time stays separate from the
work it runs.

Spans are kept in flat arrays until the run ends.  A span's self time is
its duration minus the durations of its direct children.  The tracer is
single-threaded: it assumes one worker (GERM_THREADS unset).
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = ("rng", "parallel", "paths", "coupling", "subordinator", "stats", "verify", "cli")
RNG_METHODS = ("__init__", "standard_normal", "uniform01")

# Helpers whose self time is charged to the span that called them.
INLINE = frozenset({
    "paths.line_value",
    "coupling.endpoint_likelihood_ratio",
    "parallel.worker_count",
    "stats.ks_threshold",
    "stats.reports_to_json",
    "verify.format_report_lines",
})


def _words(args, kwargs, result):
    size = args[1] if len(args) > 1 else kwargs.get("size")
    return 1 if size is None else int(size)


def _passage_draws(args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


def _file_size(arg):
    return os.path.getsize(arg) if isinstance(arg, (str, os.PathLike)) else 0


AMOUNTS = {
    "rng.RngStream.standard_normal": _words,
    "rng.RngStream.uniform01": _words,
    "subordinator.sample_passage_time": _passage_draws,
    "stats.ks_statistic": lambda a, k, r: a[0].n,
    "paths.write_csv": lambda a, k, r: _file_size(a[1]),
    "paths.read_csv": lambda a, k, r: _file_size(a[0]),
    "parallel.map_indexed": lambda a, k, r: a[1],
}


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        nid = self._id(name)
        amount = AMOUNTS.get(name)
        stack, ids, parents = self._stack, self.name_id, self.parent
        starts, ends, amounts = self.start, self.end, self.amount

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            amounts.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, kwargs, result)
            return result

        return traced

    def _wrap_map(self, fn):
        inner = self.wrap("parallel.map_indexed", fn)

        def map_indexed(job, n, workers=None):
            caller = self.names[self.name_id[self._stack[-1]]] if self._stack else "top"
            return inner(self.wrap(caller + ".job", job), n, workers)

        return map_indexed

    def install(self, package) -> None:
        """Wrap germsim's functions in every module that binds them."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{package.__name__}.{short}")
            except ModuleNotFoundError:  # a module that no longer exists reports zeros
                continue
        holders = [package, *modules.values()]
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                if attr.startswith("_") and not (short == "verify" and attr.startswith("_criterion_")):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap_map(obj) if name == "parallel.map_indexed" else self.wrap(name, obj)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            self._undo.append((holder, key, obj))
                            setattr(holder, key, wrapper)
        stream_cls = getattr(modules.get("rng"), "RngStream", None)
        for meth in RNG_METHODS:
            original = vars(stream_cls).get(meth) if stream_cls else None
            if original is None:
                continue
            self._undo.append((stream_cls, meth, original))
            setattr(stream_cls, meth, self.wrap(f"rng.RngStream.{meth}", original))

    def uninstall(self) -> None:
        """Restore every binding install() replaced."""
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, with self time (inline helpers charged to callers)."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        inline_ids = [i for i, n in enumerate(self.names) if n in INLINE]
        inline = np.isin(name_id, inline_ids) & has_parent
        np.add.at(self_s, parent[inline], self_s[inline])
        self_s[inline] = 0.0
        return {
            "name_id": name_id, "parent": parent, "start": start, "end": end,
            "self_s": self_s, "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }

    def save(self, destination: str) -> None:
        """Write every span and the name table to a compressed .npz file."""
        cols = self.arrays()
        np.savez_compressed(destination, names=np.array(self.names), **cols)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s (inclusive) and amount."""
        cols = self.arrays()
        k = len(self.names)
        ids = cols["name_id"]
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=cols["self_s"], minlength=k)
        total = np.bincount(ids, weights=cols["end"] - cols["start"], minlength=k)
        amount = np.bincount(ids, weights=cols["amount"], minlength=k)
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                "total_s": float(total[i]), "amount": float(amount[i])}
            for i, n in enumerate(self.names)
        }

    def criterion_times(self) -> dict[int, float]:
        """Inclusive time per verification criterion, outermost calls only.

        Criterion 9 reruns criteria 1 to 8 at a reduced scale; those nested
        calls count toward criterion 9, not toward their own criterion.
        """
        prefix = "verify._criterion_"
        crit = {i: int(n[len(prefix):]) for i, n in enumerate(self.names)
                if n.startswith(prefix) and n[len(prefix):].isdigit()}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        out: dict[int, float] = {}
        for idx in np.nonzero(np.isin(ids, list(crit)))[0].tolist():
            nid = self.name_id[idx]
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] not in crit:
                p = self.parent[p]
            if p < 0:
                out[crit[nid]] = out.get(crit[nid], 0.0) + self.end[idx] - self.start[idx]
        return out
