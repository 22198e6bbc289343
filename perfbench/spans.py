"""In-memory span recorder, the layer wrappers, and span arithmetic.

A traced process (see ``entry.py``) creates one :class:`Recorder`, installs
wrappers around the public entry points of each repro layer listed in
:data:`TARGETS`, and writes every span and count to one JSON file when it
exits.  Nothing here is imported by an untraced process, so tracing off
means no wrapper exists.

A span is ``(id, parent, name, thread, start, end)`` with ``perf_counter``
times.  Its parent is the innermost span open on the same thread; a thread
with no open span of its own inherits, as parent, the span that was open on
the thread that started it, while that span is still open (so a prefetch
thread's decode nests under the sweep cell that spawned it).

Self time is a span's duration minus the part of its interval covered by
its children.  Per process, ``unattributed`` is the process's traced wall
time minus the time covered by top-level spans (spans without a parent).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Recorder", "TARGETS", "install", "union_length", "self_times",
           "process_summary", "merge_summaries"]

#: (span or count name, module, attribute, kind).  ``span`` times the call;
#: the other kinds add a count as well (``images``, ``cell``, ``claim``) or
#: record only a count (``memo``, ``bytes``, ``count``); ``iter`` also times
#: every ``next()`` on the iterator the call returns.
TARGETS = (
    ("image.decode", "repro.image.jpeg", "decode_batch", "images"),
    ("image.resize", "repro.image.resize", "resize_batch", "span"),
    ("data.synth", "repro.data.imagenet", "make_classification_dataset",
     "span"),
    ("pipeline.preprocess", "repro.core.pipeline", "preprocess_dataset",
     "span"),
    ("pipeline.preprocess", "repro.core.pipeline", "preprocess_shards",
     "iter"),
    ("pipeline.deploy", "repro.core.pipeline", "deployment_model", "span"),
    ("cache.decode", "repro.core.cache", "DecodeCache.memo", "memo"),
    ("nn.train", "repro.nn.train", "train_classifier", "span"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward", "span"),
    ("nn.col2im", "repro.nn.functional", "col2im", "span"),
    ("nn.eval", "repro.nn.train", "evaluate_classifier", "span"),
    ("nn.eval", "repro.core.tasks", "_predict_argmax", "span"),
    ("backend.plan", "repro.backend.plan", "ExecutionPlan.run", "span"),
    ("metrics.update", "repro.core.metrics", "Accuracy.update", "span"),
    ("sweep.cell", "repro.core.sweep", "SweepEngine._eval_one", "cell"),
    ("sweep.cell", "repro.core.sweep", "SweepEngine._shared_cell", "cell"),
    ("ledger.append", "repro.core.runstore", "RunLedger.append", "span"),
    ("ledger.refresh", "repro.core.runstore", "RunLedger.refresh", "span"),
    ("ledger.bytes", "repro.core.runstore", "RunLedger._append_bytes",
     "bytes"),
    ("workqueue.claim", "repro.core.workqueue", "WorkQueue.try_claim",
     "claim"),
    ("workqueue.reclaims", "repro.core.workqueue", "WorkQueue._reclaim",
     "count"),
    ("serve.job", "repro.serve.jobs", "JobManager._execute", "span"),
)


class Recorder:
    """Thread-aware span and count recorder; everything stays in memory."""

    def __init__(self, t0: float | None = None):
        self.t0 = time.perf_counter() if t0 is None else t0
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open: set[int] = set()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            origin = getattr(threading.current_thread(), "_perfbench_origin",
                             None)
            parent = origin if origin in self._open else None
        sid = next(self._ids)
        stack.append(sid)
        self._open.add(sid)
        return sid, parent, name, threading.get_ident(), time.perf_counter()

    def end(self, token: tuple) -> None:
        sid, parent, name, tid, start = token
        end = time.perf_counter()
        self._stack().pop()
        self._open.discard(sid)
        self.spans.append((sid, parent, name, tid, start, end))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, directory: str) -> None:
        """Write this process's spans once (registered with ``atexit``)."""
        doc = {"pid": os.getpid(), "t0": self.t0, "t_end": time.perf_counter(),
               "spans": list(self.spans), "counts": dict(self.counts)}
        (Path(directory) / f"{doc['pid']}.json").write_text(json.dumps(doc))


# -- wrappers ----------------------------------------------------------------

class _TracedIter:
    """Times every ``next()`` of a wrapped iterator as one span."""

    def __init__(self, rec: Recorder, name: str, it):
        self._rec, self._name, self._it = rec, name, it

    def __iter__(self):
        return self

    def __next__(self):
        token = self._rec.begin(self._name)
        try:
            return next(self._it)
        finally:
            self._rec.end(token)


def _wrap(rec: Recorder, name: str, kind: str, fn):
    if kind == "memo":
        @functools.wraps(fn)
        def memo(self, key, compute):
            missed = []

            def counted():
                missed.append(True)
                return compute()
            result = fn(self, key, counted)
            rec.count(name + ".lookups")
            if not missed:
                rec.count(name + ".hits")
            return result
        return memo
    if kind in ("bytes", "count"):
        @functools.wraps(fn)
        def counter(*args, **kwargs):
            rec.count(name, len(args[1]) if kind == "bytes" else 1)
            return fn(*args, **kwargs)
        return counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(token)
        if kind == "images":
            rec.count(name + ".images", len(args[0]))
        elif kind == "cell" and result is not False:
            rec.count("sweep.cells")
        elif kind == "claim" and result is not None:
            rec.count(name + ".won")
        elif kind == "iter":
            return _TracedIter(rec, name, result)
        return result
    return traced


def _trace_thread_origins(rec: Recorder) -> None:
    original = threading.Thread.start

    @functools.wraps(original)
    def start(thread, *args, **kwargs):
        thread._perfbench_origin = rec.current()
        return original(thread, *args, **kwargs)
    threading.Thread.start = start


def install(rec: Recorder) -> None:
    """Wrap every target and rebind every loaded alias.

    A module that did ``from repro.image.jpeg import decode_batch`` holds
    its own reference, so after wrapping the defining attribute every
    loaded ``repro`` module binding the original function is rebound too.
    Modules imported later read the already-wrapped attribute.
    """
    _trace_thread_origins(rec)
    for name, modname, attr, kind in TARGETS:
        module = importlib.import_module(modname)
        owner_name, _, fname = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, fname, _wrap(rec, name, kind,
                                        getattr(owner, fname)))
            continue
        original = getattr(module, fname)
        wrapped = _wrap(rec, name, kind, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# -- span arithmetic -----------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children cover (clipped)."""
    children = defaultdict(list)
    for sid, parent, _name, _tid, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, _tid, start, end in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children[sid]
                   if min(b, end) > max(a, start)]
        out[sid] = (end - start) - union_length(clipped)
    return out


def process_summary(doc: dict) -> dict:
    """Per-name self time and span count, counts, wall and unattributed."""
    spans = [tuple(s) for s in doc["spans"]]
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for sid, _parent, name, *_ in spans:
        self_s[name] += selfs[sid]
        calls[name] += 1
    wall = doc["t_end"] - doc["t0"]
    covered = union_length([(s[4], s[5]) for s in spans if s[1] is None])
    return {"wall": wall, "unattributed": wall - covered,
            "self": dict(self_s), "calls": dict(calls),
            "counts": dict(doc.get("counts", {}))}


def merge_summaries(summaries) -> dict:
    """Sum several process summaries (one operation's processes)."""
    out = {"wall": 0.0, "unattributed": 0.0, "self": defaultdict(float),
           "calls": defaultdict(int), "counts": defaultdict(float)}
    for summary in summaries:
        out["wall"] += summary["wall"]
        out["unattributed"] += summary["unattributed"]
        for key in ("self", "calls", "counts"):
            for name, value in summary[key].items():
                out[key][name] += value
    return out
