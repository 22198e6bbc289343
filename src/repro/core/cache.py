"""Content-addressed caching for the benchmark pipeline.

Two caches live here:

* :class:`DecodeCache` memoises decoded pixel batches.  The seed
  implementation keyed on ``id(streams)``, which is unsafe twice over:
  CPython reuses ids once a list is garbage collected (a *different* dataset
  could silently receive a stale decode), and the cache grew without bound.
  Entries are instead keyed on a digest of the actual bitstream bytes plus
  the decoder persona, with an LRU bound.

* :class:`EvalCache` memoises whole *evaluation results* — one metric per
  ``(model, dataset, NoiseConfig)`` triple.  This is what lets a sweep
  engine compute the clean baseline once per (model, dataset, seed) and
  share it across ``sweep_noise`` / ``noise_row`` / ``worst_case_curve``
  rows, and what makes re-running a sweep on an unchanged session free.
  Model identity uses monotonically-allocated weak tokens (never-reused
  ints), so the ``id()``-reuse hazard cannot recur at this layer either.

Both caches are thread-safe: a :class:`~repro.core.sweep.SweepEngine` pool
may probe them from several workers at once.  Misses compute outside the
lock (two threads may race to compute the same entry; the result is simply
stored twice — correctness is unaffected because evaluations are pure).

A :class:`~repro.core.session.BenchmarkSession` owns private instances;
module-level helpers in :mod:`repro.core.pipeline` fall back to a shared
default so the legacy free functions keep their memoisation behaviour.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import threading
import weakref
from collections import OrderedDict

import numpy as np

__all__ = ["DecodeCache", "EvalCache", "streams_digest", "object_token",
           "dataset_token", "eval_key"]


def streams_digest(streams) -> str:
    """Stable digest of a dataset's encoded bitstream contents.

    Items without a ``tobytes()`` contribute a never-reused identity token
    instead of content — such streams forgo cross-copy cache sharing, but a
    digest can never collide between different objects (an ``id()``-reuse
    style ``repr`` fallback could).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack(">Q", len(streams)))
    for s in streams:
        if hasattr(s, "tobytes"):
            payload = s.tobytes()
        else:
            payload = struct.pack(">q", object_token(s))
        # Length-framed so item boundaries are part of the digest.
        h.update(struct.pack(">Q", len(payload)))
        h.update(payload)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Identity tokens: like id(), but never reused for a new object
# ---------------------------------------------------------------------------

#: id(obj) -> (token, weakref).  Keyed on the address only while the weakref
#: confirms the same object still lives there, so a recycled id can never be
#: mistaken for its predecessor.  Hashability is *not* required (unlike a
#: WeakKeyDictionary), so unhashable-but-weakrefable objects — e.g. the
#: backend's ``Graph`` dataclasses — get stable tokens too.
_TOKENS: dict[int, tuple[int, "weakref.ref"]] = {}
_TOKEN_COUNTER = itertools.count(1)
# Reentrant: a GC-triggered retire callback can fire inside object_token's
# own critical section (weakrefs die while the lock is held) — an ordinary
# Lock would self-deadlock there.
_TOKEN_LOCK = threading.RLock()


def _retire_token(oid: int, token: int) -> None:
    # Weakref callback.  The check-then-pop must be atomic, else a stale
    # callback could race object_token() registering a successor object at
    # the same recycled id and evict the successor's live entry.
    with _TOKEN_LOCK:
        entry = _TOKENS.get(oid)
        if entry is not None and entry[0] == token:
            del _TOKENS[oid]


def object_token(obj) -> int:
    """A stable per-object int that is never reallocated to another object.

    Unlike ``id()``, a token stays associated with ``obj`` for its lifetime
    and is retired (not recycled) when the object is collected, so cache
    entries keyed on it can never be served to a different object.  Objects
    that cannot be weak-referenced get a *fresh* token on every call — they
    forgo memoisation entirely rather than risk an ``id()``-style stale hit.
    """
    oid = id(obj)
    with _TOKEN_LOCK:
        entry = _TOKENS.get(oid)
        if entry is not None and entry[1]() is obj:
            return entry[0]
        token = next(_TOKEN_COUNTER)
        try:
            ref = weakref.ref(
                obj, lambda _, oid=oid, token=token: _retire_token(oid, token))
        except TypeError:           # not weak-referenceable: one-shot token
            return token
        _TOKENS[oid] = (token, ref)
        return token


_DATASET_DIGESTS: "weakref.WeakKeyDictionary[object, tuple[int, str]]" = \
    weakref.WeakKeyDictionary()


def dataset_token(ds) -> object:
    """Cache key part for a dataset: content digest when possible.

    Datasets carrying encoded ``streams`` are keyed on their bitstream
    contents (robust across equal copies); anything else falls back to an
    identity token.  The digest is memoised per dataset object (datasets
    are immutable by convention — the factories never mutate ``streams``
    in place), so warm-cache evaluations don't rescan the whole dataset.
    """
    streams = getattr(ds, "streams", None)
    if streams is None:
        return object_token(ds)
    try:
        cached = _DATASET_DIGESTS.get(ds)
        if cached is not None and cached[0] == len(streams):
            return cached[1]
    except TypeError:
        return streams_digest(streams)
    digest = streams_digest(streams)
    try:
        _DATASET_DIGESTS[ds] = (len(streams), digest)
    except TypeError:
        pass
    return digest


def eval_key(model, ds, cfg) -> tuple:
    """The :class:`EvalCache` key for one (model, dataset, config) triple."""
    return (object_token(model), dataset_token(ds), cfg)


# ---------------------------------------------------------------------------
# The caches
# ---------------------------------------------------------------------------

class _LruCache:
    """Thread-safe bounded LRU mapping with hit/miss counters.

    Bounded on entry count *and* (for array values) total bytes, so a cache
    sized for many small entries cannot balloon when large preprocessed
    tensors land in it.
    """

    def __init__(self, maxsize: int, max_bytes: int | None = None):
        if maxsize < 1:
            raise ValueError(f"{type(self).__name__} needs maxsize >= 1")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def _sizeof(value) -> int:
        return int(getattr(value, "nbytes", 0))

    def _get(self, key):
        """The cached value for ``key`` (marking a hit), or None (a miss)."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached
            self.misses += 1
            return None

    def _put(self, key, value) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= self._sizeof(old)
            self._entries[key] = value
            self._nbytes += self._sizeof(value)
            while len(self._entries) > self.maxsize or (
                    self.max_bytes is not None
                    and self._nbytes > self.max_bytes
                    and len(self._entries) > 1):
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= self._sizeof(evicted)

    def memo(self, key, compute):
        """The cached value for ``key``, computing via ``compute()`` on miss.

        Unhashable keys (e.g. a config carrying an unhashable custom-noise
        variant) skip memoisation and compute directly.
        """
        try:
            cached = self._get(key)
        except TypeError:
            return compute()
        if cached is not None:
            return cached
        value = compute()
        self._put(key, value)
        return value

    def drop_prefix(self, prefix: str) -> None:
        """Evict every entry whose tuple key starts with ``prefix``."""
        with self._lock:
            stale = [k for k in self._entries
                     if isinstance(k, tuple) and k and k[0] == prefix]
            for k in stale:
                self._nbytes -= self._sizeof(self._entries.pop(k))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self.hits = self.misses = 0


class DecodeCache(_LruCache):
    """LRU cache of pre-processing batches keyed on content + pipeline knobs.

    Three entry kinds share the LRU: raw decoded pixel batches keyed on
    ``(digest, decoder)`` via :meth:`decode`; the Huffman stage's int32
    coefficients keyed on ``("coeffs", digest)``, which every persona
    decoding the same streams shares (both stored by
    :func:`repro.core.pipeline.decode_dataset`); and fully pre-processed
    (decoded + resized + colour-converted + normalised) tensors stored by
    :func:`repro.core.pipeline.preprocess_dataset` via :meth:`memo`.
    """

    def __init__(self, maxsize: int = 64, max_bytes: int = 512 << 20):
        super().__init__(maxsize, max_bytes)

    def decode(self, streams, decoder: str, decode_fn) -> np.ndarray:
        """Return the decoded batch, computing it via ``decode_fn`` on miss.

        ``decode_fn(streams, decoder) -> np.ndarray`` runs only when the
        (contents, decoder) pair has not been seen (or was evicted).
        """
        return self.memo((streams_digest(streams), decoder),
                         lambda: decode_fn(streams, decoder))


class EvalCache(_LruCache):
    """LRU cache of evaluation metrics keyed per deployment variant.

    Keys are ``(model token, dataset digest, NoiseConfig)`` triples (see
    :func:`eval_key`), so the clean baseline — the ``TRAIN_CONFIG`` entry —
    is computed once per (model, dataset) and shared by every sweep that
    touches the pair, and each noise variant's metric is reused across
    ``sweep_noise`` / ``noise_row`` / ``worst_case_curve`` calls.
    """

    def __init__(self, maxsize: int = 512):
        super().__init__(maxsize)

    def evaluate(self, key: tuple, compute) -> float:
        """The cached metric for ``key``, computing via ``compute()`` on miss."""
        return self.memo(key, compute)

    def get(self, key):
        """The cached metric for ``key``, or None (unhashable keys miss)."""
        try:
            return self._get(key)
        except TypeError:
            return None

    def put(self, key, value) -> None:
        """Store an externally computed metric (e.g. from a worker process)."""
        try:
            self._put(key, value)
        except TypeError:
            pass
