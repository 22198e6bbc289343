"""Crash-safe run persistence: an append-only JSONL ledger per sweep run.

A full SysNoise sweep is the longest-running workload in the repo, yet until
this module existed nothing was persisted until the process printed its
table — one raising ``evaluate()`` (or one OOM-killed worker) threw away
every already-computed metric.  A :class:`RunStore` fixes that with the
classic write-ahead-log shape used by fault-tolerant ML systems:

* **One directory per run** (``<root>/<run_id>/``) holding

  - ``manifest.json`` — written once, atomically, when the run is created:
    task, model label, seed, noise set, skip set, metric name, interpreter /
    NumPy / platform fingerprint, plus any caller extras (the CLI stores the
    dataset/training arguments it needs to rebuild the session).  Checkpoint
    content digests land here too (see :meth:`RunLedger.record_checkpoint`).
  - ``ledger.jsonl`` — one JSON object per *completed* evaluation, appended
    and flushed (``fsync``) as each ``(model, dataset digest, config
    digest)`` cell finishes.  Failures are first-class entries
    (``status="error"`` with the exception text and attempt count), so a
    post-mortem can distinguish "never ran" from "ran and raised".
  - ``snapshot.json`` / ``quarantine.jsonl`` — products of
    :meth:`RunLedger.compact`: completed entries folded into one atomic,
    checksummed document, and raw bytes of corrupt lines preserved for
    forensics instead of being replayed as data.

* **Resume = replay the ledger.**  :meth:`RunLedger.lookup` answers "is this
  cell already complete?" from an in-memory index; a resumed
  :class:`~repro.core.session.BenchmarkSession` (or ``repro resume``) skips
  every complete cell and re-executes at most the remainder.  Values round-
  trip through JSON via ``repr`` semantics, so a resumed table is
  bit-identical to an uninterrupted one.  Replay is snapshot ∪ fold ∪ tail.

* **Entries are checksummed.**  Every appended line carries a CRC32 of its
  payload (the ``crc`` field, computed over the canonical sorted-key JSON
  form of the rest of the entry).  On replay a parseable line whose CRC
  refutes it is *bitrot* — counted, logged, and never indexed; a line that
  does not parse at all is either a healed torn fragment or gross
  corruption.  Lines without a ``crc`` field (runs from before this format)
  still replay.  Each replayed entry is also assigned a monotonic ``seq``
  number in file order — the resume cursor for serve-layer event streams.

* **Torn writes are tolerated.**  A SIGKILL can land mid-``write``; on open,
  lines that do not parse (almost always the torn final line) are counted
  and skipped, never propagated.

* **Multiple writers are safe.**  Appends are single raw ``O_APPEND``
  writes (one line, one syscall — POSIX keeps concurrent appends from
  interleaving), each writer *heals* a torn tail left by a killed peer
  (prepending a newline so the fragment becomes its own corrupt line
  instead of corrupting the next entry), and every ledger reads its own
  entries back from disk through the same incremental-consume path it uses
  for foreign ones.  :meth:`RunLedger.refresh` picks up entries other
  processes appended since the last read — only *complete* lines are
  consumed; a newline-less tail may be a live writer mid-append and is
  left for the next refresh.  This is what lets ``repro worker`` processes
  coordinate a shared run (see :mod:`repro.core.workqueue`).

* **Compaction bounds ledger growth.**  :meth:`RunLedger.compact` rotates
  ``ledger.jsonl`` aside, folds its terminal facts (latest ok per cell,
  unsuperseded errors, partial shards of incomplete cells) together with
  any prior snapshot into a new atomic ``snapshot.json``, and quarantines
  corrupt lines.  Appenders take an exclusive ``flock`` and re-check the
  file's inode, so a write racing a rotation lands either in the fold
  (captured by the compactor's exclusive lock) or in the fresh ledger —
  never lost.
  Readers detect the rotation by inode and pick up exactly where they left
  off via the ``seq`` cursor.  The protocol is documented in
  ``docs/integrity.md``.

The ledger key is ``(model_key, dataset_digest, config_digest)``: the model
key is the session label (stable across processes, unlike ``id()``), the
dataset digest is :func:`~repro.core.cache.dataset_token` (bitstream content
for image datasets), and :func:`config_digest` canonicalises a
:class:`~repro.core.noise.NoiseConfig` — including registry ``extra``
noises — into a stable hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import platform
import threading
import time
import uuid
import zlib
from pathlib import Path

try:
    import fcntl
except ImportError:                            # non-POSIX: degrade gracefully
    fcntl = None

__all__ = ["RunStore", "RunLedger", "config_digest", "run_manifest",
           "ledger_table", "expected_cells", "run_info"]

logger = logging.getLogger(__name__)

_MANIFEST = "manifest.json"
_LEDGER = "ledger.jsonl"
_SNAPSHOT = "snapshot.json"
_FOLD = "ledger.fold.jsonl"                    # ledger mid-compaction
_QUARANTINE = "quarantine.jsonl"               # raw bytes of corrupt lines


# ---------------------------------------------------------------------------
# Stable config identity
# ---------------------------------------------------------------------------

def _canonical(obj):
    """A JSON-serialisable canonical form of a config (or any variant value).

    Dataclasses flatten to sorted field dicts, mappings sort their keys, and
    anything non-primitive falls back to ``repr`` — the goal is a byte
    stream that is identical across processes and Python sessions for
    equal configs, never a reversible encoding.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(),
                                                         key=lambda kv:
                                                         str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def config_digest(cfg) -> str:
    """Stable hex digest of a :class:`NoiseConfig` (or any dataclass).

    Equal configs digest equally in every process — unlike ``hash()``
    (salted per interpreter) or ``id()``-derived keys — so ledger entries
    written by one run satisfy lookups in the next.
    """
    doc = json.dumps(_canonical(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(doc.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Entry checksums
# ---------------------------------------------------------------------------

def _entry_crc(doc) -> int:
    """CRC32 of a parsed JSON document's canonical form.

    Computed over the sorted-key compact dump of the *parsed* value, so it
    is independent of the key order and whitespace of the stored line —
    verification after a JSON round-trip sees exactly the bytes the writer
    checksummed.  CRC32 detects every single-bit and single-byte error,
    which is the shape silent media corruption takes.
    """
    data = json.dumps(doc, sort_keys=True, default=repr,
                      separators=(",", ":")).encode("utf-8")
    return zlib.crc32(data) & 0xFFFFFFFF


def _classify_line(line: bytes) -> tuple[str, dict | None]:
    """Classify one complete ledger line.

    Returns ``("ok", entry)`` for a CRC-verified entry (``crc`` popped),
    ``("legacy", entry)`` for a parseable entry with no checksum (written
    before the format carried one), ``("bitrot", None)`` for a parseable
    entry whose stored CRC refutes its content, and ``("unparseable",
    None)`` for anything else (torn fragments, gross corruption).
    """
    try:
        entry = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return "unparseable", None
    if not isinstance(entry, dict):
        return "unparseable", None
    if "crc" not in entry:
        return "legacy", entry
    stored = entry.pop("crc")
    if stored != _entry_crc(entry):
        return "bitrot", None
    return "ok", entry


def run_manifest(*, task: str, model: str, seed: int, noises,
                 skip=(), include_combined: bool = True,
                 metric: str = "metric", **extra) -> dict:
    """A manifest dict in the canonical shape :class:`RunStore` expects."""
    import numpy as np
    manifest = {
        "task": task, "model": model, "seed": seed,
        "noises": list(noises), "skip": sorted(skip),
        "include_combined": bool(include_combined), "metric": metric,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform()},
    }
    manifest.update(extra)
    return manifest


#: Manifest fields that must match for a resume to be legal — resuming a
#: ledger with a different model/seed/noise-set (or, when recorded, dataset
#: arguments) would splice two different experiments into one table.
#: ``eval_geometry`` (batch + shard size) is identity too: metric floats
#: depend on minibatch composition, and per-shard accumulator states from
#: one geometry must never merge into another, and neither must weights
#: trained for a different number of ``epochs``.  A field is only compared
#: when both manifests carry it, so callers that don't record ``data`` (or
#: ledgers from before the geometry field existed) are unaffected.
_IDENTITY_FIELDS = ("task", "model", "seed", "noises", "skip",
                    "include_combined", "data", "eval_geometry",
                    "mitigations", "epochs")


# ---------------------------------------------------------------------------
# One run's ledger
# ---------------------------------------------------------------------------

class RunLedger:
    """Append-only JSONL evaluation log for one run (thread-safe)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.run_id = self.path.name
        self._lock = threading.Lock()
        self._listeners: list = []             # append-notification hooks
        self._manifest: dict | None = None
        self._reset_locked()
        self._replay()

    def _reset_locked(self) -> None:
        """(Re)initialise all replay-derived state (lock held or init)."""
        self._ok: dict[tuple, dict] = {}       # key -> latest ok entry
        self._err: dict[tuple, dict] = {}      # key -> latest error entry
        self._shard_ok: dict[tuple, dict] = {}  # key+(start,stop) -> entry
        self._entries: list[dict] = []         # append order, parsed once
        self._n_unparseable = 0                # torn fragments, garbage
        self._n_bitrot = 0                     # parseable, CRC-refuted
        self._n_checksummed = 0                # CRC- or snapshot-verified
        self._n_legacy = 0                     # parseable, no CRC recorded
        self._next_seq = 0                     # monotonic replay cursor
        self._offset = 0                       # bytes consumed from disk
        # The read cursor holds an *open handle* on the file its offset
        # refers to: a held fd pins the inode, so comparing it against the
        # path's current inode is a sound rotation signal (a freed inode
        # number can be recycled for the replacement file; a live one
        # cannot).
        fh = getattr(self, "_fh", None)
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass
        self._fh = None
        self._retired: tuple | None = None     # (ino, dev) of consumed fold
        self._tail_pending = False             # newline-less bytes at EOF
        self._snapshot_meta: dict | None = None
        self._snapshot_corrupt = False
        self._snap_stat: tuple | None = None   # (mtime_ns, size) cache key
        self._snap_doc: dict | None = None
        self._folded: dict | None = None       # snapshot's fold receipt

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, manifest: dict) -> "RunLedger":
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        # Atomic manifest write: a crash mid-create leaves no half manifest.
        tmp = path / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, default=repr) + "\n")
        os.replace(tmp, path / _MANIFEST)
        return cls(path)

    @property
    def manifest(self) -> dict:
        if self._manifest is None:
            mpath = self.path / _MANIFEST
            self._manifest = (json.loads(mpath.read_text())
                              if mpath.exists() else {})
        return self._manifest

    def update_manifest(self, **fields) -> dict:
        """Atomically merge ``fields`` into ``manifest.json``.

        Concurrent writers race benignly for the fields this repo records
        this way (checkpoint digests are deterministic, so both writers
        write the same value); identity fields are never touched here.
        """
        with self._lock:
            mpath = self.path / _MANIFEST
            try:
                doc = json.loads(mpath.read_text())
            except (OSError, ValueError):
                doc = {}
            doc.update(fields)
            tmp = self.path / f"{_MANIFEST}.tmp{os.getpid()}"
            tmp.write_text(json.dumps(doc, indent=2, default=repr) + "\n")
            os.replace(tmp, mpath)
            self._manifest = doc
        return doc

    def record_checkpoint(self, path: str | Path,
                          name: str | None = None) -> str:
        """Record a checkpoint file's content digest in the manifest.

        ``resume``/``worker`` re-verify this digest before loading weights:
        a worker holding the wrong checkpoint must refuse to splice its
        results into a shared run (see :func:`repro.core.integrity.
        verify_checkpoint`).  Returns the hex digest.
        """
        from .integrity import checkpoint_digest
        p = Path(path)
        digest = checkpoint_digest(p)
        ckpts = dict(self.manifest.get("checkpoints") or {})
        ckpts[name or p.name] = {"sha256": digest,
                                 "bytes": p.stat().st_size,
                                 "ts": time.time()}
        self.update_manifest(checkpoints=ckpts)
        return digest

    # -- replay / read side -------------------------------------------------

    @staticmethod
    def _key(entry: dict) -> tuple:
        return (entry.get("model"), entry.get("dataset"), entry.get("cfg"))

    def _index(self, entry: dict) -> None:
        kind = entry.get("kind")
        if kind == "shard":
            shard = entry.get("shard")
            if (entry.get("status") == "ok" and isinstance(shard, list)
                    and len(shard) == 2):
                self._shard_ok[self._key(entry)
                               + (int(shard[0]), int(shard[1]))] = entry
            return
        if kind != "eval":
            return
        target = self._ok if entry.get("status") == "ok" else self._err
        target[self._key(entry)] = entry

    def _ingest(self, raw: bytes) -> dict | None:
        """Classify, seq-number, and index one complete line (lock held)."""
        line = raw.strip()
        if not line:
            return None                        # healing newlines are blank
        status, entry = _classify_line(line)
        if status == "unparseable":
            # A healed torn write from a killed process (its fragment became
            # a line of its own) — or something worse; either way, not data.
            self._n_unparseable += 1
            return None
        if status == "bitrot":
            self._n_bitrot += 1
            logger.warning("run %s: ledger line refuted by its CRC32 — "
                           "excluded from replay (bitrot?); `repro fsck "
                           "--repair` quarantines it", self.run_id)
            return None
        if status == "legacy":
            self._n_legacy += 1
        else:
            self._n_checksummed += 1
        entry["seq"] = self._next_seq
        self._next_seq += 1
        self._entries.append(entry)
        self._index(entry)
        return entry

    def _read_snapshot_doc(self) -> dict | None:
        """The CRC-verified snapshot document, or None (lock held)."""
        spath = self.path / _SNAPSHOT
        try:
            st = spath.stat()
        except OSError:
            self._snap_stat = self._snap_doc = None
            return None
        stamp = (st.st_mtime_ns, st.st_size)
        if stamp == self._snap_stat and self._snap_doc is not None:
            return self._snap_doc
        try:
            doc = json.loads(spath.read_text())
        except (OSError, ValueError):
            doc = None
        crc = doc.pop("crc", None) if isinstance(doc, dict) else None
        if not isinstance(doc, dict) or crc != _entry_crc(doc):
            # Replay must never raise on a rotten snapshot: ignore it (the
            # fold/ledger may still carry the data) and let fsck report it.
            self._snapshot_corrupt = True
            logger.error("run %s: snapshot.json fails its checksum; "
                         "ignoring it (`repro fsck` will report it)",
                         self.run_id)
            return None
        self._snapshot_corrupt = False
        self._snap_stat = stamp
        self._snap_doc = doc
        return doc

    def _consume_snapshot_locked(self) -> list[dict]:
        """Deliver snapshot entries past our seq cursor (lock held)."""
        doc = self._read_snapshot_doc()
        if doc is None:
            return []
        self._folded = doc.get("folded")
        new: list[dict] = []
        for entry in doc.get("entries", ()):
            seq = entry.get("seq")
            if not isinstance(seq, int) or seq < self._next_seq:
                continue                       # already consumed live
            self._entries.append(entry)
            self._index(entry)
            self._n_checksummed += 1           # covered by the snapshot CRC
            new.append(entry)
        self._next_seq = max(self._next_seq, int(doc.get("next_seq", 0)))
        self._snapshot_meta = {"ts": doc.get("ts"),
                               "entries": len(doc.get("entries", ()))}
        return new

    def _fold_covered(self, doc: dict | None, fold: Path) -> bool:
        """Is this fold file already folded into ``doc``'s snapshot?"""
        rec = (doc or {}).get("folded")
        if not rec:
            return False
        try:
            if fold.stat().st_size != rec.get("size"):
                return False
            data = fold.read_bytes()
        except OSError:
            return False
        return (zlib.crc32(data) & 0xFFFFFFFF) == rec.get("crc")

    @staticmethod
    def _same_file(path: Path, ident: os.stat_result) -> bool:
        try:
            st = os.stat(path)
        except OSError:
            return False
        return (st.st_ino, st.st_dev) == (ident.st_ino, ident.st_dev)

    @staticmethod
    def _try_flock_ex(fd: int) -> bool:
        """Non-blocking exclusive flock; True when acquired (or no fcntl)."""
        if fcntl is None:
            return True
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            return True
        except OSError:
            return False

    @staticmethod
    def _unflock(fd: int) -> None:
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass

    def _close_fh_locked(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
        self._fh = None
        self._offset = 0

    def _drain_locked(self) -> list[dict]:
        """Consume complete lines from the held cursor at ``_offset``."""
        fd = self._fh.fileno()
        size = os.fstat(fd).st_size
        buf = os.pread(fd, max(0, size - self._offset), self._offset)
        end = buf.rfind(b"\n")
        self._tail_pending = len(buf) > end + 1
        new: list[dict] = []
        if end < 0:
            return new
        self._offset += end + 1
        for raw in buf[:end + 1].split(b"\n"):
            entry = self._ingest(raw)
            if entry is not None:
                new.append(entry)
        return new

    def _consume_locked(self) -> list[dict]:
        """Parse complete lines appended since the last consume (lock held).

        Only newline-terminated lines advance the offset: a newline-less
        tail is either the torn final write of a killed process (healed —
        turned into its own line — by the next writer's append) or another
        live writer's append in flight, so it must not be consumed yet.
        It *is* surfaced in :meth:`counts` as a pending corrupt line, which
        keeps single-writer crash forensics exact.

        A compaction may rotate the file we are mid-consuming: the held
        cursor handle keeps following it (byte offsets survive a rename),
        the compactor's exclusive ``flock`` marks the moment its bytes are
        final, and the published snapshot's ``seq`` numbers say exactly
        which folded entries we have not yet delivered.  A reader therefore
        sees every entry exactly once across any interleaving of appends
        and compactions.
        """
        lpath = self.path / _LEDGER
        fold = self.path / _FOLD
        new: list[dict] = []
        if self._fh is not None:
            ident = os.fstat(self._fh.fileno())
            if self._same_file(lpath, ident):
                new.extend(self._drain_locked())
                return new
            # Rotated under us: our held file is (or was) a compactor's
            # fold.  Drain the complete lines; if we can take the exclusive
            # lock the fold is final (a live compactor holds it through
            # publish), so retire the cursor and catch up from the
            # snapshot below.  Otherwise retry on a later refresh.
            new.extend(self._drain_locked())
            fd = self._fh.fileno()
            if not self._try_flock_ex(fd):
                return new
            try:
                new.extend(self._drain_locked())
                if self._tail_pending:
                    # Under the exclusive lock a newline-less tail is a
                    # dead torn fragment, not a write in flight.
                    self._n_unparseable += 1
                    self._tail_pending = False
            finally:
                self._unflock(fd)
            self._retired = (ident.st_ino, ident.st_dev)
            self._close_fh_locked()
        # No cursor: deliver folded history we have not seen, then adopt
        # the newest file on disk.
        doc = self._read_snapshot_doc()
        if doc is not None and (int(doc.get("next_seq", 0)) > self._next_seq
                                or self._snapshot_meta is None):
            new.extend(self._consume_snapshot_locked())
        try:
            fold_stat = fold.stat()
        except OSError:
            fold_stat = None
        if (fold_stat is not None
                and (fold_stat.st_ino, fold_stat.st_dev) != self._retired
                and not self._fold_covered(doc, fold)):
            # An uncovered fold: a compaction in flight (leave it alone;
            # its snapshot arrives shortly) or a crashed one (final —
            # consume it whole so the newer ledger's entries are not
            # stranded behind it, and remember it as retired).
            try:
                fh = fold.open("rb")
            except OSError:
                return new
            with fh:
                fd = fh.fileno()
                if not self._try_flock_ex(fd):
                    return new
                try:
                    if not self._same_file(fold, os.fstat(fd)):
                        return new             # folded meanwhile; retry
                    self._fh = fh
                    self._offset = 0
                    new.extend(self._drain_locked())
                    if self._tail_pending:
                        self._n_unparseable += 1
                        self._tail_pending = False
                    self._retired = (os.fstat(fd).st_ino,
                                     os.fstat(fd).st_dev)
                finally:
                    self._fh = None
                    self._offset = 0
                    self._unflock(fd)
        try:
            self._fh = lpath.open("rb")
        except OSError:
            self._tail_pending = False
            return new
        self._offset = 0
        new.extend(self._drain_locked())
        return new

    def _replay(self) -> None:
        with self._lock:
            self._consume_locked()
        corrupt = self._n_unparseable + self._n_bitrot
        if corrupt or self._tail_pending:
            logger.warning("run %s: %d corrupt ledger line(s) (interrupted "
                           "write or bitrot)", self.run_id,
                           corrupt + int(self._tail_pending))

    def refresh(self) -> list[dict]:
        """Consume entries other processes appended since the last read.

        Returns the newly visible entries (listeners are notified of each,
        exactly as for local appends).  This is the read half of the
        shared-run protocol: ``mode="shared"`` workers poll it between
        claim attempts to learn what their peers completed.
        """
        with self._lock:
            new = self._consume_locked()
            listeners = list(self._listeners) if new else []
        for entry in new:
            self._notify(listeners, entry)
        return new

    def _notify(self, listeners, entry: dict) -> None:
        for fn in listeners:
            try:
                fn(entry)
            except Exception as exc:           # noqa: BLE001 — observer only
                logger.warning("ledger listener failed (%s); entry is "
                               "persisted regardless", exc)

    def entries(self) -> list[dict]:
        """Every parseable ledger entry, in append order (parsed once)."""
        with self._lock:
            return list(self._entries)

    def lookup(self, model: str, dataset: str, cfg_digest: str) -> dict | None:
        """The *complete* (status ok) entry for this cell, or None.

        Error entries never satisfy a lookup — a resumed run re-executes
        failed cells (they may have died to a transient crash).
        """
        with self._lock:
            return self._ok.get((model, dataset, cfg_digest))

    def outcome(self, model: str, dataset: str, cfg_digest: str,
                ) -> dict | None:
        """The cell's latest *terminal* entry — ok or error — or None.

        Unlike :meth:`lookup`, a recorded failure counts as an answer: a
        shared-mode worker waiting on a cell someone else owns needs to
        stop waiting once that cell is quarantined as failed-poisoned, not
        spin on a lookup that will never become ok.  An ok entry wins over
        an error (the retry-recovered shape).
        """
        with self._lock:
            key = (model, dataset, cfg_digest)
            return self._ok.get(key) or self._err.get(key)

    def lookup_shard(self, model: str, dataset: str, cfg_digest: str,
                     start: int, stop: int) -> dict | None:
        """The completed *shard* entry for exactly these bounds, or None.

        Bounds are part of the identity: a resume that re-derives different
        shard geometry (other shard size, batch size, or dataset length)
        must recompute rather than splice mismatched partials.
        """
        with self._lock:
            return self._shard_ok.get((model, dataset, cfg_digest,
                                       int(start), int(stop)))

    def counts(self) -> dict:
        """Entry statistics — what the resume CLI and tests assert on."""
        with self._lock:
            return {"entries": len(self._entries),
                    "ok": len(self._ok),
                    "error": len(set(self._err) - set(self._ok)),
                    "corrupt": self._n_unparseable + self._n_bitrot
                    + int(self._tail_pending)}

    def integrity(self) -> dict:
        """Checksum/quarantine/snapshot statistics for this replay.

        Kept separate from :meth:`counts` (whose key set is a stable
        contract).  ``checksummed`` counts entries verified by a line CRC
        *or* by the snapshot document's CRC; ``legacy`` entries predate the
        checksum format and replay on trust.
        """
        with self._lock:
            quarantined = 0
            try:
                with (self.path / _QUARANTINE).open("rb") as fh:
                    quarantined = sum(1 for line in fh if line.strip())
            except OSError:
                pass
            snapshot = dict(self._snapshot_meta) if self._snapshot_meta \
                else None
            return {"entries": len(self._entries),
                    "checksummed": self._n_checksummed,
                    "legacy": self._n_legacy,
                    "bitrot": self._n_bitrot,
                    "unparseable": self._n_unparseable,
                    "torn_tail": bool(self._tail_pending),
                    "quarantined": quarantined,
                    "snapshot": snapshot,
                    "snapshot_corrupt": bool(self._snapshot_corrupt)}

    # -- write side ---------------------------------------------------------

    def subscribe(self, fn) -> None:
        """Call ``fn(entry)`` after every successful :meth:`append`.

        This is the serving layer's incremental-results feed: the ledger is
        already the single point every completed cell/shard flows through,
        so subscribing here is what lets an HTTP client stream a sweep's
        progress without the engine knowing the server exists.  Listeners
        run on the appending thread, *outside* the ledger lock (a listener
        that re-enters the ledger must not deadlock); a raising listener is
        logged and dropped from that notification, never propagated into
        the sweep.
        """
        with self._lock:
            self._listeners.append(fn)

    def unsubscribe(self, fn) -> None:
        with self._lock:
            try:
                self._listeners.remove(fn)
            except ValueError:
                pass

    def append(self, entry: dict) -> None:
        """Append one checksummed entry, fsync'd before returning.

        The fsync is the crash-safety contract: once ``append`` returns, a
        SIGKILL cannot lose the entry (a torn *partial* line from a kill
        mid-call is skipped on replay).  The write itself is one raw
        ``O_APPEND`` syscall, so concurrent writers' lines never interleave;
        before writing, a newline-less tail left by a killed peer is healed
        (its fragment becomes a standalone corrupt line instead of fusing
        with this entry).  The entry is then *read back* from disk through
        the same consume path foreign entries take — one code path, exact
        offsets, and any peer entries that landed meanwhile are indexed
        (and announced to listeners) in file order.

        The ``crc`` field is computed over the canonical JSON form of the
        rest of the entry, so replay can re-verify it after the round trip;
        ``seq`` is never written (it is a property of file order).
        """
        body = {k: v for k, v in entry.items() if k not in ("crc", "seq")}
        # CRC the parsed form, not the in-memory one: repr/tuple/int-key
        # conversions happen exactly once, on the same side as verification.
        canon = json.loads(json.dumps(body, default=repr))
        body["crc"] = _entry_crc(canon)
        data = (json.dumps(body, default=repr, separators=(",", ":"))
                + "\n").encode("utf-8")
        with self._lock:
            self._append_bytes(data, kind=str(entry.get("kind", "")))
            new = self._consume_locked()
            listeners = list(self._listeners)
        for seen in new:
            self._notify(listeners, seen)

    def _append_bytes(self, data: bytes, kind: str = "") -> None:
        """One healed, fsync'd O_APPEND write (lock held by caller).

        Rotation-safe: the write happens under an exclusive ``flock`` and
        only after confirming the opened file is still ``ledger.jsonl``'s
        inode.  A compactor renaming the ledger takes an exclusive lock on
        the renamed file, so every append lands either before the fold is
        read (captured by the snapshot) or on the fresh ledger — never in
        limbo.  The lock is exclusive among appenders too: a peer's line
        that crosses a page boundary is visible half-written while its
        ``write`` runs, and the torn-tail heal below would take it for a
        dead writer's fragment and append a stray blank line after it.
        """
        from .faults import fault_point
        lpath = self.path / _LEDGER
        while True:
            fd = os.open(lpath, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    cur_ino = os.stat(lpath).st_ino
                except OSError:
                    cur_ino = None
                if cur_ino != os.fstat(fd).st_ino:
                    continue                   # rotated under us: retry
                size = os.fstat(fd).st_size
                if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                    # Heal a peer's torn final write: give the fragment its
                    # own newline so it replays as one corrupt line, not as
                    # a prefix fused onto this entry.
                    os.write(fd, b"\n")
                    size += 1
                act = fault_point("runstore.append", label=kind)
                if act is not None:
                    op = act.get("op")
                    cut = act.get("bytes")
                    if op == "torn_write":
                        cut = len(data) // 2 if cut is None else int(cut)
                        os.write(fd, data[:max(1, min(cut, len(data) - 1))])
                        os.fsync(fd)
                        os._exit(23)           # die mid-write, like SIGKILL
                    if op == "short_write":
                        # The tail of the line never reaches the disk but
                        # the process lives on — a lost page-cache write.
                        cut = len(data) // 2 if cut is None else int(cut)
                        os.write(fd, data[:max(1, min(cut, len(data) - 1))])
                        os.fsync(fd)
                        return
                    if op == "bitrot":
                        os.write(fd, data)
                        os.fsync(fd)
                        # Flip one bit of the durably-written line (never
                        # its newline): silent media corruption.  pwrite on
                        # an O_APPEND fd appends, so use a plain fd.
                        k = len(data) // 2 if cut is None else int(cut)
                        k = max(0, min(k, len(data) - 2))
                        wfd = os.open(lpath, os.O_WRONLY)
                        try:
                            os.pwrite(wfd, bytes([data[k] ^ 0x01]),
                                      size + k)
                            os.fsync(wfd)
                        finally:
                            os.close(wfd)
                        return
                os.write(fd, data)
                os.fsync(fd)
                return
            finally:
                os.close(fd)

    def record_eval(self, model: str, dataset: str, cfg_digest: str, *,
                    status: str, value: float | None = None,
                    error: str | None = None, noise: str | None = None,
                    label: str | None = None, attempts: int = 1) -> None:
        """Append one evaluation outcome (ok or structured failure)."""
        entry = {"kind": "eval", "model": model, "dataset": dataset,
                 "cfg": cfg_digest, "status": status, "attempts": attempts,
                 "ts": time.time()}
        if noise is not None:
            entry["noise"] = noise
        if label is not None:
            entry["label"] = label
        if status == "ok":
            entry["value"] = value
        else:
            entry["error"] = error or "unknown failure"
        self.append(entry)

    def record_shard(self, model: str, dataset: str, cfg_digest: str, *,
                     start: int, stop: int, state: dict,
                     noise: str | None = None,
                     label: str | None = None) -> None:
        """Append one completed shard's accumulator state.

        Shard entries give the ledger sub-cell granularity: a crash
        mid-dataset resumes at the first shard that never landed, not at
        the start of the cell.  ``state`` must be the accumulator's
        JSON-safe :meth:`~repro.core.metrics.MetricAccumulator.state` —
        floats round-trip bit-exactly through JSON ``repr``, so merged
        resumed values equal uninterrupted ones.  Shard entries never
        satisfy whole-cell :meth:`lookup`.
        """
        entry = {"kind": "shard", "model": model, "dataset": dataset,
                 "cfg": cfg_digest, "status": "ok",
                 "shard": [int(start), int(stop)], "state": state,
                 "ts": time.time()}
        if noise is not None:
            entry["noise"] = noise
        if label is not None:
            entry["label"] = label
        self.append(entry)

    # -- compaction ---------------------------------------------------------

    def compact(self, ttl: float = 30.0) -> dict:
        """Fold the ledger into an atomic snapshot; truncate the tail.

        Replay after compaction is snapshot ∪ tail and yields the same
        indexes (and therefore byte-identical tables) as replaying the full
        ledger: the fold keeps the latest ok entry per cell, error entries
        not superseded by an ok, and partial shard states of cells that
        have no terminal ok yet; superseded history and corrupt lines are
        dropped (the latter preserved raw in ``quarantine.jsonl``).

        Concurrent-writer-safe: the ``compact`` work item is claimed
        through the run's lease directory (one live compactor at a time;
        a dead one's lease expires), the ledger is *renamed* aside, and an
        exclusive ``flock`` on the renamed file waits out every in-flight
        appender — late appenders detect the rotation by inode and land on
        the fresh ledger.  A crash at any point is recovered on the next
        replay or compaction (see ``docs/integrity.md``).

        Returns a stats dict: ``status`` is ``ok``, ``busy`` (another
        compactor holds the claim) or ``noop`` (nothing to fold).
        """
        from .workqueue import WorkQueue
        wq = WorkQueue(self.path, owner=f"compact-{os.getpid()}", ttl=ttl,
                       max_attempts=1 << 30, retry_base=0.0)
        lease = wq.try_claim("compact")
        if lease is None:
            return {"status": "busy"}
        try:
            with self._lock:
                return self._compact_locked()
        finally:
            lease.release()

    def _compact_locked(self) -> dict:
        from .faults import fault_point
        lpath = self.path / _LEDGER
        fold = self.path / _FOLD
        stats = {"status": "ok", "snapshot_entries": 0, "dropped": 0,
                 "quarantined": 0}
        doc = self._read_snapshot_doc()
        # 1. Recover a fold left by a crashed compactor — before rotating,
        #    so the rename below never clobbers unrecovered entries.
        if fold.exists():
            if self._fold_covered(doc, fold):
                fold.unlink(missing_ok=True)   # published; unlink was lost
            else:
                doc = self._fold_file_locked(doc, fold, stats)
        # 2. Rotate the live ledger aside and fold it.
        rotated = False
        try:
            rotated = lpath.stat().st_size > 0
        except OSError:
            pass
        if rotated:
            os.rename(lpath, fold)
            fault_point("runstore.compact", label="rotate")
            doc = self._fold_file_locked(doc, fold, stats)
        elif doc is None:
            stats["status"] = "noop"
            return stats
        # 3. Rebuild in-memory state from the published shape.  Dropped
        #    (superseded) entries leave the in-memory list too, so counts
        #    reflect what a fresh replay would see.
        self._reset_locked()
        self._consume_locked()
        stats["snapshot_entries"] = len((doc or {}).get("entries", ()))
        return stats

    def _fold_file_locked(self, doc: dict | None, fold: Path,
                          stats: dict) -> dict:
        """Fold one rotated ledger file into a new published snapshot."""
        from .faults import fault_point
        fd = os.open(fold, os.O_RDONLY)
        try:
            if fcntl is not None:
                # Blocks until every appender that raced the rotation has
                # finished its locked write; after this the fold's
                # bytes are final (late appenders fail the inode re-check
                # and divert to the fresh ledger).
                fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            buf = os.pread(fd, size, 0)
            entries = list((doc or {}).get("entries", ()))
            next_seq = int((doc or {}).get("next_seq", 0))
            bad_raw: list[bytes] = []
            parts = buf.split(b"\n")
            if parts and parts[-1].strip():
                # Under the exclusive lock no writer is mid-append: a
                # newline-less tail is a dead torn fragment.
                bad_raw.append(parts[-1])
            for raw in parts[:-1]:
                line = raw.strip()
                if not line:
                    continue
                status, entry = _classify_line(line)
                if status in ("unparseable", "bitrot"):
                    bad_raw.append(raw)
                    continue
                entry["seq"] = next_seq
                next_seq += 1
                entries.append(entry)
            kept = _fold_policy(entries)
            stats["dropped"] += len(entries) - len(kept)
            stats["quarantined"] += self._quarantine_locked(bad_raw,
                                                            fold.name)
            new_doc = {"version": 1, "run_id": self.run_id,
                       "ts": time.time(), "next_seq": next_seq,
                       "entries": kept,
                       "folded": {"file": fold.name, "size": size,
                                  "crc": zlib.crc32(buf) & 0xFFFFFFFF}}
            new_doc["crc"] = _entry_crc(new_doc)
            tmp = self.path / f"{_SNAPSHOT}.tmp{os.getpid()}"
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(new_doc, fh, separators=(",", ":"))
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path / _SNAPSHOT)
            fault_point("runstore.compact", label="publish")
            fold.unlink(missing_ok=True)
            new_doc.pop("crc")
            return new_doc
        finally:
            os.close(fd)

    def _quarantine_locked(self, raws: list[bytes], source: str) -> int:
        """Preserve corrupt raw lines in ``quarantine.jsonl`` (forensics)."""
        if not raws:
            return 0
        fd = os.open(self.path / _QUARANTINE,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            for raw in raws:
                doc = {"ts": time.time(), "source": source,
                       "raw": raw.decode("utf-8", "backslashreplace")}
                os.write(fd, (json.dumps(doc) + "\n").encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        return len(raws)


def _fold_policy(entries: list[dict]) -> list[dict]:
    """Which entries a snapshot keeps: terminal facts, not history.

    * per eval cell: the latest ok entry, else the latest error entry;
    * shard partials only for cells with no ok eval yet (still resumable);
    * unknown kinds verbatim (forward compatibility).

    Order (by ``seq``) is preserved, so replay indexes resolve "latest
    wins" identically before and after compaction.
    """
    ok_cells = set()
    latest: dict[tuple, dict] = {}             # (key, status-class) -> entry
    for entry in entries:
        if entry.get("kind") != "eval":
            continue
        key = RunLedger._key(entry)
        if entry.get("status") == "ok":
            ok_cells.add(key)
            latest[(key, "ok")] = entry
        else:
            latest[(key, "err")] = entry
    keep_ids = set()
    for (key, cls), entry in latest.items():
        if cls == "err" and key in ok_cells:
            continue                           # superseded by a later ok
        keep_ids.add(id(entry))
    latest_shard: dict[tuple, dict] = {}
    for entry in entries:
        if entry.get("kind") != "shard":
            continue
        key = RunLedger._key(entry)
        if key in ok_cells or entry.get("status") != "ok":
            continue                           # folded into the cell's ok
        shard = entry.get("shard") or [None, None]
        latest_shard[key + tuple(shard[:2])] = entry
    keep_ids.update(id(e) for e in latest_shard.values())
    return [e for e in entries
            if e.get("kind") not in ("eval", "shard") or id(e) in keep_ids]


# ---------------------------------------------------------------------------
# The store: a directory of runs
# ---------------------------------------------------------------------------

class RunStore:
    """A directory of crash-safe runs, one :class:`RunLedger` each."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def runs(self) -> list[str]:
        """Run ids present in the store, oldest first (ids sort by time)."""
        if not self.root.exists():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and (p / _MANIFEST).exists())

    def latest(self) -> str | None:
        runs = self.runs()
        return runs[-1] if runs else None

    def __contains__(self, run_id: str) -> bool:
        return (self.root / run_id / _MANIFEST).exists()

    @staticmethod
    def new_run_id() -> str:
        """Sortable-by-creation-time id: ``<utc timestamp>-<random>``."""
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        return f"{stamp}-{uuid.uuid4().hex[:6]}"

    def create(self, manifest: dict, run_id: str | None = None) -> RunLedger:
        run_id = run_id or self.new_run_id()
        if run_id in self:
            raise ValueError(f"run {run_id!r} already exists under "
                             f"{self.root}")
        return RunLedger.create(self.root / run_id, manifest)

    def open(self, run_id: str) -> RunLedger:
        if run_id not in self:
            raise ValueError(f"no run {run_id!r} under {self.root} "
                             f"(known: {self.runs()})")
        return RunLedger(self.root / run_id)

    def read_manifest(self, run_id: str) -> dict:
        """The run's manifest without replaying its ledger (cheap)."""
        if run_id not in self:
            raise ValueError(f"no run {run_id!r} under {self.root} "
                             f"(known: {self.runs()})")
        return json.loads((self.root / run_id / _MANIFEST).read_text())

    def open_or_create(self, manifest: dict,
                       run_id: str | None = None) -> RunLedger:
        """Resume ``run_id`` if it exists (manifest identity must match),
        else create it.  This is what ``BenchmarkSession.run()`` calls."""
        if run_id is None or run_id not in self:
            return self.create(manifest, run_id)
        ledger = self.open(run_id)
        if ledger.manifest.get("inference", "module") != "module":
            # Runs recorded before plan inference was removed carry the
            # substrate in their manifest; only module cells can resume.
            raise ValueError(
                f"cannot resume run {run_id!r}: it was recorded with "
                f"inference={ledger.manifest['inference']!r}, and plan "
                f"inference has been removed (every run evaluates through "
                f"the module forward); start a new run")
        mismatched = [f for f in _IDENTITY_FIELDS
                      if f in ledger.manifest and f in manifest
                      and ledger.manifest[f] != manifest[f]]
        if mismatched:
            raise ValueError(
                f"cannot resume run {run_id!r}: manifest mismatch on "
                f"{mismatched} (stored "
                f"{ {f: ledger.manifest[f] for f in mismatched} }, "
                f"requested { {f: manifest[f] for f in mismatched} })")
        return ledger

    def list_runs(self) -> list[dict]:
        """Status summaries for every run in the store, oldest first.

        Each entry is :func:`run_info` for the run — derived entirely from
        ledger replay, never from transient process state, so the listing is
        correct after any number of crashes/restarts.  A run whose ledger
        cannot be replayed (e.g. an unreadable manifest) still appears, with
        ``status="unreadable"`` — listing must never raise because one run
        directory rotted.
        """
        infos = []
        for run_id in self.runs():
            try:
                infos.append(run_info(self.open(run_id)))
            except Exception as exc:           # noqa: BLE001 — keep listing
                infos.append({"run_id": run_id, "status": "unreadable",
                              "error": str(exc)})
        return infos


# ---------------------------------------------------------------------------
# Run status from ledger replay alone
# ---------------------------------------------------------------------------

def expected_cells(manifest: dict) -> int | None:
    """How many eval cells a complete run of ``manifest`` produces.

    1 baseline + one cell per variant of every non-skipped noise + 1
    combined config when ``include_combined`` — multiplied by one clean
    axis plus one axis per mitigation in the manifest (each mitigation
    re-evaluates the full grid under its own ledger identity).  Returns
    ``None`` when a noise in the manifest is not registered in this
    process (its variant count is unknowable), in which case completeness
    cannot be judged.
    """
    from .registry import get_noise

    total = 1                                  # the clean baseline cell
    for name in manifest.get("noises", ()):
        if name in set(manifest.get("skip", ())):
            continue
        try:
            total += len(get_noise(name).variants())
        except ValueError:
            return None
    if manifest.get("include_combined", True):
        total += 1
    return total * (1 + len(manifest.get("mitigations", ())))


def run_info(ledger: RunLedger) -> dict:
    """One run's status summary, from its manifest and ledger replay.

    ``status`` is ``complete`` (every expected cell has an ok entry),
    ``failed`` (at least one cell's latest outcome is an error), ``partial``
    (some ok cells, rest never ran — the killed-mid-run shape), or
    ``pending`` (ledger empty).  This is exactly what a restarted server or
    ``repro report --store`` can know without re-running anything.  The
    integrity fields (checksum coverage, bitrot/quarantine counts, snapshot
    receipt) are deterministic functions of the on-disk state, so the whole
    dict survives a reopen unchanged.
    """
    manifest = ledger.manifest
    counts = ledger.counts()
    integ = ledger.integrity()
    shards = sum(e.get("kind") == "shard" for e in ledger.entries())
    expected = expected_cells(manifest)
    if counts["error"]:
        status = "failed"
    elif expected is not None and counts["ok"] >= expected:
        status = "complete"
    elif counts["ok"]:
        status = "partial"
    else:
        status = "pending"
    return {
        "run_id": ledger.run_id,
        "task": manifest.get("task"),
        "model": manifest.get("model"),
        "seed": manifest.get("seed"),
        "metric": manifest.get("metric"),
        "noises": list(manifest.get("noises", ())),
        "status": status,
        "ok": counts["ok"],
        "error": counts["error"],
        "expected": expected,
        "entries": counts["entries"],
        "shards": shards,
        "corrupt": counts["corrupt"],
        "checksummed": integ["checksummed"],
        "bitrot": integ["bitrot"],
        "quarantined": integ["quarantined"],
        "snapshot": integ["snapshot"],
    }


# ---------------------------------------------------------------------------
# Rendering a table straight from a ledger
# ---------------------------------------------------------------------------

def ledger_table(ledger: RunLedger, title: str | None = None) -> str:
    """Render the paper-style sweep table directly from a run's ledger.

    The noise → variant → config mapping is reconstructed from the registry
    (variant sets are deterministic), so no per-variant metadata beyond the
    config digest is needed.  Cells whose evaluation failed — or has not run
    yet in a partially complete run — render as ``!``.

    Runs swept with mitigations render one extra row per mitigation
    (labelled ``<model>+<mitigation>``), looked up under that mitigation's
    folded ledger identity — the robustness-vs-mitigation comparison the
    paper's Tables 6–8 make, clean Δ against mitigated Δ per noise family.
    """
    import numpy as np

    from .mitigations import mitigated_digest
    from .noise import TRAIN_CONFIG
    from .registry import combined_config, get_noise
    from .report import render_table
    from .sweep import NoiseResult

    manifest = ledger.manifest
    noises = list(manifest.get("noises", ()))
    skip = set(manifest.get("skip", ()))
    label = manifest.get("model", "model")

    # Cells are scoped to the run's model label and its *latest* dataset
    # digest: the ledger key is (model, dataset, cfg), so entries that a
    # mis-resumed run wrote against a different dataset must not silently
    # satisfy cells of the current one.
    evals = [e for e in ledger.entries()
             if e.get("kind") == "eval" and e.get("model") == label]
    dataset = evals[-1].get("dataset") if evals else None
    dropped = sum(e.get("dataset") != dataset for e in evals)
    if dropped:
        logger.warning("run %s: ignoring %d entr(ies) from a different "
                       "dataset digest", ledger.run_id, dropped)
    ok: dict[str, dict] = {}
    err: dict[str, dict] = {}
    for entry in evals:
        if entry.get("dataset") != dataset:
            continue
        (ok if entry.get("status") == "ok" else err)[entry["cfg"]] = entry

    def build_row(mitigation: dict | None) -> dict:
        def cell(cfg) -> tuple[float, str | None]:
            digest = mitigated_digest(cfg, mitigation)
            hit = ok.get(digest)
            if hit is not None:
                return float(hit["value"]), None
            failed = err.get(digest)
            return float("nan"), (failed["error"] if failed
                                  else "not evaluated")

        baseline, _ = cell(TRAIN_CONFIG)
        row: dict = {"trained": baseline, "noises": {}}
        applicable: list[str] = []
        for name in noises:
            if name in skip:
                row["noises"][name] = None
                continue
            try:
                src = get_noise(name)
            except ValueError:
                # A custom noise registered by the run's script but absent
                # from this process's registry: its variant configs cannot
                # be reconstructed, so the column renders as failed, not a
                # crash.
                row["noises"][name] = NoiseResult(
                    name, baseline, [float("nan")],
                    {0: "noise type not registered in this process"})
                continue
            applicable.append(name)
            values: list[float] = []
            errors: dict[int, str] = {}
            for i, variant in enumerate(src.variants()):
                value, error = cell(src.apply(TRAIN_CONFIG, variant))
                values.append(value)
                if error is not None:
                    errors[i] = error
            row["noises"][name] = NoiseResult(name, baseline, values, errors)
        if manifest.get("include_combined", True):
            combined, combined_err = cell(combined_config(applicable))
            row["combined"] = (float("nan") if combined_err is not None
                               or np.isnan(baseline)
                               else baseline - combined)
        return row

    rows = {label: build_row(None)}
    for mit in manifest.get("mitigations", ()):
        rows[f"{label}+{mit['name']}"] = build_row(mit)

    title = title or (f"SysNoise run {ledger.run_id} — {label} "
                      f"({manifest.get('task', '?')})")
    return render_table(rows, noises,
                        manifest.get("metric", "metric"), title)
