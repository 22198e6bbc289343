"""Filesystem work queue: atomic lease files over a shared run directory.

The shared-mode sweep (``SweepEngine(mode="shared")``) lets N independent
worker *processes* — launched separately, possibly on different hosts that
share the run directory — divide one run's (variant × shard) cells among
themselves.  The ledger already makes results mergeable and idempotent to
*read*; what it cannot do is stop two live workers from computing the same
cell at once, or recover a cell whose worker died mid-compute.  That is
this module's job, with nothing but POSIX filesystem semantics:

* **Claim** — ``open(O_CREAT | O_EXCL)`` on ``leases/<item>.lease`` is the
  atomic test-and-set; exactly one worker wins.  The file body records the
  owner and a random nonce.
* **Heartbeat** — the owner refreshes the lease's mtime (``os.utime``) from
  a background thread; a lease older than ``ttl`` belongs to a worker that
  is dead (SIGKILL) or stalled (SIGSTOP stops the heartbeat thread too).
* **Reclaim** — an expired lease is *renamed* to a tombstone before the
  claim race re-runs.  ``os.rename`` fails for all but one reclaimer, so
  two workers can never both "free" the same lease (and a fresh lease can
  never be unlinked by a racer that read a stale mtime).
* **Fencing** — before recording a result, the owner re-reads the lease
  and compares nonces (:meth:`Lease.still_owned`).  A stalled worker whose
  lease was reclaimed computes in vain but does not double-record.
* **Retry budget + poison quarantine** — every claim appends one line to a
  per-item ``.attempts`` sidecar.  An item whose claim count exceeds
  ``max_attempts`` has killed (or failed) that many workers; the next
  claimer must quarantine it (record a failed-poisoned ledger entry)
  instead of becoming casualty N+1.  Re-claims of an item honour an
  exponential backoff derived from the sidecar, so a flaky cell is retried
  with growing spacing rather than hammered.

The protocol's invariants — and the one residual double-*compute* (never
double-record) window — are documented in ``docs/faults.md``.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from pathlib import Path

from .faults import fault_point

__all__ = ["Lease", "WorkQueue"]

logger = logging.getLogger(__name__)

_LEASE_DIR = "leases"
_LEASE_SUFFIX = ".lease"
_ATTEMPTS_SUFFIX = ".attempts"


def _local_owner(pid: int) -> str:
    """The owner string a worker process ``pid`` on this host claims as."""
    return f"{os.uname().nodename}:{pid}"


class Lease:
    """One held lease: heartbeat thread + ownership fencing + release."""

    def __init__(self, path: Path, owner: str, nonce: str,
                 heartbeat_interval: float):
        self.path = path
        self.owner = owner
        self.nonce = nonce
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._interval = heartbeat_interval

    # -- heartbeat ----------------------------------------------------------

    def start_heartbeat(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._beat, daemon=True,
                                        name=f"lease-{self.path.stem}")
        self._thread.start()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            # A "hang" rule here simulates a stalled worker: the lease's
            # mtime stops advancing while the main thread keeps computing,
            # which is exactly the SIGSTOP shape reclamation must handle.
            fault_point("workqueue.heartbeat", label=self.path.stem)
            if not self.heartbeat():
                return                         # reclaimed under us; stop

    def heartbeat(self) -> bool:
        """Refresh the lease mtime; False when the lease is no longer ours.

        The ownership check runs first so a revived (SIGCONT'd) worker
        cannot refresh a lease that was reclaimed and re-issued to someone
        else while it was stopped.
        """
        if not self.still_owned():
            return False
        try:
            os.utime(self.path)
            return True
        except OSError:
            return False

    def still_owned(self) -> bool:
        """Fencing check: does the lease file still carry *our* nonce?

        This is what a worker must ask immediately before recording a
        result — a False answer means the lease expired and was reclaimed
        (the work is someone else's now) and recording would duplicate a
        ledger entry.
        """
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return False
        return doc.get("nonce") == self.nonce

    def release(self) -> None:
        """Stop the heartbeat and unlink the lease (only if still ours)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self.still_owned():
            try:
                self.path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class WorkQueue:
    """Lease-based claims over one run directory (see module docstring)."""

    def __init__(self, run_dir: str | Path, owner: str | None = None,
                 ttl: float = 30.0, max_attempts: int = 3,
                 retry_base: float = 0.1):
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.run_dir = Path(run_dir)
        self.dir = self.run_dir / _LEASE_DIR
        self.dir.mkdir(parents=True, exist_ok=True)
        self.owner = owner or _local_owner(os.getpid())
        self.ttl = float(ttl)
        self.max_attempts = max_attempts
        self.retry_base = retry_base

    # -- paths --------------------------------------------------------------

    def _lease_path(self, item: str) -> Path:
        return self.dir / (item + _LEASE_SUFFIX)

    def _attempts_path(self, item: str) -> Path:
        return self.dir / (item + _ATTEMPTS_SUFFIX)

    # -- claim / reclaim ----------------------------------------------------

    def try_claim(self, item: str,
                  auto_heartbeat: bool = True) -> Lease | None:
        """Attempt to claim ``item``; returns a heartbeating lease or None.

        None means the item is currently (validly) leased by someone else,
        or is inside its retry-backoff window.  An expired lease is
        reclaimed first — rename-to-tombstone, so concurrent reclaimers
        cannot double-free — then the O_EXCL creation race decides the new
        owner.

        ``auto_heartbeat=False`` skips the background refresh thread: the
        holder must call :meth:`Lease.heartbeat` itself, which turns the
        lease mtime into a *progress* signal rather than a liveness one
        (the serve layer's hung-runner watchdog wants exactly that — a
        runner that is alive but stuck should look expired).
        """
        path = self._lease_path(item)
        try:
            age = time.time() - path.stat().st_mtime
        except FileNotFoundError:
            age = None
        if age is not None:
            if age <= self.ttl:
                return None                    # validly held by someone
            self._reclaim(item, path)
        if not self._backoff_elapsed(item):
            return None
        nonce = uuid.uuid4().hex
        body = json.dumps({"owner": self.owner, "nonce": nonce,
                           "item": item, "ts": time.time()})
        fault_point("workqueue.claim", label=item)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None                        # lost the race
        try:
            os.write(fd, body.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        self._record_attempt(item)
        lease = Lease(path, self.owner, nonce,
                      heartbeat_interval=max(0.05, self.ttl / 4.0))
        if auto_heartbeat:
            lease.start_heartbeat()
        return lease

    def _reclaim(self, item: str, path: Path) -> None:
        """Move an expired lease out of the way, exactly-once."""
        tomb = path.with_suffix(f".tomb-{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, tomb)
        except FileNotFoundError:
            return                             # another reclaimer won
        except OSError:
            return
        try:
            dead = json.loads(tomb.read_text()).get("owner", "?")
        except (OSError, ValueError):
            dead = "?"
        logger.warning("reclaimed expired lease %s (dead/stalled owner %s)",
                       item, dead)
        fault_point("workqueue.reclaim", label=item)
        try:
            tomb.unlink()
        except OSError:
            pass

    # -- retry bookkeeping --------------------------------------------------

    def _record_attempt(self, item: str) -> None:
        line = json.dumps({"owner": self.owner, "ts": time.time()}) + "\n"
        fd = os.open(self._attempts_path(item),
                     os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def attempts(self, item: str) -> int:
        """How many claims this item has seen (this one included, after a
        successful :meth:`try_claim`)."""
        try:
            text = self._attempts_path(item).read_text()
        except OSError:
            return 0
        return sum(1 for line in text.splitlines() if line.strip())

    def last_attempt(self, item: str) -> float | None:
        try:
            lines = [l for l in self._attempts_path(item).read_text()
                     .splitlines() if l.strip()]
            return float(json.loads(lines[-1])["ts"]) if lines else None
        except (OSError, ValueError, KeyError):
            return None

    def _backoff_elapsed(self, item: str) -> bool:
        """Exponential per-item retry spacing, derived from the sidecar.

        The first claim is free; claim k+1 must wait
        ``retry_base * 2**(k-1)`` (capped at ``ttl``) after claim k's
        timestamp.  The sidecar is shared, so the backoff is global across
        workers — a cell that killed someone two seconds ago is not
        immediately re-run by the next idle worker.
        """
        n = self.attempts(item)
        if n == 0:
            return True
        last = self.last_attempt(item)
        if last is None:
            return True
        delay = min(self.ttl, self.retry_base * (2 ** (n - 1)))
        return (time.time() - last) >= delay

    def poisoned(self, item: str) -> bool:
        """True when claiming this item again would exceed the budget.

        The *caller* that holds a fresh claim on a poisoned item must
        quarantine it — record a failed-poisoned ledger entry — instead of
        executing it; see ``SweepEngine._shared_cell``.
        """
        return self.attempts(item) > self.max_attempts

    def prune(self, include_live: bool = False) -> dict:
        """Retire dead lease-protocol state; returns removal counts.

        Removes reclaim tombstones, ``.attempts`` sidecars, and expired
        lease files (live ones too with ``include_live``).  Safe once a
        run's cells are all terminal — claims re-check the ledger before
        consulting the attempt budget, so a pruned sidecar can never cause
        a completed cell to re-execute — and called exactly then: by the
        sweep engine when a shared run completes, by the serve layer when a
        job finishes, and by ``repro fsck --repair``.  Without it a
        long-lived store accumulates dead files forever.
        """
        removed = {"tombstones": 0, "attempts": 0, "leases": 0}
        now = time.time()
        try:
            children = list(self.dir.iterdir())
        except OSError:
            return removed
        for path in children:
            name = path.name
            try:
                if ".tomb-" in name:
                    path.unlink()
                    removed["tombstones"] += 1
                elif name.endswith(_ATTEMPTS_SUFFIX):
                    path.unlink()
                    removed["attempts"] += 1
                elif name.endswith(_LEASE_SUFFIX):
                    if include_live or now - path.stat().st_mtime > self.ttl:
                        path.unlink()
                        removed["leases"] += 1
            except OSError:
                continue                       # a racer beat us to it
        return removed

    def free_dead(self, pid: int) -> None:
        """Unlink the leases of process ``pid`` on this host, which the
        caller knows is dead (it reaped it), so its items can be claimed
        again after their backoff instead of after ``ttl``."""
        owner = _local_owner(pid)
        for path in self.dir.glob("*" + _LEASE_SUFFIX):
            try:
                if json.loads(path.read_text()).get("owner") == owner:
                    path.unlink()
            except (OSError, ValueError):
                continue                       # released meanwhile

    # -- introspection ------------------------------------------------------

    def claimed(self) -> bool:
        """True once any item of this queue has been claimed."""
        return any(self.dir.glob("*" + _ATTEMPTS_SUFFIX))

    def held_leases(self) -> list[dict]:
        """Parsed bodies of every live (unexpired) lease file."""
        out = []
        now = time.time()
        for path in sorted(self.dir.glob("*" + _LEASE_SUFFIX)):
            try:
                if now - path.stat().st_mtime > self.ttl:
                    continue
                out.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue
        return out
