"""The job manager: validated specs, a bounded queue, durable run records.

Design centre: **the run ledger is the job store.**  Submitting a job
creates its :class:`~repro.core.runstore.RunLedger` directory immediately —
manifest first, evaluations appended as the background worker drives the
:class:`~repro.core.session.BenchmarkSession` — so there is no separate job
database to keep consistent:

* job *status* is derivable from ledger replay alone
  (:func:`~repro.core.runstore.run_info`), which is why a killed-and-
  restarted server reports correct statuses without any recovery protocol;
* a queued job that the server never got to is just a run directory with an
  empty ledger — ``repro resume <job_id>`` finishes it offline, because the
  manifest carries the same ``cli`` block ``repro run`` writes;
* duplicate submissions dedup on the spec digest, and completed jobs are
  answered from a digest-keyed response cache backed by ``result.json`` in
  the run directory.

Admission control is honest backpressure: a full FIFO queue rejects with
:class:`QueueFull` carrying a ``retry_after`` estimate (an EMA of job
durations), which the HTTP layer maps to 429 + ``Retry-After``.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque

from .serializers import entry_event, json_safe

__all__ = ["ValidationError", "QueueFull", "Draining", "JobSpec", "Job",
           "JobManager", "RESULT_FILE"]

logger = logging.getLogger(__name__)

RESULT_FILE = "result.json"

_KINDS = ("sweep", "worst_case", "interaction")
_TERMINAL = ("completed", "failed", "cancelled", "interrupted", "hung")
_DATA_DEFAULTS = dict(native_size=48, input_size=32)


class ValidationError(ValueError):
    """A submitted job document failed validation (HTTP 400)."""


class QueueFull(RuntimeError):
    """The job queue is at capacity (HTTP 429)."""

    def __init__(self, retry_after: float):
        super().__init__(f"job queue full; retry after ~{retry_after:.0f}s")
        self.retry_after = retry_after


class Draining(RuntimeError):
    """The server is shutting down and accepts no new jobs (HTTP 503)."""


# ---------------------------------------------------------------------------
# Job specs
# ---------------------------------------------------------------------------

class JobSpec:
    """A validated, normalised benchmark job description.

    The accepted document mirrors the ``repro run`` CLI surface: kind
    (sweep / worst_case / interaction), zoo model, dataset size and split,
    training epochs, seed, noise subset, engine geometry.  Validation is
    strict — unknown keys are rejected, because a typo'd ``"epochz"``
    silently ignored is a benchmark result nobody asked for.
    """

    FIELDS = ("kind", "task", "model", "n", "train_frac", "epochs", "seed",
              "noises", "include_combined", "batch_size", "shard_size",
              "workers", "mode", "retries", "deadline", "mitigation")

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ValidationError("job spec must be a JSON object")
        # Specs stored before plan inference was removed carry
        # "inference": "module"; that is what every job now runs, so the
        # key is dropped and such jobs still recover after an upgrade.
        inference = doc.get("inference", "module")
        if inference != "module":
            raise ValidationError(f"inference={inference!r} is not "
                                  f"accepted: plan inference has been "
                                  f"removed, and every job evaluates "
                                  f"through the module forward")
        doc = {k: v for k, v in doc.items() if k != "inference"}
        unknown = sorted(set(doc) - set(self.FIELDS))
        if unknown:
            raise ValidationError(f"unknown spec field(s) {unknown}; "
                                  f"accepted: {list(self.FIELDS)}")
        self.kind = doc.get("kind", "sweep")
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {list(_KINDS)}, "
                                  f"got {self.kind!r}")
        self.task = doc.get("task", "cls")
        if self.task != "cls":
            raise ValidationError(f"only task 'cls' is servable today, "
                                  f"got {self.task!r}")
        self.model = doc.get("model", "resnet18x0.25")
        from repro.models import MODEL_ZOO
        zoo = {s.name: s for s in MODEL_ZOO}
        if self.model not in zoo:
            raise ValidationError(f"unknown model {self.model!r} "
                                  f"(see GET /v1/tasks or `repro "
                                  f"list-models`)")
        self._zoo_spec = zoo[self.model]
        self.n = self._int(doc, "n", 240, lo=8, hi=100_000)
        self.train_frac = self._float(doc, "train_frac", 0.75,
                                      lo=0.1, hi=0.95)
        self.epochs = self._int(doc, "epochs", 15, lo=1, hi=10_000)
        self.seed = self._int(doc, "seed", 0, lo=0, hi=2**31 - 1)
        from repro.core import CLS_NOISES
        noises = doc.get("noises")
        if noises is None:
            noises = list(CLS_NOISES)
        if (not isinstance(noises, list) or not noises
                or not all(isinstance(n, str) for n in noises)):
            raise ValidationError("noises must be a non-empty list of "
                                  "noise names")
        bad = sorted(set(noises) - set(CLS_NOISES))
        if bad:
            raise ValidationError(f"unknown classification noise(s) {bad}; "
                                  f"choose from {list(CLS_NOISES)}")
        self.noises = list(noises)
        self.include_combined = bool(doc.get("include_combined", True))
        self.batch_size = self._int(doc, "batch_size", None, lo=1, hi=4096)
        self.shard_size = self._int(doc, "shard_size", None, lo=1,
                                    hi=100_000)
        self.workers = self._int(doc, "workers", None, lo=1, hi=256)
        self.mode = doc.get("mode", "thread")
        if self.mode not in ("thread", "process"):
            raise ValidationError(f"mode must be 'thread' or 'process', "
                                  f"got {self.mode!r}")
        self.retries = self._int(doc, "retries", 0, lo=0, hi=16)
        # Per-job wall-clock budget (seconds).  None defers to the
        # manager's default; checked by the watchdog at cell granularity
        # (a deadline that expires mid-training fires at the first sweep
        # cell boundary after it).
        self.deadline = (None if doc.get("deadline") is None
                         else self._float(doc, "deadline", None,
                                          lo=0.1, hi=86_400.0))
        # Mitigations: a list of CLI-format specs ("tent", "tent:steps=2",
        # "augment:augmix").  Normalised to registry-resolved identity
        # dicts, so the job digest (dedup / response-cache key) is the
        # *identity*, not the spelling — "tent" and "tent:steps=1" are the
        # same job.  Only sweep jobs carry a mitigation axis.
        raw = doc.get("mitigation")
        self.mitigation_raw = []
        self.mitigation = []
        if raw:
            if not isinstance(raw, list):
                raise ValidationError(
                    "mitigation must be a list of spec strings, e.g. "
                    '["tent:steps=2", "augment:augmix"] — see GET '
                    "/v1/mitigations")
            if self.kind != "sweep":
                raise ValidationError("mitigation is only valid for kind "
                                      "'sweep'")
            from repro.cli.run_cmd import _parse_mitigate
            from repro.core.mitigations import (get_mitigation,
                                                mitigation_identity)
            for item in raw:
                try:
                    if isinstance(item, str):
                        name, params = _parse_mitigate(item)
                    elif isinstance(item, dict):   # restart-recovery path:
                        # normalized() emits identity dicts, which recover()
                        # feeds straight back into this constructor.
                        name = item.get("name", "")
                        params = dict(item.get("params", {}))
                    else:
                        raise ValueError(f"mitigation entries must be spec "
                                         f"strings, got {item!r}")
                    spec = get_mitigation(name)
                    if self.task not in spec.tasks:
                        raise ValueError(
                            f"mitigation {name!r} does not support task "
                            f"{self.task!r}")
                    identity = mitigation_identity(name, **params)
                except (ValueError, TypeError) as exc:
                    raise ValidationError(str(exc)) from exc
                if identity in self.mitigation:
                    raise ValidationError(f"duplicate mitigation {item!r}")
                self.mitigation_raw.append(item if isinstance(item, str)
                                           else identity["name"])
                self.mitigation.append(identity)

    @staticmethod
    def _int(doc, key, default, *, lo, hi):
        value = doc.get(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{key} must be an integer")
        if not lo <= value <= hi:
            raise ValidationError(f"{key} must be in [{lo}, {hi}], "
                                  f"got {value}")
        return value

    @staticmethod
    def _float(doc, key, default, *, lo, hi):
        value = doc.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{key} must be a number")
        if not lo <= value <= hi:
            raise ValidationError(f"{key} must be in [{lo}, {hi}], "
                                  f"got {value}")
        return float(value)

    @property
    def skip(self) -> set[str]:
        """Noises inapplicable to this architecture (the zoo rule the CLI
        applies: ceil-mode only exists on models with a max-pool)."""
        return set() if self._zoo_spec.has_maxpool else {"ceil_mode"}

    def normalized(self) -> dict:
        """The canonical spec document (defaults filled in, ordered)."""
        return {f: getattr(self, f) for f in self.FIELDS}

    def digest(self) -> str:
        """Stable identity of this spec — the dedup / response-cache key."""
        from repro.core import config_digest
        return config_digest(self.normalized())

    def data_kw(self) -> dict:
        return dict(n=self.n, train_frac=self.train_frac, **_DATA_DEFAULTS)

    def cli_block(self) -> dict:
        """The manifest ``cli`` block, in exactly the shape ``repro run``
        writes — this is what makes ``repro resume <job_id>`` work on a
        job the server never finished."""
        return {"model": self.model, "data": self.data_kw(),
                "fit": {"epochs": self.epochs}, "workers": self.workers,
                "mode": self.mode, "batch_size": self.batch_size,
                "shard_size": self.shard_size, "retries": self.retries,
                "mitigate": list(self.mitigation_raw)}


# ---------------------------------------------------------------------------
# One job
# ---------------------------------------------------------------------------

class Job:
    """One submitted job: id == run id, event log, cancellation flag."""

    def __init__(self, spec: JobSpec, run_id: str, client: str = "?"):
        self.spec = spec
        self.id = run_id
        self.client = client
        self.status = "queued"
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.error: str | None = None
        self.table: str | None = None
        self.cancel = threading.Event()
        self.deadline_hit = False              # set by the deadline watchdog
        self.last_beat = time.time()           # progress heartbeat timestamp
        self.runner_lease = None               # held while a runner executes
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self.push({"event": "job", "status": "queued", "job_id": run_id})

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def push(self, event: dict) -> None:
        """Record an event — and, as a side effect, prove liveness.

        Every ledger entry the runner produces flows through here, so the
        event stream doubles as the runner's heartbeat: the in-memory
        timestamp feeds the hang watchdog and the runner lease's mtime
        (:class:`~repro.core.workqueue.Lease`) makes the same signal
        visible to other processes inspecting the run directory.
        """
        with self._lock:
            self._events.append(event)
            self.last_beat = time.time()
        lease = self.runner_lease
        if lease is not None:
            lease.heartbeat()

    def note(self, event: dict) -> None:
        """Append an event *without* counting it as runner progress —
        for watchdog annotations, which must not reset the hang clock."""
        with self._lock:
            self._events.append(event)

    def events_since(self, index: int) -> list[dict]:
        with self._lock:
            return self._events[index:]


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

class JobManager:
    """Bounded FIFO queue + worker threads + durable run records.

    ``runner`` is injectable for tests: a callable ``runner(job)`` that
    performs the work (raising on failure, raising
    :class:`~repro.core.sweep.SweepCancelled` on cooperative cancellation).
    The default runner drives a real :class:`BenchmarkSession`.
    """

    def __init__(self, store_root, queue_limit: int = 16,
                 job_workers: int = 1, runner=None,
                 job_deadline: float | None = None,
                 hang_timeout: float | None = None):
        from repro.core import RunStore
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if job_workers < 1:
            raise ValueError(f"job_workers must be >= 1, got {job_workers}")
        if job_deadline is not None and job_deadline <= 0:
            raise ValueError(f"job_deadline must be > 0, got {job_deadline}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be > 0, got {hang_timeout}")
        self.store = (store_root if isinstance(store_root, RunStore)
                      else RunStore(store_root))
        self.queue_limit = queue_limit
        self.job_workers = job_workers
        #: Default wall-clock budget for jobs whose spec carries no
        #: ``deadline`` (None = unlimited); enforced by the watchdog via
        #: cooperative cancellation, so the job fails cleanly at a cell
        #: boundary with its ledger intact.
        self.job_deadline = job_deadline
        #: How long a *running* job may go without progress (no new events,
        #: no ledger entries) before the watchdog declares it hung, frees
        #: its worker slot, and marks it terminal (None = never).
        self.hang_timeout = hang_timeout
        self._runner = runner or self._run_job
        self._jobs: dict[str, Job] = {}
        self._by_digest: dict[str, str] = {}
        self._queue: deque[Job] = deque()
        # Re-entrant: cancel_job() and the watchdog both reach _finish()
        # while already holding the condition.
        self._cond = threading.Condition(threading.RLock())
        self._draining = False
        self._threads: list[threading.Thread] = []
        self._watchdog: threading.Thread | None = None
        self._ema_duration = 30.0              # optimistic prior, seconds

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for _ in range(self.job_workers):
            self._spawn_worker()
        if self.job_deadline is not None or self.hang_timeout is not None:
            self._watchdog = threading.Thread(target=self._watchdog_loop,
                                              name="serve-job-watchdog",
                                              daemon=True)
            self._watchdog.start()

    def _spawn_worker(self) -> None:
        t = threading.Thread(target=self._worker_loop,
                             name=f"serve-job-worker-{len(self._threads)}",
                             daemon=True)
        t.start()
        self._threads.append(t)

    def shutdown(self, drain: bool = True, timeout: float | None = None,
                 ) -> list[str]:
        """Stop accepting work; returns the ids of jobs left queued.

        ``drain=True`` (the SIGTERM path) lets *running* jobs finish —
        their ledgers complete and their results land on disk — while
        queued jobs stay untouched run directories, resumable offline.
        ``drain=False`` additionally sets every running job's cancel flag,
        so they stop at the next cell boundary (still ledger-consistent).
        """
        with self._cond:
            self._draining = True
            leftover = [job.id for job in self._queue]
            # Queued jobs are *not* executed during a drain — they stay
            # durable run directories, finishable via `repro resume`.
            self._queue.clear()
            if not drain:
                for job in self._jobs.values():
                    if job.status == "running":
                        job.cancel.set()
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout)
        return leftover

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission ---------------------------------------------------------

    def submit(self, doc: dict, client: str = "?") -> tuple[Job, bool]:
        """Validate + enqueue; returns ``(job, created)``.

        ``created`` is False when the digest dedup'd onto an existing
        queued/running/completed job.  A terminal-failed duplicate is
        *resubmitted*: a fresh Job over the same run directory, so the
        retry resumes from the ledger instead of starting over.  Pass
        ``"fresh": true`` in the document to bypass dedup entirely.
        """
        if not isinstance(doc, dict):
            raise ValidationError("job spec must be a JSON object")
        doc = dict(doc)
        fresh = bool(doc.pop("fresh", False))
        spec = JobSpec(doc)
        digest = spec.digest()
        with self._cond:
            if self._draining:
                raise Draining("server is draining; resubmit elsewhere "
                               "or later")
            if not fresh:
                existing = self._jobs.get(self._by_digest.get(digest, ""))
                if existing is not None:
                    if existing.status in ("queued", "running", "completed"):
                        return existing, False
                    # Terminal failure: resume the same run directory.
                    job = Job(spec, existing.id, client)
                    self._jobs[job.id] = job
                    self._by_digest[digest] = job.id
                    self._enqueue(job)
                    return job, True
            if len(self._queue) >= self.queue_limit:
                raise QueueFull(self._retry_after())
            run_id = self.store.new_run_id()
            self._create_run_dir(spec, run_id, client)
            job = Job(spec, run_id, client)
            self._jobs[job.id] = job
            self._by_digest[digest] = job.id
            self._enqueue(job)
            return job, True

    def _enqueue(self, job: Job) -> None:
        self._queue.append(job)
        self._cond.notify()

    def _retry_after(self) -> float:
        """Honest 429 backoff: roughly one job's duration, floored at 1s
        (the queue drains one EMA-duration per worker slot)."""
        return max(1.0, self._ema_duration / self.job_workers)

    def _create_run_dir(self, spec: JobSpec, run_id: str,
                        client: str) -> None:
        """Write the durable job record — a run directory whose manifest
        matches byte-for-byte what the worker's session will build, so the
        worker (and ``repro resume``) re-open it instead of erroring on
        identity mismatch."""
        from repro.core import get_task, run_manifest
        manifest = run_manifest(
            task=spec.task, model=spec.model, seed=spec.seed,
            noises=spec.noises, skip=spec.skip,
            include_combined=spec.include_combined,
            metric=get_task(spec.task).metric_name,
            eval_geometry={"batch_size": spec.batch_size,
                           "shard_size": spec.shard_size},
            mitigations=list(spec.mitigation),
            data=spec.data_kw(), cli=spec.cli_block(),
            serve={"spec": spec.normalized(), "digest": spec.digest(),
                   "submitted": time.time(), "client": client})
        self.store.create(manifest, run_id)

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.submitted)

    def queue_depth(self) -> int:
        """Jobs admitted but not yet picked up by a worker (healthz view)."""
        with self._cond:
            return len(self._queue)

    def ledger(self, job_id: str):
        """A fresh replay of the job's ledger (None when unknown)."""
        if job_id not in self.store:
            return None
        return self.store.open(job_id)

    def job_doc(self, job: Job) -> dict:
        """The job's status document — live fields plus ledger-replay
        counts, so the numbers are correct even mid-run or post-restart."""
        doc = {"id": job.id, "kind": job.spec.kind, "status": job.status,
               "spec": json_safe(job.spec.normalized()),
               "client": job.client, "submitted": job.submitted,
               "started": job.started, "finished": job.finished,
               "error": job.error}
        ledger = self.ledger(job.id)
        if ledger is not None:
            from repro.core import run_info
            info = run_info(ledger)
            doc["progress"] = {k: info[k] for k in
                               ("ok", "error", "expected", "entries",
                                "shards")}
        return doc

    def cancel_job(self, job_id: str) -> Job | None:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.cancel.set()
            if job.status == "queued" and job in self._queue:
                self._queue.remove(job)
                self._finish(job, "cancelled")
        return job

    # -- restart recovery ---------------------------------------------------

    def recover(self, resume: bool = False) -> list[Job]:
        """Re-register serve-submitted runs found in the store.

        Status comes from ``result.json`` (completed) or ledger replay —
        an empty ledger is a job the dead server never started (recovered
        as ``queued`` and, with ``resume=True``, re-enqueued), a partial
        one is ``interrupted`` (re-enqueued too when resuming: the session
        skips ledger-complete cells).
        """
        recovered = []
        for run_id in self.store.runs():
            if run_id in self._jobs:
                continue
            manifest = self.store.read_manifest(run_id)
            serve_meta = manifest.get("serve")
            if not serve_meta:
                continue                       # not a serve-submitted run
            try:
                spec = JobSpec(serve_meta["spec"])
            except (ValidationError, KeyError, TypeError) as exc:
                logger.warning("run %s: unrecoverable serve spec (%s)",
                               run_id, exc)
                continue
            job = Job(spec, run_id, serve_meta.get("client", "?"))
            job.submitted = serve_meta.get("submitted", job.submitted)
            result = self._read_result(run_id)
            if result is not None:
                job.status = "completed"
                job.finished = result.get("finished")
                job.table = result.get("table")
            else:
                from repro.core import run_info
                info = run_info(self.store.open(run_id))
                job.status = ("queued" if info["entries"] == 0
                              else "interrupted")
            with self._cond:
                self._jobs[job.id] = job
                self._by_digest.setdefault(spec.digest(), job.id)
                if resume and job.status in ("queued", "interrupted"):
                    job.status = "queued"
                    self._enqueue(job)
            recovered.append(job)
        return recovered

    def _read_result(self, run_id: str) -> dict | None:
        path = self.store.root / run_id / RESULT_FILE
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            logger.warning("run %s: unreadable %s (%s)", run_id,
                           RESULT_FILE, exc)
            return None

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._draining:
                    self._cond.wait()
                if not self._queue:            # draining and nothing left
                    return
                job = self._queue.popleft()
            self._execute(job)

    def _execute(self, job: Job) -> None:
        from repro.core import SweepCancelled
        job.status = "running"
        job.started = time.time()
        job.last_beat = job.started
        job.runner_lease = self._claim_runner_lease(job)
        job.push({"event": "job", "status": "running"})
        try:
            self._runner(job)
        except SweepCancelled:
            if job.deadline_hit:
                deadline = (job.spec.deadline if job.spec.deadline is not None
                            else self.job_deadline)
                self._finish(job, "failed",
                             error=f"deadline of {deadline:g}s exceeded")
            else:
                status = ("cancelled" if job.cancel.is_set()
                          else "interrupted")
                self._finish(job, status)
        except Exception as exc:               # noqa: BLE001 — isolate job
            logger.exception("job %s failed", job.id)
            self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            # A job the watchdog already declared hung stays hung even if
            # its runner eventually limps home — its result was never
            # delivered on time and a replacement slot is already working.
            if self._finish(job, "completed"):
                self._write_result(job)
                duration = job.finished - job.started
                self._ema_duration += 0.3 * (duration - self._ema_duration)
                self._prune_run(job.id)
        finally:
            lease, job.runner_lease = job.runner_lease, None
            if lease is not None:
                lease.release()

    def _claim_runner_lease(self, job: Job):
        """A manually-heartbeated lease marking this job's live runner.

        The lease file (``<run_dir>/leases/runner.lease``) is refreshed on
        every event the runner produces — its mtime is the job's *progress*
        clock, readable by the in-process watchdog and by any outside
        process inspecting the run directory alike.
        """
        if self.hang_timeout is None:
            return None
        from repro.core import WorkQueue
        try:
            wq = WorkQueue(self.store.root / job.id,
                           owner=f"serve:{os.getpid()}",
                           ttl=self.hang_timeout)
            return wq.try_claim("runner", auto_heartbeat=False)
        except OSError as exc:                 # pragma: no cover — disk woes
            logger.warning("job %s: could not claim runner lease (%s)",
                           job.id, exc)
            return None

    def _watchdog_loop(self) -> None:
        bounds = [t for t in (self.job_deadline, self.hang_timeout)
                  if t is not None]
        interval = max(0.05, min(1.0, min(bounds) / 4.0))
        while True:
            time.sleep(interval)
            now = time.time()
            for job in self.jobs():
                if job.status != "running":
                    continue
                deadline = (job.spec.deadline if job.spec.deadline is not None
                            else self.job_deadline)
                if (deadline is not None and job.started is not None
                        and now - job.started > deadline
                        and not job.deadline_hit):
                    job.deadline_hit = True
                    job.cancel.set()
                    job.note({"event": "job", "status": "running",
                              "note": f"deadline of {deadline:g}s exceeded; "
                                      f"cancelling at next cell boundary"})
                    logger.warning("job %s: deadline of %gs exceeded; "
                                   "cancelling", job.id, deadline)
                if self.hang_timeout is None:
                    continue
                age = now - job.last_beat
                lease = job.runner_lease
                if lease is not None:
                    try:
                        age = now - lease.path.stat().st_mtime
                    except OSError:
                        pass
                if age > self.hang_timeout:
                    job.cancel.set()           # if it ever wakes, stop it
                    if self._finish(job, "hung",
                                    error=f"no progress for {age:.1f}s "
                                          f"(hang timeout "
                                          f"{self.hang_timeout:g}s)"):
                        logger.error("job %s declared hung (no progress "
                                     "for %.1fs); freeing its worker slot",
                                     job.id, age)
                        with self._cond:
                            # The stuck thread's slot is lost until it
                            # wakes; keep serving at full width meanwhile.
                            self._spawn_worker()

    def _finish(self, job: Job, status: str, error: str | None = None,
                ) -> bool:
        """Transition to a terminal status; False when already terminal
        (the watchdog got there first — its verdict stands).  The
        check-and-set is atomic: worker and watchdog race to finish a job
        exactly once."""
        with self._cond:
            if job.terminal:
                return False
            job.status = status
            job.error = error
            job.finished = time.time()
        event = {"event": "job", "status": status}
        if error:
            event["error"] = error
        job.note(event)
        return True

    def _prune_run(self, run_id: str) -> None:
        """Retire dead lease state once a job completes (best-effort).

        Every cell of a completed job is terminal, so tombstones and
        ``.attempts`` sidecars are pure debris (claims re-check the ledger
        before the attempt budget) — and a long-lived server would
        otherwise accumulate them forever.  Only *completed* jobs are
        pruned: a cancelled or interrupted job may be resumed, and its
        attempt history still gates poison quarantine.
        """
        from repro.core import WorkQueue
        try:
            WorkQueue(self.store.root / run_id).prune()
        except Exception:                      # noqa: BLE001 — housekeeping
            logger.debug("job %s: lease prune failed", run_id, exc_info=True)

    def _write_result(self, job: Job) -> None:
        """Persist the completed job's response (atomic), so a restarted
        server answers from disk without recomputing anything."""
        doc = {"status": job.status, "table": job.table,
               "finished": job.finished,
               "spec": job.spec.normalized(), "digest": job.spec.digest()}
        path = self.store.root / job.id / RESULT_FILE
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(doc, indent=2, default=repr) + "\n")
            os.replace(tmp, path)
        except OSError as exc:
            logger.warning("job %s: could not persist %s (%s); restart "
                           "will re-derive status from the ledger",
                           job.id, RESULT_FILE, exc)

    # -- the default runner: a real BenchmarkSession ------------------------

    def _build_session(self, spec: JobSpec, run_id: str):
        from repro.core import BenchmarkSession
        session = (BenchmarkSession()
                   .task(spec.task)
                   .seed(spec.seed)
                   .workers(spec.workers, mode=spec.mode)
                   .batch(spec.batch_size)
                   .shards(spec.shard_size)
                   .retries(spec.retries)
                   .model(spec.model)
                   .data(**spec.data_kw())
                   .noises(*spec.noises)
                   .skip(*spec.skip)
                   .combined(spec.include_combined))
        for mit in spec.mitigation:
            # Re-resolving the identity through .mitigate() keeps one code
            # path; the params are already registry-validated, so the
            # session derives byte-identical identities (and therefore the
            # same manifest the submit-time run directory recorded).
            session.mitigate(mit["name"], **mit["params"])
        session.store(self.store, run_id=run_id, data=spec.data_kw(),
                      cli=spec.cli_block())
        return session

    def _run_job(self, job: Job) -> None:
        from repro.core import ledger_table, render_curve, render_interaction

        spec = job.spec
        session = self._build_session(spec, job.id)
        session.cancel(job.cancel.is_set)
        ledger = session.ledger                # re-opens the submit-time dir
        # Replay first, subscribe second: nothing appends until run(), so a
        # resumed job's clients see the restored cells before the new ones.
        for entry in ledger.entries():
            job.push(entry_event(entry))
        listener = lambda entry: job.push(entry_event(entry))  # noqa: E731
        ledger.subscribe(listener)
        try:
            session.fit_or_load(
                epochs=spec.epochs,
                log=lambda msg: job.push({"event": "log", "message": msg}))
            if spec.kind == "sweep":
                session.run()
                job.table = ledger_table(ledger)
            elif spec.kind == "worst_case":
                curve = session.worst_case()
                job.table = render_curve(curve,
                                         session.adapter.metric_name)
            else:                              # interaction
                from repro.core import (TRAIN_CONFIG, combined_config,
                                        pairwise_interaction)
                noises = [n for n in spec.noises if n not in spec.skip]
                configs = ([TRAIN_CONFIG]
                           + [combined_config([n]) for n in noises]
                           + [combined_config([a, b])
                              for i, a in enumerate(noises)
                              for b in noises[i + 1:]])
                session.engine().map(session.evaluate, configs)
                matrix = pairwise_interaction(
                    lambda m, d, cfg: session.evaluate(cfg),
                    session.trained_model, session.eval_data, noises)
                job.table = render_interaction(
                    matrix, session.adapter.metric_name)
        finally:
            ledger.unsubscribe(listener)
