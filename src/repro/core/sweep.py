"""The parallel sweep engine: fan noise variants out, share every baseline.

A SysNoise sweep is embarrassingly parallel — every deployment variant is an
independent evaluation of the same trained model on the same dataset — yet
the seed implementation ran them strictly serially and re-evaluated the
clean baseline for every table row.  :class:`SweepEngine` fixes both:

* **Fan-out** — variant evaluations are dispatched over a
  ``concurrent.futures.ThreadPoolExecutor`` when ``workers`` is set (the
  heavy work is NumPy, which releases the GIL for its inner loops), or —
  with ``mode="process"`` — over a ``ProcessPoolExecutor`` that sidesteps
  the GIL entirely: workers receive the ``(evaluate, model, dataset)``
  payload once via the pool initializer and the decoded clean pixel batch
  through POSIX shared memory, so neither the dataset nor its baseline
  decode is copied or replayed per worker.  The requested width is capped
  at the cores *available to the process* (affinity/cgroup aware, see
  :func:`available_cores`) and the effective width is logged.  The default
  ``workers=None`` keeps the exact serial order, so determinism-sensitive
  callers see no change.  Results are always assembled in variant order
  regardless of completion order, so parallel, process-parallel, and
  serial sweeps produce identical output.

* **Shared baselines** — every metric is memoised in a
  :class:`~repro.core.cache.EvalCache` keyed per
  ``(model, dataset, NoiseConfig)``, so the clean ``TRAIN_CONFIG``
  evaluation happens once per (model, dataset, seed) and is reused by
  :meth:`SweepEngine.sweep_noise`, every :meth:`SweepEngine.noise_row`, and
  :meth:`SweepEngine.worst_case_curve` instead of being recomputed per row.

* **Fault isolation** — a raising ``evaluate()`` (or a crashed process-pool
  worker) no longer aborts the sweep: the failing cell is retried up to the
  engine's ``retries`` budget, then recorded as a *structured failure* (a
  ``NaN`` value plus the exception text in :attr:`NoiseResult.errors`) while
  every surviving variant still lands in the row.  Failed cells render as
  ``!`` in :mod:`repro.core.report`.

* **Crash-safe persistence** — attach a
  :class:`~repro.core.runstore.RunLedger` and every completed evaluation is
  appended to the on-disk JSONL ledger as it finishes; ledger-complete
  cells are skipped on re-runs, which is what makes an interrupted sweep
  resumable to a bit-identical table.

* **Shard granularity** — construct the engine with ``shard_size`` (plus
  the ``task`` name) and every cell streams through the task adapter's
  shard pipeline: peak memory is bounded by one shard instead of the
  dataset, process mode schedules ``(variant × shard)`` work items whose
  partial :class:`~repro.core.metrics.MetricAccumulator` states merge in
  the parent, and the ledger records per-*shard* entries so a crash
  mid-dataset resumes at shard granularity.  Shard bounds are aligned to
  the adapter's inference minibatch size, which is what keeps sharded
  results bit-identical to the monolithic path (see
  :mod:`repro.core.datapipe`).

``SweepEngine()`` is serial; construct it with ``workers=...`` (or drive a
:class:`~repro.core.session.BenchmarkSession` with ``.workers(n)``) to
parallelise, and reuse one engine to share its cache across calls.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from ..backend.parallel import (available_cores, pin_blas_threads,
                                retain_heap)
from .cache import (DecodeCache, EvalCache, dataset_token, eval_key,
                    streams_digest)
from .faults import fault_point
from .noise import NoiseConfig, TRAIN_CONFIG
from .registry import combined_config, get_noise, worst_case_stack

__all__ = ["NoiseResult", "SweepEngine", "SweepCancelled", "available_cores"]

logger = logging.getLogger(__name__)


class SweepCancelled(RuntimeError):
    """Raised between cells when the engine's ``should_stop`` hook fires.

    Cancellation is *cooperative and cell-granular*: the check runs before
    each evaluation (and before each process round), never inside one, so
    every entry already in the run ledger is complete and the interrupted
    run resumes exactly like a crashed one — via ledger replay.  This is
    what lets a serving layer cancel a queued-behind job or drain on
    SIGTERM without torn state.
    """


def _err_str(exc: BaseException | None) -> str:
    """Ledger/row representation of an exception."""
    if exc is None:
        return "unknown failure"
    text = str(exc)
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


@dataclass
class NoiseResult:
    """Δmetric statistics for one noise type on one model.

    Variants whose evaluation failed hold ``NaN`` in :attr:`values` and an
    exception string in :attr:`errors` (keyed by variant index); the Δ
    statistics are computed over the *surviving* variants only, so one bad
    cell degrades the row instead of poisoning it.
    """

    noise: str
    baseline: float
    values: list[float] = field(default_factory=list)   # metric per variant
    errors: dict[int, str] = field(default_factory=dict)  # idx -> exception

    @property
    def deltas(self) -> list[float]:
        return [self.baseline - v for v in self.values]

    def _ok_deltas(self) -> list[float]:
        return [self.baseline - v for i, v in enumerate(self.values)
                if i not in self.errors and not np.isnan(v)]

    @property
    def n_failed(self) -> int:
        return len(self.errors)

    @property
    def all_failed(self) -> bool:
        """True when there are variants but none survived evaluation."""
        return bool(self.values) and not self._ok_deltas()

    @property
    def mean_delta(self) -> float:
        ok = self._ok_deltas()
        return float(np.mean(ok)) if ok else float("nan")

    @property
    def max_delta(self) -> float:
        ok = self._ok_deltas()
        return float(np.max(ok)) if ok else float("nan")


class SweepEngine:
    """Evaluates deployment-variant configs in parallel with shared caching.

    ``evaluate(model, ds, cfg) -> metric`` is any task evaluator, e.g. a
    bound :meth:`~repro.core.tasks.TaskAdapter.evaluate`.  The engine never
    mutates the model: evaluators already work on deployment copies, so
    concurrent variants are independent.

    ``retries`` is the per-cell retry budget: a raising evaluation (or a
    crashed process-pool batch) is re-attempted that many extra times before
    being recorded as a structured failure.  ``ledger`` (a
    :class:`~repro.core.runstore.RunLedger`) makes the engine crash-safe:
    completed cells are appended to the on-disk ledger as they finish and
    skipped on re-runs; ``model_key`` is the stable model identity used in
    ledger keys (defaults to the model's class name).

    **Shard-mode contract**: with ``shard_size`` + ``task`` set, cells for
    shardable datasets are evaluated through the *task adapter's* streaming
    protocol (``evaluate_partials``, honouring ``batch_size`` and
    ``pipeline_cache``) — the caller-supplied ``evaluate`` callable is kept
    only for unshardable datasets and thread-fallback paths.  Custom
    evaluation logic baked into the callable (wrapper metrics, non-default
    adapter kwargs such as a detection score threshold) does not reach the
    sharded path; drive such evaluations with ``shard_size=None``.
    """

    def __init__(self, workers: int | None = None,
                 eval_cache: EvalCache | None = None, mode: str = "thread",
                 retries: int = 0, ledger=None,
                 model_key: str | None = None,
                 shard_size: int | None = None, task: str | None = None,
                 batch_size: int | None = None, pipeline_cache=None,
                 should_stop=None, lease_ttl: float = 30.0,
                 max_claims: int = 3, mitigation: dict | None = None):
        if mode not in ("thread", "process", "shared"):
            raise ValueError(f"mode must be 'thread', 'process' or "
                             f"'shared', got {mode!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_claims < 1:
            raise ValueError(f"max_claims must be >= 1, got {max_claims}")
        self.workers = workers
        self.mode = mode
        self.retries = retries
        self.ledger = ledger
        self.model_key = model_key
        #: Shard streaming: with ``shard_size`` and a registered ``task``,
        #: cells evaluate through the adapter's shard pipeline (bounded
        #: memory, per-shard ledger entries, (variant × shard) process
        #: scheduling).  ``pipeline_cache`` memoises the calibration slice
        #: and deployment-model copies; decoded data chunks are cached only
        #: in a shared sweep's one-shard scratch (see :meth:`_shared_map`)
        #: and by process-mode workers.
        self.shard_size = shard_size
        self.task = task
        self.batch_size = batch_size
        self.pipeline_cache = pipeline_cache
        #: Zero-arg callable polled between cells; returning True raises
        #: :class:`SweepCancelled` at the next cell boundary.
        self.should_stop = should_stop
        #: ``mode="shared"``: multiple *processes* sharing one run directory
        #: divide (variant × shard) cells via filesystem leases — see
        #: :mod:`repro.core.workqueue` and ``docs/faults.md``.  ``lease_ttl``
        #: is how long a silent worker keeps its claims; ``max_claims`` is
        #: the per-cell claim budget before the cell is quarantined as
        #: failed-poisoned.
        self.lease_ttl = float(lease_ttl)
        self.max_claims = max_claims
        #: Mitigation identity dict (``{"name": ..., "params": {...}}``) or
        #: None.  It folds into both the cache key and the ledger key — a
        #: mitigated sweep never splices cells with an unmitigated one — and
        #: when the mitigation is *test-time* it also reroutes shard
        #: evaluation through :func:`repro.core.mitigations.mitigation_partials`
        #: (train-time mitigations change the model, not the eval loop).
        self.mitigation = mitigation
        if mitigation is None:
            self._test_mitigation = None
        else:
            from .mitigations import mitigation_stage
            stage = mitigation_stage(mitigation)
            self._test_mitigation = mitigation if stage == "test" else None
        self._workqueue = None
        self._ledger_writes_failed = False
        self.eval_cache = eval_cache if eval_cache is not None else EvalCache()

    def _check_cancelled(self) -> None:
        if self.should_stop is not None and self.should_stop():
            raise SweepCancelled("sweep cancelled by should_stop hook")

    # -- scheduling ---------------------------------------------------------

    @property
    def effective_workers(self) -> int:
        """``workers`` capped at the cores available to this process.

        A pool wider than the hardware only adds contention (and on a
        single-core host any pool is pure overhead), so the requested width
        is a ceiling, not a promise.  The cap respects scheduler affinity /
        cgroup limits via :func:`available_cores`, not the raw machine core
        count.
        """
        if not self.workers:
            return 1
        return max(1, min(self.workers, available_cores()))

    def map(self, fn, items: list) -> list:
        """``[fn(x) for x in items]``, fanned out when workers are enabled.

        Output order always matches ``items`` order.
        """
        workers = self.effective_workers
        if workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        logger.info("sweep fan-out: %d workers requested, %d effective "
                    "(cores available: %d, mode=thread)",
                    self.workers, workers, available_cores())
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    # -- one cell: cache -> ledger -> compute (with retry budget) -----------

    def _cache_key(self, model, ds, cfg):
        try:
            base = eval_key(model, ds, cfg)
        except TypeError:
            return None
        if self.mitigation is None:
            return base
        from .runstore import config_digest
        return (base, "mitigation", config_digest(self.mitigation))

    def _ledger_key(self, model, ds, cfg) -> tuple | None:
        if self.ledger is None:
            return None
        token = dataset_token(ds)
        if not isinstance(token, str):
            # No content digest (dataset without encoded ``streams``): the
            # fallback identity token is a per-process counter, so a resumed
            # process could collide with a *different* dataset's entries.
            # No stable identity -> no ledger for this dataset.
            return None
        from .mitigations import mitigated_digest
        model_key = self.model_key or type(model).__name__
        return (model_key, token, mitigated_digest(cfg, self.mitigation))

    def _ledger_hit(self, lkey) -> float | None:
        if lkey is None:
            return None
        entry = self.ledger.lookup(*lkey)
        return None if entry is None else float(entry["value"])

    def _ledger_record(self, lkey, **entry) -> None:
        """Best-effort ledger append: persistence failures (full disk,
        deleted run dir) must not abort a sweep the fault-isolation
        machinery exists to protect — the sweep degrades to unledgered.
        Writes are disabled after the first failure (the run can no longer
        be resumed past this point, which the warning says once)."""
        if lkey is None or self._ledger_writes_failed:
            return
        try:
            self.ledger.record_eval(*lkey, **entry)
        except Exception as exc:               # noqa: BLE001 — I/O errors
            self._ledger_writes_failed = True
            logger.warning("run ledger write failed (%s); continuing "
                           "without persistence — this run cannot be "
                           "resumed past the entries already on disk", exc)

    def _ledger_backfill(self, lkey, value: float, cfg: NoiseConfig,
                         noise: str | None) -> None:
        """Persist a cache-hit cell that the ledger has not seen yet."""
        if lkey is not None and self.ledger.lookup(*lkey) is None:
            self._ledger_record(lkey, status="ok", value=value,
                                noise=noise, label=cfg.describe(),
                                attempts=1)

    # -- shard streaming -----------------------------------------------------

    def _shard_plan(self, ds):
        """``(adapter, bounds)`` when this engine shards ``ds``, else None.

        Bounds are aligned to the adapter's inference minibatch size so each
        shard, evaluated in isolation, cuts its batches at the same global
        offsets the monolithic path does (the bit-exactness contract).
        """
        if self.shard_size is None or self.task is None:
            return None
        try:
            n = len(ds)
        except TypeError:
            return None
        if n <= 0:
            return None
        from .datapipe import DataShards, supports_sharding
        if not supports_sharding(ds):
            return None
        from .tasks import get_task
        adapter = get_task(self.task)
        shards = DataShards(ds, self.shard_size,
                            align=adapter.stream_align(self.batch_size))
        return adapter, shards.bounds

    def _ledger_shard_hit(self, lkey, start: int, stop: int) -> dict | None:
        """The ledgered accumulator state for one shard, or None."""
        if lkey is None:
            return None
        entry = self.ledger.lookup_shard(*lkey, start, stop)
        return None if entry is None else entry["state"]

    def _ledger_shard_record(self, lkey, start: int, stop: int, state: dict,
                             noise: str | None, cfg: NoiseConfig) -> None:
        """Best-effort per-shard ledger append (same degradation contract
        as :meth:`_ledger_record`)."""
        if lkey is None or self._ledger_writes_failed:
            return
        try:
            self.ledger.record_shard(*lkey, start=start, stop=stop,
                                     state=state, noise=noise,
                                     label=cfg.describe())
        except Exception as exc:               # noqa: BLE001 — I/O errors
            self._ledger_writes_failed = True
            logger.warning("run ledger write failed (%s); continuing "
                           "without persistence — this run cannot be "
                           "resumed past the entries already on disk", exc)

    def _partials(self, adapter, model, ds, cfg: NoiseConfig, bounds,
                  chunk_cache: DecodeCache | None = None):
        """Shard partials, routed through the test-time mitigation when set.

        Test-time mitigations adapt per inference batch and batches are cut
        at global offsets, so the results are identical for any shard split
        at fixed batch geometry — serial, process and shared sweeps of the
        same mitigated cell stay bit-identical.  ``chunk_cache`` memoises
        decoded chunks (decode is per image, so a cached chunk is the same
        bits).
        """
        if self._test_mitigation is not None:
            from .mitigations import mitigation_partials
            return mitigation_partials(
                self._test_mitigation, adapter, model, ds, cfg, bounds,
                cache=self.pipeline_cache, batch_size=self.batch_size,
                chunk_cache=chunk_cache)
        return adapter.evaluate_partials(model, ds, cfg, bounds,
                                         cache=self.pipeline_cache,
                                         batch_size=self.batch_size,
                                         chunk_cache=chunk_cache)

    def _compute_sharded(self, plan, model, ds, cfg: NoiseConfig,
                         noise: str | None, lkey) -> float:
        """One cell through the shard pipeline, shard-granular resume.

        Ledger-complete shards are restored from their accumulator states;
        only the missing shards are re-executed (and ledgered as they
        finish), so a crash mid-dataset costs at most one shard.  Merge
        order is irrelevant — accumulators key their partials by global
        item index (or sum exact integer counts).
        """
        adapter, bounds = plan
        acc = adapter.accumulator(ds)
        missing: list[tuple[int, int]] = []
        for start, stop in bounds:
            state = self._ledger_shard_hit(lkey, start, stop)
            if state is not None:
                acc.merge(adapter.accumulator(ds).load_state(state))
            else:
                missing.append((start, stop))
        if missing:                # fully restored cells skip model prep too
            for start, stop, part in self._partials(adapter, model, ds, cfg,
                                                    missing):
                self._ledger_shard_record(lkey, start, stop, part.state(),
                                          noise, cfg)
                acc.merge(part)
        return acc.value()

    def _eval_one(self, evaluate, model, ds, cfg: NoiseConfig,
                  noise: str | None = None) -> tuple[float, Exception | None]:
        """One cell -> ``(value, error)``; never raises.

        Order of authority: in-memory eval cache, then the run ledger
        (completed cells from an interrupted run), then computation with the
        retry budget.  Outcomes — successes *and* final failures — are
        appended to the ledger before returning, which is the crash-safety
        contract: a SIGKILL immediately after this call loses nothing.

        The one exception that *does* propagate is :class:`SweepCancelled`
        (raised before any work when the engine's ``should_stop`` hook
        fires) — cancellation is a caller decision, not a cell failure.
        """
        self._check_cancelled()
        key = self._cache_key(model, ds, cfg)
        lkey = self._ledger_key(model, ds, cfg)
        if key is not None:
            hit = self.eval_cache.get(key)
            if hit is not None:
                # A value cached before the store was attached still honours
                # the "every completed evaluation is on disk" contract.
                self._ledger_backfill(lkey, hit, cfg, noise)
                return hit, None
        hit = self._ledger_hit(lkey)
        if hit is not None:
            if key is not None:
                self.eval_cache.put(key, hit)
            return hit, None
        if self.mode == "shared" and lkey is not None:
            # Route even single cells (the baseline above all) through the
            # shared claim protocol, so N workers racing to start a run
            # compute the baseline exactly once between them.
            out = self._shared_map(evaluate, model, ds, [cfg], [noise])
            if out is not None:
                values, errors = out
                if 0 in errors:
                    return float("nan"), RuntimeError(errors[0])
                if key is not None:
                    self.eval_cache.put(key, values[0])
                return values[0], None
        plan = self._shard_plan(ds)
        last: Exception | None = None
        for attempt in range(1, self.retries + 2):
            try:
                if plan is not None:
                    # Shard streaming: ledgered shards are skipped inside,
                    # so a retry after a partial failure re-executes only
                    # the shards that never completed.
                    value = float(self._compute_sharded(plan, model, ds,
                                                        cfg, noise, lkey))
                else:
                    value = float(evaluate(model, ds, cfg))
            except Exception as exc:           # noqa: BLE001 — isolate cell
                last = exc
                logger.warning(
                    "evaluation failed (attempt %d/%d, %s): %s",
                    attempt, self.retries + 1, cfg.describe(), exc)
                continue
            if key is not None:
                self.eval_cache.put(key, value)
            self._ledger_record(lkey, status="ok", value=value,
                                noise=noise, label=cfg.describe(),
                                attempts=attempt)
            return value, None
        self._ledger_record(lkey, status="error", error=_err_str(last),
                            noise=noise, label=cfg.describe(),
                            attempts=self.retries + 1)
        return float("nan"), last

    def evaluate(self, evaluate, model, ds, cfg: NoiseConfig,
                 noise: str | None = None) -> float:
        """One (model, dataset, config) metric through cache + ledger.

        Unlike the batch sweep paths this is *strict*: a final failure
        re-raises the original exception (after recording it), because a
        single-cell caller has no row for the failure to be isolated into.
        """
        value, error = self._eval_one(evaluate, model, ds, cfg, noise=noise)
        if error is not None:
            raise error
        return value

    def baseline(self, evaluate, model, ds) -> float:
        """The memoised clean-config metric for this (model, dataset).

        A failing *baseline* is fatal (strict): without it no Δ in the row
        is computable, so there is nothing to isolate.
        """
        return self.evaluate(evaluate, model, ds, TRAIN_CONFIG,
                             noise="baseline")

    def _map_configs(self, evaluate, model, ds, cfgs: list[NoiseConfig],
                     noise_names: list[str | None] | None = None,
                     ) -> tuple[list[float], dict[int, str]]:
        """Evaluate ``cfgs`` with per-cell fault isolation.

        Returns ``(values, errors)``: values aligned with ``cfgs`` (``NaN``
        where evaluation ultimately failed) and ``errors`` mapping failed
        indices to exception strings.
        """
        names = noise_names or [None] * len(cfgs)
        if self.mode == "shared":
            out = self._shared_map(evaluate, model, ds, cfgs, names)
            if out is not None:
                return out
        if self.mode == "process" and self.effective_workers > 1:
            plan = self._shard_plan(ds)
            out = (self._process_map_sharded(plan, evaluate, model, ds,
                                             cfgs, names)
                   if plan is not None and len(plan[1]) > 1
                   else self._process_map(evaluate, model, ds, cfgs, names))
            if out is not None:
                return out
        results = self.map(
            lambda job: self._eval_one(evaluate, model, ds, job[1],
                                       noise=names[job[0]]),
            list(enumerate(cfgs)))
        values = [value for value, _ in results]
        errors = {i: _err_str(error)
                  for i, (_, error) in enumerate(results)
                  if error is not None}
        return values, errors

    # -- shared-run fan-out (lease-coordinated worker processes) ------------

    def _shared_queue(self):
        """The lease queue over this engine's run directory (lazy)."""
        if self._workqueue is None:
            from .workqueue import WorkQueue
            self._workqueue = WorkQueue(self.ledger.path,
                                        ttl=self.lease_ttl,
                                        max_attempts=self.max_claims)
        return self._workqueue

    @staticmethod
    def _cell_tag(lkey) -> str:
        """Short stable lease-item prefix for one (model, dataset, cfg)."""
        import hashlib
        return hashlib.sha256(repr(lkey).encode("utf-8")).hexdigest()[:16]

    def _shared_map(self, evaluate, model, ds, cfgs: list[NoiseConfig],
                    names: list[str | None],
                    ) -> tuple[list[float], dict[int, str]] | None:
        """Divide ``cfgs`` among the processes sharing this run directory.

        Every cell resolves through the ledger: a worker either claims the
        cell (a lease file, see :mod:`repro.core.workqueue`), computes it
        and appends the entry, or watches a peer's entry arrive via
        :meth:`~repro.core.runstore.RunLedger.refresh`.  Either way all
        workers converge on the identical (values, errors) row — the table
        a shared run renders is byte-identical to the serial one because
        the *data* that reaches it is identical.

        Sharded datasets are claimed **shard-major**: for each shard bound
        the worker tries every unresolved cell's ``shard-*`` claim, then
        moves to the next bound, and the ``eval-*`` merges come after all
        shards.  Each shard pass shares one decode scratch sized to the
        row's distinct decoders plus the shard's Huffman coefficients, so a
        worker decodes each (shard, decoder) once per pass instead of once
        per cell, and Huffman-decodes each shard once for all its decoders.
        The scratch dies with its pass, which keeps memory O(shard): a
        session-wide chunk cache would hold every decoded shard of the
        dataset.

        Returns None — falling back to the local path — when no ledger is
        attached or any cell has no stable ledger identity (without a
        shared ledger there is nothing to coordinate through).
        """
        if self.ledger is None:
            return None
        lkeys = [self._ledger_key(model, ds, cfg) for cfg in cfgs]
        if any(k is None for k in lkeys):
            return None
        wq = self._shared_queue()
        plan = self._shard_plan(ds)
        decoders = len({cfg.decoder for cfg in cfgs})
        n = len(cfgs)
        values: list[float] = [float("nan")] * n
        errors: dict[int, str] = {}
        unresolved = set(range(n))
        poll = 0.05
        while unresolved:
            self._check_cancelled()
            if self._ledger_writes_failed:
                # We can no longer publish results, so we can no longer
                # coordinate: degrade to the local path (already-resolved
                # cells stay warm in the eval cache).  Peers whose writes
                # still work will reclaim our leases and finish the rest.
                logger.warning("shared mode degraded: ledger writes failed; "
                               "computing remaining cells locally")
                return None
            self.ledger.refresh()
            progressed = False
            for i in sorted(unresolved):
                out = self.ledger.outcome(*lkeys[i])
                if out is None:
                    continue
                if out.get("status") == "ok":
                    values[i] = float(out["value"])
                    key = self._cache_key(model, ds, cfgs[i])
                    if key is not None:
                        self.eval_cache.put(key, values[i])
                else:
                    errors[i] = str(out.get("error", "unknown failure"))
                unresolved.discard(i)
                progressed = True
            pending = sorted(unresolved)
            for bound in (plan[1] if plan is not None else ()):
                scratch = DecodeCache(maxsize=decoders + 1)
                for i in pending:
                    if self._shared_cell(wq, evaluate, model, ds, cfgs[i],
                                         names[i], lkeys[i], shard=bound,
                                         chunk_cache=scratch):
                        progressed = True
            for i in pending:
                if self._shared_cell(wq, evaluate, model, ds, cfgs[i],
                                     names[i], lkeys[i]):
                    progressed = True
            if unresolved and not progressed:
                # Everything left is leased to peers (or backing off):
                # wait, with exponential spacing so an idle watcher does
                # not hammer a filesystem that may be network-attached.
                time.sleep(poll)
                poll = min(2.0, poll * 2.0)
            else:
                poll = 0.05
        self._prune_if_complete(wq)
        return values, errors

    def _prune_if_complete(self, wq) -> None:
        """Retire lease-protocol state once every expected cell is terminal.

        Tombstones, ``.attempts`` sidecars, and expired leases exist to
        arbitrate *pending* work; once the run is complete (or failed) they
        are dead weight that a long-lived store accumulates forever.  Only
        whole-run completion is checked — this map call resolving is not
        enough, because a peer may still be computing cells of a different
        row.  Best-effort: pruning must never fail a sweep.
        """
        try:
            from .runstore import run_info
            if run_info(self.ledger)["status"] in ("complete", "failed"):
                wq.prune()
        except Exception:                      # noqa: BLE001 — housekeeping
            logger.debug("post-run lease prune failed", exc_info=True)

    def _shared_cell(self, wq, evaluate, model, ds, cfg: NoiseConfig,
                     noise: str | None, lkey,
                     shard: tuple[int, int] | None = None,
                     chunk_cache: DecodeCache | None = None) -> bool:
        """Try to advance one unresolved cell; True when progress was made.

        Sharded datasets are claimed at (cell × shard) granularity — with
        ``shard`` naming the bound and ``chunk_cache`` the shard pass's
        decode scratch — plus a merge claim once every shard is ledgered
        (``shard=None``); unsharded cells are one ``eval-*`` claim.  Every
        successful claim refreshes the ledger and re-checks it before
        executing (a peer may have finished the work between our last
        refresh and our claim) and re-checks lease ownership
        (:meth:`~repro.core.workqueue.Lease.still_owned`) before recording —
        a worker whose lease expired mid-compute has been reclaimed and
        must discard its result, not double-record it.

        An in-process evaluation failure releases the claim *without*
        recording; the claim itself already burned one attempt in the
        shared sidecar, so crashes and raises draw from the same
        ``max_claims`` budget, after which the next claimer quarantines the
        cell (:meth:`_shared_poison`).
        """
        tag = self._cell_tag(lkey)
        plan = self._shard_plan(ds)
        if plan is not None and shard is not None:
            adapter, _ = plan
            start, stop = shard
            if self._ledger_shard_hit(lkey, start, stop) is not None:
                return False
            item = f"shard-{tag}-{start}-{stop}"
            lease = wq.try_claim(item)
            if lease is None:
                return False
            try:
                self.ledger.refresh()
                if self._ledger_shard_hit(lkey, start, stop) is not None:
                    return False               # a peer finished it meanwhile
                if wq.poisoned(item):
                    self._shared_poison(wq, item, lkey, noise, cfg)
                    return True
                fault_point("sweep.shard",
                            label=f"{cfg.describe()}@{start}:{stop}")
                part = None
                for _s, _e, p in self._partials(adapter, model, ds, cfg,
                                                [shard], chunk_cache):
                    part = p
                if part is not None and lease.still_owned():
                    self._ledger_shard_record(lkey, start, stop,
                                              part.state(), noise, cfg)
                return True
            except SweepCancelled:
                raise
            except Exception as exc:           # noqa: BLE001 — isolate cell
                logger.warning("shared shard failed (%s @%d:%d): %s",
                               cfg.describe(), start, stop, exc)
                return True
            finally:
                lease.release()
        if plan is not None and any(
                self._ledger_shard_hit(lkey, a, b) is None
                for a, b in plan[1]):
            return False                       # shards still outstanding
        item = f"eval-{tag}"
        lease = wq.try_claim(item)
        if lease is None:
            return False
        try:
            self.ledger.refresh()
            if self.ledger.outcome(*lkey) is not None:
                return True
            if wq.poisoned(item):
                self._shared_poison(wq, item, lkey, noise, cfg)
                return True
            try:
                if plan is not None:
                    # Every shard state is on disk — this is a pure merge.
                    value = float(self._compute_sharded(plan, model, ds, cfg,
                                                        noise, lkey))
                else:
                    fault_point("sweep.cell", label=cfg.describe())
                    value = float(evaluate(model, ds, cfg))
            except SweepCancelled:
                raise
            except Exception as exc:           # noqa: BLE001 — isolate cell
                logger.warning("shared %s failed (%s): %s",
                               "merge" if plan is not None else "evaluation",
                               cfg.describe(), exc)
                return True
            if lease.still_owned():
                key = self._cache_key(model, ds, cfg)
                if key is not None:
                    self.eval_cache.put(key, value)
                self._ledger_record(lkey, status="ok", value=value,
                                    noise=noise, label=cfg.describe(),
                                    attempts=wq.attempts(item))
            return True
        finally:
            lease.release()

    def _shared_poison(self, wq, item: str, lkey, noise: str | None,
                       cfg: NoiseConfig) -> None:
        """Quarantine a cell whose claim budget is spent.

        ``attempts - 1`` prior claims each ended without a result (worker
        crashed, hung past its lease, or raised); instead of becoming
        casualty N+1, the current claimer records a terminal failed-
        poisoned entry so every worker's row resolves to a structured
        failure and the sweep completes.
        """
        prior = wq.attempts(item) - 1
        msg = f"poisoned: {prior} worker claim(s) died or failed"
        logger.error("quarantining cell %s (%s)", cfg.describe(), msg)
        self._ledger_record(lkey, status="error", error=msg, noise=noise,
                            label=cfg.describe(), attempts=prior)

    # -- process fan-out ----------------------------------------------------

    def _process_map(self, evaluate, model, ds, cfgs: list[NoiseConfig],
                     noise_names: list[str | None],
                     ) -> tuple[list[float], dict[int, str]] | None:
        """Fan config evaluations out over a process pool, fault-isolated.

        Workers receive ``(evaluate, model, ds)`` once, via the pool
        initializer, and the decoded clean-config pixel batch through POSIX
        shared memory (each worker's decode cache is pre-seeded with a
        zero-copy view), so neither the dataset nor its decode is replayed
        per job.  Results land in the parent's :class:`EvalCache` (and the
        run ledger, when attached) under the same keys the serial path uses,
        and are returned in ``cfgs`` order.

        A job that raises in its worker — or dies with it (``SIGKILL``,
        OOM) — does not abort the batch: the surviving futures are drained,
        the failed jobs are resubmitted to a *fresh* pool up to the retry
        budget, and whatever still fails is returned as a structured
        failure.  Only the ledger-recorded cells of a crashed batch need
        re-execution on resume.

        Returns None — falling back to the thread/serial path — when the
        payload is not picklable or the first pool cannot be started at all.
        """
        keys = []
        lkeys = []
        pending: list[int] = []
        values: list[float | None] = []
        for i, cfg in enumerate(cfgs):
            key = self._cache_key(model, ds, cfg)
            keys.append(key)
            lkeys.append(self._ledger_key(model, ds, cfg))
            hit = self.eval_cache.get(key) if key is not None else None
            if hit is not None:
                self._ledger_backfill(lkeys[i], hit, cfg, noise_names[i])
            else:
                hit = self._ledger_hit(lkeys[i])
                if hit is not None and key is not None:
                    self.eval_cache.put(key, hit)
            values.append(hit)
            if hit is None:
                pending.append(i)
        if len(pending) < 2:
            return None                        # nothing worth forking for
        try:
            payload = pickle.dumps((evaluate, model, ds))
        except Exception as exc:               # noqa: BLE001 — any pickle error
            logger.warning("process sweep unavailable (payload not "
                           "picklable: %s); falling back to threads", exc)
            return None

        errors: dict[int, str] = {}
        shm, shm_meta = _share_decoded_dataset(ds)
        logger.info("sweep fan-out: %d workers requested, %d effective "
                    "(cores available: %d, mode=process, shared_memory=%s)",
                    self.workers,
                    min(self.effective_workers, len(pending)),
                    available_cores(), shm is not None)
        try:
            for attempt in range(1, self.retries + 2):
                if not pending:
                    break
                try:
                    pending = self._process_round(
                        payload, shm_meta, cfgs, keys, lkeys, values,
                        errors, pending, noise_names, attempt)
                except SweepCancelled:
                    raise                      # caller decision, not a fault
                except Exception as exc:       # noqa: BLE001 — pool start
                    if attempt == 1 and all(values[i] is None
                                            for i in pending):
                        # Nothing computed yet: the cheap degradation is the
                        # historical one — run the whole batch on threads.
                        logger.warning("process sweep failed (%s); falling "
                                       "back to threads", exc)
                        return None
                    logger.warning("process sweep round %d failed (%s); "
                                   "%d job(s) still pending",
                                   attempt, exc, len(pending))
                    for i in pending:
                        errors.setdefault(i, _err_str(exc))
        finally:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:      # pragma: no cover
                    pass
        # Whatever is still pending exhausted its retry budget: record the
        # structured failures and surface NaN cells.
        for i in pending:
            error = errors.setdefault(i, "worker crashed")
            self._ledger_record(lkeys[i], status="error", error=error,
                                noise=noise_names[i],
                                label=cfgs[i].describe(),
                                attempts=self.retries + 1)
            values[i] = float("nan")
        return list(values), {i: errors[i] for i in sorted(errors)
                              if np.isnan(values[i])}

    def _process_round(self, payload, shm_meta, cfgs, keys, lkeys, values,
                       errors, pending, noise_names, attempt) -> list[int]:
        """One pool generation over ``pending``; returns what still failed.

        A worker crash breaks the whole ``ProcessPoolExecutor``: the
        executor resolves every outstanding future — completed ones keep
        their results, the rest get :class:`BrokenProcessPool` — so every
        future is still drained here.  Cells that finished before the crash
        keep their values; casualties (and jobs queued behind them) go back
        to pending for the next round's fresh pool.
        """
        self._check_cancelled()
        workers = min(self.effective_workers, len(pending))
        still: list[int] = []
        broken = False
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_process_worker_init,
                                 initargs=(payload, shm_meta)) as pool:
            futures = [(i, pool.submit(_process_eval, cfgs[i]))
                       for i in pending]
            for i, fut in futures:
                try:
                    value = float(fut.result())
                except BrokenProcessPool as exc:
                    if not broken:
                        broken = True
                        logger.warning(
                            "process sweep pool broke on %s (attempt "
                            "%d/%d): %s", cfgs[i].describe(), attempt,
                            self.retries + 1, exc)
                    errors[i] = f"worker crashed: {exc}" if str(exc) else \
                        "worker crashed (process pool broken)"
                    still.append(i)
                    continue
                except Exception as exc:       # noqa: BLE001 — worker raise
                    errors[i] = _err_str(exc)
                    logger.warning(
                        "evaluation failed in worker (attempt %d/%d, %s): %s",
                        attempt, self.retries + 1, cfgs[i].describe(), exc)
                    still.append(i)
                    continue
                values[i] = value
                errors.pop(i, None)
                if keys[i] is not None:
                    self.eval_cache.put(keys[i], value)
                self._ledger_record(lkeys[i], status="ok", value=value,
                                    noise=noise_names[i],
                                    label=cfgs[i].describe(),
                                    attempts=attempt)
        return still

    # -- (variant × shard) process fan-out ----------------------------------

    def _process_map_sharded(self, plan, evaluate, model, ds,
                             cfgs: list[NoiseConfig],
                             noise_names: list[str | None],
                             ) -> tuple[list[float], dict[int, str]] | None:
        """Fan ``(variant × shard)`` work items over a process pool.

        Each job evaluates one shard of one config and returns the
        accumulator's JSON-safe state; the parent merges states per config
        (order-free — accumulators key by global item index) and computes
        the cell value, which lands in the eval cache and the ledger under
        the same keys the serial path uses.  Work items are an order of
        magnitude finer than whole-cell jobs, so a crashed worker costs one
        shard, stragglers balance better, and — unlike the whole-dataset
        path — nothing is ever materialised beyond one shard per worker.

        Ledgered shard states are restored up front; only missing
        ``(config, shard)`` pairs are submitted.  Returns None to fall back
        to the thread/serial path (which shards too) when the payload is
        unpicklable or the first pool cannot start.
        """
        adapter, bounds = plan
        keys, lkeys, values = [], [], []
        for i, cfg in enumerate(cfgs):
            key = self._cache_key(model, ds, cfg)
            keys.append(key)
            lkeys.append(self._ledger_key(model, ds, cfg))
            hit = self.eval_cache.get(key) if key is not None else None
            if hit is not None:
                self._ledger_backfill(lkeys[i], hit, cfg, noise_names[i])
            else:
                hit = self._ledger_hit(lkeys[i])
                if hit is not None and key is not None:
                    self.eval_cache.put(key, hit)
            values.append(hit)
        pending_cfgs = [i for i, v in enumerate(values) if v is None]
        states: dict[tuple[int, tuple[int, int]], dict] = {}
        jobs: list[tuple[int, int, int]] = []
        for i in pending_cfgs:
            for start, stop in bounds:
                state = self._ledger_shard_hit(lkeys[i], start, stop)
                if state is not None:
                    states[(i, (start, stop))] = state
                else:
                    jobs.append((i, start, stop))
        if len(jobs) < 2:
            return None                        # nothing worth forking for
        try:
            # Shard workers evaluate through the adapter registry, never
            # through the caller's callable — ship only model + dataset so
            # an unpicklable closure doesn't cost the process fan-out.
            payload = pickle.dumps((None, model, ds))
        except Exception as exc:               # noqa: BLE001 — any pickle error
            logger.warning("process sweep unavailable (payload not "
                           "picklable: %s); falling back to threads", exc)
            return None
        shard_ctx = (self.task, self.batch_size, self._test_mitigation)
        errors: dict[int, str] = {}
        logger.info("sweep fan-out: %d workers requested, %d effective "
                    "(cores available: %d, mode=process, %d (variant x "
                    "shard) work items over %d shards)",
                    self.workers, min(self.effective_workers, len(jobs)),
                    available_cores(), len(jobs), len(bounds))
        pending = jobs
        restored = len(states)
        for attempt in range(1, self.retries + 2):
            if not pending:
                break
            try:
                pending = self._process_round_sharded(
                    payload, shard_ctx, cfgs, lkeys, states, errors,
                    pending, noise_names, attempt)
            except SweepCancelled:
                raise                          # caller decision, not a fault
            except Exception as exc:           # noqa: BLE001 — pool start
                if attempt == 1 and len(states) == restored:
                    # Nothing computed yet: degrade to the serial/thread
                    # path, which streams shards too.
                    logger.warning("process sweep failed (%s); falling "
                                   "back to threads", exc)
                    return None
                logger.warning("process sweep round %d failed (%s); "
                               "%d shard job(s) still pending",
                               attempt, exc, len(pending))
                for i, _, _ in pending:
                    errors.setdefault(i, _err_str(exc))
        out_errors: dict[int, str] = {}
        for i in pending_cfgs:
            got = [states.get((i, b)) for b in bounds]
            if all(state is not None for state in got):
                acc = adapter.accumulator(ds)
                for state in got:
                    acc.merge(adapter.accumulator(ds).load_state(state))
                value = acc.value()
                values[i] = value
                if keys[i] is not None:
                    self.eval_cache.put(keys[i], value)
                self._ledger_record(lkeys[i], status="ok", value=value,
                                    noise=noise_names[i],
                                    label=cfgs[i].describe(), attempts=1)
            else:
                error = errors.get(i, "worker crashed")
                self._ledger_record(lkeys[i], status="error", error=error,
                                    noise=noise_names[i],
                                    label=cfgs[i].describe(),
                                    attempts=self.retries + 1)
                values[i] = float("nan")
                out_errors[i] = error
        return list(values), out_errors

    def _process_round_sharded(self, payload, shard_ctx, cfgs, lkeys,
                               states, errors, pending, noise_names,
                               attempt) -> list[tuple[int, int, int]]:
        """One pool generation over pending (config, shard) jobs.

        Completed shards land in ``states`` (and the ledger) immediately;
        casualties of a broken pool go back to pending for the next round's
        fresh pool, exactly like the whole-cell rounds — but the unit of
        loss is one shard, not one dataset pass.
        """
        self._check_cancelled()
        workers = min(self.effective_workers, len(pending))
        still: list[tuple[int, int, int]] = []
        broken = False
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_process_worker_init,
                                 initargs=(payload, None, shard_ctx)) as pool:
            futures = [((i, start, stop),
                        pool.submit(_process_eval_shard, cfgs[i], start, stop))
                       for i, start, stop in pending]
            for (i, start, stop), fut in futures:
                try:
                    state = fut.result()
                except BrokenProcessPool as exc:
                    if not broken:
                        broken = True
                        logger.warning(
                            "process sweep pool broke on %s shard "
                            "[%d, %d) (attempt %d/%d): %s",
                            cfgs[i].describe(), start, stop, attempt,
                            self.retries + 1, exc)
                    errors[i] = f"worker crashed: {exc}" if str(exc) else \
                        "worker crashed (process pool broken)"
                    still.append((i, start, stop))
                    continue
                except Exception as exc:       # noqa: BLE001 — worker raise
                    errors[i] = _err_str(exc)
                    logger.warning(
                        "shard evaluation failed in worker (attempt "
                        "%d/%d, %s [%d, %d)): %s", attempt,
                        self.retries + 1, cfgs[i].describe(), start, stop,
                        exc)
                    still.append((i, start, stop))
                    continue
                states[(i, (start, stop))] = state
                self._ledger_shard_record(lkeys[i], start, stop, state,
                                          noise_names[i], cfgs[i])
        return still

    # -- sweep primitives ---------------------------------------------------

    def sweep_noise(self, evaluate, model, ds, noise: str,
                    baseline: float | None = None) -> NoiseResult:
        """Evaluate every deployment variant of one registered noise type."""
        src = get_noise(noise)
        if baseline is None:
            baseline = self.baseline(evaluate, model, ds)
        cfgs = [src.apply(TRAIN_CONFIG, v) for v in src.variants()]
        values, errors = self._map_configs(evaluate, model, ds, cfgs,
                                           [noise] * len(cfgs))
        return NoiseResult(noise, baseline, values, errors)

    def noise_row(self, evaluate, model, ds, noises,
                  skip: set[str] = frozenset(),
                  include_combined: bool = True) -> dict:
        """One table row: baseline metric + per-noise Δ stats (+ combined).

        All applicable (noise, variant) evaluations — and the combined
        config — are fanned out in one batch, then reassembled per noise.
        ``skip`` marks noise types inapplicable to this architecture,
        reported as None like the paper's "-".  A cell whose evaluation
        ultimately fails (see the engine's retry budget) lands as NaN in its
        :class:`NoiseResult` — surviving variants still produce the row; the
        renderer prints failed cells as ``!``.
        """
        baseline = self.baseline(evaluate, model, ds)
        applicable = [n for n in noises if n not in skip]
        jobs: list[NoiseConfig] = []
        names: list[str | None] = []
        spans: dict[str, tuple[int, int]] = {}
        for name in applicable:
            src = get_noise(name)
            cfgs = [src.apply(TRAIN_CONFIG, v) for v in src.variants()]
            spans[name] = (len(jobs), len(jobs) + len(cfgs))
            jobs.extend(cfgs)
            names.extend([name] * len(cfgs))
        if include_combined:
            jobs.append(combined_config(applicable))
            names.append("combined")
        values, errors = self._map_configs(evaluate, model, ds, jobs, names)

        row: dict = {"trained": baseline, "noises": {}}
        for name in noises:
            if name in skip:
                row["noises"][name] = None
                continue
            lo, hi = spans[name]
            row["noises"][name] = NoiseResult(
                name, baseline, values[lo:hi],
                {i - lo: err for i, err in errors.items() if lo <= i < hi})
        if include_combined:
            row["combined"] = baseline - values[-1]
            if len(jobs) - 1 in errors:
                row["combined_error"] = errors[len(jobs) - 1]
        return row

    def worst_case_curve(self, evaluate, model, ds,
                         noises) -> list[tuple[str, float]]:
        """Fig. 3: cumulative Δ as noises are stacked one at a time.

        The stacked configs are precomputed, so the evaluations themselves
        are independent and fan out like any other batch.  A failing stacked
        evaluation yields a NaN point; the rest of the curve survives.
        """
        wanted = set(noises)
        baseline = self.baseline(evaluate, model, ds)
        cfg = TRAIN_CONFIG
        names: list[str] = []
        cfgs: list[NoiseConfig] = []
        for src in worst_case_stack():
            if src.name not in wanted:
                continue
            cfg = src.apply(cfg, src.worst_variant)
            names.append(src.name)
            cfgs.append(cfg)
        values, _ = self._map_configs(evaluate, model, ds, cfgs,
                                      list(names))
        return [(name, baseline - value)
                for name, value in zip(names, values)]


# ---------------------------------------------------------------------------
# Process-pool worker side
# ---------------------------------------------------------------------------

#: Per-worker state installed by the pool initializer (one unpickle of the
#: (evaluate, model, ds) payload per worker, not per job).
_WORKER: dict = {}


def _share_decoded_dataset(ds):
    """Publish the clean-config decoded pixel batch in POSIX shared memory.

    Returns ``(shm, meta)``; ``(None, None)`` for datasets without encoded
    ``streams`` (NLP/audio) or when shared memory is unavailable.  The
    parent decodes once (usually already memoised from the baseline
    evaluation) and every worker maps the same pages read-only instead of
    re-decoding or copying the dataset per process.
    """
    streams = getattr(ds, "streams", None)
    if streams is None:
        return None, None
    shm = None
    try:
        from multiprocessing import shared_memory

        from .pipeline import decode_dataset
        decoded = decode_dataset(streams, TRAIN_CONFIG.decoder)
        shm = shared_memory.SharedMemory(create=True, size=decoded.nbytes)
        np.ndarray(decoded.shape, dtype=decoded.dtype,
                   buffer=shm.buf)[:] = decoded
        import multiprocessing
        meta = (shm.name, decoded.shape, decoded.dtype.str,
                streams_digest(streams), TRAIN_CONFIG.decoder,
                multiprocessing.get_start_method())
        return shm, meta
    except Exception as exc:                   # noqa: BLE001 — best-effort
        # A segment created before the failure (e.g. the copy-in or meta
        # construction raised) must not outlive this call: without the
        # unlink the kernel keeps the pages until reboot.
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:          # pragma: no cover
                pass
        logger.warning("shared-memory dataset unavailable (%s); workers "
                       "will decode independently", exc)
        return None, None


def _process_worker_init(payload: bytes, shm_meta, shard_ctx=None) -> None:
    # A pool of N sweep workers whose GEMMs each fan out over OpenBLAS's
    # own threads oversubscribes the host, so workers pin a one-thread
    # BLAS; an explicit OPENBLAS_NUM_THREADS or OMP_NUM_THREADS set by the
    # operator is honoured as-is.  Spawned workers do not inherit the
    # parent's heap policy, so they set it too.
    retain_heap()
    pin_blas_threads()
    evaluate, model, ds = pickle.loads(payload)
    _WORKER.update(evaluate=evaluate, model=model, ds=ds,
                   shard_ctx=shard_ctx)
    if shm_meta is None:
        return
    name, shape, dtype_str, digest, decoder, start_method = shm_meta
    try:
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(name=name)
    except Exception as exc:                   # noqa: BLE001 — degraded mode
        # The worker still functions — it just re-decodes the dataset per
        # process — but that silently multiplies the decode cost by the
        # worker count, so it must be *visible*, never swallowed.
        logger.warning("worker %d could not attach shared-memory dataset "
                       "%s (%s); falling back to a per-process decode",
                       os.getpid(), name, exc)
        return
    if start_method == "spawn":
        # A spawned worker has its own resource tracker, and the attach
        # above registered the segment with it — which would unlink the
        # parent's segment at worker exit.  The parent owns the
        # lifetime; forked workers share the parent's tracker and must
        # NOT unregister (that would double-free the parent's entry).
        # The catch is narrow on purpose: only the unregister bookkeeping
        # may be forgiven here, not the shm attach/seed work around it.
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(shm._name, "shared_memory")
        except (ImportError, AttributeError, KeyError, ValueError) as exc:
            logger.warning("worker %d could not unregister segment %s from "
                           "its resource tracker (%s); the segment may be "
                           "unlinked early at worker exit", os.getpid(),
                           name, exc)
    try:
        from .pipeline import default_decode_cache
        decoded = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
        _WORKER["shm"] = shm                   # keep the mapping alive
        # Seed this worker's decode cache with the zero-copy view: the clean
        # baseline pre-processing never re-decodes in any worker.
        default_decode_cache()._put((digest, decoder), decoded)
    except Exception as exc:                   # noqa: BLE001 — degraded mode
        shm.close()
        _WORKER.pop("shm", None)
        logger.warning("worker %d could not seed its decode cache from "
                       "shared memory (%s); falling back to a per-process "
                       "decode", os.getpid(), exc)


def _process_eval(cfg: NoiseConfig) -> float:
    w = _WORKER
    return float(w["evaluate"](w["model"], w["ds"], cfg))


def _process_eval_shard(cfg: NoiseConfig, start: int, stop: int) -> dict:
    """One (config, shard) job → the accumulator's JSON-safe state."""
    w = _WORKER
    task, batch_size, mitigation = w["shard_ctx"]
    from .tasks import evaluate_partial_for_task
    return evaluate_partial_for_task(task, w["model"], w["ds"], cfg,
                                     start, stop, batch_size=batch_size,
                                     mitigation=mitigation)
