"""The parallel sweep engine: fan noise variants out, share every baseline.

A SysNoise sweep is embarrassingly parallel — every deployment variant is an
independent evaluation of the same trained model on the same dataset — yet
the seed implementation ran them strictly serially and re-evaluated the
clean baseline for every table row.  :class:`SweepEngine` fixes both:

* **Fan-out** — variant evaluations are dispatched over a
  ``concurrent.futures.ThreadPoolExecutor`` when ``workers`` is set (the
  heavy work is NumPy, which releases the GIL for its inner loops), or —
  with ``mode="process"`` — to helper *processes* that sidestep the GIL
  entirely: each helper runs the same lease walk ``repro worker`` fleets
  run (``mode="shared"``, see :meth:`SweepEngine._shared_map`) over the
  run's ledger while the parent only supervises, so a process sweep
  divides cells shard-major and decodes each shard once per pass.  The
  requested width is capped at the cores *available to the process*
  (affinity/cgroup aware, see :func:`available_cores`) and the effective
  width is logged.  The default ``workers=None`` keeps the exact serial
  order, so determinism-sensitive callers see no change.  Results are
  always assembled in variant order regardless of completion order, so
  parallel, process-parallel, and serial sweeps produce identical output.

* **Shared baselines** — every metric is memoised in a
  :class:`~repro.core.cache.EvalCache` keyed per
  ``(model, dataset, NoiseConfig)``, so the clean ``TRAIN_CONFIG``
  evaluation happens once per (model, dataset, seed) and is reused by
  :meth:`SweepEngine.sweep_noise`, every :meth:`SweepEngine.noise_row`, and
  :meth:`SweepEngine.worst_case_curve` instead of being recomputed per row.

* **Fault isolation** — a raising ``evaluate()`` (or a killed process-mode
  helper) no longer aborts the sweep: the failing cell is retried up to the
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

import contextlib
import logging
import os
import pickle
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..backend.parallel import (available_cores, pin_blas_threads,
                                retain_heap)
from .cache import DecodeCache, EvalCache, dataset_token, eval_key
from .faults import fault_point
from .noise import NoiseConfig, TRAIN_CONFIG
from .registry import combined_config, get_noise, worst_case_stack

__all__ = ["NoiseResult", "SweepEngine", "SweepCancelled", "available_cores"]

logger = logging.getLogger(__name__)


class SweepCancelled(RuntimeError):
    """Raised between cells when the engine's ``should_stop`` hook fires.

    Cancellation is *cooperative and cell-granular*: the check runs before
    each evaluation (and at least every 0.5 s while process-mode helpers
    run, which are then terminated), never inside one, so
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

    ``retries`` is the per-cell retry budget: a raising evaluation (or one
    that kills its process-mode helper) is re-attempted that many extra
    times before being recorded as a structured failure.  ``ledger`` (a
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
        #: memory, per-shard ledger entries, (variant × shard) claims in
        #: shared and process sweeps).  ``pipeline_cache`` memoises the
        #: calibration slice and deployment-model copies; decoded data
        #: chunks are cached only in a shared walk's one-shard scratch (see
        #: :meth:`_shared_map`).
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
        #: A process-mode helper's ``{ledger key: ts}`` of the error entries
        #: recorded before its sweep began, which :func:`_final` does not
        #: count as answers (see :meth:`_fleet_map`).
        self._stale: dict = {}
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
        return self._cell_identity(model, ds, cfg)

    def _cell_identity(self, model, ds, cfg) -> tuple | None:
        """``(model key, dataset digest, cfg digest)``: a cell's ledger
        identity, or None when the dataset has no stable one."""
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
            out = self._fleet_map(evaluate, model, ds, cfgs, names)
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
                out = _final(self.ledger, lkeys[i], self._stale)
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
        recording unless it was the cell's last allowed claim, which records
        the exception's text (:meth:`_shared_fail`); the claim itself
        already burned one attempt in the shared sidecar, so crashes and
        raises draw from the same ``max_claims`` budget, after which the
        next claimer quarantines a cell whose claims died
        (:meth:`_shared_poison`).

        ``should_stop`` is polled before every claim, so a cancelled walk
        (or an orphaned process-mode helper) stops at the next cell or
        shard boundary, not at the end of its pass; nor does a worker that
        can no longer write the ledger claim more work (see
        :meth:`_shared_map`).
        """
        self._check_cancelled()
        if self._ledger_writes_failed:
            return False
        tag = self._cell_tag(lkey)
        plan = self._shard_plan(ds)
        if plan is not None and shard is not None:
            adapter, _ = plan
            start, stop = shard
            if (self._ledger_shard_hit(lkey, start, stop) is not None
                    or _final(self.ledger, lkey, self._stale) is not None):
                return False                   # done, or the cell failed
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
                self._shared_fail(wq, item, lease, lkey, noise, cfg, exc)
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
            if _final(self.ledger, lkey, self._stale) is not None:
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
                self._shared_fail(wq, item, lease, lkey, noise, cfg, exc)
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

    def _shared_fail(self, wq, item: str, lease, lkey, noise: str | None,
                     cfg: NoiseConfig, exc: Exception) -> None:
        """Record ``exc`` as the cell's outcome when this was its last
        allowed claim — the text a serial sweep records for the same raise.
        An earlier claim only releases, and the next claim retries."""
        attempts = wq.attempts(item)
        if attempts >= wq.max_attempts and lease.still_owned():
            self._ledger_record(lkey, status="error", error=_err_str(exc),
                                noise=noise, label=cfg.describe(),
                                attempts=attempts)

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

    # -- process mode: a local fleet of helpers on the lease walk -----------

    def _fleet_map(self, evaluate, model, ds, cfgs: list[NoiseConfig],
                   names: list[str | None],
                   ) -> tuple[list[float], dict[int, str]] | None:
        """Run the cells as helper processes walking :meth:`_shared_map`.

        Cache and ledger hits resolve here; the rest go to up to
        ``effective_workers`` helpers that each run the shared lease walk
        over the run's ledger (a temporary one for a store-less session),
        so they divide the cells shard-major exactly like ``repro worker``
        fleets.  Their leases live in a per-sweep scratch directory: claim
        budgets count this sweep's attempts only, with ``retries + 1``
        claims per cell.  A cell whose only ledger entry is an error is
        pending like any other: the helpers are told to ignore that entry,
        so a resumed process sweep re-attempts failed cells as a serial one
        does.  The parent only supervises (:meth:`_supervise`), then reads
        every outcome back from the ledger into its :class:`EvalCache`.

        When a helper cannot write the ledger or its leases, the fleet
        stops and the cells still unresolved run here, through the local
        path, which degrades to unledgered if the ledger is what failed
        (:meth:`_ledger_record`).  Returns None — falling back to the
        thread/serial path — when this engine's ledger writes have failed,
        fewer than two work items are left (cells, or the cells' missing
        shards for a sharded dataset), the dataset has no ledger identity,
        the payload is not picklable, no scratch directory can be made, or
        no helper could start working.
        """
        if self._ledger_writes_failed:
            return None
        values: list[float] = [float("nan")] * len(cfgs)
        cells: list[int] = []
        for i, cfg in enumerate(cfgs):
            key = self._cache_key(model, ds, cfg)
            lkey = self._ledger_key(model, ds, cfg)
            hit = self.eval_cache.get(key) if key is not None else None
            if hit is not None:
                self._ledger_backfill(lkey, hit, cfg, names[i])
            else:
                hit = self._ledger_hit(lkey)
                if hit is not None and key is not None:
                    self.eval_cache.put(key, hit)
            if hit is None:
                cells.append(i)
            else:
                values[i] = hit
        lkeys = [self._cell_identity(model, ds, cfgs[i]) for i in cells]
        if not cells or None in lkeys:
            return None
        plan = self._shard_plan(ds)
        if plan is None:
            work = len(cells)
        else:
            work = sum(self.ledger is None
                       or self.ledger.lookup_shard(*lkey, a, b) is None
                       for lkey in lkeys for a, b in plan[1])
        if work < 2:
            return None                        # nothing worth forking for
        stale = {}
        if self.ledger is not None:
            for lkey in lkeys:
                out = self.ledger.outcome(*lkey)
                if out is not None:            # an error: ok would have hit
                    stale[lkey] = out.get("ts")
        try:
            payload = pickle.dumps((evaluate, model, ds,
                                    [cfgs[i] for i in cells],
                                    [names[i] for i in cells]))
        except Exception as exc:               # noqa: BLE001 — any pickle error
            logger.warning("process sweep unavailable (payload not "
                           "picklable: %s); falling back to threads", exc)
            return None
        from .runstore import RunLedger
        from .workqueue import WorkQueue
        helper_kw = dict(model_key=lkeys[0][0], shard_size=self.shard_size,
                         task=self.task, batch_size=self.batch_size,
                         lease_ttl=self.lease_ttl,
                         max_claims=self.retries + 1,
                         mitigation=self.mitigation)
        with contextlib.ExitStack() as stack:
            try:
                scratch = stack.enter_context(tempfile.TemporaryDirectory(
                    prefix="repro-sweep-", ignore_cleanup_errors=True))
                ledger = (self.ledger if self.ledger is not None else
                          RunLedger.create(os.path.join(scratch, "ledger"),
                                           {}))
                wq = WorkQueue(scratch)        # the helpers' lease namespace
            except OSError as exc:
                logger.warning("process sweep unavailable (no scratch "
                               "directory: %s); falling back to threads",
                               exc)
                return None

            def resolved() -> bool:
                ledger.refresh()
                return all(_final(ledger, k, stale) is not None
                           for k in lkeys)

            state = self._supervise(
                (payload, str(ledger.path), scratch, helper_kw, stale,
                 os.getpid()), wq, resolved, work)
            if state == "idle":
                logger.warning("process sweep helpers could not start; "
                               "falling back to threads")
                return None
            if state == "unledgered":
                logger.warning("process sweep helpers could not write the "
                               "ledger or their leases; computing the "
                               "remaining cells in this process")
            ledger.refresh()
            errors: dict[int, str] = {}
            local: list[int] = []
            for i, lkey in zip(cells, lkeys):
                out = _final(ledger, lkey, stale)
                if out is None and state == "unledgered":
                    local.append(i)
                elif out is None:
                    errors[i] = "worker crashed"
                    self._ledger_record(self._ledger_key(model, ds, cfgs[i]),
                                        status="error", error=errors[i],
                                        noise=names[i],
                                        label=cfgs[i].describe(),
                                        attempts=self.retries + 1)
                elif out.get("status") == "ok":
                    values[i] = float(out["value"])
                    key = self._cache_key(model, ds, cfgs[i])
                    if key is not None:
                        self.eval_cache.put(key, values[i])
                else:
                    errors[i] = str(out.get("error", "unknown failure"))
        results = self.map(
            lambda i: self._eval_one(evaluate, model, ds, cfgs[i],
                                     noise=names[i]), local)
        for i, (value, error) in zip(local, results):
            values[i] = value
            if error is not None:
                errors[i] = _err_str(error)
        return values, errors

    def _supervise(self, args: tuple, wq, resolved, work: int) -> str:
        """Keep helpers running until ``resolved()`` holds.

        ``args`` are :func:`_sweep_helper`'s and ``wq`` is the helpers'
        lease queue.  The parent never claims, so it holds no lease
        heartbeat thread when it forks.  ``min(effective_workers, work)``
        helpers start; one that dies has its leases removed at once (a
        replacement need not wait out ``lease_ttl``) and is replaced while
        cells are unresolved, up to ``work × (retries + 1) + helpers``
        starts in all; what is still unresolved after that is the caller's
        ``worker crashed``.  Helpers still polling when the last cell lands
        are terminated, as they are when ``should_stop`` fires, which
        raises :class:`SweepCancelled`.

        Returns ``"done"``; ``"idle"`` when every helper died before any of
        them made a claim (nothing started working); ``"unledgered"`` as
        soon as a helper reports that it could not write the ledger or its
        leases.
        """
        import multiprocessing
        from multiprocessing.connection import wait

        width = min(self.effective_workers, work)
        budget = work * (self.retries + 1) + width
        logger.info("sweep fan-out: %d workers requested, %d effective "
                    "(cores available: %d, mode=process)",
                    self.workers, width, available_cores())
        helpers: list = []

        def start() -> None:
            proc = multiprocessing.Process(target=_sweep_helper, daemon=True,
                                           args=args)
            proc.start()
            helpers.append(proc)

        try:
            for _ in range(width):
                start()
            started = width
            while not resolved():
                if not helpers:
                    break                      # the restart budget is spent
                self._check_cancelled()
                wait([p.sentinel for p in helpers], timeout=0.5)
                for proc in [p for p in helpers if p.exitcode is not None]:
                    helpers.remove(proc)
                    if proc.exitcode == 0:
                        continue               # it saw every cell resolved
                    if proc.exitcode == _UNLEDGERED:
                        return "unledgered"
                    logger.warning("sweep helper %d exited with %d",
                                   proc.pid, proc.exitcode)
                    wq.free_dead(proc.pid)
                    claimed = wq.claimed()
                    if not claimed and not helpers:
                        return "idle"          # none got as far as a claim
                    if claimed and started < budget and not resolved():
                        start()
                        started += 1
            return "done"
        finally:
            for proc in helpers:
                proc.terminate()
            for proc in helpers:
                proc.join()

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
# Process-mode helper side
# ---------------------------------------------------------------------------

#: A helper's exit status when it could not write the ledger or its
#: leases: its results cannot reach the parent, so restarting it would
#: only repeat the work.
_UNLEDGERED = 3


def _final(ledger, lkey, stale: dict) -> dict | None:
    """``ledger.outcome`` for one cell, except the error entry ``stale``
    (``{ledger key: ts}``) names: an error recorded before a process sweep
    began is not that sweep's answer."""
    out = ledger.outcome(*lkey)
    if (out is not None and out.get("status") != "ok" and lkey in stale
            and out.get("ts") == stale[lkey]):
        return None
    return out


def _sweep_helper(payload: bytes, ledger_path: str, scratch: str,
                  engine_kw: dict, stale: dict, parent: int) -> None:
    """One process-mode helper: the shared lease walk over one ledger.

    ``payload`` pickles ``(evaluate, model, ds, cfgs, names)``; the leases
    live under ``scratch``; ``stale`` names the error entries that do not
    resolve a cell (see :func:`_final`).  ``parent`` is the sweep
    process's pid: a helper is its child (fork or spawn start method), and
    once it is re-parented — the sweep process was SIGKILLed or OOM-killed
    — it stops at its next cell instead of walking the sweep alone.  Exits
    with :data:`_UNLEDGERED` when the walk cannot write the ledger or its
    leases (evaluation errors never escape the walk; an ``OSError`` that
    does is the walk's own storage failing).
    """
    # N helpers whose GEMMs each fan out over OpenBLAS's own threads
    # oversubscribe the host, so helpers pin a one-thread BLAS (an
    # explicit OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is honoured) and
    # keep freed buffers resident: a spawned helper inherits neither.
    retain_heap()
    pin_blas_threads()
    evaluate, model, ds, cfgs, names = pickle.loads(payload)
    from .runstore import RunLedger
    from .workqueue import WorkQueue
    engine = SweepEngine(mode="shared", ledger=RunLedger(ledger_path),
                         pipeline_cache=DecodeCache(),
                         should_stop=lambda: os.getppid() != parent,
                         **engine_kw)
    engine._workqueue = WorkQueue(scratch, ttl=engine.lease_ttl,
                                  max_attempts=engine.max_claims)
    engine._stale = stale
    try:
        out = engine._shared_map(evaluate, model, ds, cfgs, names)
    except SweepCancelled:
        raise SystemExit(1)                    # orphaned; nobody reads it
    except OSError as exc:
        logger.warning("sweep helper cannot use its ledger or leases (%s)",
                       exc)
        raise SystemExit(_UNLEDGERED)
    if out is None:
        raise SystemExit(_UNLEDGERED)
