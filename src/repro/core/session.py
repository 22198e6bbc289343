"""BenchmarkSession: the fluent facade over registry + adapters + pipeline.

One object owns the whole measure-SysNoise flow::

    result = (BenchmarkSession()
              .task("cls")
              .model("resnet-18")
              .data(n=240, train_frac=0.75)
              .fit(epochs=15)
              .noises("resize", "precision")
              .run())
    print(result.render("my sweep"))

The session resolves the :class:`~repro.core.tasks.TaskAdapter`, loads or
accepts datasets, optionally trains through the training-system pipeline,
sweeps every requested noise type via the registry, and aggregates
:class:`NoiseResult` rows.  It owns a private content-digest
:class:`~repro.core.cache.DecodeCache` (bounded LRU) plus a variant-keyed
:class:`~repro.core.cache.EvalCache`, so repeated sweeps over the same
dataset never re-decode *or* re-evaluate — and never suffer the
``id()``-reuse staleness of the seed implementation.  Sweeps run through a
:class:`~repro.core.sweep.SweepEngine`: call :meth:`BenchmarkSession.workers`
to fan variant evaluations out over a thread pool,
:meth:`BenchmarkSession.batch` to control evaluation minibatch size,
:meth:`BenchmarkSession.shards` to stream every evaluation through the
shard pipeline (bounded peak memory, ``(variant × shard)`` process
scheduling, shard-granular ledger resume — bit-identical results),
:meth:`BenchmarkSession.retries` to set the per-cell failure retry budget,
and :meth:`BenchmarkSession.store` to attach a crash-safe
:class:`~repro.core.runstore.RunStore` ledger (interrupted runs resume by
skipping ledger-complete evaluations).

Callers that bring their own model, dataset and evaluator drive the
engine directly: :meth:`SweepEngine.sweep_noise`,
:meth:`SweepEngine.noise_row` and :meth:`SweepEngine.worst_case_curve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import DecodeCache, EvalCache
from .mitigations import (checkpoint_name, get_mitigation,
                          mitigation_identity, mitigation_labels,
                          mitigation_stage, mitigation_train)
from .noise import NoiseConfig, TRAIN_CONFIG
from .registry import get_noise
from .sweep import NoiseResult, SweepEngine
from .tasks import TaskAdapter, get_task

__all__ = ["NoiseResult", "BenchmarkSession", "Session", "SessionResult",
           "SweepEngine"]


# ---------------------------------------------------------------------------
# The session facade
# ---------------------------------------------------------------------------

@dataclass
class SessionResult:
    """Aggregated sweep output for one (task, model, dataset) triple."""

    task: str
    metric: str
    label: str
    noises: list[str]
    baseline: float
    results: dict[str, NoiseResult | None]
    combined: float | None = None
    #: Ledger run id when the session was attached to a RunStore.
    run_id: str | None = None
    #: Mitigated rows: mitigation label (see
    #: :func:`~repro.core.mitigations.mitigation_labels`) -> ``noise_row``
    #: dict.  The clean fields above stay the unmitigated row, so
    #: pre-mitigation callers keep reading exactly what they always did.
    mitigated: dict[str, dict] = field(default_factory=dict)

    def row(self) -> dict:
        """The legacy ``noise_row`` dict shape (render_table input)."""
        row = {"trained": self.baseline, "noises": dict(self.results)}
        if self.combined is not None:
            row["combined"] = self.combined
        return row

    def rows(self) -> dict[str, dict]:
        """All table rows: the clean row plus one per mitigation.

        This is the paper-style robustness-vs-mitigation view — the clean
        Δ per noise sits directly above each mitigation's Δ.
        """
        out = {self.label: self.row()}
        for name, row in self.mitigated.items():
            out[f"{self.label}+{name}"] = row
        return out

    def render(self, title: str | None = None) -> str:
        """Paper-style text table (one row per mitigation axis value)."""
        from .report import render_table
        title = title or f"SysNoise sweep — {self.label} ({self.task})"
        return render_table(self.rows(), list(self.noises),
                            self.metric, title)

    def worst(self) -> tuple[str, float] | None:
        """(noise, mean Δ) of the most damaging swept noise, if any.

        Noises whose every variant failed have no Δ and are excluded.
        """
        swept = [(n, r.mean_delta) for n, r in self.results.items()
                 if r is not None and r.values and not r.all_failed]
        return max(swept, key=lambda t: t[1]) if swept else None


class BenchmarkSession:
    """Fluent builder that owns one benchmark flow end to end."""

    def __init__(self, task: str | None = None, cache_size: int = 64,
                 workers: int | None = None, batch_size: int | None = None,
                 mode: str = "thread"):
        self._task_name = task
        self._mode = mode
        self._model = None
        self._model_name: str | None = None
        self._label: str | None = None
        self._build_kw: dict = {}
        self._train_ds = None
        self._eval_ds = None
        self._noises: list[str] | None = None
        self._skip: set[str] = set()
        self._include_combined = True
        self._mitigations: list[dict] = []
        self._mitigated_models: dict[str, object] = {}
        self._fit_epochs = 15
        self._seed = 0
        self._workers = workers
        self._batch_size = batch_size
        self._shard_size: int | None = None
        self._retries = 0
        self._lease_ttl = 30.0
        self._max_claims = 3
        self._should_stop = None
        self._store = None
        self._run_id: str | None = None
        self._manifest_extra: dict = {}
        self._ledger_obj = None
        self.cache = DecodeCache(maxsize=cache_size)
        self.eval_cache = EvalCache()

    # -- builder steps ------------------------------------------------------

    def task(self, name: str) -> "BenchmarkSession":
        """Select the workload by task-registry name (cls/det/seg/nlp/audio)."""
        get_task(name)                       # fail fast on unknown tasks
        self._task_name = name
        return self

    def model(self, model, label: str | None = None,
              **build_kw) -> "BenchmarkSession":
        """Use a model — a trained instance, or a name to build (then fit)."""
        if isinstance(model, str):
            self._model_name, self._model = model, None
        else:
            self._model, self._model_name = model, None
        self._label = label or self._model_name or type(model).__name__
        self._build_kw = build_kw
        return self

    def seed(self, seed: int) -> "BenchmarkSession":
        self._seed = seed
        return self

    def dataset(self, ds) -> "BenchmarkSession":
        """Evaluate on this dataset object (already split/held out)."""
        self._eval_ds = ds
        return self

    def data(self, ds=None, *, train_frac: float | None = None,
             n_train: int | None = None, **make_kw) -> "BenchmarkSession":
        """Load (or accept) a dataset, optionally splitting train/eval.

        Without a split argument the whole dataset is used for evaluation.
        """
        if ds is None:
            make_kw.setdefault("seed", self._seed)
            ds = self.adapter.load_dataset(**make_kw)
        if n_train is None and train_frac is not None:
            n_train = int(len(ds) * train_frac)
        if n_train is not None:
            self._train_ds, self._eval_ds = ds.split(n_train)
        else:
            self._eval_ds = ds
        return self

    def noises(self, *names: str) -> "BenchmarkSession":
        """Restrict the sweep to these noise types (default: all for task)."""
        for n in names:
            get_noise(n)                     # fail fast on unknown noises
        self._noises = list(names)
        return self

    def skip(self, *names: str) -> "BenchmarkSession":
        """Mark noises inapplicable to this architecture (rendered as '-')."""
        self._skip |= set(names)
        return self

    def combined(self, include: bool = True) -> "BenchmarkSession":
        self._include_combined = include
        return self

    def mitigate(self, name: str, **params) -> "BenchmarkSession":
        """Add a mitigation axis value (repeatable; see ``repro mitigations``).

        ``name`` is a registered mitigation — ``mix``, ``augment:<strategy>``,
        ``adversarial`` (train-time: the run trains a second model through
        the mitigation and sweeps it next to the clean one) or ``tent``
        (test-time: the clean model is re-swept through the mitigation's
        streaming hook).  :meth:`run` then produces one table row per axis
        value — the clean row plus one per mitigation — and, with a store
        attached, every mitigated cell is ledgered under a digest that folds
        the mitigation identity in, so resume/shared workers can never
        splice mitigated and unmitigated results.
        """
        identity = mitigation_identity(name, **params)
        spec = get_mitigation(name)
        task = self._task_name or "?"
        if spec.tasks and task not in spec.tasks:
            raise ValueError(f"mitigation {name!r} does not support task "
                             f"{task!r}; it supports {list(spec.tasks)}")
        if identity in self._mitigations:
            raise ValueError(f"mitigation {name!r} with these parameters is "
                             f"already on the session's axis")
        self._mitigations.append(identity)
        return self

    def workers(self, n: int | None,
                mode: str = "thread") -> "BenchmarkSession":
        """Fan variant evaluations out over ``n`` workers (None = serial).

        ``mode="thread"`` shares this session's caches across a thread
        pool; ``mode="process"`` sidesteps the GIL entirely — ``n`` helper
        processes divide the variant cells through the same lease walk
        ``repro worker`` fleets run (over this session's run ledger, or a
        temporary one without a store) while this process supervises.
        ``mode="shared"`` coordinates with *other processes* sharing this
        session's run directory (``repro worker``) via lease files instead
        of owning a pool — ``n`` is ignored there.  Parallel, shared, and
        serial sweeps return identical results; the modes only change
        wall-time and fault tolerance.
        """
        self._workers = n
        self._mode = mode
        return self

    def lease(self, ttl: float = 30.0, max_claims: int = 3,
              ) -> "BenchmarkSession":
        """Tune the shared-run lease protocol.

        ``ttl`` is how long a worker that stops heartbeating keeps its
        claims before peers reclaim them; ``max_claims`` is the per-cell
        claim budget before a repeatedly-fatal cell is quarantined as
        failed-poisoned.  See :mod:`repro.core.workqueue`.  Process-mode
        helpers take ``ttl`` too; their claim budget is ``retries + 1``.
        """
        self._lease_ttl = float(ttl)
        self._max_claims = int(max_claims)
        return self

    def batch(self, batch_size: int | None) -> "BenchmarkSession":
        """Evaluate in minibatches of this size (None = adapter default)."""
        self._batch_size = batch_size
        return self

    def shards(self, shard_size: int | None) -> "BenchmarkSession":
        """Stream evaluations through the shard pipeline (None = monolithic).

        With a shard size, every evaluation decodes and pre-processes the
        dataset in shard-sized chunks (peak memory bounded by one shard, not
        the dataset), shared and process-mode sweeps claim ``(variant ×
        shard)`` work items shard-major, decoding each shard once per
        pass, and merge their partial metric accumulators from the ledger,
        and — with a :meth:`store` attached — the ledger records per-shard
        entries so a crash mid-dataset resumes at shard granularity.
        Results are bit-identical to the monolithic path: inference
        minibatches stay cut at global offsets and INT8 calibration pins to
        the calibration shard (see ``docs/architecture.md``).
        """
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self._shard_size = shard_size
        return self

    def retries(self, n: int) -> "BenchmarkSession":
        """Retry budget per evaluation before recording a structured failure.

        With the default 0, a raising (or helper-killing) evaluation is
        recorded as a failed cell on the first strike; the rest of the sweep
        still completes and renders (failed cells show as ``!``).
        """
        self._retries = n
        return self

    def cancel(self, should_stop) -> "BenchmarkSession":
        """Install a cooperative cancellation hook for this session's runs.

        ``should_stop`` is a zero-arg callable (e.g. a
        ``threading.Event().is_set``) polled between evaluations; once it
        returns True the engine raises
        :class:`~repro.core.sweep.SweepCancelled` at the next cell boundary.
        Every already-completed evaluation is in the ledger, so a cancelled
        stored run resumes exactly like a crashed one.
        """
        self._should_stop = should_stop
        return self

    def store(self, path, run_id: str | None = None,
              **manifest_extra) -> "BenchmarkSession":
        """Attach a crash-safe :class:`~repro.core.runstore.RunStore`.

        Every evaluation :meth:`run` performs is appended to an on-disk
        JSONL ledger as it completes.  Pass the ``run_id`` of an existing
        run to *resume* it: ledger-complete evaluations are skipped and the
        final table is bit-identical to an uninterrupted run.  Extra keyword
        arguments are merged into the run manifest (a
        :class:`~repro.core.spec.RunSpec` records the fields it rebuilds the
        session from).
        """
        from .runstore import RunStore
        self._store = path if isinstance(path, RunStore) else RunStore(path)
        self._run_id = run_id
        self._manifest_extra = manifest_extra
        self._ledger_obj = None
        return self

    def fit(self, train_ds=None, cfg=None, **train_kw) -> "BenchmarkSession":
        """Train the model through the training-system pipeline."""
        ds = train_ds if train_ds is not None else self._train_ds
        if ds is None:
            raise ValueError("no training data: pass fit(train_ds) or use "
                             ".data(..., train_frac=...)")
        model = self._ensure_model(ds)
        if "epochs" in train_kw:
            self._fit_epochs = train_kw["epochs"]
        # Training pre-processes through the session's cache, so nothing
        # this session decodes outlives it in the process-wide default.
        if self._task_name == "cls":
            self.adapter.train(model, ds, cfg, model_name=self._model_name,
                               cache=self.cache, **train_kw)
        else:
            self.adapter.train(model, ds, cfg, cache=self.cache, **train_kw)
        # Training mutates the model in place: cached metrics and cached
        # deployment-model copies are stale (decoded pixels stay valid —
        # they are content-keyed).
        self.eval_cache.clear()
        self.cache.drop_prefix("model")
        if self._stored_entries():
            # The on-disk ledger has no weights identity, so its metrics are
            # only valid if this fit reproduced the recorded run's weights —
            # true for the documented resume flow (same seed, same data,
            # deterministic training), wrong for a re-fit with new settings.
            import logging
            logging.getLogger(__name__).warning(
                "run %s: fitting with a non-empty ledger — ledgered metrics "
                "will be reused and assume this training reproduced the "
                "recorded weights (same seed/config); attach a fresh run_id "
                "via .store(...) if this is a different model",
                self._run_id)
        return self

    def fit_or_load(self, *, epochs: int | None = None, log=None,
                    **train_kw) -> "BenchmarkSession":
        """Train, or restore this run's weight checkpoint (store required).

        The checkpoint — ``weights.npz`` inside the run directory — is what
        makes resume cheap *and* exact: a resumed run evaluates the very
        same weights instead of relying on retraining determinism, so
        ledgered metrics and freshly computed ones agree bitwise.  The save
        is atomic (tmp + rename), its content digest is recorded in the run
        manifest, and a torn/unreadable/digest-refuted checkpoint falls
        back to deterministic retraining — a kill at any point leaves the
        run resumable, and swapped-in wrong weights are never evaluated
        against the run's ledgered metrics.  ``log`` (e.g. ``print``)
        receives progress lines; None is silent.
        """
        import os

        from repro.nn import load_checkpoint, save_checkpoint

        from .integrity import verify_checkpoint

        ledger = self.ledger
        if ledger is None:
            raise ValueError("fit_or_load needs a run directory for the "
                             "checkpoint: call .store(...) first")
        log = log or (lambda msg: None)
        if epochs is not None:
            self._fit_epochs = epochs
        ckpt = ledger.path / "weights.npz"
        loaded = False
        if ckpt.exists():
            check = verify_checkpoint(ledger)
            if check["status"] == "mismatch":
                # Wrong weights would make every subsequent evaluation
                # disagree with the ledgered metrics — refuse and retrain
                # (repro fsck --repair quarantines the file itself).
                log(f"warning: checkpoint {ckpt} fails its recorded content "
                    f"digest (recorded {str(check['recorded'])[:12]}..., "
                    f"actual {str(check['actual'])[:12]}...); refusing it "
                    f"and retraining deterministically")
            else:
                try:
                    load_checkpoint(self.trained_model, ckpt)
                    self.trained_model.eval()
                    log(f"loaded trained weights from {ckpt} "
                        f"(digest {check['status']})")
                    loaded = True
                except Exception as exc:       # noqa: BLE001 — torn file
                    log(f"warning: checkpoint {ckpt} unreadable ({exc}); "
                        f"retraining deterministically")
                    self._model = None         # discard the half-loaded model
        if not loaded:
            if epochs is not None:
                train_kw["epochs"] = epochs
            log(f"training {self._label} "
                f"(epochs={train_kw.get('epochs', '?')}) ...")
            self.fit(**train_kw)
            # Atomic publish (numpy appends .npz to the temp name itself).
            tmp = save_checkpoint(self.trained_model,
                                  ckpt.with_name("weights.tmp"))
            os.replace(tmp, ckpt)
            ledger.record_checkpoint(ckpt)
        self._fit_or_load_mitigated(ledger, log)
        return self

    def _fit_or_load_mitigated(self, ledger, log) -> None:
        """Per-mitigation checkpoints next to the clean ``weights.npz``.

        Each train-time mitigation publishes under its own identity-keyed
        name (see :func:`~repro.core.mitigations.checkpoint_name`) with the
        same atomic-save + recorded-digest protocol, so a mitigated retrain
        can never clobber the clean weights and resume verifies each
        checkpoint independently.
        """
        import os

        from repro.nn import load_checkpoint, save_checkpoint

        from .integrity import verify_checkpoint

        for mit in self._mitigations:
            if mitigation_stage(mit) != "train":
                continue
            key = _mitigation_key(mit)
            name = checkpoint_name(mit)
            ckpt = ledger.path / name
            if ckpt.exists():
                check = verify_checkpoint(ledger, name=name)
                if check["status"] == "mismatch":
                    log(f"warning: checkpoint {ckpt} fails its recorded "
                        f"content digest; refusing it and retraining "
                        f"deterministically")
                else:
                    try:
                        model = self._build_fresh_model()
                        load_checkpoint(model, ckpt)
                        model.eval()
                        self._mitigated_models[key] = model
                        log(f"loaded {mit['name']} weights from {ckpt} "
                            f"(digest {check['status']})")
                        continue
                    except Exception as exc:   # noqa: BLE001 — torn file
                        log(f"warning: checkpoint {ckpt} unreadable "
                            f"({exc}); retraining deterministically")
                        self._mitigated_models.pop(key, None)
            log(f"training {self._label} with mitigation {mit['name']} "
                f"(epochs={self._fit_epochs}) ...")
            model = self._train_mitigated(mit)
            tmp = save_checkpoint(model, ckpt.with_name(ckpt.stem + ".tmp"))
            os.replace(tmp, ckpt)
            ledger.record_checkpoint(ckpt)

    def _stored_entries(self) -> int:
        """Ledger entry count without creating the run directory."""
        if self._ledger_obj is not None:
            return self._ledger_obj.counts()["entries"]
        if (self._store is not None and self._run_id is not None
                and self._run_id in self._store):
            return self._store.open(self._run_id).counts()["entries"]
        return 0

    # -- resolution helpers -------------------------------------------------

    @property
    def adapter(self) -> TaskAdapter:
        if self._task_name is None:
            raise ValueError("no task selected: call .task(name) first")
        return get_task(self._task_name)

    def _ensure_model(self, ds=None):
        if self._model is None:
            if self._model_name is None:
                raise ValueError("no model: call .model(name_or_instance)")
            kw = dict(self._build_kw)
            if ds is not None and hasattr(ds, "num_classes"):
                kw.setdefault("num_classes", ds.num_classes)
            self._model = self.adapter.build_model(self._model_name,
                                                   seed=self._seed, **kw)
        return self._model

    def _build_fresh_model(self):
        """A fresh untrained model for a per-mitigation training run."""
        if self._model_name is None:
            raise ValueError("train-time mitigations retrain from scratch "
                             "and need a model *name*, not an instance: "
                             "call .model('<zoo name>')")
        ds = self._train_ds if self._train_ds is not None else self._eval_ds
        kw = dict(self._build_kw)
        if ds is not None and hasattr(ds, "num_classes"):
            kw.setdefault("num_classes", ds.num_classes)
        return self.adapter.build_model(self._model_name, seed=self._seed,
                                        **kw)

    def _train_mitigated(self, mitigation: dict):
        """Train (once) the model for a train-time mitigation.

        Deterministic given (model name, seed, epochs, mitigation params),
        so a resume or shared-mode peer that has to retrain produces
        bit-identical weights.
        """
        key = _mitigation_key(mitigation)
        if key not in self._mitigated_models:
            if self._train_ds is None:
                raise ValueError(f"no training data for train-time "
                                 f"mitigation {mitigation['name']!r}: use "
                                 f".data(..., train_frac=...) or .fit(ds)")
            model = mitigation_train(mitigation, self.adapter,
                                     self._build_fresh_model(),
                                     self._train_ds,
                                     model_name=self._model_name,
                                     seed=self._seed,
                                     epochs=self._fit_epochs,
                                     cache=self.cache)
            model.eval()
            self._mitigated_models[key] = model
        return self._mitigated_models[key]

    def _mitigated_model(self, mitigation: dict):
        """The model a mitigation's row evaluates: retrained or the clean one."""
        if mitigation_stage(mitigation) == "test":
            return self.trained_model
        return self._train_mitigated(mitigation)

    @property
    def trained_model(self):
        return self._ensure_model(self._train_ds or self._eval_ds)

    @property
    def eval_data(self):
        if self._eval_ds is None:
            raise ValueError("no evaluation data: call .data(...) or "
                             ".dataset(ds)")
        return self._eval_ds

    def evaluate(self, cfg: NoiseConfig = TRAIN_CONFIG) -> float:
        """Metric of the session's model/dataset under one config (cached)."""
        model, ds = self.trained_model, self.eval_data
        return self.engine().evaluate(self._eval_fn(self.adapter), model, ds,
                                      cfg)

    # -- runs ---------------------------------------------------------------

    def engine(self, mitigation: dict | None = None) -> SweepEngine:
        """The sweep engine for this session's workers + eval-cache state.

        ``mitigation`` scopes the engine to one axis value: its identity
        folds into every ledger digest, cache key, and shard work unit.
        """
        return SweepEngine(workers=self._workers, eval_cache=self.eval_cache,
                           mode=self._mode, retries=self._retries,
                           ledger=self.ledger,
                           model_key=self._label or "model",
                           shard_size=self._shard_size,
                           task=self._task_name,
                           batch_size=self._batch_size,
                           pipeline_cache=self.cache,
                           should_stop=self._should_stop,
                           lease_ttl=self._lease_ttl,
                           max_claims=self._max_claims,
                           mitigation=mitigation)

    def _selected_noises(self) -> list[str]:
        return list(self._noises if self._noises is not None
                    else self.adapter.noises)

    @property
    def ledger(self):
        """The session's :class:`RunLedger` (created/resumed lazily), or
        None when no store is attached."""
        if self._store is None:
            return None
        if self._ledger_obj is None:
            from .runstore import run_manifest
            manifest = run_manifest(
                task=self._task_name or "?",
                model=self._label or "model", seed=self._seed,
                noises=self._selected_noises(), skip=self._skip,
                include_combined=self._include_combined,
                metric=self.adapter.metric_name,
                # Resume identity: ledgered metrics (and per-shard
                # accumulator states) are only valid under the same
                # minibatch/shard geometry they were computed with.
                eval_geometry={"batch_size": self._batch_size,
                               "shard_size": self._shard_size},
                # Mitigation-axis identity: always present (possibly empty)
                # so a resume with a *different* --mitigate set is an
                # identity mismatch, never a silent cell splice.
                mitigations=list(self._mitigations),
                **self._manifest_extra)
            self._ledger_obj = self._store.open_or_create(manifest,
                                                          self._run_id)
            self._run_id = self._ledger_obj.run_id
        return self._ledger_obj

    @property
    def run_id(self) -> str | None:
        return self._run_id

    def run(self) -> SessionResult:
        """Sweep every selected noise and aggregate one table row per axis.

        With a store attached (see :meth:`store`), every completed
        evaluation is appended to the run ledger as it finishes, and
        ledger-complete entries from a previous (interrupted) run are
        skipped — so re-running after a crash re-executes at most the
        remaining evaluations and produces a bit-identical table.

        With mitigations on the axis (see :meth:`mitigate`), the clean row
        is always swept first, then one row per mitigation — clean Δ and
        per-mitigation Δ land in the same table.
        """
        adapter, ds = self.adapter, self.eval_data
        model = self._ensure_model(ds)
        noises = self._selected_noises()
        engine = self.engine()
        row = engine.noise_row(self._eval_fn(adapter), model, ds, noises,
                               skip=self._skip,
                               include_combined=self._include_combined)
        mitigated = {}
        for mit, name in zip(self._mitigations,
                             mitigation_labels(self._mitigations)):
            m_engine = self.engine(mitigation=mit)
            mitigated[name] = m_engine.noise_row(
                self._eval_fn(adapter, mitigation=mit),
                self._mitigated_model(mit), ds, noises, skip=self._skip,
                include_combined=self._include_combined)
        return SessionResult(task=self._task_name, metric=adapter.metric_name,
                             label=self._label or "model", noises=noises,
                             baseline=row["trained"], results=row["noises"],
                             combined=row.get("combined"),
                             run_id=self._run_id, mitigated=mitigated)

    def worst_case(self, noises=None) -> list[tuple[str, float]]:
        """The Fig.-3 cumulative stacking curve for this session."""
        adapter, ds = self.adapter, self.eval_data
        model = self._ensure_model(ds)
        names = [n for n in (noises if noises is not None
                             else (self._noises or adapter.noises))
                 if n not in self._skip]
        return self.engine().worst_case_curve(self._eval_fn(adapter), model,
                                              ds, names)

    def _eval_fn(self, adapter, mitigation: dict | None = None):
        # Train-time mitigations act on the *model*, not the evaluation:
        # their rows evaluate through the plain path.
        test_mit = (mitigation if mitigation is not None
                    and mitigation_stage(mitigation) == "test" else None)
        if self._mode == "process":
            # Process-mode helpers cannot share the session's lock-bearing
            # caches; ship a picklable adapter-registry entry point instead
            # (each helper keeps a process-local decode cache).
            import functools

            from .tasks import evaluate_for_task
            return functools.partial(evaluate_for_task, self._task_name,
                                     batch_size=self._batch_size,
                                     mitigation=test_mit)
        if test_mit is not None:
            from .mitigations import mitigation_partials

            def evaluate_mitigated(model, ds, cfg: NoiseConfig) -> float:
                acc = adapter.accumulator(ds)
                for _, _, part in mitigation_partials(
                        test_mit, adapter, model, ds, cfg, [(0, len(ds))],
                        cache=self.cache, batch_size=self._batch_size):
                    acc.merge(part)
                return acc.value()
            return evaluate_mitigated

        def evaluate(model, ds, cfg: NoiseConfig) -> float:
            return adapter.evaluate(model, ds, cfg, cache=self.cache,
                                    batch_size=self._batch_size)
        return evaluate


def _mitigation_key(mitigation: dict) -> str:
    """Stable memoisation key for a mitigation identity dict."""
    from .runstore import config_digest
    return config_digest(mitigation)


#: Short alias for the fluent style: ``Session().task("cls")...``.
Session = BenchmarkSession
