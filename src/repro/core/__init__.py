"""The SysNoise benchmark core: registry, task adapters, sessions, reports.

Three abstractions make the core extensible (see ``docs/api.md``):

* :mod:`repro.core.registry` — pluggable noise types (``@register_noise``);
  taxonomy, variant sets, and per-task noise lists are derived views.
* :mod:`repro.core.tasks` — :class:`TaskAdapter` registry unifying
  classification / detection / segmentation / NLP / audio workloads.
* :mod:`repro.core.session` — :class:`BenchmarkSession`, the fluent facade
  that owns decode caching, sweeps, and report emission.

Per-task evaluation is ``get_task(name).evaluate``; sweeps, rows and
worst-case curves are :class:`SweepEngine` methods (or a session's
:meth:`~BenchmarkSession.run` / :meth:`~BenchmarkSession.worst_case`).
The CLI and the server describe every classification run as a
:class:`RunSpec` (:mod:`repro.core.spec`): validated, recorded in the run
manifest and turned into a session in one place.
"""

from .analysis import (FamilySummary, family_summaries, render_family_table,
                       size_trend)
from .cache import (DecodeCache, EvalCache, dataset_token, eval_key,
                    object_token, streams_digest)
from .datapipe import (DataShards, Shard, dataset_subset, prefetched,
                       rebatch, shard_bounds)
from .faults import (FaultError, FaultInjector, FaultRule, fault_point,
                     install as install_faults, uninstall as uninstall_faults)
from .integrity import (checkpoint_digest, fsck_run, fsck_store,
                        verify_checkpoint)
from .interaction import (InteractionMatrix, pairwise_interaction,
                          render_interaction)
from .metrics import (Accuracy, MeanAP, MeanIoU, MeanScores,
                      MetricAccumulator, accumulator_from_state)
from .mitigations import (MitigationSpec, checkpoint_name, get_mitigation,
                          iter_mitigations, mitigated_digest,
                          mitigation_identity, mitigation_names,
                          mitigation_stage, register_mitigation,
                          temporary_mitigation, unregister_mitigation)
from .noise import NoiseConfig, NoiseSpec, TRAIN_CONFIG
from .pipeline import (apply_model_noise, decode_dataset, decode_shards,
                       normalize, preprocess, preprocess_dataset,
                       preprocess_shards)
from .registry import (CLS_NOISES, DET_NOISES, NOISE_TAXONOMY, SEG_NOISES,
                       WORST_CASE_ORDER, FieldNoise, NoiseSource,
                       combined_config, deployment_variants, get_noise,
                       iter_noises, noise_names, noises_for_task,
                       register_noise, temporary_noise, unregister_noise,
                       worst_case_stack)
from .report import format_cell, render_curve, render_table, render_taxonomy
from .runstore import (RunLedger, RunStore, config_digest, expected_cells,
                       ledger_table, run_info, run_manifest)
from .session import BenchmarkSession, NoiseResult, Session, SessionResult
from .spec import RunSpec
from .sweep import SweepCancelled, SweepEngine
from .tasks import (NLPDataset, TaskAdapter, evaluate_for_task, get_task,
                    register_task, task_names, unregister_task)
from .training import (default_train_config, train_classification_model,
                       train_detection_model, train_segmentation_model)
from .workqueue import Lease, WorkQueue

__all__ = [
    # configs + taxonomy views
    "NoiseSpec", "NOISE_TAXONOMY", "NoiseConfig", "TRAIN_CONFIG",
    "deployment_variants", "WORST_CASE_ORDER",
    # noise registry
    "NoiseSource", "FieldNoise", "register_noise", "unregister_noise",
    "temporary_noise", "get_noise", "noise_names", "iter_noises",
    "noises_for_task", "worst_case_stack",
    # task registry
    "TaskAdapter", "register_task", "unregister_task", "get_task",
    "task_names", "evaluate_for_task", "NLPDataset",
    # mitigation registry
    "MitigationSpec", "register_mitigation", "unregister_mitigation",
    "temporary_mitigation", "get_mitigation", "mitigation_names",
    "iter_mitigations", "mitigation_identity", "mitigation_stage",
    "mitigated_digest", "checkpoint_name",
    # session facade + sweep engine
    "BenchmarkSession", "Session", "SessionResult", "SweepEngine",
    "SweepCancelled", "RunSpec",
    # crash-safe run persistence
    "RunStore", "RunLedger", "config_digest", "ledger_table", "run_manifest",
    "expected_cells", "run_info",
    # integrity verification (fsck)
    "checkpoint_digest", "verify_checkpoint", "fsck_run", "fsck_store",
    # shared-run coordination + fault injection
    "WorkQueue", "Lease", "FaultRule", "FaultInjector", "FaultError",
    "fault_point", "install_faults", "uninstall_faults",
    # streaming shard pipeline
    "DataShards", "Shard", "dataset_subset", "shard_bounds", "rebatch",
    "prefetched", "MetricAccumulator", "Accuracy", "MeanAP", "MeanIoU",
    "MeanScores", "accumulator_from_state",
    # pipeline + caching
    "decode_dataset", "decode_shards", "preprocess", "preprocess_dataset",
    "preprocess_shards", "apply_model_noise",
    "normalize", "DecodeCache", "EvalCache", "streams_digest",
    "object_token", "dataset_token", "eval_key",
    # sweep rows + per-task noise lists
    "NoiseResult", "combined_config", "CLS_NOISES", "DET_NOISES",
    "SEG_NOISES",
    # reports
    "format_cell", "render_table", "render_taxonomy", "render_curve",
    # training helpers
    "train_classification_model", "train_detection_model",
    "train_segmentation_model", "default_train_config",
    # analyses
    "InteractionMatrix", "pairwise_interaction", "render_interaction",
    "FamilySummary", "family_summaries", "size_trend", "render_family_table",
]
