"""Mitigation studies: mix training, augmentation, adversarial training, TENT.

These implementations back the registered mitigation specs in
:mod:`repro.core.mitigations`; drive them through
``BenchmarkSession.mitigate(name, **params)`` (or ``repro run --mitigate``)
to get ledgered, resumable, multi-worker-safe results.  The primitives
exported here (``cross_variant_matrix``, ``AUGMENTATIONS``,
``get_augmentation``, ``pgd_attack``, ``tent_episode``) are the building
blocks the specs and the benchmark tables use directly.
"""

from .adversarial import pgd_attack
from .augment import AUGMENTATIONS, get_augmentation
from .mix_training import cross_variant_matrix
from .tent import TentResult, tent_episode

__all__ = [
    "cross_variant_matrix",
    "AUGMENTATIONS", "get_augmentation",
    "pgd_attack",
    "tent_episode", "TentResult",
]
