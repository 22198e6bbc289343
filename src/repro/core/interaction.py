"""Pairwise noise-interaction analysis (extends the paper's Fig. 3 study).

Fig. 3 observes that stacked SysNoise is sometimes *less* than the sum of
its parts (pre-processing noises overlap) and sometimes *more* (INT8 and
ceil+upsample magnify each other), but only along one fixed stacking order.
This module measures the full pairwise structure:

    interaction(a, b) = Δ(a ∧ b) − Δ(a) − Δ(b)

* ``interaction < 0`` — the noises overlap (sub-additive), e.g. two
  pre-processing perturbations disturbing the same pixels;
* ``interaction ≈ 0`` — independent effects;
* ``interaction > 0`` — mutual magnification (super-additive), the paper's
  ceil-mode × upsample case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import TRAIN_CONFIG
from .registry import combined_config, noise_names

__all__ = ["InteractionMatrix", "pairwise_interaction", "render_interaction"]


@dataclass
class InteractionMatrix:
    """Single/pair Δmetric and the derived interaction terms."""

    noises: list[str]
    baseline: float
    singles: dict[str, float]                       # noise -> Δ
    pairs: dict[tuple[str, str], float]             # (a, b) -> Δ(a ∧ b)

    def interaction(self, a: str, b: str) -> float:
        key = (a, b) if (a, b) in self.pairs else (b, a)
        return self.pairs[key] - self.singles[a] - self.singles[b]

    def strongest(self, top: int = 3) -> list[tuple[str, str, float]]:
        """Pairs ranked by |interaction|, strongest first."""
        ranked = sorted(((a, b, self.interaction(a, b))
                         for a, b in self.pairs),
                        key=lambda t: abs(t[2]), reverse=True)
        return ranked[:top]


def pairwise_interaction(evaluate, model, ds,
                         noises: list[str]) -> InteractionMatrix:
    """Measure Δ for every single noise and every unordered pair.

    ``evaluate(model, ds, cfg) -> metric`` is a task evaluator such as
    ``get_task(name).evaluate``; each noise is applied at its worst-case
    setting (the Fig.-3 convention), so singles here match the stacking
    study's first step sizes.
    """
    known = noise_names()
    unknown = [n for n in noises if n not in known]
    if unknown:
        raise ValueError(f"no worst-case setting for {unknown}; "
                         f"known: {sorted(known)}")
    baseline = evaluate(model, ds, TRAIN_CONFIG)
    singles = {n: baseline - evaluate(model, ds, combined_config([n]))
               for n in noises}
    pairs = {}
    for i, a in enumerate(noises):
        for b in noises[i + 1:]:
            delta = baseline - evaluate(model, ds, combined_config([a, b]))
            pairs[(a, b)] = delta
    return InteractionMatrix(list(noises), baseline, singles, pairs)


def render_interaction(matrix: InteractionMatrix, metric: str = "ACC") -> str:
    """Text rendering: singles on the diagonal, interactions off-diagonal."""
    noises = matrix.noises
    width = max(9, max(len(n) for n in noises) + 1)
    header = " " * width + "".join(n.rjust(width) for n in noises)
    lines = [f"pairwise Δ{metric} interaction "
             f"(diag = single Δ, off-diag = Δ(pair) − ΔA − ΔB):", header]
    for a in noises:
        cells = []
        for b in noises:
            if a == b:
                cells.append(f"{matrix.singles[a]:+.2f}".rjust(width))
            elif (a, b) in matrix.pairs or (b, a) in matrix.pairs:
                cells.append(f"{matrix.interaction(a, b):+.2f}".rjust(width))
            else:
                cells.append("-".rjust(width))
        lines.append(a.ljust(width) + "".join(cells))
    strongest = matrix.strongest()
    if strongest:
        lines.append("strongest interactions: " +
                     ", ".join(f"{a}×{b}: {v:+.2f}" for a, b, v in strongest))
    return "\n".join(lines)
