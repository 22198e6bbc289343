"""Architecture-wise robustness analysis (paper §4.2's family claims).

The paper draws three family-level conclusions from Table 2:

1. within a family, larger models degrade less;
2. lightweight families (MobileNet, MCUNet) are the most fragile;
3. ViTs respond to SysNoise differently from CNNs.

This module turns a set of Table-2 rows (the output of
:meth:`repro.core.sweep.SweepEngine.noise_row`, or ``SessionResult.row()``,
per model) into the aggregates those claims are about, so benchmarks and
downstream users can test them instead of eyeballing the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FamilySummary", "family_summaries", "size_trend",
           "render_family_table"]


@dataclass(frozen=True)
class FamilySummary:
    """Aggregated SysNoise behaviour of one architecture family."""

    family: str
    models: tuple[str, ...]
    mean_combined: float        # mean Combined Δ across members
    mean_single: float          # mean of per-noise mean Δs across members
    worst_single: float         # worst per-noise mean Δ in the family
    spread: float               # std of Combined Δ across members


def _mean_deltas(row: dict) -> list[float]:
    """Per-noise mean Δ values of one table row (skips inapplicable '-')."""
    return [res.mean_delta for res in row["noises"].values()
            if res is not None and res.values]


def family_summaries(rows: dict[str, dict],
                     family_of) -> dict[str, FamilySummary]:
    """Aggregate table rows by family.

    ``rows`` maps model name -> ``noise_row(...)`` result;``family_of`` maps
    a model name to its family tag (e.g. :func:`repro.models.family_of`).
    """
    groups: dict[str, list[str]] = {}
    for name in rows:
        groups.setdefault(family_of(name), []).append(name)
    out = {}
    for family, names in groups.items():
        combined = [rows[n].get("combined") for n in names
                    if rows[n].get("combined") is not None]
        singles = [d for n in names for d in _mean_deltas(rows[n])]
        out[family] = FamilySummary(
            family=family, models=tuple(names),
            mean_combined=float(np.mean(combined)) if combined else float("nan"),
            mean_single=float(np.mean(singles)) if singles else float("nan"),
            worst_single=float(np.max(singles)) if singles else float("nan"),
            spread=float(np.std(combined)) if len(combined) > 1 else 0.0)
    return out


def size_trend(rows: dict[str, dict], ordered_models: list[str]) -> float:
    """Slope of Combined Δ against family-size rank (claim 1).

    ``ordered_models`` lists one family's members smallest→largest; a
    negative slope means larger members degrade less, the paper's finding.
    Returns NaN when fewer than two members carry a Combined value.
    """
    points = [(i, rows[m]["combined"]) for i, m in enumerate(ordered_models)
              if m in rows and rows[m].get("combined") is not None]
    if len(points) < 2:
        return float("nan")
    x, y = np.array([p[0] for p in points]), np.array([p[1] for p in points])
    return float(np.polyfit(x, y, 1)[0])


def render_family_table(summaries: dict[str, FamilySummary]) -> str:
    """Family aggregates, most fragile first."""
    header = (f"{'family':<14} {'members':>7} {'mean single Δ':>14} "
              f"{'worst single Δ':>15} {'mean combined Δ':>16} {'spread':>8}")
    lines = [header, "-" * len(header)]
    ranked = sorted(summaries.values(), key=lambda s: -s.mean_combined)
    for s in ranked:
        lines.append(f"{s.family:<14} {len(s.models):>7d} "
                     f"{s.mean_single:>14.2f} {s.worst_single:>15.2f} "
                     f"{s.mean_combined:>16.2f} {s.spread:>8.2f}")
    return "\n".join(lines)
