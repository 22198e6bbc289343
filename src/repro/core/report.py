"""Plain-text table rendering in the paper's format.

Cell vocabulary: ``-`` marks an *inapplicable* cell (a skipped noise, or the
Combined column when the row was built with ``include_combined=False``);
``!`` marks a cell whose every evaluation failed (or has not run yet when
rendering a partially complete ledger); a trailing ``!`` on a numeric cell
flags partial failure — the statistics cover the surviving variants only.
"""

from __future__ import annotations

import math

from .sweep import NoiseResult

__all__ = ["format_cell", "render_table", "render_taxonomy", "render_curve"]


def format_cell(result: NoiseResult | None, multi: bool) -> str:
    """Paper-style cell: "mean (max)" for multi-option noises, plain Δ else."""
    if result is None:
        return "-"
    if result.all_failed:
        return "!"
    cell = (f"{result.mean_delta:.2f} ({result.max_delta:.2f})" if multi
            else f"{result.mean_delta:.2f}")
    return cell + "!" if result.errors else cell


def _scalar_cell(value) -> str:
    """Baseline / Combined cell: '-' when absent, '!' when failed."""
    if value is None:
        return "-"
    if math.isnan(value):
        return "!"
    return f"{value:.2f}"


def _is_multi(noise: str) -> bool:
    """Multi-variant noises get "mean (max)" cells — derived from the
    registry so custom sources render like the built-ins."""
    from .registry import get_noise
    try:
        return len(get_noise(noise).variants()) > 1
    except ValueError:
        return noise in {"decoder", "resize", "precision"}


def render_table(rows: dict[str, dict], noises: list[str], metric: str,
                 title: str) -> str:
    """Render {model -> noise_row(...)} as an aligned text table."""
    headers = ["Architecture", f"Trained {metric}"] + noises + ["Combined"]
    lines = [[name, _scalar_cell(row["trained"])]
             + [format_cell(row["noises"].get(n), _is_multi(n)) for n in noises]
             + [_scalar_cell(row.get("combined"))]
             for name, row in rows.items()]
    widths = [max(len(h), *(len(l[i]) for l in lines)) if lines else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [title, fmt(headers), fmt(["-" * w for w in widths])]
    out += [fmt(l) for l in lines]
    return "\n".join(out)


def render_taxonomy() -> str:
    """Paper Table 1 as text."""
    from .noise import NOISE_TAXONOMY
    headers = ["Type", "Stage", "Tasks", "InputDep", "Effect", "#Cat", "Occurrence"]
    lines = [[s.name, s.stage, "/".join(s.tasks),
              "yes" if s.input_dependent else "no", s.effect_level,
              str(s.num_categories), s.occurrence] for s in NOISE_TAXONOMY]
    widths = [max(len(h), *(len(l[i]) for l in lines))
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    return "\n".join([fmt(headers), fmt(["-" * w for w in widths])]
                     + [fmt(l) for l in lines])


def render_curve(curve: list[tuple[str, float]], metric: str) -> str:
    """Fig.-3 style cumulative text plot."""
    out = [f"cumulative Δ{metric} as noises stack:"]
    for name, delta in curve:
        bar = "#" * max(0, int(round(delta * 4)))
        out.append(f"  +{name:<10} {delta:6.2f}  {bar}")
    return "\n".join(out)
