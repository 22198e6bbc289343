"""Reference tables: recorded per workload and seed, keyed by host numerics.

``references/<workload>.json`` holds ``{"numeric_key", "seeds": {seed:
{"table": [...], "cells": n}}}``.  A reference is the table body an
in-process :class:`repro.core.BenchmarkSession` renders for the same spec —
a different code path from the CLI, worker fleet and HTTP service the
benchmark times.  Floating-point results depend on the BLAS kernels, so a
reference only applies on a host whose numeric key matches; elsewhere the
benchmark computes the reference in-process after the timed phase and says
so in its report.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

__all__ = ["table_body", "load", "save", "compute", "ledger_faults"]

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "references"


def table_body(text: str) -> list[str] | None:
    """The rendered table from its header on, minus the run-specific title."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("Architecture"):
            return [ln.rstrip() for ln in lines[i:i + 3]]
    return None


def load(workload: str, key: str) -> dict:
    """Recorded ``{seed: {"table", "cells"}}`` for this numeric key, or {}."""
    path = REF_DIR / f"{workload}.json"
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if doc.get("numeric_key") != key:
        return {}
    return {int(seed): ref for seed, ref in doc["seeds"].items()}


def save(workload: str, key: str, refs: dict) -> None:
    REF_DIR.mkdir(exist_ok=True)
    doc = {"numeric_key": key,
           "seeds": {str(seed): refs[seed] for seed in sorted(refs)}}
    (REF_DIR / f"{workload}.json").write_text(json.dumps(doc, indent=1)
                                              + "\n")


def compute(spec: dict) -> dict:
    """``{"table", "cells"}`` for one run spec, evaluated in-process."""
    from repro.core import CLS_NOISES, BenchmarkSession
    from repro.models import MODEL_ZOO

    zoo = {s.name: s for s in MODEL_ZOO}
    session = (BenchmarkSession().task("cls").seed(spec["seed"])
               .shards(spec["shard_size"]).model(spec["model"])
               .data(n=spec["n"], train_frac=spec["train_frac"],
                     native_size=48, input_size=32)
               .noises(*(spec["noises"] or CLS_NOISES))
               .combined(spec["combined"]))
    if not zoo[spec["model"]].has_maxpool:
        session.skip("ceil_mode")
    with tempfile.TemporaryDirectory() as tmp:
        session.store(tmp)
        session.fit(epochs=spec["epochs"])
        table = table_body(session.run().render("reference"))
        cells = session.ledger.counts()["ok"]
    return {"table": table, "cells": cells}


def ledger_faults(path: Path) -> dict:
    """Cell outcomes of one run ledger, and cells or shards written twice.

    A (cell x shard) ledgered twice with the same result is wasted work
    (``duplicates``); with a different result it is a ``conflict``.
    """
    ok: dict[tuple, object] = {}
    shards: dict[tuple, object] = {}
    errors = corrupt = duplicates = conflicts = 0
    try:
        lines = path.read_bytes().splitlines()
    except OSError:
        lines = []
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            corrupt += 1
            continue
        cell = (entry.get("model"), entry.get("dataset"), entry.get("cfg"))
        if entry.get("kind") == "eval" and entry.get("status") != "ok":
            errors += 1
            continue
        if entry.get("kind") == "eval":
            seen, key, result = ok, cell, entry.get("value")
        elif entry.get("kind") == "shard":
            seen, key = shards, cell + tuple(entry.get("shard", ()))
            result = entry.get("state")
        else:
            continue
        if key in seen:
            duplicates += 1
            conflicts += seen[key] != result
        seen[key] = result
    return {"cells": len(ok), "errors": errors, "corrupt": corrupt,
            "duplicates": duplicates, "conflicts": conflicts}
