"""The benchmark's own tests: span arithmetic, tail rule, names, checks.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, start, end, name="x", tid=1):
    return (sid, parent, name, tid, start, end)


def test_self_time_subtracts_nested_children():
    tree = [_span(1, None, 0.0, 10.0, "a"), _span(2, 1, 1.0, 4.0, "b"),
            _span(3, 2, 2.0, 3.0, "c"), _span(4, 1, 5.0, 8.0, "d")]
    assert spans.self_times(tree) == {1: 4.0, 2: 2.0, 3: 1.0, 4: 3.0}


def test_self_time_clips_cross_thread_and_overlapping_children():
    tree = [_span(1, None, 0.0, 10.0, "a"),
            _span(2, 1, 1.0, 4.0, "b", tid=2),      # overlaps its sibling
            _span(3, 1, 3.0, 6.0, "c", tid=3),
            _span(4, 1, 8.0, 14.0, "d", tid=2)]     # outlives its parent
    selfs = spans.self_times(tree)
    assert selfs[1] == 10.0 - 5.0 - 2.0
    assert selfs[4] == 6.0


def test_top_level_self_times_plus_unattributed_is_wall():
    doc = {"t0": 0.0, "t_end": 12.0, "counts": {},
           "spans": [_span(1, None, 0.5, 6.0, "a"), _span(2, 1, 1.0, 2.0, "b"),
                     _span(3, None, 7.0, 11.0, "c")]}
    summary = spans.process_summary(doc)
    assert summary["unattributed"] == 12.0 - 5.5 - 4.0
    assert sum(summary["self"].values()) + summary["unattributed"] == 12.0


def test_concurrent_top_level_spans_count_once_in_coverage():
    doc = {"t0": 0.0, "t_end": 10.0, "counts": {},
           "spans": [_span(1, None, 0.0, 6.0, "a", tid=1),
                     _span(2, None, 4.0, 8.0, "b", tid=2)]}
    assert spans.process_summary(doc)["unattributed"] == 2.0


def test_recorder_parents_threads_on_the_open_origin_span():
    rec = spans.Recorder()
    seen = {}

    def child(key):
        token = rec.begin(key)
        rec.end(token)

    outer = rec.begin("outer")
    inside = threading.Thread(target=child, args=("inside",))
    inside._perfbench_origin = rec.current()
    inside.start()
    inside.join(timeout=10)
    rec.end(outer)
    late = threading.Thread(target=child, args=("late",))
    late._perfbench_origin = outer[0]                  # closed by now
    late.start()
    late.join(timeout=10)
    assert not inside.is_alive() and not late.is_alive()
    for sid, parent, name, *_ in rec.spans:
        seen[name] = parent
    assert seen == {"inside": outer[0], "outer": None, "late": None}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(19)) is None
    assert run.tail_percentile(range(20)) == (50.0, 9)
    assert run.tail_percentile(range(99))[0] == 75.0
    assert run.tail_percentile(range(100)) == (90.0, 89)
    assert run.tail_percentile(range(1000)) == (99.0, 989)
    p, value = run.tail_percentile(range(100))
    assert sum(1 for x in range(100) if x > value) >= 10


def test_metric_names_are_valid_unique_and_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [n for n, _ in run.END_TO_END] + [n for n, *_ in run.PER_LAYER]
    assert all(pattern.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == [(n, u) for n, u, _ in run.PER_LAYER]
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)


def _ledger(path: Path, entries) -> Path:
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def _cell(cfg, status="ok", **extra):
    return {"kind": "eval", "model": "m", "dataset": "d", "cfg": cfg,
            "status": status, **extra}


TABLE = "title\nArchitecture  ACC\n------------  ---\nresnet        9.50\nrun r: done\n"


def test_a_corrupted_reference_table_counts_as_failure(tmp_path):
    ledger = refs.ledger_faults(_ledger(tmp_path / "ledger.jsonl",
                                        [_cell("a"), _cell("b")]))
    good = {"table": refs.table_body(TABLE), "cells": 2}
    assert workloads._run_faults(TABLE, ledger, good, rc=0) == (0, "")
    corrupt = {"table": [*good["table"][:2], "resnet        9.51"],
               "cells": 2}
    failed, why = workloads._run_faults(TABLE, ledger, corrupt, rc=0)
    assert failed == 2 and "differs from the reference" in why
    assert workloads._run_faults(TABLE, ledger, good, rc=1)[0] == 2


def test_ledger_errors_and_conflicting_shards_count_as_failures(tmp_path):
    shard = {"kind": "shard", "model": "m", "dataset": "d", "cfg": "a",
             "status": "ok", "shard": [0, 64], "state": {"correct": 3}}
    ref = {"table": refs.table_body(TABLE), "cells": 2}
    wasted = refs.ledger_faults(_ledger(tmp_path / "a.jsonl", [
        shard, shard, _cell("a", value=1.0), _cell("b", value=2.0)]))
    assert wasted == {"cells": 2, "errors": 0, "corrupt": 0,
                      "duplicates": 1, "conflicts": 0}
    assert workloads._run_faults(TABLE, wasted, ref, rc=0) == (0, "")
    other = {**shard, "state": {"correct": 4}}
    bad = refs.ledger_faults(_ledger(tmp_path / "b.jsonl", [
        shard, other, _cell("a"), _cell("b", status="error")]))
    assert bad == {"cells": 1, "errors": 1, "corrupt": 0,
                   "duplicates": 1, "conflicts": 1}
    assert workloads._run_faults(TABLE, bad, ref, rc=0)[0] == 2


def test_entry_shim_installs_wrappers_only_when_tracing(tmp_path):
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import entry; "
             "entry.main(['--import-only']); "
             "import repro.core.pipeline as p, repro.nn as nn; "
             "print(hasattr(p.decode_batch, '__wrapped__'), "
             "hasattr(nn.Tensor.backward, '__wrapped__'))")
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)

    def wrapped() -> str:
        return subprocess.run([sys.executable, "-c", probe, str(HERE)],
                              env=env, check=True, timeout=120,
                              capture_output=True, text=True).stdout.strip()
    assert wrapped() == "False False"
    env["PERFBENCH_TRACE_DIR"] = str(tmp_path)
    assert wrapped() == "True True"
    (dump,) = tmp_path.iterdir()
    doc = json.loads(dump.read_text())
    assert [s[2] for s in doc["spans"]] == ["proc.import"]
