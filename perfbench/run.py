"""End-to-end benchmark of the SysNoise system: CLI runs, worker fleets, service.

    python3 perfbench/run.py --workload serve-jobs --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --record          # re-record reference tables

Workloads (closed loop, at most two concurrent processes or clients):

* ``table2-run``  — ``repro run`` at Table 2 geometry, back to back.
* ``sweep-fleet`` — two ``repro worker`` processes racing over a prepared,
  sharded, eval-heavy run until both print the table.
* ``serve-jobs``  — ``repro serve --job-workers 2`` with two clients that
  each submit a tiny job, stream its events to the end and fetch its table.

``--trace 0`` prints the end-to-end metrics of untraced operations.
``--trace 1`` splits the timed phase into an untraced and a traced half and
prints the per-layer metrics (self times and counts per operation, taken by
the wrappers ``entry.py`` installs) plus the tracing overhead.  The last
stdout line is the JSON result; the human report and a record carrying the
host fingerprint go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (("wall_s", "s"), ("tables_per_s", "1/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

#: (name, unit, source) of the per-layer metrics.  Sources: ``self`` sums a
#: span name's self time, ``calls`` counts its spans, ``count`` reads a
#: counter, ``ratio`` divides two counters, ``stage`` is the median of a
#: served job's stage time, ``duplicates`` the cells or shards an
#: operation's ledger holds twice (identical results: wasted work); all but
#: ratios and stages are per operation.
PER_LAYER = (
    ("image.decode.s", "s", ("self", "image.decode")),
    ("image.decode.images", "count", ("count", "image.decode.images")),
    ("image.resize.s", "s", ("self", "image.resize")),
    ("data.synth.s", "s", ("self", "data.synth")),
    ("pipeline.preprocess.s", "s", ("self", "pipeline.preprocess")),
    ("pipeline.deploy.s", "s", ("self", "pipeline.deploy")),
    ("cache.decode.hit_ratio", "ratio",
     ("ratio", "cache.decode.hits", "cache.decode.lookups")),
    ("nn.train.s", "s", ("self", "nn.train")),
    ("nn.train.steps", "count", ("calls", "nn.backward")),
    ("nn.backward.s", "s", ("self", "nn.backward")),
    ("nn.col2im.s", "s", ("self", "nn.col2im")),
    ("nn.eval.s", "s", ("self", "nn.eval")),
    ("backend.plan.s", "s", ("self", "backend.plan")),
    ("metrics.update.s", "s", ("self", "metrics.update")),
    ("sweep.cell.s", "s", ("self", "sweep.cell")),
    ("sweep.cells", "count", ("count", "sweep.cells")),
    ("ledger.append.calls", "count", ("calls", "ledger.append")),
    ("ledger.append.s", "s", ("self", "ledger.append")),
    ("ledger.refresh.calls", "count", ("calls", "ledger.refresh")),
    ("ledger.refresh.s", "s", ("self", "ledger.refresh")),
    ("ledger.bytes", "bytes", ("count", "ledger.bytes")),
    ("workqueue.claim.calls", "count", ("calls", "workqueue.claim")),
    ("workqueue.claim.s", "s", ("self", "workqueue.claim")),
    ("workqueue.claim.won_ratio", "ratio",
     ("ratio", "workqueue.claim.won", "workqueue.claim")),
    ("workqueue.reclaims", "count", ("count", "workqueue.reclaims")),
    ("ledger.duplicates", "count", ("duplicates",)),
    ("serve.submit_ms", "ms", ("stage", "submit_ms")),
    ("serve.queue_wait_s", "s", ("stage", "queue_wait_s")),
    ("serve.job_run_s", "s", ("stage", "job_run_s")),
    ("serve.delivery_s", "s", ("stage", "delivery_s")),
    ("serve.table_ms", "ms", ("stage", "table_ms")),
    ("proc.import_s", "s", ("self", "proc.import")),
    ("unattributed.s", "s", ("unattributed",)),
    ("trace.overhead_s", "s", ("overhead",)),
)

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles: ``p`` selects the ``ceil(p/100 * n)``-th
    smallest sample, and the samples beyond are those ranked after it.
    Returns ``(p, value)``, or None with fewer than eleven samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(outcome) -> dict:
    ops = [op for op in outcome.ops if not op.traced]
    values = {
        "wall_s": _median(op.wall_s for op in ops),
        "tables_per_s": len(ops) / outcome.phase_s,
        "cpu_s": (outcome.cpu_s if outcome.cpu_s is not None
                  else _median(op.cpu_s for op in ops)),
        "peak_rss_mb": (outcome.rss_mb if outcome.rss_mb is not None
                        else _median(op.rss_mb for op in ops)),
        "setup_s": _median(outcome.setup_s),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(outcome) -> dict:
    traces = outcome.traces
    per_op = sum(t.get("jobs", 1) for t in traces) or 1

    def total(kind: str, name: str) -> float:
        return sum(t[kind].get(name, 0) for t in traces)

    traced = [op for op in outcome.ops if op.traced]
    untraced = [op for op in outcome.ops if not op.traced]
    out = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind in ("self", "calls"):
            value = total(kind, source[1]) / per_op
        elif kind == "count":
            value = total("counts", source[1]) / per_op
        elif kind == "ratio":
            den = (total("calls", source[2]) if source[2] == "workqueue.claim"
                   else total("counts", source[2]))
            value = total("counts", source[1]) / den if den else 0.0
        elif kind == "stage":
            value = _median(op.stages[source[1]] for op in traced
                            if source[1] in op.stages)
        elif kind == "duplicates":
            value = sum(op.duplicates for op in outcome.ops) / len(outcome.ops)
        elif kind == "unattributed":
            value = sum(t["unattributed"] for t in traces) / per_op
        else:
            value = (_median(op.wall_s for op in traced)
                     - _median(op.wall_s for op in untraced))
        out[name] = {"value": value, "unit": unit}
    return out


def report(args, fp: dict, outcome, metrics: dict, attempted: int,
           failed: int) -> None:
    err = sys.stderr
    walls = [op.wall_s for op in outcome.ops if not op.traced]
    tail = tail_percentile(walls)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", file=err)
    print(f"  host: {fp['cores']} core(s), {fp['cpu']}, {fp['blas']} "
          f"{fp['blas_version']} ({fp['blas_threads']} threads), python "
          f"{fp['python']}, numpy {fp['numpy']}, commit "
          f"{fp['git_commit'] or '-'}, src {fp['src_digest']}", file=err)
    print(f"  reference tables: {outcome.reference}", file=err)
    for note in outcome.notes:
        print(f"  FAILED {note}", file=err)
    print(f"  operations: {len(outcome.ops)} ({len(walls)} untraced); "
          f"error_rate {failed}/{attempted} = {failed / attempted:.4f}",
          file=err)
    print(f"  operation seconds: median {_median(walls):.4f} over "
          f"{len(walls)} sample(s); " + (
              f"p{tail[0]:g} {tail[1]:.4f} ({len(walls)} samples)" if tail
              else "too few samples for a tail percentile"), file=err)
    if outcome.traces:
        print(f"  traced processes: "
              f"{sum(t['processes'] for t in outcome.traces)}; self times + "
              f"unattributed - wall, largest: "
              f"{max(t['overlap'] for t in outcome.traces):.6f} s "
              f"(0 unless spans overlap on concurrent threads)", file=err)
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6f} {metric['unit']}",
              file=err)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": fp,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "reference": outcome.reference, "attempted": attempted,
              "failed": failed, "samples": len(walls),
              "tail": list(tail) if tail else None, "metrics": metrics,
              "ops": [[op.wall_s, op.cpu_s, op.rss_mb, op.traced]
                      for op in outcome.ops],
              "setup_s": outcome.setup_s}
    print("record " + json.dumps(record), file=err)


def record_references(only: str | None) -> int:
    import host
    import refs
    from workloads import JOB_SEEDS, RUN_SEEDS, spec_for

    key = host.numeric_key(host.fingerprint(ROOT))
    for workload, n in (("table2-run", RUN_SEEDS), ("sweep-fleet", RUN_SEEDS),
                        ("serve-jobs", JOB_SEEDS)):
        if only not in (None, workload):
            continue
        t0 = time.perf_counter()
        tables = {seed: refs.compute(spec_for(workload, seed))
                  for seed in range(n)}
        refs.save(workload, key, tables)
        print(f"{workload}: {n} reference(s) in "
              f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("table2-run", "sweep-fleet", "serve-jobs"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the reference tables for this host "
                             "(all workloads, or only --workload)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record:
        return record_references(args.workload)
    if args.workload is None:
        parser.error("--workload is required")

    import host
    from workloads import WORKLOADS, Launcher

    fp = host.fingerprint(ROOT)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work, launcher,
            host.numeric_key(fp))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()             # unless a concurrent run uses it
        except OSError:
            pass
    attempted = sum(op.attempted for op in outcome.ops)
    failed = sum(op.failed for op in outcome.ops)
    metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
    report(args, fp, outcome, metrics, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
