"""Command-line interface: ``python -m repro <command>``.

The CLI wraps the library's main entry points so the benchmark can be driven
without writing Python:

=================  ==========================================================
``noises``         The pluggable noise registry (stage, tasks, variant count);
                   ``--import`` pulls in modules registering custom sources.
``tasks``          The task-adapter registry (metric, applicable noises).
``mitigations``    The mitigation registry (stage, tasks, parameters) —
                   the accepted values for ``--mitigate``.
``list-noises``    The Table-1 taxonomy and the deployment variants per type.
``list-models``    The model zoo (family, parameter count, capability flags).
``list-backends``  Vendor backend personas and their implementation options.
``sweep``          Train a zoo classifier on the synthetic task and measure
                   ΔACC per noise type (one Table-2 row).
``run``            Crash-safe ``sweep``: every evaluation is appended to a
                   JSONL ledger under ``--store`` as it completes, weights
                   are checkpointed, and the run is resumable.
``resume``         Resume an interrupted ``run`` from its ledger — skips
                   completed evaluations, re-executes at most the rest, and
                   prints a table bit-identical to an uninterrupted run.
``worker``         Join a shared run as one fault-tolerant sweep worker:
                   N workers divide the cells via lease files over the run
                   directory, reclaim dead peers' claims, and each print
                   the same final table (see ``docs/faults.md``).  Refuses
                   to join when the run's checkpoint fails its recorded
                   content digest.
``fsck``           Verify run-directory integrity — ledger checksums,
                   snapshot validity, checkpoint digests, lease hygiene —
                   for one run or ``--all``; ``--repair`` quarantines
                   corrupt entries and restores the run to a resumable
                   state (see ``docs/integrity.md``).
``worst-case``     The Fig.-3 cumulative noise-stacking curve for one model.
``interaction``    Pairwise noise-interaction matrix (ablation E).
``export``         Lower a model to the deployment graph (.npz); supports
                   ``--optimize`` (compiler passes) and ``--int8`` (QDQ).
``profile``        Per-op FLOPs/params/shape report, optional wall time;
                   ``--compiled`` times the compiled execution plan.
``backend-diff``   Export a model to the graph IR and localise where two
                   backends diverge, layer by layer.
``visualize``      The Fig.-5 difference maps as terminal heatmaps (optionally
                   saved as ``.npy``).
``report``         Concatenate the rendered tables under benchmarks/results,
                   or — with ``--store`` — list a RunStore's runs with their
                   ledger-replay status / render one run's table.
``serve``          Benchmark-as-a-service: a long-lived HTTP server that
                   queues sweep/worst-case/interaction jobs, streams
                   incremental results, and survives restarts via the run
                   ledger (see ``docs/serving.md``).
=================  ==========================================================

``noises``, ``tasks``, ``mitigations``, and ``report`` accept ``--json`` for
machine-readable output, produced by the same serializers the serve API uses.

``run`` and ``resume`` accept ``--mitigate NAME[:K=V,...]`` (repeatable) to
sweep mitigation rows alongside the clean row (see ``docs/mitigations.md``).

Every command accepts ``--help``.  Exit status is 0 on success, 2 on bad
arguments (argparse convention).

Every command pins OpenBLAS to one thread before it does any work (see
:func:`repro.backend.parallel.pin_blas_threads`): the workers, sweep
threads and serve job threads are the only parallelism.  It also keeps
freed array buffers resident for the next array (see
:func:`repro.backend.parallel.retain_heap`).
"""

from __future__ import annotations

import argparse
import sys

from . import (backends_cmd, evaluate_cmd, fsck_cmd, info_cmd, noises_cmd,
               report_cmd, run_cmd, serve_cmd, worker_cmd)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SysNoise benchmark CLI (MLSys 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (info_cmd, noises_cmd, evaluate_cmd, run_cmd, worker_cmd,
                   fsck_cmd, backends_cmd, report_cmd, serve_cmd):
        module.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code instead of raising SystemExit."""
    args = build_parser().parse_args(argv)
    from ..backend.parallel import pin_blas_threads, retain_heap
    retain_heap()
    pin_blas_threads()
    return args.func(args)


if __name__ == "__main__":           # pragma: no cover
    sys.exit(main())
