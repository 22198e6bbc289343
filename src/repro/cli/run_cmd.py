"""Crash-safe run CLI: ``repro run --store`` and ``repro resume <run_id>``.

``run`` is the persistent sibling of ``sweep``: every evaluation is appended
to a JSONL ledger under ``--store`` as it completes, and the trained weights
are checkpointed into the run directory, so a killed run loses nothing that
already finished.  ``resume`` rebuilds the session from the
:class:`~repro.core.spec.RunSpec` the run's manifest records (same dataset
seed, same weights via the checkpoint), skips every ledger-complete
evaluation, and re-executes at most the remainder — the final table is
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import dataclasses

from .evaluate_cmd import _add_spec_args, checked_spec

__all__ = ["register"]

_MITIGATE_HELP = ("mitigation to sweep alongside the clean row, e.g. "
                  "`tent`, `tent:steps=2,lr=0.01`, `augment:augmix`, "
                  "`mix` (repeatable; see `repro mitigations`)")


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run",
                       help="crash-safe sweep: ledger every evaluation to a "
                            "RunStore (resumable via `repro resume`)")
    _add_spec_args(p, sweep=True)
    p.add_argument("--store", default="runs",
                   help="RunStore directory for the ledger (default: runs/)")
    p.add_argument("--run-id", default=None,
                   help="run id to create or resume (default: generated)")
    p.add_argument("--retries", type=int, default=0,
                   help="retry budget per failing evaluation before it is "
                        "recorded as a failed cell")
    p.add_argument("--prepare-only", action="store_true",
                   help="create the run and train/checkpoint the model, then "
                        "exit without sweeping — the handoff point for "
                        "`repro worker` fleets")
    p.add_argument("--mitigate", action="append", default=None,
                   metavar="NAME[:K=V,...]", help=_MITIGATE_HELP)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("resume",
                       help="resume an interrupted `repro run` from its "
                            "ledger (skips completed evaluations)")
    p.add_argument("run_id", help="run id inside --store (see its manifest)")
    p.add_argument("--store", default="runs",
                   help="RunStore directory (default: runs/)")
    p.add_argument("--retries", type=int, default=None,
                   help="override the recorded retry budget")
    p.add_argument("--workers", type=int, default=None,
                   help="override the recorded worker count")
    p.add_argument("--mode", choices=("thread", "process", "shared"),
                   default=None,
                   help="override the recorded worker pool flavour")
    p.add_argument("--mitigate", action="append", default=None,
                   metavar="NAME[:K=V,...]",
                   help="must match the run's recorded mitigations exactly "
                        "(omit to inherit them); a different set is a "
                        "different run — create one instead of resuming")
    p.set_defaults(func=cmd_resume)


def cmd_run(args: argparse.Namespace) -> int:
    spec = checked_spec(args, retries=args.retries, mitigation=args.mitigate)
    if spec is None:
        return 2
    session = spec.to_session(args.store, args.run_id)
    try:
        ledger = session.ledger            # creates or resumes the run
    except ValueError as exc:              # identity mismatch, plan run
        print(f"error: {exc}")
        return 2
    before = ledger.counts()
    session.fit_or_load(epochs=spec.epochs, log=print)
    if args.prepare_only:
        print(f"run {ledger.run_id} prepared: weights checkpointed under "
              f"{ledger.path} — launch `repro worker {ledger.run_id} "
              f"--store {args.store}` processes to execute the sweep")
        return 0
    result = session.run()
    after = ledger.counts()
    print(result.render(f"SysNoise run — {spec.model}"))
    print(f"run {result.run_id}: ledger {ledger.path / 'ledger.jsonl'} "
          f"({after['ok']} ok, {after['error']} failed, "
          f"{after['entries'] - before['entries']} new this invocation)")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.core import RunSpec, RunStore

    store = RunStore(args.store)
    try:
        recorded = RunSpec.from_manifest(store.read_manifest(args.run_id))
        overrides = {k: v for k, v in (("workers", args.workers),
                                       ("retries", args.retries),
                                       ("mitigation", args.mitigate))
                     if v is not None}
        spec = RunSpec.from_doc({**recorded.doc(), **overrides})
    except ValueError as exc:
        print(f"error: run {args.run_id!r}: {exc}")
        return 2
    # Mitigations are run identity, never an override: a resume either
    # inherits the recorded set or restates it exactly.  Splicing cells
    # evaluated under different mitigations into one ledger would corrupt
    # every row of the final table.
    if sorted(map(repr, spec.mitigation)) != sorted(map(repr,
                                                        recorded.mitigation)):
        print(f"error: run {args.run_id!r} was created with mitigations "
              f"{[m['name'] for m in recorded.mitigation]} but --mitigate "
              f"requests {[m['name'] for m in spec.mitigation]} (or "
              f"different parameters); a different mitigation set is a "
              f"different run — start one with `repro run --mitigate ...`")
        return 2
    # The recorded axis order is the run's, and "shared" is a mode only
    # resume may pick, so neither goes through the validator.
    spec = dataclasses.replace(spec, mitigation=recorded.mitigation,
                               mode=args.mode or spec.mode)
    session = spec.to_session(store, args.run_id)
    try:
        ledger = session.ledger            # the single ledger replay
    except ValueError as exc:              # identity mismatch, plan run
        print(f"error: {exc}")
        return 2
    before = ledger.counts()
    session.fit_or_load(epochs=spec.epochs, log=print)
    result = session.run()
    after = ledger.counts()
    print(result.render(f"SysNoise run — {spec.model} (resumed)"))
    print(f"resumed run {args.run_id}: {before['ok']} evaluation(s) "
          f"restored from the ledger, "
          f"{after['entries'] - before['entries']} re-executed"
          + (f", {after['error']} still failing" if after["error"] else ""))
    return 0
