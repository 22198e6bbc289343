"""Crash-safe run CLI: ``repro run --store`` and ``repro resume <run_id>``.

``run`` is the persistent sibling of ``sweep``: every evaluation is appended
to a JSONL ledger under ``--store`` as it completes, and the trained weights
are checkpointed into the run directory, so a killed run loses nothing that
already finished.  ``resume`` rebuilds the session from the run's manifest
(same dataset seed, same weights via the checkpoint), skips every
ledger-complete evaluation, and re-executes at most the remainder — the
final table is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse

from .evaluate_cmd import _add_engine_args, _bad_noises

__all__ = ["register"]

_DATA_DEFAULTS = dict(native_size=48, input_size=32)

_MITIGATE_HELP = ("mitigation to sweep alongside the clean row, e.g. "
                  "`tent`, `tent:steps=2,lr=0.01`, `augment:augmix`, "
                  "`mix` (repeatable; see `repro mitigations`)")


def _parse_mitigate(text: str) -> tuple[str, dict]:
    """``name[:key=val,...]`` → ``(name, params)`` with coerced values.

    The mitigation name may itself contain a ``:`` suffix (``augment:augmix``),
    so the parameter segment is only split off when it contains ``=``:
    ``augment:augmix:lr=0.2`` → ``("augment:augmix", {"lr": 0.2})``.
    """
    name, params = text, {}
    head, _, tail = text.rpartition(":")
    if "=" in tail:
        name = head
        for pair in tail.split(","):
            key, eq, raw = pair.partition("=")
            if not eq or not key:
                raise ValueError(f"malformed mitigation parameter {pair!r} "
                                 f"in {text!r} (expected key=value)")
            params[key] = _coerce(raw)
    if not name:
        raise ValueError(f"malformed mitigation spec {text!r}")
    return name, params


def _coerce(raw: str):
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _apply_mitigations(session, texts) -> int:
    """Apply ``--mitigate`` specs to a session; 0 on success, 2 on error."""
    for text in texts or ():
        try:
            name, params = _parse_mitigate(text)
            session.mitigate(name, **params)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run",
                       help="crash-safe sweep: ledger every evaluation to a "
                            "RunStore (resumable via `repro resume`)")
    p.add_argument("--model", default="resnet18x0.25",
                   help="zoo model name (see list-models)")
    p.add_argument("--n", type=int, default=240,
                   help="dataset size (train+val)")
    p.add_argument("--train-frac", type=float, default=0.75)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noises", default=None,
                   help="comma-separated subset (default: all "
                        "classification noises)")
    p.add_argument("--no-combined", action="store_true",
                   help="skip the all-noises-at-once column")
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
    _add_engine_args(p)
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


def _build_stored_session(model: str, seed: int, data_kw: dict,
                          workers, mode: str, batch_size, retries: int,
                          shard_size=None):
    from repro.core import BenchmarkSession

    return (BenchmarkSession()
            .task("cls")
            .seed(seed)
            .workers(workers, mode=mode)
            .batch(batch_size)
            .shards(shard_size)
            .retries(retries)
            .model(model)
            .data(**data_kw))


def _apply_zoo_skips(session, model: str) -> None:
    from repro.models import MODEL_ZOO
    spec = {s.name: s for s in MODEL_ZOO}.get(model)
    if spec is not None and not spec.has_maxpool:
        session.skip("ceil_mode")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core import CLS_NOISES

    noises = args.noises.split(",") if args.noises else list(CLS_NOISES)
    bad = _bad_noises(noises, CLS_NOISES)
    if bad:
        print(f"error: unknown classification noise(s) {bad}; "
              f"choose from {list(CLS_NOISES)}")
        return 2
    data_kw = dict(n=args.n, train_frac=args.train_frac, **_DATA_DEFAULTS)
    try:
        session = _build_stored_session(
            args.model, args.seed, data_kw, args.workers,
            getattr(args, "mode", "thread"), args.batch_size, args.retries,
            getattr(args, "shard_size", None))
    except ValueError as exc:                # e.g. --shard-size 0
        print(f"error: {exc}")
        return 2
    session.noises(*noises).combined(not args.no_combined)
    _apply_zoo_skips(session, args.model)
    if _apply_mitigations(session, args.mitigate):
        return 2
    session.store(args.store, run_id=args.run_id,
                  data=data_kw,              # part of the resume identity
                  cli={"model": args.model, "data": data_kw,
                       "fit": {"epochs": args.epochs},
                       "workers": args.workers,
                       "mode": getattr(args, "mode", "thread"),
                       "batch_size": args.batch_size,
                       "shard_size": getattr(args, "shard_size", None),
                       "retries": args.retries,
                       "mitigate": list(args.mitigate or ())})
    try:
        ledger = session.ledger            # creates or resumes the run
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    before = ledger.counts()
    session.fit_or_load(epochs=args.epochs, log=print)
    if getattr(args, "prepare_only", False):
        print(f"run {ledger.run_id} prepared: weights checkpointed under "
              f"{ledger.path} — launch `repro worker {ledger.run_id} "
              f"--store {args.store}` processes to execute the sweep")
        return 0
    result = session.run()
    after = ledger.counts()
    print(result.render(f"SysNoise run — {args.model}"))
    print(f"run {result.run_id}: ledger {ledger.path / 'ledger.jsonl'} "
          f"({after['ok']} ok, {after['error']} failed, "
          f"{after['entries'] - before['entries']} new this invocation)")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.core import RunStore

    store = RunStore(args.store)
    try:
        manifest = store.read_manifest(args.run_id)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    cli = manifest.get("cli", {})
    if "data" not in cli:
        print(f"error: run {args.run_id!r} has no CLI manifest (created "
              f"through the Python API?); resume it by re-running your "
              f"script with .store({str(store.root)!r}, "
              f"run_id={args.run_id!r})")
        return 2
    workers = args.workers if args.workers is not None else cli.get("workers")
    mode = args.mode or cli.get("mode", "thread")
    retries = (args.retries if args.retries is not None
               else cli.get("retries", 0))
    # Shard geometry is resume identity: per-shard ledger entries only
    # satisfy lookups for exactly the bounds the original run derived.
    session = _build_stored_session(
        cli.get("model", manifest["model"]), manifest["seed"], cli["data"],
        workers, mode, cli.get("batch_size"), retries, cli.get("shard_size"))
    session.noises(*manifest["noises"]).skip(*manifest.get("skip", ()))
    session.combined(manifest.get("include_combined", True))
    # Mitigations are run identity, never an override: a resume either
    # inherits the recorded set or restates it exactly.  Splicing cells
    # evaluated under different mitigations into one ledger would corrupt
    # every row of the final table.
    recorded = list(manifest.get("mitigations", ()))
    if args.mitigate is not None:
        from repro.core.mitigations import mitigation_identity
        try:
            requested = []
            for text in args.mitigate:
                name, params = _parse_mitigate(text)
                requested.append(mitigation_identity(name, **params))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        if sorted(map(repr, requested)) != sorted(map(repr, recorded)):
            print(f"error: run {args.run_id!r} was created with mitigations "
                  f"{[m['name'] for m in recorded]} but --mitigate requests "
                  f"{[m['name'] for m in requested]} (or different "
                  f"parameters); a different mitigation set is a different "
                  f"run — start one with `repro run --mitigate ...`")
            return 2
    for mit in recorded:
        session.mitigate(mit["name"], **mit.get("params", {}))
    session.store(store, run_id=args.run_id, data=cli["data"], cli=cli)
    try:
        ledger = session.ledger            # the single ledger replay
    except ValueError as exc:              # identity mismatch, plan run
        print(f"error: {exc}")
        return 2
    before = ledger.counts()
    session.fit_or_load(epochs=cli.get("fit", {}).get("epochs", 15),
                        log=print)
    result = session.run()
    after = ledger.counts()
    print(result.render(f"SysNoise run — {session._label} (resumed)"))
    print(f"resumed run {args.run_id}: {before['ok']} evaluation(s) "
          f"restored from the ledger, "
          f"{after['entries'] - before['entries']} re-executed"
          + (f", {after['error']} still failing" if after["error"] else ""))
    return 0
