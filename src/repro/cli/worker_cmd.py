"""``repro worker <run_id>``: one fault-tolerant shared-sweep worker.

Launch N of these against one run directory (typically created with
``repro run --prepare-only``) and they divide the run's (variant × shard)
cells among themselves through lease files (:mod:`repro.core.workqueue`)
and the shared JSONL ledger (:mod:`repro.core.runstore`).  Any worker may
die — SIGKILL, OOM, a stalled NFS mount — and the survivors reclaim its
expired leases and finish the run; every surviving worker prints the same
final table a serial ``repro run`` would have, because all of them render
it from the same ledger-resident values.

The protocol (claims, heartbeats, reclamation, poison quarantine) is
documented in ``docs/faults.md``.
"""

from __future__ import annotations

import argparse
import os

from .run_cmd import _build_stored_session

__all__ = ["register"]


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("worker",
                       help="join a shared run as one fault-tolerant sweep "
                            "worker (lease-coordinated; launch N of these)")
    p.add_argument("run_id", help="run id inside --store to work on")
    p.add_argument("--store", default="runs",
                   help="RunStore directory (default: runs/)")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds a silent worker keeps its claims before "
                        "peers reclaim them (default: 30)")
    p.add_argument("--max-claims", type=int, default=3,
                   help="per-cell claim budget before the cell is "
                        "quarantined as failed-poisoned (default: 3)")
    p.add_argument("--retries", type=int, default=None,
                   help="override the recorded in-process retry budget")
    p.set_defaults(func=cmd_worker)


def cmd_worker(args: argparse.Namespace) -> int:
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
              f"through the Python API?); shared workers need it to rebuild "
              f"the session — create the run with `repro run --store ... "
              f"--prepare-only`")
        return 2
    retries = (args.retries if args.retries is not None
               else cli.get("retries", 0))
    # Identical session geometry to the run that created the manifest —
    # dataset seed, shard/batch sizes — is what makes every worker derive
    # the same cell identities and the same final table.
    session = _build_stored_session(
        cli.get("model", manifest["model"]), manifest["seed"], cli["data"],
        None, "shared", cli.get("batch_size"), retries, cli.get("shard_size"))
    session.lease(args.lease_ttl, args.max_claims)
    session.noises(*manifest["noises"]).skip(*manifest.get("skip", ()))
    session.combined(manifest.get("include_combined", True))
    # Workers inherit the run's mitigation axis from the manifest — the
    # identities there are already resolved, so every worker derives the
    # same mitigated ledger keys (and the same mitigation checkpoints).
    for mit in manifest.get("mitigations", ()):
        session.mitigate(mit["name"], **mit.get("params", {}))
    session.store(store, run_id=args.run_id, data=cli["data"], cli=cli)
    try:
        ledger = session.ledger
    except ValueError as exc:              # identity mismatch, plan run
        print(f"error: {exc}")
        return 2
    before = ledger.counts()
    # A worker holding wrong weights must refuse to join: its results
    # would splice silently-divergent metrics into every peer's table.
    # (Retraining here — the resume path's fallback — is not safe either:
    # peers may be mid-sweep on the *recorded* weights right now.)
    from repro.core import verify_checkpoint
    from repro.core.mitigations import checkpoint_name, mitigation_stage
    names = ["weights.npz"] + [checkpoint_name(m)
                               for m in manifest.get("mitigations", ())
                               if mitigation_stage(m) == "train"]
    for name in names:
        check = verify_checkpoint(ledger, name=name)
        if check["status"] == "mismatch":
            print(f"error: checkpoint {ledger.path / name} fails its "
                  f"recorded content digest (recorded "
                  f"{str(check['recorded'])[:12]}..., actual "
                  f"{str(check['actual'])[:12]}...) — refusing to join run "
                  f"{args.run_id}; run `repro fsck {args.run_id} --store "
                  f"{args.store} --repair` and re-prepare")
            return 2
    # Loads the prepared checkpoint; if the run was not prepared, every
    # worker trains the same deterministic weights (slower, still correct —
    # the checkpoint publish is atomic and last-writer-wins-identically).
    session.fit_or_load(epochs=cli.get("fit", {}).get("epochs", 15),
                        log=print)
    result = session.run()
    after = ledger.counts()
    print(result.render(f"SysNoise run — {session._label}"))
    print(f"worker {os.uname().nodename}:{os.getpid()} done: "
          f"{after['ok']} ok, {after['error']} failed, "
          f"{after['entries'] - before['entries']} new entr(y/ies) since "
          f"this worker joined (all workers combined)")
    return 0
