"""Evaluation CLI commands: sweep (one Table-2 row) and worst-case (Fig. 3).

All three commands validate their flags into one
:class:`~repro.core.spec.RunSpec` and drive the session it builds: load the
synthetic dataset, train a zoo classifier from scratch — sized for a
laptop-minute demo by default — then measure SysNoise exactly as the
benchmark harness does.  For the shipped benchmark numbers use
``pytest benchmarks/`` instead, which caches trained weights on disk.
"""

from __future__ import annotations

import argparse

__all__ = ["register"]


def register(sub: argparse._SubParsersAction) -> None:
    for name, helptext in (("sweep", "ΔACC per noise type for one model "
                                     "(one Table-2 row)"),
                           ("worst-case", "Fig.-3 cumulative noise stacking")):
        p = sub.add_parser(name, help=helptext)
        _add_spec_args(p, sweep=name == "sweep")
        p.set_defaults(func=cmd_sweep if name == "sweep" else cmd_worst_case)

    p = sub.add_parser("interaction",
                       help="pairwise noise-interaction matrix (ablation E)")
    _add_spec_args(p)
    p.add_argument("--noises", default="decoder,resize,color,precision",
                   help="comma-separated noise subset to cross")
    p.set_defaults(func=cmd_interaction)


def _add_spec_args(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    """The run-spec flags; ``sweep`` adds the noise selection."""
    p.add_argument("--model", default="resnet18x0.25",
                   help="zoo model name (see list-models)")
    p.add_argument("--n", type=int, default=240,
                   help="dataset size (train+val)")
    p.add_argument("--train-frac", type=float, default=0.75)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    if sweep:
        p.add_argument("--noises", default=None,
                       help="comma-separated subset (default: all "
                            "classification noises)")
        p.add_argument("--no-combined", action="store_true",
                       help="skip the all-noises-at-once column")
    p.add_argument("--workers", type=int, default=None,
                   help="fan variant evaluations out over this many workers "
                        "(capped at the cores available to the process; "
                        "default: serial)")
    p.add_argument("--mode", choices=("thread", "process"), default="thread",
                   help="worker flavour: threads share the session "
                        "caches; processes sidestep the GIL as helpers "
                        "dividing the cells through leases")
    p.add_argument("--batch-size", type=int, default=None,
                   help="evaluation minibatch size (default: adapter choice)")
    p.add_argument("--shard-size", type=int, default=None,
                   help="stream evaluations in shards of this many items "
                        "(bounded peak memory, (variant x shard) process "
                        "scheduling, shard-granular ledger resume; "
                        "default: monolithic)")


def checked_spec(args: argparse.Namespace, **doc):
    """The command's flags as a validated RunSpec, or None after printing
    why they are invalid (the server's 400 texts)."""
    from repro.core import RunSpec
    if hasattr(args, "no_combined"):
        doc.update(noises=args.noises.split(",") if args.noises else None,
                   include_combined=not args.no_combined)
    try:
        return RunSpec.from_doc({"model": args.model, "n": args.n,
                                 "train_frac": args.train_frac,
                                 "epochs": args.epochs, "seed": args.seed,
                                 "batch_size": args.batch_size,
                                 "shard_size": args.shard_size,
                                 "workers": args.workers, "mode": args.mode,
                                 **doc})
    except ValueError as exc:
        print(f"error: {exc}")
        return None


def _trained_session(spec):
    """Dataset + freshly trained zoo classifier at CLI demo scale."""
    print(f"training {spec.model} (n={spec.n}, epochs={spec.epochs}) ...")
    return spec.to_session().fit(epochs=spec.epochs)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = checked_spec(args)
    if spec is None:
        return 2
    result = _trained_session(spec).run()
    print(result.render(f"SysNoise sweep — {spec.model}"))
    return 0


def cmd_worst_case(args: argparse.Namespace) -> int:
    from repro.core import render_curve

    spec = checked_spec(args)
    if spec is None:
        return 2
    session = _trained_session(spec)
    print(render_curve(session.worst_case(), session.adapter.metric_name))
    return 0


def cmd_interaction(args: argparse.Namespace) -> int:
    from repro.core import (TRAIN_CONFIG, combined_config, noise_names,
                            pairwise_interaction, render_interaction)

    noises = args.noises.split(",")
    known = set(noise_names())
    bad = [n for n in noises if n not in known]
    if bad:
        print(f"error: unknown noise(s) {bad}; choose from {sorted(known)}")
        return 2
    spec = checked_spec(args)
    if spec is None:
        return 2
    session = _trained_session(spec)
    # The interaction study's configs are known up front: fan them out over
    # the session engine so --workers applies, then the serial matrix walk
    # below is pure eval-cache hits.
    configs = ([TRAIN_CONFIG]
               + [combined_config([n]) for n in noises]
               + [combined_config([a, b]) for i, a in enumerate(noises)
                  for b in noises[i + 1:]])
    session.engine().map(session.evaluate, configs)
    matrix = pairwise_interaction(
        lambda m, d, cfg: session.evaluate(cfg),
        session.trained_model, session.eval_data, noises)
    print(render_interaction(matrix))
    return 0
