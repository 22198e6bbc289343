"""Pluggable mitigation registry (paper §6: "does anything help?").

Every mitigation strategy the paper studies — mix training (Algorithm 1),
data augmentation, adversarial training, and TENT — is a
:class:`MitigationSpec`: a small class declaring *when* it intervenes and
exposing one hook for that stage:

* **train-time** mitigations (``mix``, ``augment:<name>``, ``adversarial``)
  implement :meth:`MitigationSpec.train` — they replace the task adapter's
  training step, producing a differently-trained model that is then swept
  exactly like a clean one.  Their checkpoints are stored *next to* the
  clean ``weights.npz`` under a per-mitigation name (see
  :func:`checkpoint_name`), so a retrain never clobbers the clean weights.
* **test-time** mitigations (``tent``) implement
  :meth:`MitigationSpec.evaluate_partials` — they wrap the adapter's
  streaming evaluation and adapt per inference batch.  Because inference
  minibatches are always cut at global offsets and shards align to the
  batch grid, a test-time mitigation is deterministic and shard-size
  invariant *at fixed batch geometry* (the geometry is part of the run
  manifest's identity).

Identity is first-class: :func:`mitigation_identity` canonicalises a name +
parameter overrides into a JSON-safe dict, and :func:`mitigated_digest`
folds that identity into the ledger's per-cell ``config_digest`` — a
mitigated cell can never splice into an unmitigated run (or vice versa),
whether through resume, shared-mode workers, or fsck backfill.

Specs register with :func:`register_mitigation`; ``augment`` demonstrates
the ``name:<arg>`` convention — ``augment:augmix`` resolves to the
``augment`` spec with ``augmix`` as its strategy argument.
"""

from __future__ import annotations

import contextlib
import logging

__all__ = ["MitigationSpec", "register_mitigation", "unregister_mitigation",
           "temporary_mitigation", "get_mitigation", "mitigation_names",
           "iter_mitigations", "mitigation_identity", "mitigation_stage",
           "mitigated_digest", "checkpoint_name", "mitigation_train",
           "mitigation_partials", "MITIGATION_STAGES"]

MITIGATION_STAGES = ("train", "test")

_log = logging.getLogger(__name__)


class MitigationSpec:
    """One mitigation strategy: identity + a train-time or test-time hook.

    Subclass, set the class attributes, implement :meth:`train` (for
    ``stage = "train"``) or :meth:`evaluate_partials` (for
    ``stage = "test"``), then decorate with :func:`register_mitigation`.
    """

    name: str = ""
    #: "train" wraps the adapter's training step; "test" wraps streaming eval.
    stage: str = "train"
    tasks: tuple[str, ...] = ("cls",)
    #: Parameter names + default values; overrides outside this set are
    #: rejected so a typo cannot silently mint a new ledger identity.
    defaults: dict = {}
    #: True when the registered name takes a ``:<arg>`` suffix
    #: (``augment:augmix``); the spec validates the argument itself.
    takes_arg: bool = False

    def check_arg(self, arg: str | None) -> None:
        """Validate the ``:<arg>`` suffix (default: none allowed)."""
        if arg is not None:
            raise ValueError(f"mitigation {self.name!r} takes no "
                             f"':<arg>' suffix (got {arg!r})")

    def resolved_params(self, overrides: dict) -> dict:
        """Defaults merged with ``overrides``; unknown keys are an error."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise ValueError(f"unknown parameter(s) {unknown} for mitigation "
                             f"{self.name!r}; known: {sorted(self.defaults)}")
        merged = dict(self.defaults)
        merged.update(overrides)
        return merged

    # -- hooks ---------------------------------------------------------------

    def train(self, adapter, model, ds, *, arg: str | None = None,
              model_name: str | None = None, seed: int = 0, epochs: int = 15,
              cache=None, **params):
        """Train-time hook: train ``model`` on ``ds`` with this mitigation.

        Must be deterministic given ``(model, seed, epochs, params)`` so a
        resume or a shared-mode peer retrains bit-identical weights.
        ``cache`` is the :class:`~repro.core.cache.DecodeCache` to
        pre-process through (a session's own; None means the process-wide
        default).
        """
        raise NotImplementedError(f"mitigation {self.name!r} is "
                                  f"{self.stage}-time; no train hook")

    def evaluate_partials(self, adapter, model, ds, cfg, bounds, *,
                          arg: str | None = None, cache=None,
                          batch_size=None, chunk_size=None, chunk_cache=None,
                          **params):
        """Test-time hook: the adapter's streaming protocol, mitigated.

        Yields ``(start, stop, accumulator)`` per bound, exactly like
        :meth:`~repro.core.tasks.TaskAdapter.evaluate_partials`, and must
        preserve its bit-exact shard-merge contract.
        """
        raise NotImplementedError(f"mitigation {self.name!r} is "
                                  f"{self.stage}-time; no eval hook")


_REGISTRY: dict[str, MitigationSpec] = {}


def register_mitigation(spec):
    """Register a :class:`MitigationSpec` class (or instance); returns it.

    Usable as a decorator::

        @register_mitigation
        class Distill(MitigationSpec):
            name = "distill"
            ...
    """
    inst = spec() if isinstance(spec, type) else spec
    if not inst.name:
        raise ValueError("MitigationSpec needs a non-empty name")
    if ":" in inst.name:
        raise ValueError(f"mitigation name {inst.name!r} may not contain "
                         f"':' — the suffix is reserved for per-call "
                         f"arguments (set takes_arg instead)")
    if inst.stage not in MITIGATION_STAGES:
        raise ValueError(f"unknown mitigation stage {inst.stage!r}; choose "
                         f"from {MITIGATION_STAGES}")
    if inst.name in _REGISTRY:
        raise ValueError(f"mitigation {inst.name!r} is already registered")
    _REGISTRY[inst.name] = inst
    return spec


def unregister_mitigation(name: str) -> None:
    _REGISTRY.pop(name.split(":", 1)[0], None)


@contextlib.contextmanager
def temporary_mitigation(spec):
    """Context manager: register a spec for the duration of a block."""
    inst = spec() if isinstance(spec, type) else spec
    register_mitigation(inst)
    try:
        yield inst
    finally:
        unregister_mitigation(inst.name)


def split_mitigation_name(name: str) -> tuple[str, str | None]:
    """``"augment:augmix"`` → ``("augment", "augmix")``; plain → arg None."""
    base, sep, arg = name.partition(":")
    return base, (arg if sep else None)


def get_mitigation(name: str) -> MitigationSpec:
    """Resolve a (possibly ``base:arg``-suffixed) name to its spec."""
    base, _ = split_mitigation_name(name)
    try:
        return _REGISTRY[base]
    except KeyError:
        raise ValueError(f"unknown mitigation {name!r}; "
                         f"see {list(_REGISTRY)}") from None


def mitigation_names() -> list[str]:
    return list(_REGISTRY)


def iter_mitigations() -> list[MitigationSpec]:
    return list(_REGISTRY.values())


# -- identity ------------------------------------------------------------


def mitigation_identity(name: str, **params) -> dict:
    """Canonical JSON-safe identity: validated name + resolved parameters.

    The returned dict is what the run manifest, the per-cell ledger digest
    (:func:`mitigated_digest`), checkpoint names, and the serve layer's job
    dedup all consume — one canonicalisation, every layer agrees.
    """
    spec = get_mitigation(name)
    base, arg = split_mitigation_name(name)
    if spec.takes_arg and arg is None:
        raise ValueError(f"mitigation {base!r} needs a ':<arg>' suffix "
                         f"(e.g. {base}:<name>)")
    spec.check_arg(arg)
    return {"name": name, "params": spec.resolved_params(params)}


def mitigation_labels(mitigations) -> list[str]:
    """The table-row label of each identity dict on one mitigation axis.

    A name that is unique on the axis is its own label (``tent``); entries
    that share a name add the parameters that differ between them, in the
    spec-string grammar (``tent:steps=1`` and ``tent:steps=2``), so no two
    rows of one table collide.
    """
    labels = []
    for mit in mitigations:
        params = mit.get("params", {})
        peers = [m.get("params", {}) for m in mitigations
                 if m["name"] == mit["name"]]
        if len(peers) == 1:
            labels.append(mit["name"])
            continue
        differ = sorted(k for k in params
                        if any(p.get(k) != params[k] for p in peers))
        labels.append(mit["name"] + ":" + ",".join(
            f"{k}={params[k]}" for k in differ))
    return labels


def mitigation_stage(mitigation) -> str:
    """``"train"`` or ``"test"`` for an identity dict or bare name."""
    name = mitigation["name"] if isinstance(mitigation, dict) else mitigation
    return get_mitigation(name).stage


def mitigated_digest(cfg, mitigation: dict | None = None) -> str:
    """Per-cell ledger digest with the mitigation identity folded in.

    ``None`` keeps the plain :func:`~repro.core.runstore.config_digest` —
    existing unmitigated ledgers stay valid byte-for-byte — while any
    mitigation produces a digest disjoint from every unmitigated cell, so
    resume/shared workers/fsck can never splice the two.
    """
    from .runstore import config_digest
    if mitigation is None:
        return config_digest(cfg)
    return config_digest({"cfg": cfg, "mitigation": mitigation})


def checkpoint_name(mitigation: dict) -> str:
    """Per-mitigation checkpoint filename (never ``weights.npz``).

    Keyed by the full identity digest so ``mix`` with different pools, or
    two ``augment:*`` strategies, publish to distinct files — a mitigated
    retrain can never clobber the clean checkpoint or a sibling's.
    """
    from .runstore import config_digest
    slug = mitigation["name"].replace(":", "-")
    return f"weights-{slug}-{config_digest(mitigation)[:8]}.npz"


# -- hook dispatch ---------------------------------------------------------


def mitigation_train(mitigation: dict, adapter, model, ds, *,
                     model_name: str | None = None, seed: int = 0,
                     epochs: int = 15, cache=None):
    """Run a train-time mitigation's training hook from its identity dict."""
    spec = get_mitigation(mitigation["name"])
    if spec.stage != "train":
        raise ValueError(f"mitigation {mitigation['name']!r} is "
                         f"{spec.stage}-time; it has no training step")
    _, arg = split_mitigation_name(mitigation["name"])
    return spec.train(adapter, model, ds, arg=arg, model_name=model_name,
                      seed=seed, epochs=epochs, cache=cache,
                      **mitigation.get("params", {}))


def mitigation_partials(mitigation: dict, adapter, model, ds, cfg, bounds, *,
                        cache=None, batch_size=None, chunk_size=None,
                        chunk_cache=None):
    """Run a test-time mitigation's streaming hook from its identity dict."""
    spec = get_mitigation(mitigation["name"])
    if spec.stage != "test":
        raise ValueError(f"mitigation {mitigation['name']!r} is "
                         f"{spec.stage}-time; it has no evaluation hook")
    _, arg = split_mitigation_name(mitigation["name"])
    return spec.evaluate_partials(adapter, model, ds, cfg, bounds, arg=arg,
                                  cache=cache, batch_size=batch_size,
                                  chunk_size=chunk_size,
                                  chunk_cache=chunk_cache,
                                  **mitigation.get("params", {}))


# -- built-in specs ---------------------------------------------------------


@register_mitigation
class MixTraining(MitigationSpec):
    """Algorithm 1: per-batch random decoder/resize/color sampling.

    Default pools (``None``) span the training setting plus every
    registered deployment variant of the decode and resize noises — the
    paper's "see every variant during training" protocol.
    """

    name = "mix"
    stage = "train"
    defaults = {"decoders": None, "resizes": None, "colors": None,
                "batch_size": 32, "lr": 0.08, "weight_decay": 1e-4}

    def train(self, adapter, model, ds, *, arg=None, model_name=None,
              seed=0, epochs=15, cache=None, **params):
        import repro.nn as nn
        from ..mitigation.mix_training import _train_with_mix
        from .noise import TRAIN_CONFIG
        p = self.resolved_params(params)
        decoders, resizes, colors = p["decoders"], p["resizes"], p["colors"]
        if decoders is None and resizes is None and colors is None:
            from .registry import get_noise
            decoders = ([TRAIN_CONFIG.decoder]
                        + list(get_noise("decoder").variants()))
            resizes = ([TRAIN_CONFIG.resize_method]
                       + list(get_noise("resize").variants()))
        cfg = nn.TrainConfig(epochs=epochs, batch_size=p["batch_size"],
                             lr=p["lr"], weight_decay=p["weight_decay"],
                             seed=seed)
        return _train_with_mix(model_name or "", ds, decoders=decoders,
                               resizes=resizes, colors=colors, cfg=cfg,
                               seed=seed, model=model, cache=cache)


@register_mitigation
class Augmentation(MitigationSpec):
    """Fig. 4 (left): train with one batch-level augmentation strategy.

    Registered as ``augment:<strategy>`` where ``<strategy>`` is a key of
    :data:`repro.mitigation.augment.AUGMENTATIONS`.
    """

    name = "augment"
    stage = "train"
    takes_arg = True
    defaults = {"batch_size": 32, "lr": 0.1, "weight_decay": 1e-4}

    def check_arg(self, arg):
        from ..mitigation.augment import get_augmentation
        if arg is None:
            raise ValueError("mitigation 'augment' needs a strategy, e.g. "
                             "augment:augmix")
        get_augmentation(arg)            # raises with the valid strategies

    def train(self, adapter, model, ds, *, arg=None, model_name=None,
              seed=0, epochs=15, cache=None, **params):
        import repro.nn as nn
        from ..mitigation.augment import get_augmentation
        from .noise import TRAIN_CONFIG
        from .pipeline import preprocess_dataset
        p = self.resolved_params(params)
        cfg = nn.TrainConfig(epochs=epochs, batch_size=p["batch_size"],
                             lr=p["lr"], weight_decay=p["weight_decay"],
                             seed=seed)
        x = preprocess_dataset(ds.streams, ds.input_size, TRAIN_CONFIG,
                               cache)
        nn.train_classifier(model, x, ds.labels, cfg,
                            transform=get_augmentation(arg))
        return model


@register_mitigation
class AdversarialTraining(MitigationSpec):
    """Fig. 4 (right): Madry-style ℓ∞-PGD adversarial training."""

    name = "adversarial"
    stage = "train"
    defaults = {"epsilon": 8 / 255, "pgd_steps": 3, "batch_size": 32,
                "lr": 0.05, "weight_decay": 1e-4}

    def train(self, adapter, model, ds, *, arg=None, model_name=None,
              seed=0, epochs=15, cache=None, **params):
        import repro.nn as nn
        from ..mitigation.adversarial import _adversarial_train
        from .noise import TRAIN_CONFIG
        from .pipeline import preprocess_dataset
        p = self.resolved_params(params)
        cfg = nn.TrainConfig(epochs=epochs, batch_size=p["batch_size"],
                             lr=p["lr"], weight_decay=p["weight_decay"],
                             seed=seed)
        x = preprocess_dataset(ds.streams, ds.input_size, TRAIN_CONFIG,
                               cache)
        return _adversarial_train(model, x, ds.labels, cfg,
                                  epsilon=p["epsilon"],
                                  pgd_steps=p["pgd_steps"])


@register_mitigation
class Tent(MitigationSpec):
    """TENT (Table 6): episodic test-time entropy minimisation.

    Each inference minibatch gets a *fresh* adapted copy of the deployment
    model (entropy steps on that batch's inputs only), so the result is a
    pure function of the batch contents — and therefore bit-identical
    whether the dataset is evaluated monolithically, streamed, or sharded
    across workers, as long as the batch geometry is fixed (minibatches
    are cut at global offsets and shards align to the batch grid).

    This is deliberately *not* cumulative TENT, which adapts one model over
    the whole dataset and is therefore order- and shard-dependent; see
    ``docs/mitigations.md``.

    Deployment models without BatchNorm affine parameters (ViTs, quantised
    graphs) cannot adapt: the hook falls back to the plain prediction and
    logs the no-op once instead of silently posing as a TENT result.
    """

    name = "tent"
    stage = "test"
    defaults = {"steps": 1, "lr": 1e-3}

    def evaluate_partials(self, adapter, model, ds, cfg, bounds, *,
                          arg=None, cache=None, batch_size=None,
                          chunk_size=None, chunk_cache=None, **params):
        p = self.resolved_params(params)
        return adapter.evaluate_partials(
            model, ds, cfg, bounds, cache=cache, batch_size=batch_size,
            chunk_size=chunk_size, chunk_cache=chunk_cache,
            predict=_tent_predict(p["steps"], p["lr"]))


def _tent_predict(steps: int, lr: float):
    """A ``predict(deployment_model, xb) -> labels`` hook doing episodic TENT."""
    def predict(noised, xb):
        from repro.nn import Tensor, no_grad
        from ..mitigation.tent import tent_episode
        res = tent_episode(noised, xb, steps=steps, lr=lr)
        with no_grad():
            return res.model(Tensor(xb)).data.argmax(axis=-1)
    return predict
