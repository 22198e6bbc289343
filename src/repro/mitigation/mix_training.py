"""Mix training (paper Algorithm 1, Tables 7-8).

Instead of one fixed decoder/resize, each training batch is preprocessed with
a *randomly sampled* decoder and/or resize method, so the model "sees" every
deployment variant during training.  The paper shows this shrinks the
across-variant accuracy std by ≈3-5× at no clean-accuracy cost.

Variant arrays are preprocessed once and cached, so the mix only costs an
index lookup per batch.
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.nn import Tensor
from repro.nn import functional as F

from ..core.noise import TRAIN_CONFIG
from ..core.pipeline import preprocess_dataset
from ..data.imagenet import ClassificationDataset
from ..models import create_model

__all__ = ["cross_variant_matrix"]


def _train_with_mix(model_name: str, ds: ClassificationDataset,
                    decoders: list[str] | None = None,
                    resizes: list[str] | None = None,
                    colors: list[str | None] | None = None,
                    cfg: nn.TrainConfig | None = None, seed: int = 0,
                    model=None, cache=None):
    """Algorithm 1: per-batch random decoder/resize/color sampling.

    ``decoders``/``resizes``/``colors`` are the pools to sample from; pass
    ``None`` to keep that stage fixed at the training default.  The color
    pool may include ``None`` (direct RGB) alongside pipeline names — the
    paper's Algorithm 1 covers decoder and resize; the color axis is the
    same "see every variant" principle applied to the third pre-processing
    noise.  Returns the trained model (a fresh one unless ``model`` is
    supplied).  The variant arrays are memoised in ``cache`` (a
    :class:`~repro.core.cache.DecodeCache`; None means the process-wide
    default).
    """
    cfg = cfg or nn.TrainConfig(epochs=25, batch_size=32, lr=0.08,
                                weight_decay=1e-4)
    if model is None:
        model = create_model(model_name, num_classes=ds.num_classes, seed=seed)
    rng = np.random.default_rng(cfg.seed)

    decoder_pool = decoders or [TRAIN_CONFIG.decoder]
    resize_pool = resizes or [TRAIN_CONFIG.resize_method]
    color_pool = colors if colors is not None else [TRAIN_CONFIG.color]
    variants = {}
    for d in decoder_pool:
        for r in resize_pool:
            for c in color_pool:
                cfg_i = TRAIN_CONFIG.with_(decoder=d, resize_method=r,
                                           color=c)
                variants[(d, r, c)] = preprocess_dataset(
                    ds.streams, ds.input_size, cfg_i, cache)
    keys = list(variants)

    opt = nn.SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum,
                 weight_decay=cfg.weight_decay)
    steps = cfg.epochs * int(np.ceil(len(ds) / cfg.batch_size))
    sched = nn.CosineSchedule(opt, steps)
    model.train()
    for _ in range(cfg.epochs):
        order = rng.permutation(len(ds))
        for s in range(0, len(ds), cfg.batch_size):
            sel = order[s:s + cfg.batch_size]
            # Algorithm 1: sample the decoder and resize for this batch.
            key = keys[rng.integers(len(keys))]
            xb = variants[key][sel]
            logits = model(Tensor(xb))
            loss = F.cross_entropy(logits, ds.labels[sel])
            opt.zero_grad()
            loss.backward()
            opt.step()
            sched.step()
    model.eval()
    return model


def cross_variant_matrix(models: dict[str, nn.Module], ds: ClassificationDataset,
                         variants: list, axis: str) -> dict:
    """Tables 7/8: accuracy of each (train-variant) model on each test variant.

    ``models`` maps a train-variant label to a trained model; ``variants`` is
    the list of test options; ``axis`` is ``"decoder"``, ``"resize"`` or
    ``"color"``.  Returns ``{train_label: {"accs": {...}, "mean": m,
    "std": s}}``.
    """
    from repro.nn import evaluate_classifier
    if axis not in ("decoder", "resize", "color"):
        raise ValueError(f"unknown mix axis {axis!r}")
    field = {"decoder": "decoder", "resize": "resize_method",
             "color": "color"}[axis]
    table = {}
    for label, model in models.items():
        accs = {}
        for v in variants:
            cfg = TRAIN_CONFIG.with_(**{field: v})
            x = preprocess_dataset(ds.streams, ds.input_size, cfg)
            accs[v] = evaluate_classifier(model, x, ds.labels)
        vals = np.array(list(accs.values()))
        table[label] = {"accs": accs, "mean": float(vals.mean()),
                        "std": float(vals.std())}
    return table
