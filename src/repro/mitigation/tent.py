"""TENT: fully test-time adaptation by entropy minimisation (Table 6).

TENT (Wang et al. 2020) adapts a model at inference by (a) using test-batch
statistics in every BatchNorm and (b) taking gradient steps on the *entropy*
of its own predictions, updating only the BN affine parameters.  The paper
finds TENT consistently *hurts* SysNoise robustness (the distribution shift
is too small, so entropy minimisation just sharpens mistakes) — our
reproduction preserves that mechanism.

:func:`tent_episode` is the registry-era entry point: it adapts a fresh
copy of the model on one batch of inputs and returns a :class:`TentResult`
that says *whether adaptation actually happened* — a model without
BatchNorm affine parameters (a ViT, a quantised deployment graph) cannot
adapt, and the explicit ``adapted=False`` stops such a no-op from
masquerading as a TENT measurement.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass

import numpy as np

import repro.nn as nn
from repro.nn import Tensor
from repro.nn import functional as F

__all__ = ["TentResult", "tent_episode"]

_log = logging.getLogger(__name__)

#: One-shot latches for the no-op warnings — adapting per inference batch
#: would otherwise repeat them hundreds of times per sweep.
_warned_no_bn = False
_warned_no_grad = False


@dataclass
class TentResult:
    """Outcome of one TENT adaptation attempt.

    ``model`` is the adapted copy when ``adapted`` is true, and the
    *original* model (untouched) when adaptation was impossible — check
    ``adapted`` before attributing a metric to TENT.
    """

    model: nn.Module
    adapted: bool
    reason: str | None = None


def _bn_parameters(model: nn.Module):
    for mod in getattr(model, "modules", lambda: ())():
        if isinstance(mod, nn.BatchNorm2d):
            yield mod.weight
            yield mod.bias


def _adapt(model: nn.Module, x: np.ndarray, steps: int, lr: float,
           batch_size: int) -> TentResult:
    """The TENT mechanism; batches ``x`` every ``batch_size`` items."""
    global _warned_no_bn, _warned_no_grad
    adapted = copy.deepcopy(model)
    try:
        adapted.train()                  # BN uses test-batch statistics
    except AttributeError:               # not a trainable module graph
        adapted = None
    params = list(_bn_parameters(adapted)) if adapted is not None else []
    if not params:                       # e.g. ViTs with LayerNorm only
        reason = "no BatchNorm affine parameters to adapt"
        if not _warned_no_bn:
            _warned_no_bn = True
            _log.warning("TENT no-op: %s (%s); evaluating unadapted "
                         "(reported once)", reason, type(model).__name__)
        return TentResult(model, adapted=False, reason=reason)
    opt = nn.Adam(params, lr=lr)
    for _ in range(steps):
        for s in range(0, len(x), batch_size):
            xb = Tensor(x[s:s + batch_size])
            probs = F.softmax(adapted(xb), axis=-1)
            entropy = -(probs * (probs + 1e-12).log()).sum(axis=-1).mean()
            opt.zero_grad()
            try:
                entropy.backward()
            except RuntimeError:
                # Quantised deployment graphs (fp16/int8 precision noise)
                # re-wrap activations through raw arrays, cutting autograd:
                # the very first backward fails, so no parameter ever moved
                # and the original model is still the honest measurement.
                reason = ("deployment graph is not differentiable "
                          "(quantised forward)")
                if not _warned_no_grad:
                    _warned_no_grad = True
                    _log.warning("TENT no-op: %s (%s); evaluating unadapted "
                                 "(reported once)", reason,
                                 type(model).__name__)
                return TentResult(model, adapted=False, reason=reason)
            opt.step()
    adapted.eval()
    return TentResult(adapted, adapted=True)


def tent_episode(model: nn.Module, x: np.ndarray, steps: int = 1,
                 lr: float = 1e-3) -> TentResult:
    """Adapt a fresh copy of ``model`` on the *single* batch ``x``.

    Episodic TENT: the adaptation sees only this batch, so the result is a
    pure function of ``(model, x, steps, lr)`` — the property the streaming
    sweep relies on for shard-size invariance.  The input model is never
    mutated.  Returns a :class:`TentResult`; on models without BatchNorm
    affine parameters ``adapted`` is false and ``model`` rides through
    unchanged (logged once per process).
    """
    return _adapt(model, x, steps, lr, batch_size=max(len(x), 1))
