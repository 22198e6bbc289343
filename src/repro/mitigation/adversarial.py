"""PGD adversarial attacks and adversarial training (Fig. 4, right).

The paper adversarially trains ResNet-50/RegNetX with ℓ∞-PGD (Madry et al.)
and finds it does *not* transfer to SysNoise — clean accuracy drops a lot and
decode/resize deltas get worse.  We reproduce the protocol at tiny scale.
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.nn import Tensor
from repro.nn import functional as F

__all__ = ["pgd_attack"]


def pgd_attack(model: nn.Module, x: np.ndarray, y: np.ndarray,
               epsilon: float = 8 / 255, alpha: float = 2 / 255,
               steps: int = 4, rng: np.random.Generator | None = None) -> np.ndarray:
    """ℓ∞-PGD: iterated signed-gradient ascent inside an ε-ball."""
    rng = rng or np.random.default_rng(0)
    x_adv = x + rng.uniform(-epsilon, epsilon, size=x.shape)
    for _ in range(steps):
        xt = Tensor(x_adv, requires_grad=True)
        loss = F.cross_entropy(model(xt), y)
        loss.backward()
        x_adv = x_adv + alpha * np.sign(xt.grad)
        x_adv = np.clip(x_adv, x - epsilon, x + epsilon)
    return x_adv


def _adversarial_train(model: nn.Module, x: np.ndarray, y: np.ndarray,
                       cfg: nn.TrainConfig | None = None,
                       epsilon: float = 8 / 255, pgd_steps: int = 3) -> nn.Module:
    """Madry-style adversarial training: fit on PGD examples each step."""
    cfg = cfg or nn.TrainConfig(epochs=20, batch_size=32, lr=0.05)
    rng = np.random.default_rng(cfg.seed)
    opt = nn.SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum,
                 weight_decay=cfg.weight_decay)
    steps = cfg.epochs * int(np.ceil(len(x) / cfg.batch_size))
    sched = nn.CosineSchedule(opt, steps)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for s in range(0, len(x), cfg.batch_size):
            sel = order[s:s + cfg.batch_size]
            model.eval()                      # stable BN stats for the attack
            xb_adv = pgd_attack(model, x[sel], y[sel], epsilon,
                                epsilon / 2, pgd_steps, rng)
            model.train()
            loss = F.cross_entropy(model(Tensor(xb_adv)), y[sel])
            opt.zero_grad()
            loss.backward()
            opt.step()
            sched.step()
    model.eval()
    return model
