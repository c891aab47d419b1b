"""SGD with momentum, weight decay, and a multi-step learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["SGD"]


class SGD:
    """Momentum SGD over a fixed parameter set.

    Update: v <- momentum*v + grad + weight_decay*param;
    param <- param - lr(epoch)*v, with
    lr(epoch) = learning_rate * lr_decay_factor ** (#milestones <= epoch).
    Gradients are cleared after each step.
    """

    def __init__(self, params: list[Tensor], learning_rate: float = 1e-2,
                 momentum: float = 0.9, weight_decay: float = 5e-4,
                 milestones=(), lr_decay_factor: float = 0.1):
        # a NaN or infinite rate would turn every weight non-finite on the first step
        if not 0.0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate!r}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum!r}")
        if not 0.0 <= weight_decay < math.inf:
            raise ValueError(f"weight_decay must be nonnegative and finite, got {weight_decay!r}")
        if not 0.0 < lr_decay_factor <= 1.0:
            raise ValueError(f"lr_decay_factor must be in (0, 1], got {lr_decay_factor!r}")
        if list(milestones) != sorted(milestones):
            raise ValueError(f"milestones must be sorted, got {milestones!r}")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.milestones = tuple(int(m) for m in milestones)
        self.lr_decay_factor = float(lr_decay_factor)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def lr_at(self, epoch: int) -> float:
        hits = sum(1 for m in self.milestones if m <= epoch)
        return self.learning_rate * self.lr_decay_factor ** hits

    def step(self, epoch: int = 0) -> None:
        lr = self.lr_at(epoch)
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise RuntimeError(f"parameter {i} has no gradient; run backward() first")
            v = self.velocity[i]
            v *= self.momentum
            v += p.grad
            if self.weight_decay:
                v += self.weight_decay * p.data
            p.data -= lr * v
            p.grad = None

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
