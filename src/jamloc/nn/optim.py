"""Momentum SGD with weight decay at a fixed learning rate. Per parameter p
with gradient g and velocity v (zero at start), in place, in p's dtype and
in this order: v <- 0.9*v + g + 5e-4*p (MOMENTUM, WEIGHT_DECAY), then
p <- p - learning_rate*v. Gradients are cleared after each step. A step
with a parameter that has no gradient, or whose gradient or velocity is not
in its dtype (as after a ``Layer.cast`` that followed ``SGD``), raises before
any parameter changes.
"""

from __future__ import annotations

import numpy as np

from .._checks import real
from .tensor import Tensor

__all__ = ["SGD"]

MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4


class SGD:
    """Momentum SGD over a fixed parameter set at a finite ``learning_rate`` > 0."""

    def __init__(self, params: list[Tensor], learning_rate: float = 1e-2):
        # a NaN or infinite rate would turn every weight non-finite on the first step
        self.learning_rate = float(real("SGD.learning_rate", learning_rate, 0, above=True))
        self.params = list(params)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, (p, v) in enumerate(zip(self.params, self.velocity)):
            if p.grad is None:
                raise RuntimeError(f"parameter {i} has no gradient; run backward() first")
            # in-place arithmetic would round a wider gradient or velocity silently
            if p.grad.dtype != p.data.dtype or v.dtype != p.data.dtype:
                raise ValueError(f"parameter {i} is {p.data.dtype} but its gradient is "
                                 f"{p.grad.dtype} and its velocity {v.dtype}")
        for p, v in zip(self.params, self.velocity):
            v *= MOMENTUM
            v += p.grad
            v += WEIGHT_DECAY * p.data
            p.data -= self.learning_rate * v
            p.grad = None

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
