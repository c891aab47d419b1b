"""Shared model pieces: prediction record and the per-task regression heads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Dense, Dropout, Mode, ReLU, Tensor

__all__ = ["Prediction", "TaskHead", "ALPHA_SCALE", "BETA_SCALE", "as_input"]

ALPHA_SCALE = 180.0   # azimuth head: tanh output * 180 -> degrees
BETA_SCALE = 90.0     # elevation head: tanh output * 90 -> degrees


@dataclass
class Prediction:
    """Model outputs for one batch; tensors stay on the autodiff graph."""

    disp: Tensor                     # (B, 3) displacement, meters
    angle_raw: Tensor                # (B, 2) tanh outputs in (-1, 1)
    class_logits: Tensor | None = None
    subclass_logits: Tensor | None = None

    @property
    def alpha_deg(self) -> np.ndarray:
        return ALPHA_SCALE * self.angle_raw.data[:, 0]

    @property
    def beta_deg(self) -> np.ndarray:
        return BETA_SCALE * self.angle_raw.data[:, 1]


def as_input(x, dtype) -> Tensor:
    """One batch entry as a graph input. An array is copied to ``dtype``; a
    Tensor is used as it is, so callers can take gradients w.r.t. the inputs."""
    return x if isinstance(x, Tensor) else Tensor(np.ascontiguousarray(x, dtype=dtype))


class TaskHead:
    """Dense(in -> hidden), ReLU, optional dropout, Dense(hidden -> out)."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator, dropout: float = 0.0, dtype=np.float64):
        self.fc1 = Dense(in_dim, hidden, rng, dtype=dtype)
        self.fc2 = Dense(hidden, out_dim, rng, dtype=dtype)
        self.relu = ReLU()
        self.dropout = Dropout(dropout) if dropout > 0 else None

    def params(self):
        return self.fc1.params() + self.fc2.params()

    def __call__(self, x: Tensor, mode: Mode, rng) -> Tensor:
        h = self.relu(self.fc1(x))
        if self.dropout is not None:
            h = self.dropout(h, mode=mode, rng=rng)
        return self.fc2(h)
