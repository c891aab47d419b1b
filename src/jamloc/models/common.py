"""Shared model pieces: prediction record, the per-task heads and their read-out."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Dense, Dropout, Layer, Mode, Tensor

__all__ = ["Prediction", "TaskHead", "ALPHA_SCALE", "BETA_SCALE", "as_input", "read_out",
           "require_positive", "require_subset"]

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


def require_positive(cfg, *fields: str) -> None:
    """Reject a config whose named int field is below 1, or whose named tuple
    field is empty or holds an entry below 1; the error names the field."""
    for name in fields:
        value = getattr(cfg, name)
        if isinstance(value, (tuple, list)):
            if not value or min(value) < 1:
                raise ValueError(f"{name} must be a nonempty tuple of ints >= 1, got {value!r}")
        elif value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")


def require_subset(cfg, name: str, allowed: tuple) -> None:
    """Store the named field of ``cfg`` as a tuple, and reject it unless it
    is a nonempty subset of ``allowed`` with each entry named once; the
    error names the field."""
    value = tuple(getattr(cfg, name))
    if not value or len(set(value) & set(allowed)) < len(value):     # unknown or repeated
        raise ValueError(f"{name} must be a nonempty subset of {allowed}, "
                         f"each named once, got {value!r}")
    setattr(cfg, name, value)


def as_input(batch: dict, key: str, dtype) -> Tensor:
    """``batch[key]`` as a graph input. An array is copied to ``dtype``; a
    Tensor of ``dtype`` is used as it is, so callers can take gradients
    w.r.t. the inputs, and a Tensor of another dtype is rejected (the model
    would run in its dtype)."""
    x = batch[key]
    if not isinstance(x, Tensor):
        return Tensor(np.ascontiguousarray(x, dtype=dtype))
    if x.dtype != dtype:
        raise ValueError(
            f"batch[{key!r}] is a {x.dtype} Tensor; the model runs in {np.dtype(dtype)}")
    return x


class TaskHead(Layer):
    """Dense(in -> hidden), ReLU, dropout, Dense(hidden -> out)."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator, dropout: float = 0.0, dtype=np.float64):
        self.fc1 = Dense(in_dim, hidden, rng, dtype=dtype)
        self.fc2 = Dense(hidden, out_dim, rng, dtype=dtype)
        self.dropout = Dropout(dropout)

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        return self.fc2(self.dropout(self.fc1(x).relu(), mode, rng))


def read_out(model, fused: Tensor, mode: Mode, rng) -> Prediction:
    """Run the model's displacement, angle (tanh), class and subclass heads on
    the fused features, in that order (train-mode dropout draws follow it); a
    head that is None reads out None."""
    disp = model.disp_head(fused, mode, rng).assert_finite("displacement head")
    angle = model.angle_head(fused, mode, rng).tanh().assert_finite("angle head")
    logits = [None if head is None else head(fused, mode, rng).assert_finite(label)
              for head, label in ((model.class_head, "class head"),
                                  (model.subclass_head, "subclass head"))]
    return Prediction(disp, angle, *logits)
