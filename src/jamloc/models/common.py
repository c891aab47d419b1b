"""Shared model pieces: prediction record, the per-task heads and their read-out.

No layer draws randomness or computes differently in training. The models'
``forward``, the fusion encoders and ``TaskHead`` still accept a trailing
``(mode, rng)`` pair, because perfbench passes one, and ignore it.

A model's one precision option is its ``dtype`` (float32 by default): its
parts are built in float64 and the constructor ends with ``self.cast(dtype)``
(``nn.Layer.cast``), so ``model.dtype`` names its parameters' dtype, and
``as_inputs`` converts the batch to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._checks import choice, count, instance
from ..nn import Dense, Layer, Tensor

__all__ = ["Prediction", "TaskHead", "ALPHA_SCALE", "BETA_SCALE", "as_inputs", "read_out",
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
    """Check each named field of ``cfg`` with ``_checks``' rules: an int field
    is an integer >= 1, and a tuple field (one whose default is a tuple) a
    nonempty tuple of them, each entry named ``Config.field[i]``."""
    for name in fields:
        where, value = f"{type(cfg).__name__}.{name}", getattr(cfg, name)
        if isinstance(getattr(type(cfg), name), tuple):
            instance(where, value, tuple)
            if not value:
                raise ValueError(f"{where} must be a nonempty tuple, got ()")
            for i, v in enumerate(value):
                count(f"{where}[{i}]", v, 1)
        else:
            count(where, value, 1)


def require_subset(cfg, name: str, allowed: tuple) -> None:
    """Reject the named field of ``cfg`` unless it is a tuple that is a
    nonempty subset of ``allowed`` with each entry named once; the error
    names the field, and an entry outside ``allowed`` its index."""
    where = f"{type(cfg).__name__}.{name}"
    value = instance(where, getattr(cfg, name), tuple)
    for i, v in enumerate(value):
        choice(f"{where}[{i}]", v, allowed)
    if not value or len(set(value)) < len(value):
        raise ValueError(f"{where} must be a nonempty subset of {allowed}, "
                         f"each named once, got {value!r}")


def as_inputs(batch: dict, keys, dtype) -> list[Tensor]:
    """``batch[key]`` for each of ``keys`` as a graph input. An array is
    copied to ``dtype``; a Tensor of ``dtype`` is used as it is, so callers
    can take gradients w.r.t. the inputs, and a Tensor of another dtype is
    rejected (the model would run in its dtype). Inputs that disagree on the
    batch size are rejected, naming each key with its size."""
    inputs = []
    for key in keys:
        x = batch[key]
        if not isinstance(x, Tensor):
            x = Tensor(np.ascontiguousarray(x, dtype=dtype))
        elif x.dtype != dtype:
            raise ValueError(
                f"batch[{key!r}] is a {x.dtype} Tensor; the model runs in {np.dtype(dtype)}")
        inputs.append(x)
    sizes = {key: x.shape[0] for key, x in zip(keys, inputs)}
    if len(set(sizes.values())) > 1:
        raise ValueError(f"batch inputs disagree on the batch size: {sizes}")
    return inputs


class TaskHead(Layer):
    """Dense(in -> hidden), ReLU, Dense(hidden -> out)."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator):
        self.fc1 = Dense(in_dim, hidden, rng)
        self.fc2 = Dense(hidden, out_dim, rng)

    def __call__(self, x: Tensor, mode=None, rng=None) -> Tensor:
        return self.fc2(self.fc1(x).relu())


def read_out(model, fused: Tensor) -> Prediction:
    """Run the model's displacement, angle (tanh), class and subclass heads on
    the fused features; a head that is None reads out None."""
    disp = model.disp_head(fused).assert_finite("displacement head")
    angle = model.angle_head(fused).tanh().assert_finite("angle head")
    logits = [None if head is None else head(fused).assert_finite(label)
              for head, label in ((model.class_head, "class head"),
                                  (model.subclass_head, "subclass head"))]
    return Prediction(disp, angle, *logits)
