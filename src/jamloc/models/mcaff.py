"""Attentive multi-path baseline: IQ / FFT / CFO / STFT stems brought to a
common 64x8x8 grid, gated by one shared channel-attention module, channel
concatenated, passed through a grouped-convolution residual block, and read
out by the same per-task heads as the fusion model (plus class and subclass
logits).

The trunk always sees four channel slots; a disabled path contributes zeros,
so ablations change the parameter count by exactly that path's stem.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..nn import (Conv2D, Dense, GlobalAvgPool, Mode, ReLU, Sigmoid, Tanh,
                  Tensor, concat)
from .common import Prediction, TaskHead, as_input

__all__ = ["McaffConfig", "McaffModel", "SharedAttention", "MCAFF_PRESETS", "ALL_PATHS"]

ALL_PATHS = ("iq", "fft", "cfo", "stft")

# ablation presets: the six configurations reported for the baseline
MCAFF_PRESETS = {
    "iq": ("iq",),
    "fft": ("fft",),
    "cfo": ("cfo",),
    "stft": ("stft",),
    "iq+cfo+stft": ("iq", "cfo", "stft"),
    "iq+fft+cfo+stft": ("iq", "fft", "cfo", "stft"),
}


@dataclass
class McaffConfig:
    enabled_paths: tuple = ALL_PATHS
    path_feature_dim: int = 64
    attention_reduction: int = 4
    cardinality: int = 8
    block_width: int = 128
    stem_channels: int = 32
    head_hidden: int = 512
    n_classes: int = 6
    n_subclasses: int = 12

    def __post_init__(self):
        self.enabled_paths = tuple(self.enabled_paths)
        unknown = set(self.enabled_paths) - set(ALL_PATHS)
        if unknown:
            raise ValueError(f"unknown paths {sorted(unknown)}; valid: {ALL_PATHS}")
        if not self.enabled_paths:
            raise ValueError("enabled_paths must be nonempty")
        if self.path_feature_dim % self.attention_reduction:
            raise ValueError("attention_reduction must divide path_feature_dim")
        if self.block_width % self.cardinality:
            raise ValueError("cardinality must divide block_width")

    @property
    def concat_channels(self) -> int:
        return self.path_feature_dim * len(ALL_PATHS)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "McaffConfig":
        d = dict(d)
        if "enabled_paths" in d:
            d["enabled_paths"] = tuple(d["enabled_paths"])
        return cls(**d)


class SharedAttention:
    """Squeeze-excitation channel gate; one parameter set for every path."""

    def __init__(self, channels: int, reduction: int, rng: np.random.Generator, dtype):
        self.fc1 = Dense(channels, channels // reduction, rng, dtype=dtype)
        self.fc2 = Dense(channels // reduction, channels, rng, dtype=dtype)
        self.relu = ReLU()
        self.sigmoid = Sigmoid()
        self.pool = GlobalAvgPool()

    def params(self):
        return self.fc1.params() + self.fc2.params()

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        gate = self.sigmoid(self.fc2(self.relu(self.fc1(self.pool(x)))))
        b, c = gate.shape
        return x * gate.reshape(b, c, 1, 1)


class _Stem:
    """Two strided convs mapping a path representation onto (C, 8, 8)."""

    def __init__(self, in_channels: int, strides, cfg: McaffConfig,
                 rng: np.random.Generator, dtype):
        self.conv1 = Conv2D(in_channels, cfg.stem_channels, 3, rng,
                            stride=strides[0], padding=1, dtype=dtype)
        self.conv2 = Conv2D(cfg.stem_channels, cfg.path_feature_dim, 3, rng,
                            stride=strides[1], padding=1, dtype=dtype)
        self.relu = ReLU()

    def params(self):
        return self.conv1.params() + self.conv2.params()

    def __call__(self, x: Tensor) -> Tensor:
        return self.relu(self.conv2(self.relu(self.conv1(x))))


class _GroupedBlock:
    """Bottleneck residual: 1x1 reduce, grouped 3x3, 1x1 expand, skip add."""

    def __init__(self, channels: int, width: int, cardinality: int,
                 rng: np.random.Generator, dtype):
        self.reduce = Conv2D(channels, width, 1, rng, dtype=dtype)
        self.grouped = Conv2D(width, width, 3, rng, padding=1, groups=cardinality,
                              dtype=dtype)
        self.expand = Conv2D(width, channels, 1, rng, dtype=dtype)
        self.relu = ReLU()

    def params(self):
        return self.reduce.params() + self.grouped.params() + self.expand.params()

    def __call__(self, x: Tensor) -> Tensor:
        h = self.relu(self.reduce(x))
        h = self.relu(self.grouped(h))
        return self.relu(self.expand(h) + x)


class McaffModel:
    KIND = "MCAFF"

    def __init__(self, cfg: McaffConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype).type
        rng = np.random.default_rng(seed)
        stem_specs = {"iq": (8, (2, 2)), "fft": (4, (2, 2)),
                      "cfo": (4, (2, 2)), "stft": (4, ((4, 2), (4, 1)))}
        self.stems = {name: _Stem(cin, strides, cfg, rng, self.dtype)
                      for name, (cin, strides) in stem_specs.items()
                      if name in cfg.enabled_paths}
        self.attention = SharedAttention(cfg.path_feature_dim, cfg.attention_reduction,
                                         rng, self.dtype)
        self.block = _GroupedBlock(cfg.concat_channels, cfg.block_width,
                                   cfg.cardinality, rng, self.dtype)
        self.pool = GlobalAvgPool()
        self.disp_head = TaskHead(cfg.concat_channels, cfg.head_hidden, 3, rng, dtype=self.dtype)
        self.angle_head = TaskHead(cfg.concat_channels, cfg.head_hidden, 2, rng, dtype=self.dtype)
        self.class_head = TaskHead(cfg.concat_channels, cfg.head_hidden, cfg.n_classes,
                                   rng, dtype=self.dtype)
        self.subclass_head = TaskHead(cfg.concat_channels, cfg.head_hidden, cfg.n_subclasses,
                                      rng, dtype=self.dtype)
        self.tanh = Tanh()

    def params(self):
        out = []
        for name in ALL_PATHS:
            if name in self.stems:
                out += self.stems[name].params()
        out += self.attention.params() + self.block.params()
        for head in (self.disp_head, self.angle_head, self.class_head, self.subclass_head):
            out += head.params()
        return out

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params()))

    def _path_input(self, name: str, batch: dict) -> Tensor:
        if name == "iq":
            x = as_input(batch["iq"], self.dtype)
            return x.reshape(x.shape[0], 8, 32, 32)
        if name == "fft":
            return as_input(batch["spec"], self.dtype)
        if name == "cfo":
            x = as_input(batch["cfo"], self.dtype)
            return x.reshape(x.shape[0], 4, 32, 32)
        if name == "stft":
            return as_input(batch["stft"], self.dtype)
        raise KeyError(name)

    def forward(self, batch: dict, mode: Mode = Mode.EVAL,
                rng: np.random.Generator | None = None) -> Prediction:
        b = next(iter(batch.values())).shape[0]
        hw = (8, 8)
        slots = []
        for name in ALL_PATHS:
            if name in self.stems:
                h = self.stems[name](self._path_input(name, batch))
                h = self.attention(h).assert_finite(f"{name} path features")
            else:
                h = Tensor(np.zeros((b, self.cfg.path_feature_dim) + hw, dtype=self.dtype))
            slots.append(h)
        fused = concat(slots, axis=1)
        pooled = self.pool(self.block(fused)).assert_finite("fusion trunk")
        disp = self.disp_head(pooled, mode, rng).assert_finite("displacement head")
        angle = self.tanh(self.angle_head(pooled, mode, rng)).assert_finite("angle head")
        cls = self.class_head(pooled, mode, rng).assert_finite("class head")
        sub = self.subclass_head(pooled, mode, rng).assert_finite("subclass head")
        return Prediction(disp=disp, angle_raw=angle, class_logits=cls, subclass_logits=sub)


def tiny_mcaff_config(**overrides) -> McaffConfig:
    """Small widths for end-to-end gradient checks."""
    base = dict(path_feature_dim=8, attention_reduction=4, cardinality=2,
                block_width=8, stem_channels=4, head_hidden=8,
                n_classes=3, n_subclasses=4)
    base.update(overrides)
    return McaffConfig(**base)
