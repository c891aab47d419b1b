"""Attentive multi-path baseline: IQ / FFT / CFO / STFT stems brought to a
common 64x8x8 grid, gated by one shared channel-attention module, channel
concatenated, passed through a grouped-convolution residual block, and read
out by the same per-task heads as the fusion model (plus class and subclass
logits).

The trunk always sees four channel slots; a disabled path contributes zeros,
so ablations change the parameter count by exactly that path's stem.

The stems share no parameter, so ``forward`` runs the enabled ones side by
side on the shared workers (``nn.branches``), a stem's convs inline in its
job. Their outputs are nodes of the one graph: the shared attention, the
concat, the block and the heads run on the calling thread, path by path,
and so does the whole backward, so outputs and gradients are bitwise those
of running the stems one after another. Every conv outside a stem's
forward still uses both workers: like every conv call of two items or
more, each splits its batch into two runs, the stems' convs in backward
and the block's in both passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Conv2D, GlobalAvgPool, Layer, Tensor, branches, concat
from .common import (Prediction, TaskHead, as_inputs, read_out, require_positive,
                     require_subset)

__all__ = ["McaffConfig", "McaffModel", "SharedAttention", "MCAFF_PRESETS", "ALL_PATHS"]

ALL_PATHS = ("iq", "fft", "cfo", "stft")
PATH_KEYS = {"iq": "iq", "fft": "spec", "cfo": "cfo", "stft": "stft"}    # the batch entry each reads
ATTENTION_REDUCTION = 4    # the shared attention squeezes path_feature_dim by this

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
    cardinality: int = 8
    block_width: int = 128
    stem_channels: int = 32
    head_hidden: int = 512
    n_classes: int = 6
    n_subclasses: int = 12

    def __post_init__(self):
        require_subset(self, "enabled_paths", ALL_PATHS)
        require_positive(self, "path_feature_dim", "cardinality", "block_width",
                         "stem_channels", "head_hidden", "n_classes", "n_subclasses")
        if self.path_feature_dim % ATTENTION_REDUCTION:
            raise ValueError(f"McaffConfig.path_feature_dim must be a multiple of "
                             f"{ATTENTION_REDUCTION}, got {self.path_feature_dim}")
        if self.block_width % self.cardinality:
            raise ValueError("McaffConfig.cardinality must divide block_width")

    @property
    def concat_channels(self) -> int:
        return self.path_feature_dim * len(ALL_PATHS)


class SharedAttention(TaskHead):
    """Squeeze-excitation channel gate; one parameter set for every path.
    The gate is the sigmoid of the head's MLP on the pooled channels."""

    def __init__(self, channels: int, rng: np.random.Generator):
        super().__init__(channels, channels // ATTENTION_REDUCTION, channels, rng)
        self.pool = GlobalAvgPool()

    def __call__(self, x: Tensor) -> Tensor:
        gate = super().__call__(self.pool(x)).sigmoid()
        b, c = gate.shape
        return x * gate.reshape(b, c, 1, 1)


class _Stem(Layer):
    """Two strided convs mapping a path representation onto (C, 8, 8)."""

    def __init__(self, in_channels: int, strides, cfg: McaffConfig, rng: np.random.Generator):
        self.conv1 = Conv2D(in_channels, cfg.stem_channels, 3, rng,
                            stride=strides[0], padding=1, relu=True)
        self.conv2 = Conv2D(cfg.stem_channels, cfg.path_feature_dim, 3, rng,
                            stride=strides[1], padding=1, relu=True)

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv2(self.conv1(x))


class _GroupedBlock(Layer):
    """Bottleneck residual: 1x1 reduce, grouped 3x3, 1x1 expand, skip add."""

    def __init__(self, channels: int, width: int, cardinality: int, rng: np.random.Generator):
        self.reduce = Conv2D(channels, width, 1, rng, relu=True)
        self.grouped = Conv2D(width, width, 3, rng, padding=1, groups=cardinality, relu=True)
        self.expand = Conv2D(width, channels, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.grouped(self.reduce(x))
        return (self.expand(h) + x).relu()


class McaffModel(Layer):
    KIND = "MCAFF"

    def __init__(self, cfg: McaffConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        stem_specs = {"iq": (8, (2, 2)), "fft": (4, (2, 2)),
                      "cfo": (4, (2, 2)), "stft": (4, ((4, 2), (4, 1)))}
        self.stems = {name: _Stem(cin, strides, cfg, rng)
                      for name, (cin, strides) in stem_specs.items()
                      if name in cfg.enabled_paths}
        self.attention = SharedAttention(cfg.path_feature_dim, rng)
        self.block = _GroupedBlock(cfg.concat_channels, cfg.block_width, cfg.cardinality, rng)
        self.pool = GlobalAvgPool()
        self.disp_head = TaskHead(cfg.concat_channels, cfg.head_hidden, 3, rng)
        self.angle_head = TaskHead(cfg.concat_channels, cfg.head_hidden, 2, rng)
        self.class_head = TaskHead(cfg.concat_channels, cfg.head_hidden, cfg.n_classes, rng)
        self.subclass_head = TaskHead(cfg.concat_channels, cfg.head_hidden, cfg.n_subclasses, rng)
        self.cast(dtype)

    def forward(self, batch: dict, mode=None, rng=None) -> Prediction:
        inputs = as_inputs(batch, [PATH_KEYS[name] for name in self.stems], self.dtype)
        b = inputs[0].shape[0]
        # (B, C, 1024) rows as (B, C, 32, 32) grids
        inputs = [x.reshape(b, -1, 32, 32) if name in ("iq", "cfo") else x
                  for name, x in zip(self.stems, inputs)]
        features = dict(zip(self.stems, branches(self.stems.values(), inputs)))
        hw = (8, 8)
        slots = []
        for name in ALL_PATHS:
            if name in features:
                h = self.attention(features[name]).assert_finite(f"{name} path features")
            else:
                # channels-last like the stems' outputs, so the concat stays
                # channels-last for the block's convs
                h = np.zeros((b,) + hw + (self.cfg.path_feature_dim,), dtype=self.dtype)
                h = Tensor(h.transpose(0, 3, 1, 2))
            slots.append(h)
        fused = concat(slots, axis=1)
        pooled = self.pool(self.block(fused)).assert_finite("fusion trunk")
        return read_out(self, pooled)


def tiny_mcaff_config(**overrides) -> McaffConfig:
    """Small widths for end-to-end gradient checks."""
    base = dict(path_feature_dim=8, cardinality=2, block_width=8, stem_channels=4,
                head_hidden=8, n_classes=3, n_subclasses=4)
    base.update(overrides)
    return McaffConfig(**base)
