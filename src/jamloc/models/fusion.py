"""Concatenation-fusion regressor: spectrogram CNN, dilated temporal conv on
raw IQ, and a pointwise encoder over the AoA statistics, concatenated to
width 288, then one head per task.

Single-branch baselines come from ``enabled_branches``; the fused width is
always the sum of the enabled branch dims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Conv1D, Conv2D, Dense, GlobalAvgPool, Layer, Tensor, concat
from .common import (Prediction, TaskHead, as_inputs, read_out, require_positive,
                     require_subset)

__all__ = ["FusionConfig", "FusionModel", "SpectrogramEncoder", "IQEncoder", "AoaEncoder"]

BRANCHES = ("spec", "iq", "aoa")
IQ_KERNEL = 3    # taps of each dilated temporal conv of the IQ encoder


@dataclass
class FusionConfig:
    spec_branch_dim: int = 128
    iq_branch_dim: int = 128
    aoa_branch_dim: int = 32
    head_hidden: int = 512
    with_classifier: bool = False
    n_classes: int = 6
    enabled_branches: tuple = BRANCHES
    spec_channels: tuple = (16, 32, 64, 128)
    iq_channels: tuple = (32, 32, 64, 64, 128)
    iq_dilations: tuple = (1, 2, 4, 8, 16)
    aoa_conv_channels: int = 32

    def __post_init__(self):
        require_subset(self, "enabled_branches", BRANCHES)
        require_positive(self, "spec_branch_dim", "iq_branch_dim", "aoa_branch_dim",
                         "head_hidden", "n_classes", "spec_channels", "iq_channels",
                         "iq_dilations", "aoa_conv_channels")
        if not isinstance(self.with_classifier, bool):
            raise ValueError(f"with_classifier must be a bool, got {self.with_classifier!r}")
        if len(self.iq_channels) != len(self.iq_dilations):
            raise ValueError("iq_channels and iq_dilations must have equal length")

    @property
    def fused_dim(self) -> int:
        dims = {"spec": self.spec_branch_dim, "iq": self.iq_branch_dim,
                "aoa": self.aoa_branch_dim}
        return sum(dims[b] for b in self.enabled_branches)


# ----------------------------------------------------------------------
# branch encoders
# ----------------------------------------------------------------------

class SpectrogramEncoder(Layer):
    """4 stride-2 conv blocks over the 4x32x32 spectrogram, GAP, linear."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator, dtype):
        chans = (4,) + tuple(cfg.spec_channels)
        self.convs = [Conv2D(chans[i], chans[i + 1], 3, rng, stride=2, padding=1, dtype=dtype,
                             relu=True) for i in range(len(cfg.spec_channels))]
        self.pool = GlobalAvgPool()
        self.proj = Dense(chans[-1], cfg.spec_branch_dim, rng, dtype=dtype)

    def __call__(self, x: Tensor, mode=None, rng=None) -> Tensor:
        h = x
        for conv in self.convs:
            h = conv(h)
        return self.proj(self.pool(h))


class IQEncoder(Layer):
    """Residual stack of dilated causal temporal convs over the 8x1024 IQ
    planes; one conv per block with a pointwise skip projection on width
    changes, then GAP over time and a linear map to the branch width.

    The last block's skip runs after the pool: only that block feeds the
    GAP, and a mean over time commutes with a pointwise (kernel-1) conv, so
    ``pool(relu(conv(h)) + skip(h)) == pool(relu(conv(h))) + skip(pool(h))``
    in exact arithmetic. The skip then maps one (C,) vector per item instead
    of every timestep, and no full-length residual sum is built.
    """

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator, dtype):
        chans = (8,) + tuple(cfg.iq_channels)
        # (conv, skip or None) per block: params() then lists a block's conv
        # before its skip, the GJW1 order
        self.blocks = []
        for i, d in enumerate(cfg.iq_dilations):
            conv = Conv1D(chans[i], chans[i + 1], IQ_KERNEL, rng, dilation=d, dtype=dtype, relu=True)
            skip = Conv1D(chans[i], chans[i + 1], 1, rng, dtype=dtype) \
                if chans[i] != chans[i + 1] else None
            self.blocks.append((conv, skip))
        self.pool = GlobalAvgPool()
        self.proj = Dense(chans[-1], cfg.iq_branch_dim, rng, dtype=dtype)

    @property
    def convs(self) -> list[Conv1D]:
        return [conv for conv, _ in self.blocks]

    def __call__(self, x: Tensor, mode=None, rng=None) -> Tensor:
        *blocks, (conv, skip) = self.blocks
        h = x
        for block_conv, block_skip in blocks:
            res = h if block_skip is None else block_skip(h)
            h = block_conv(h) + res
        res = self.pool(h)
        if skip is not None:
            b, c = res.shape
            res = skip(res.reshape(b, c, 1)).reshape(b, -1)
        return self.proj(self.pool(conv(h)) + res)


class AoaEncoder(Layer):
    """Kernel-1 conv mixing the 22 features per patch, flatten, linear."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator, dtype):
        self.mix = Conv1D(22, cfg.aoa_conv_channels, 1, rng, dtype=dtype, relu=True)
        self.proj = Dense(cfg.aoa_conv_channels * 4, cfg.aoa_branch_dim, rng, dtype=dtype)

    def __call__(self, x: Tensor, mode=None, rng=None) -> Tensor:
        # (B, 4, 22) -> channels-first (B, 22, 4) so the conv mixes features
        h = x.transpose((0, 2, 1))
        h = self.mix(h)
        flat = h.reshape(h.shape[0], -1)
        return self.proj(flat)


# ----------------------------------------------------------------------
# full model
# ----------------------------------------------------------------------

class FusionModel(Layer):
    KIND = "FUSION"

    def __init__(self, cfg: FusionConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype).type
        rng = np.random.default_rng(seed)
        encoder_cls = {"spec": SpectrogramEncoder, "iq": IQEncoder, "aoa": AoaEncoder}
        self.encoders = {name: encoder_cls[name](cfg, rng, self.dtype)
                         for name in BRANCHES if name in cfg.enabled_branches}
        self.disp_head = TaskHead(cfg.fused_dim, cfg.head_hidden, 3, rng, dtype=self.dtype)
        self.angle_head = TaskHead(cfg.fused_dim, cfg.head_hidden, 2, rng, dtype=self.dtype)
        self.class_head = TaskHead(cfg.fused_dim, cfg.head_hidden, cfg.n_classes, rng,
                                   dtype=self.dtype) if cfg.with_classifier else None
        self.subclass_head = None

    def forward(self, batch: dict, mode=None, rng=None) -> Prediction:
        inputs = as_inputs(batch, list(self.encoders), self.dtype)
        feats = [encoder(x).assert_finite(f"{name} branch output")
                 for (name, encoder), x in zip(self.encoders.items(), inputs)]
        fused = feats[0] if len(feats) == 1 else concat(feats, axis=1)
        return read_out(self, fused)


def tiny_fusion_config(**overrides) -> FusionConfig:
    """Small widths for end-to-end gradient checks (branch dims 8/8/4)."""
    base = dict(spec_branch_dim=8, iq_branch_dim=8, aoa_branch_dim=4,
                head_hidden=16, spec_channels=(2, 2, 4, 4), iq_channels=(4, 4, 8),
                iq_dilations=(1, 2, 4), aoa_conv_channels=4)
    base.update(overrides)
    return FusionConfig(**base)
