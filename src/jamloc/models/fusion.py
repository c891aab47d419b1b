"""Concatenation-fusion regressor: spectrogram CNN, dilated temporal conv on
raw IQ, and a pointwise encoder over the AoA statistics, fused at width 288
with per-branch dropout before the concat, then one head per task.

Single-branch baselines come from ``enabled_branches``; the fused width is
always the sum of the enabled branch dims.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..nn import (Conv1D, Conv2D, Dense, Dropout, GlobalAvgPool, Mode, ReLU,
                  Tanh, Tensor, concat)
from .common import Prediction, TaskHead, as_input

__all__ = ["FusionConfig", "FusionModel", "SpectrogramEncoder", "IQEncoder", "AoaEncoder"]

BRANCHES = ("spec", "iq", "aoa")


@dataclass
class FusionConfig:
    spec_branch_dim: int = 128
    iq_branch_dim: int = 128
    aoa_branch_dim: int = 32
    head_hidden: int = 512
    dropout_pre_concat: float = 0.0
    dropout_post_head: float = 0.0
    with_classifier: bool = False
    n_classes: int = 6
    enabled_branches: tuple = BRANCHES
    spec_channels: tuple = (16, 32, 64, 128)
    iq_channels: tuple = (32, 32, 64, 64, 128)
    iq_dilations: tuple = (1, 2, 4, 8, 16)
    iq_kernel: int = 3
    aoa_conv_channels: int = 32

    def __post_init__(self):
        self.enabled_branches = tuple(self.enabled_branches)
        unknown = set(self.enabled_branches) - set(BRANCHES)
        if unknown or not self.enabled_branches:
            raise ValueError(f"enabled_branches must be a nonempty subset of {BRANCHES}")
        if len(self.iq_channels) != len(self.iq_dilations):
            raise ValueError("iq_channels and iq_dilations must have equal length")

    @property
    def fused_dim(self) -> int:
        dims = {"spec": self.spec_branch_dim, "iq": self.iq_branch_dim,
                "aoa": self.aoa_branch_dim}
        return sum(dims[b] for b in self.enabled_branches)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FusionConfig":
        d = dict(d)
        for key in ("enabled_branches", "spec_channels", "iq_channels", "iq_dilations"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


# ----------------------------------------------------------------------
# branch encoders
# ----------------------------------------------------------------------

class SpectrogramEncoder:
    """4 stride-2 conv blocks over the 4x32x32 spectrogram, GAP, linear."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator, dtype):
        chans = (4,) + tuple(cfg.spec_channels)
        self.convs = [Conv2D(chans[i], chans[i + 1], 3, rng, stride=2, padding=1, dtype=dtype)
                      for i in range(len(cfg.spec_channels))]
        self.relu = ReLU()
        self.pool = GlobalAvgPool()
        self.proj = Dense(chans[-1], cfg.spec_branch_dim, rng, dtype=dtype)

    def params(self):
        out = []
        for c in self.convs:
            out += c.params()
        return out + self.proj.params()

    def __call__(self, x: Tensor, mode: Mode, rng) -> Tensor:
        h = x
        for conv in self.convs:
            h = self.relu(conv(h))
        return self.proj(self.pool(h))


class IQEncoder:
    """Residual stack of dilated causal temporal convs over the 8x1024 IQ
    planes; one conv per block with a pointwise skip projection on width
    changes, then GAP over time and a linear map to the branch width."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator, dtype):
        self.kernel = cfg.iq_kernel
        self.dilations = tuple(cfg.iq_dilations)
        chans = (8,) + tuple(cfg.iq_channels)
        self.convs = []
        self.skips = []
        for i, d in enumerate(self.dilations):
            self.convs.append(Conv1D(chans[i], chans[i + 1], self.kernel, rng,
                                     dilation=d, dtype=dtype))
            self.skips.append(Conv1D(chans[i], chans[i + 1], 1, rng, dtype=dtype)
                              if chans[i] != chans[i + 1] else None)
        self.relu = ReLU()
        self.pool = GlobalAvgPool()
        self.proj = Dense(chans[-1], cfg.iq_branch_dim, rng, dtype=dtype)

    def params(self):
        out = []
        for c, s in zip(self.convs, self.skips):
            out += c.params()
            if s is not None:
                out += s.params()
        return out + self.proj.params()

    def receptive_field(self) -> int:
        """Input span reaching one output sample: 1 + sum (k-1) * d."""
        return 1 + sum((self.kernel - 1) * d for d in self.dilations)

    def __call__(self, x: Tensor, mode: Mode, rng) -> Tensor:
        h = x
        for conv, skip in zip(self.convs, self.skips):
            res = h if skip is None else skip(h)
            h = self.relu(conv(h)) + res
        return self.proj(self.pool(h))


class AoaEncoder:
    """Kernel-1 conv mixing the 22 features per patch, flatten, linear."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator, dtype):
        self.mix = Conv1D(22, cfg.aoa_conv_channels, 1, rng, dtype=dtype)
        self.relu = ReLU()
        self.proj = Dense(cfg.aoa_conv_channels * 4, cfg.aoa_branch_dim, rng, dtype=dtype)

    def params(self):
        return self.mix.params() + self.proj.params()

    def __call__(self, x: Tensor, mode: Mode, rng) -> Tensor:
        # (B, 4, 22) -> channels-first (B, 22, 4) so the conv mixes features
        h = x.transpose((0, 2, 1))
        h = self.relu(self.mix(h))
        flat = h.reshape(h.shape[0], -1)
        return self.proj(flat)


# ----------------------------------------------------------------------
# full model
# ----------------------------------------------------------------------

class FusionModel:
    KIND = "FUSION"

    def __init__(self, cfg: FusionConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype).type
        rng = np.random.default_rng(seed)
        self.encoders = {}
        if "spec" in cfg.enabled_branches:
            self.encoders["spec"] = SpectrogramEncoder(cfg, rng, self.dtype)
        if "iq" in cfg.enabled_branches:
            self.encoders["iq"] = IQEncoder(cfg, rng, self.dtype)
        if "aoa" in cfg.enabled_branches:
            self.encoders["aoa"] = AoaEncoder(cfg, rng, self.dtype)
        self.branch_dropout = Dropout(cfg.dropout_pre_concat) \
            if cfg.dropout_pre_concat > 0 else None
        self.disp_head = TaskHead(cfg.fused_dim, cfg.head_hidden, 3, rng,
                                  dropout=cfg.dropout_post_head, dtype=self.dtype)
        self.angle_head = TaskHead(cfg.fused_dim, cfg.head_hidden, 2, rng,
                                   dropout=cfg.dropout_post_head, dtype=self.dtype)
        self.class_head = TaskHead(cfg.fused_dim, cfg.head_hidden, cfg.n_classes, rng,
                                   dropout=cfg.dropout_post_head, dtype=self.dtype) \
            if cfg.with_classifier else None
        self.tanh = Tanh()

    def params(self):
        out = []
        for name in BRANCHES:
            if name in self.encoders:
                out += self.encoders[name].params()
        out += self.disp_head.params() + self.angle_head.params()
        if self.class_head is not None:
            out += self.class_head.params()
        return out

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params()))

    def forward(self, batch: dict, mode: Mode = Mode.EVAL,
                rng: np.random.Generator | None = None) -> Prediction:
        feats = []
        for name in BRANCHES:
            if name not in self.encoders:
                continue
            x = as_input(batch[name], self.dtype)
            h = self.encoders[name](x, mode, rng).assert_finite(f"{name} branch output")
            if self.branch_dropout is not None:
                h = self.branch_dropout(h, mode=mode, rng=rng)
            feats.append(h)
        fused = feats[0] if len(feats) == 1 else concat(feats, axis=1)
        disp = self.disp_head(fused, mode, rng).assert_finite("displacement head")
        angle = self.tanh(self.angle_head(fused, mode, rng)).assert_finite("angle head")
        logits = None
        if self.class_head is not None:
            logits = self.class_head(fused, mode, rng).assert_finite("class head")
        return Prediction(disp=disp, angle_raw=angle, class_logits=logits)


def tiny_fusion_config(**overrides) -> FusionConfig:
    """Small widths for end-to-end gradient checks (branch dims 8/8/4)."""
    base = dict(spec_branch_dim=8, iq_branch_dim=8, aoa_branch_dim=4,
                head_hidden=16, spec_channels=(2, 2, 4, 4), iq_channels=(4, 4, 8),
                iq_dilations=(1, 2, 4), aoa_conv_channels=4)
    base.update(overrides)
    return FusionConfig(**base)
