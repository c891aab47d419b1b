"""Network layers built on the tensor autodiff core.

Dense and the activations are plain tensor-op compositions; the convolutions
register custom gradients (im2col + one batched GEMM) for speed. All learned
parameters are initialized uniform in +/- sqrt(6 / (fan_in + fan_out)) from the
caller's seeded generator; biases start at zero.
"""

from __future__ import annotations

import enum

import numpy as np

from .tensor import ShapeError, Tensor, concat

__all__ = [
    "Mode", "Layer", "Dense", "Conv1D", "Conv2D",
    "ReLU", "Tanh", "Sigmoid", "Dropout", "GlobalAvgPool", "Flatten",
    "BatchConcat", "glorot_uniform",
]


class Mode(enum.Enum):
    TRAIN = "train"
    EVAL = "eval"


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Base layer: stateless unless it declares parameters."""

    def params(self) -> list[Tensor]:
        return []

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params()))

    def __call__(self, x, mode: Mode = Mode.EVAL, rng: np.random.Generator | None = None) -> Tensor:
        raise NotImplementedError


# ----------------------------------------------------------------------
# dense / activations / plumbing
# ----------------------------------------------------------------------

class Dense(Layer):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 dtype=np.float64):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(glorot_uniform(rng, (in_features, out_features),
                                            in_features, out_features, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def params(self):
        return [self.weight, self.bias]

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.in_features:
            raise ShapeError(f"Dense expects (B, {self.in_features}), got {x.data.shape}")
        return x @ self.weight + self.bias


class ReLU(Layer):
    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        return x.relu()


class Tanh(Layer):
    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        return x.tanh()


class Sigmoid(Layer):
    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        return x.sigmoid()


class Dropout(Layer):
    """Inverted dropout: survivors scaled by 1/(1-p) at train time, identity in eval."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = float(p)

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        if mode is not Mode.TRAIN or self.p == 0.0:
            return x
        if rng is None:
            raise ValueError("Dropout in Train mode needs an rng")
        keep = (rng.random(x.data.shape) >= self.p).astype(x.data.dtype)
        return x * (keep / (1.0 - self.p))


class GlobalAvgPool(Layer):
    """(B, C, ...) -> (B, C), averaging over all trailing spatial axes."""

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        if x.data.ndim < 3:
            raise ShapeError(f"GlobalAvgPool expects (B, C, spatial...), got {x.data.shape}")
        axes = tuple(range(2, x.data.ndim))
        return x.mean(axis=axes)


class Flatten(Layer):
    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        return x.reshape(x.data.shape[0], -1)


class BatchConcat(Layer):
    """Concatenate a list of (B, d_i) feature tensors along the feature axis."""

    def __call__(self, xs, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        return concat(list(xs), axis=1)


# ----------------------------------------------------------------------
# 1-D convolution (dilated, causal, stride 1)
# ----------------------------------------------------------------------

class Conv1D(Layer):
    """Causal 1-D convolution over (B, C, T) with dilation; output length = T."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, dilation: int = 1, dtype=np.float64):
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        fan_in = in_channels * kernel_size
        self.weight = Tensor(glorot_uniform(rng, (out_channels, in_channels, kernel_size),
                                            fan_in, out_channels, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def params(self):
        return [self.weight, self.bias]

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        if x.data.ndim != 3 or x.data.shape[1] != self.in_channels:
            raise ShapeError(f"Conv1D expects (B, {self.in_channels}, T), got {x.data.shape}")
        B, C, T = x.data.shape
        K, d = self.kernel_size, self.dilation
        pad = (K - 1) * d
        w, b = self.weight, self.bias
        w2 = w.data.reshape(self.out_channels, C * K)

        # im2col (B, C*K, T), taps ordered (channel, tap); kernel 1 needs none
        if K == 1:
            cols = x.data
        else:
            xp = np.pad(x.data, ((0, 0), (0, 0), (pad, 0)))
            cols = np.empty((B, C, K, T), dtype=x.data.dtype)
            for j in range(K):
                cols[:, :, j, :] = xp[:, :, j * d: j * d + T]
            cols = cols.reshape(B, C * K, T)
        out = np.matmul(w2, cols)
        out += b.data[:, None]

        def bw(g):
            if w.requires_grad:
                w._accum(np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
            if b.requires_grad:
                b._accum(g.sum(axis=(0, 2)))
            if x.requires_grad:
                dcols = np.matmul(w2.T, g)
                if K == 1:
                    x._accum(dcols)
                else:
                    dcols = dcols.reshape(B, C, K, T)
                    dxp = np.zeros((B, C, T + pad), dtype=g.dtype)
                    for j in range(K):
                        dxp[:, :, j * d: j * d + T] += dcols[:, :, j, :]
                    x._accum(dxp[:, :, pad:])

        return Tensor.from_op(out, (x, w, b), bw)


# ----------------------------------------------------------------------
# 2-D convolution (stride, zero padding, channel groups)
# ----------------------------------------------------------------------

class Conv2D(Layer):
    """2-D convolution over (B, C, H, W); stride may be an int or (sh, sw)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride=1, padding: int = 0,
                 groups: int = 1, dtype=np.float64):
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"groups={groups} must divide in_channels={in_channels} and out_channels={out_channels}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
        self.padding = padding
        self.groups = groups
        cg = in_channels // groups
        fan_in = cg * kernel_size * kernel_size
        fan_out = (out_channels // groups) * kernel_size * kernel_size
        self.weight = Tensor(glorot_uniform(rng, (out_channels, cg, kernel_size, kernel_size),
                                            fan_in, fan_out, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def params(self):
        return [self.weight, self.bias]

    def out_hw(self, H: int, W: int) -> tuple[int, int]:
        k, (sh, sw), p = self.kernel_size, self.stride, self.padding
        return (H + 2 * p - k) // sh + 1, (W + 2 * p - k) // sw + 1

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.in_channels:
            raise ShapeError(f"Conv2D expects (B, {self.in_channels}, H, W), got {x.data.shape}")
        B, C, H, W = x.data.shape
        k, (sh, sw), p, G = self.kernel_size, self.stride, self.padding, self.groups
        Ho, Wo = self.out_hw(H, W)
        if Ho < 1 or Wo < 1:
            raise ShapeError(f"Conv2D output would be empty for input {x.data.shape}")
        cg = C // G
        og = self.out_channels // G
        w, b = self.weight, self.bias
        xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data

        # im2col (B, G, k*k*cg, Ho*Wo), rows in (tap, channel) order: each
        # tap's block is then contiguous per group, for the copies here and
        # the scatter in backward; the weight is permuted to match
        cols = np.empty((B, G, k, k, cg, Ho, Wo), dtype=x.data.dtype)
        xg = xp.reshape(B, G, cg, *xp.shape[2:])
        for ki in range(k):
            for kj in range(k):
                cols[:, :, ki, kj] = xg[:, :, :, ki: ki + sh * Ho: sh, kj: kj + sw * Wo: sw]
        cols = cols.reshape(B, G, k * k * cg, Ho * Wo)
        w2 = w.data.reshape(G, og, cg, k * k).transpose(0, 1, 3, 2).reshape(G, og, k * k * cg)
        out = np.matmul(w2, cols).reshape(B, self.out_channels, Ho, Wo)
        out += b.data[:, None, None]

        def bw(g):
            gg = g.reshape(B, G, og, Ho * Wo)
            if w.requires_grad:
                dw = np.matmul(gg, cols.transpose(0, 1, 3, 2)).sum(axis=0)
                w._accum(dw.reshape(G, og, k * k, cg).transpose(0, 1, 3, 2).reshape(w.data.shape))
            if b.requires_grad:
                b._accum(g.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                dcols = np.matmul(w2.transpose(0, 2, 1), gg).reshape(B, G, k, k, cg, Ho, Wo)
                dxp = np.zeros_like(xp)
                dxg = dxp.reshape(xg.shape)
                for ki in range(k):
                    for kj in range(k):
                        dxg[:, :, :, ki: ki + sh * Ho: sh, kj: kj + sw * Wo: sw] += dcols[:, :, ki, kj]
                x._accum(dxp[:, :, p:p + H, p:p + W] if p else dxp)

        return Tensor.from_op(out, (x, w, b), bw)
