"""Network layers built on the tensor autodiff core.

``Layer.params()`` defines the GJW1 checkpoint order for every layer and model
built from layers. All learned parameters are initialized uniform in
+/- sqrt(6 / (fan_in + fan_out)) from the caller's seeded generator; biases
start at zero.

Layout contract of the convolutions: ``Conv1D`` and ``Conv2D`` take and return
channels-first shapes, (B, C, T) and (B, C, H, W), and their weights are
(O, C, K) and (O, C/groups, k, k). In memory they compute channels-last. Each
returns a transposed view of a C-contiguous (B, T, O) or (B, H, W, O) buffer,
and reads its input as channels-last, which costs no copy when the producer
was a conv: numpy elementwise ops (ReLU, residual adds) and ``Tensor.sum``'s
gradient keep their operand's layout, so a conv stack passes channels-last
buffers from conv to conv, and their gradients take the same path back.

``Conv2D`` and a kernel-1 ``Conv1D`` run the forward, weight gradient and
input gradient each as one GEMM per channel group over all B*Ho*Wo or B*T
output positions. A wider ``Conv1D`` runs them over chunks of whole samples,
about ``_ROWS`` output rows each, so its im2col never exists for the whole
batch: backward rebuilds each chunk's cols from the channels-last input
rather than keep them. ``Conv1D``'s bias gradient is one GEMV.
"""

from __future__ import annotations

import enum

import numpy as np

from .tensor import ShapeError, Tensor

__all__ = [
    "Mode", "Layer", "Dense", "Conv1D", "Conv2D",
    "Dropout", "GlobalAvgPool", "glorot_uniform",
]


class Mode(enum.Enum):
    TRAIN = "train"
    EVAL = "eval"


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Base of every layer and model part.

    ``params()`` walks ``vars(self)`` depth first in assignment order and
    collects each Tensor with ``requires_grad``, recursing into lists, tuples,
    dict values and Layers (other objects, such as configs, are not entered).
    That order is the GJW1 checkpoint layout, so a part that pairs layers
    keeps each pair in one attribute.
    """

    def params(self) -> list[Tensor]:
        out = []

        def walk(v):
            if isinstance(v, Tensor):
                if v.requires_grad:
                    out.append(v)
            elif isinstance(v, Layer):
                out.extend(v.params())
            elif isinstance(v, (list, tuple)):
                for item in v:
                    walk(item)
            elif isinstance(v, dict):
                for item in v.values():
                    walk(item)

        walk(list(vars(self).values()))
        return out

    def __call__(self, x, mode: Mode = Mode.EVAL, rng: np.random.Generator | None = None) -> Tensor:
        raise NotImplementedError


# ----------------------------------------------------------------------
# dense / dropout / pooling
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

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.in_features:
            raise ShapeError(f"Dense expects (B, {self.in_features}), got {x.data.shape}")
        return x @ self.weight + self.bias


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


def _channels_last(a: np.ndarray) -> np.ndarray:
    """(B, C, ...) -> a C-contiguous (B, ..., C) array; no copy when ``a`` is
    already a channels-last view, as every conv output is."""
    return np.ascontiguousarray(a.transpose(0, *range(2, a.ndim), 1))


# ----------------------------------------------------------------------
# 1-D convolution (dilated, causal, stride 1)
# ----------------------------------------------------------------------

# Output rows per Conv1D chunk (whole samples, at least one). At the IQ
# encoder's widths a chunk's (rows, K*C) cols and (rows, O) output stay in
# cache from the im2col through the GEMM to the bias add. Its fwd+bwd (B=32,
# float32, one BLAS thread, 2-vCPU x86-64 VM) took 64 ms at 4096 rows,
# 66-68 ms at 1024 or 8192 and 77 ms at 16384.
_ROWS = 4096


def _causal_cols(xc: np.ndarray, d: int, ws: np.ndarray) -> np.ndarray:
    """The causal im2col of ``xc`` (n, T, C) in the first n samples of the
    (bc, T, K, C) workspace ``ws``, returned as (n*T, K*C). Tap j reads
    x[t - (K-1-j)*d] and zero before the start, so tap K-1 is the input."""
    n, T, C = xc.shape
    K = ws.shape[2]
    cols = ws[:n]
    cols[:, :, K - 1] = xc
    for j in range(K - 1):
        s = min((K - 1 - j) * d, T)
        cols[:, :s, j] = 0
        cols[:, s:, j] = xc[:, :T - s]
    return cols.reshape(n * T, K * C)


class Conv1D(Layer):
    """Causal 1-D convolution over (B, C, T) with dilation; output length = T.

    A kernel-1 conv is one GEMM on the channels-last input. A wider kernel
    works over chunks of ``_ROWS // T`` whole samples: each chunk's im2col is
    built in one reused (bc, T, K, C) workspace, multiplied into its rows of
    the (B, T, O) output and given its bias while still in cache, so no
    whole-batch cols is ever held. Backward keeps only the channels-last
    input, which the producing conv's output keeps alive anyway, and
    rebuilds each chunk's cols from it for the weight gradient;
    the input gradient's cols go through a second chunk workspace and are
    scattered into that chunk's rows of dx. The bias gradient is the GEMV
    ``ones(B*T) @ g``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, dilation: int = 1, dtype=np.float64):
        for name, value in (("in_channels", in_channels), ("out_channels", out_channels),
                            ("kernel_size", kernel_size), ("dilation", dilation)):
            if value < 1:
                raise ValueError(f"Conv1D {name} out of range: {value}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        fan_in = in_channels * kernel_size
        self.weight = Tensor(glorot_uniform(rng, (out_channels, in_channels, kernel_size),
                                            fan_in, out_channels, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor, mode: Mode = Mode.EVAL, rng=None) -> Tensor:
        if x.data.ndim != 3 or x.data.shape[1] != self.in_channels:
            raise ShapeError(f"Conv1D expects (B, {self.in_channels}, T), got {x.data.shape}")
        B, C, T = x.data.shape
        K, d, O = self.kernel_size, self.dilation, self.out_channels
        w, b = self.weight, self.bias
        # row j*C + c of the (K*C, O) weight is tap j of input channel c
        w2 = w.data.transpose(2, 1, 0).reshape(K * C, O)
        xl = _channels_last(x.data)
        bc = max(1, _ROWS // T)

        if K == 1:
            out = xl.reshape(B * T, C) @ w2
            out += b.data
        else:
            out = np.empty((B * T, O), dtype=xl.dtype)
            ws = np.empty((min(bc, B), T, K, C), dtype=xl.dtype)
            for b0 in range(0, B, bc):
                oc = out[b0 * T:(b0 + bc) * T]
                np.matmul(_causal_cols(xl[b0:b0 + bc], d, ws), w2, out=oc)
                oc += b.data

        def bw(g):
            g2 = _channels_last(g).reshape(B * T, O)
            if b.requires_grad:
                b._accum(np.ones(B * T, dtype=g2.dtype) @ g2)
            if K == 1:
                dw = xl.reshape(B * T, C).T @ g2 if w.requires_grad else None
                dx = (g2 @ w2.T).reshape(B, T, C) if x.requires_grad else None
            else:
                dw = dx = None
                if w.requires_grad:
                    dw = np.zeros((K * C, O), dtype=g2.dtype)
                    ws = np.empty((min(bc, B), T, K, C), dtype=g2.dtype)
                if x.requires_grad:
                    dx = np.empty((B, T, C), dtype=g2.dtype)
                    dws = np.empty((min(bc, B), T, K, C), dtype=g2.dtype)
                for b0 in range(0, B, bc):
                    xc = xl[b0:b0 + bc]
                    n = len(xc)
                    gc = g2[b0 * T:(b0 + n) * T]
                    if dw is not None:
                        dw += _causal_cols(xc, d, ws).T @ gc
                    if dx is not None:
                        dcols = dws[:n]
                        np.matmul(gc, w2.T, out=dcols.reshape(n * T, K * C))
                        # tap K-1 covers every t; the others add shifted row blocks
                        dxc = dx[b0:b0 + n]
                        dxc[...] = dcols[:, :, K - 1]
                        for j in range(K - 1):
                            s = (K - 1 - j) * d
                            if s < T:
                                dxc[:, :T - s] += dcols[:, s:, j]
            if dw is not None:
                w._accum(dw.reshape(K, C, O).transpose(2, 1, 0))
            if dx is not None:
                x._accum(dx.transpose(0, 2, 1))

        return Tensor.from_op(out.reshape(B, T, O).transpose(0, 2, 1), (x, w, b), bw)


# ----------------------------------------------------------------------
# 2-D convolution (stride, zero padding, channel groups)
# ----------------------------------------------------------------------

def _tap_span(tap: int, stride: int, pad: int, n_in: int, n_out: int) -> tuple[int, int, int]:
    """Outputs [o0, o1) along one axis whose kernel ``tap`` lands inside the
    input (output o reads input o*stride + tap - pad), and the input index
    read by o0. The other outputs read the zero padding."""
    o0 = min(n_out, -(-max(pad - tap, 0) // stride))
    o1 = max(o0, min(n_out, (n_in - 1 + pad - tap) // stride + 1))
    return o0, o1, o0 * stride + tap - pad


class Conv2D(Layer):
    """2-D convolution over (B, C, H, W); stride may be an int or (sh, sw)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride=1, padding: int = 0,
                 groups: int = 1, dtype=np.float64):
        stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
        for name, value, ok in (("in_channels", in_channels, in_channels >= 1),
                                ("out_channels", out_channels, out_channels >= 1),
                                ("kernel_size", kernel_size, kernel_size >= 1),
                                ("stride", stride, len(stride) == 2 and min(stride) >= 1),
                                ("padding", padding, padding >= 0),
                                ("groups", groups, groups >= 1)):
            if not ok:
                raise ValueError(f"Conv2D {name} out of range: {value}")
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"groups={groups} must divide in_channels={in_channels} and out_channels={out_channels}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        cg = in_channels // groups
        fan_in = cg * kernel_size * kernel_size
        fan_out = (out_channels // groups) * kernel_size * kernel_size
        self.weight = Tensor(glorot_uniform(rng, (out_channels, cg, kernel_size, kernel_size),
                                            fan_in, fan_out, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

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
        O = self.out_channels
        cg, og, M, kkc = C // G, O // G, B * Ho * Wo, k * k * (C // G)
        w, b = self.weight, self.bias
        # (G, k*k*cg, og): group g's rows in (tap, channel) order, like cols
        w2 = w.data.reshape(G, og, cg, k, k).transpose(0, 3, 4, 2, 1).reshape(G, kkc, og)
        row_spans = [_tap_span(t, sh, p, H, Ho) for t in range(k)]
        col_spans = [_tap_span(t, sw, p, W, Wo) for t in range(k)]

        # im2col: a (B, Ho, Wo, G, k, k, cg) array whose memory follows the
        # input's, so each tap copies along the input's contiguous axis. A
        # channels-last input (any conv output) gives channels-last cols; a
        # 1x1 stride-1 conv reads the input itself. A C-contiguous input (a
        # model input, with few channels) gives tap-major (G, k, k, cg, B, Ho,
        # Wo) cols. Either way each group's GEMM reads its strided
        # (M, k*k*cg) block.
        nchw = x.data.flags.c_contiguous
        xhwc = x.data.transpose(0, 2, 3, 1) if nchw else _channels_last(x.data)
        xv = xhwc.reshape(B, H, W, G, cg)
        pointwise = k == 1 and (sh, sw) == (1, 1) and p == 0 and not nchw
        if pointwise:
            cols = xv.reshape(B, Ho, Wo, G, 1, 1, cg)
        else:
            if nchw:
                cols = np.empty((G, k, k, cg, B, Ho, Wo), dtype=x.data.dtype)
                cols = cols.transpose(4, 5, 6, 0, 1, 2, 3)
            else:
                cols = np.empty((B, Ho, Wo, G, k, k, cg), dtype=x.data.dtype)
            for ki, (i0, i1, r0) in enumerate(row_spans):
                for kj, (j0, j1, c0) in enumerate(col_spans):
                    tap = cols[:, :, :, :, ki, kj]
                    tap[:, i0:i1, j0:j1] = xv[:, r0:r0 + (i1 - i0) * sh:sh, c0:c0 + (j1 - j0) * sw:sw]
                    # zero where the tap reads the padding
                    if i0 > 0:
                        tap[:, :i0] = 0
                    if i1 < Ho:
                        tap[:, i1:] = 0
                    if j0 > 0:
                        tap[:, i0:i1, :j0] = 0
                    if j1 < Wo:
                        tap[:, i0:i1, j1:] = 0
        cols_g = cols.reshape(M, G, kkc).transpose(1, 0, 2)
        # the GEMMs write each group's og columns of the (B, Ho, Wo, O) output
        out = np.empty((B, Ho, Wo, O), dtype=x.data.dtype)
        np.matmul(cols_g, w2, out=out.reshape(M, G, og).transpose(1, 0, 2))
        out += b.data

        def bw(g):
            gl = _channels_last(g)
            g_g = gl.reshape(M, G, og).transpose(1, 0, 2)
            if w.requires_grad:
                dw = np.matmul(cols_g.transpose(0, 2, 1), g_g)
                w._accum(dw.reshape(G, k, k, cg, og).transpose(0, 4, 3, 1, 2).reshape(w.data.shape))
            if b.requires_grad:
                b._accum(gl.reshape(M, O).sum(axis=0))
            if x.requires_grad:
                dcols = np.empty_like(cols)  # cols' memory layout
                np.matmul(g_g, w2.transpose(0, 2, 1),
                          out=dcols.reshape(M, G, kkc).transpose(1, 0, 2))
                if pointwise:
                    dx = dcols.reshape(xhwc.shape)
                else:
                    dx = np.zeros_like(xhwc)  # the input's memory layout
                    dxv = dx.reshape(B, H, W, G, cg)
                    for ki, (i0, i1, r0) in enumerate(row_spans):
                        for kj, (j0, j1, c0) in enumerate(col_spans):
                            dxv[:, r0:r0 + (i1 - i0) * sh:sh, c0:c0 + (j1 - j0) * sw:sw] += \
                                dcols[:, i0:i1, j0:j1, :, ki, kj]
                x._accum(dx.transpose(0, 3, 1, 2))

        return Tensor.from_op(out.transpose(0, 3, 1, 2), (x, w, b), bw)
