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

Both are shells over one channels-last core, ``_conv`` (``Conv1D`` is a
(1, K) kernel with (K-1)*d zeros before the signal). It works over chunks of
whole items, about ``_ROWS`` output rows each, builds each chunk's im2col in
a workspace reused chunk after chunk, and runs one GEMM per channel group
into the chunk's output rows, adding the bias there. Backward visits the
chunks last to first: it takes each chunk's weight-gradient GEMM, reusing
the last chunk's cols, still in the workspace, and rebuilding the others
from the input, so no whole-batch im2col exists and a one-chunk call
(MCAFF's 8x8 convs at B=32) rebuilds nothing; then it takes the chunks'
input gradient. A stride-1 conv that does not widen its channels takes dx
as the conv of the upstream gradient with the flipped, transposed kernel,
one strided gather in place of a strided scatter-add per tap: MCAFF's
grouped conv backward takes 1.9 ms that way and 2.5-2.7 ms by scatter (B=32,
float32, one BLAS thread, 2-vCPU x86-64 VM). Other convs scatter dcols per
tap. The bias gradient is one GEMV. ``relu=True`` adds a ReLU epilogue, for
memory: rows are clamped in place after the bias add, and backward masks the
upstream by the kept output, bitwise as ``Tensor.relu``, whose node would hold
each pre-activation output (paper-width fusion train forward, B=32, float32:
93 MiB held, not 134).

The chunks run on the worker threads that the simulator's and the dsp's
chunk loops use too (``jamloc._workers``): split into contiguous runs of at
least two chunks, one per CPU the process may use and at most ``_RUNS``, the
last on the calling thread and the others on the shared pool; numpy's GEMMs
and copies release the interpreter lock. A call of fewer than four chunks
runs inline: every pointwise conv, and every MCAFF conv at B=32, whose
two-chunk stem convs left a paper-width MCAFF step no faster on a second
thread (24-25 ms either way), while a thread adds to the process's RSS. The
result is bitwise the one-thread result: the chunks do not depend on the
worker count, each run writes only its own rows of the output and items of
dx, the per-chunk weight-gradient GEMMs are summed last chunk first, as one
thread sums them, and the bias gradient stays one GEMV over the batch.
Whatever the CPU count, a call holds at most the two workspaces one thread's
backward held (its cols and its dcols or transposed-conv cols): forward keeps
for backward only the last run's workspace, which holds the last chunk's
cols, and in backward each of at most two runs uses one workspace (the last
run the kept one) for its cols rebuilds, then for its dcols or
transposed-conv cols. The gain rests on numpy running
each GEMM on one BLAS thread (OPENBLAS_NUM_THREADS=1, as the benchmark sets):
the paper-width fusion train step (B=32, float32, 2-vCPU x86-64 VM) then takes
41-43 ms on two workers, against 64-68 ms on one. With OpenBLAS running its
own threads on the same CPUs, the workers gain nothing: 59-83 ms either way.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .. import _workers
from .tensor import ShapeError, Tensor

__all__ = [
    "Mode", "Layer", "Dense", "Conv1D", "Conv2D",
    "GlobalAvgPool", "glorot_uniform",
]


class Mode(enum.Enum):
    """The pass a caller runs. No layer reads it: each computes the same in both."""

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


# ----------------------------------------------------------------------
# dense / pooling
# ----------------------------------------------------------------------

def _count(least: int):
    """The rule of a count: an int, not a bool, of at least ``least``."""
    return lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


class Dense(Layer):
    """(B, in_features) -> (B, out_features); each count is an int >= 1
    (``_count(1)``, as the convs check theirs), else a ValueError naming it."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 dtype=np.float64):
        for name, value in (("in_features", in_features), ("out_features", out_features)):
            if not _count(1)(value):
                raise ValueError(f"Dense {name} out of range: {value}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(glorot_uniform(rng, (in_features, out_features),
                                            in_features, out_features, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.in_features:
            raise ShapeError(f"Dense expects (B, {self.in_features}), got {x.data.shape}")
        return x @ self.weight + self.bias


class GlobalAvgPool(Layer):
    """(B, C, ...) -> (B, C), averaging over all trailing spatial axes."""

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim < 3:
            raise ShapeError(f"GlobalAvgPool expects (B, C, spatial...), got {x.data.shape}")
        axes = tuple(range(2, x.data.ndim))
        return x.mean(axis=axes)


# ----------------------------------------------------------------------
# convolution: one channels-last core under Conv1D and Conv2D
# ----------------------------------------------------------------------

# Output rows per chunk of whole items (at least one item). At the IQ
# encoder's widths a chunk's cols and output stay in cache from the im2col
# through the GEMM to the bias add. Its fwd+bwd (B=32, float32, one BLAS
# thread, one worker, 2-vCPU x86-64 VM) took 64 ms at 4096 rows, 66-68 ms
# at 1024 or 8192 and 77 ms at 16384. The workers split the chunks, never a
# chunk, so the chunk boundaries, and with them the bits of every GEMM (a
# grid whose rows per item are not a multiple of 16 rounds by its chunking),
# are those of one thread.
_ROWS = 4096


class _Geometry:
    """One convolution of a channels-last (B, H, W, C) input: per-axis
    kernel, stride, dilation and (lo, hi) zero padding, and channel groups.
    Output (i, j) reads input (i*sh + u*dh - pt, j*sw + v*dw - pl) through
    tap (u, v). ``chunks`` lists the (b0, n) runs of whole items. An empty
    input or output grid is a ShapeError: padding alone would give an empty
    input a nonempty output, which backward cannot map onto the input."""

    def __init__(self, shape, kernel, stride, dilation, pad, groups):
        B, H, W, C = shape
        if min(H, W) < 1:
            raise ShapeError(f"convolution input grid {(H, W)} is empty")
        self.shape = shape
        self.kernel = kernel
        self.stride = stride
        self.dilation = dilation
        self.pad = pad
        self.groups = groups
        self.cg = C // groups
        self.out_hw = tuple((n + lo + hi - (k - 1) * d - 1) // s + 1
                            for n, k, s, d, (lo, hi) in zip((H, W), kernel, stride, dilation, pad))
        if min(self.out_hw) < 1:
            raise ShapeError(f"convolution output would be empty: input grid {(H, W)} "
                             f"gives {self.out_hw}")
        # a pointwise conv's cols are its input, so it takes the batch at once
        self.pointwise = kernel == stride == (1, 1) and pad == ((0, 0), (0, 0))
        items = B if self.pointwise else _ROWS // (self.out_hw[0] * self.out_hw[1])
        items = max(1, items)
        self.chunks = [(b0, min(items, B - b0)) for b0 in range(0, B, items)]

    @functools.cached_property
    def taps(self) -> list:
        """(u, v, oi, oj, ii, ij) per tap: the output rows and columns whose tap
        (u, v) reads inside the input, and the input rows and columns read."""
        spans = [[], []]
        for axis, (n, n_out, k, s, d, (lo, _)) in enumerate(zip(
                self.shape[1:3], self.out_hw, self.kernel, self.stride, self.dilation, self.pad)):
            for first in range(-lo, k * d - lo, d):    # the input read by output 0
                o0 = min(n_out, max(0, -(first // s)))
                o1 = max(o0, min(n_out, (n - 1 - first) // s + 1))
                spans[axis].append((slice(o0, o1), slice(o0 * s + first, (o1 - 1) * s + first + 1, s)))
        return [(u, v, oi, oj, ii, ij) for u, (oi, ii) in enumerate(spans[0])
                for v, (oj, ij) in enumerate(spans[1])]

    def transposed(self, out_channels: int) -> _Geometry | None:
        """The input gradient as a stride-1 conv of the (B, Ho, Wo, O) upstream
        gradient with the flipped kernel; None if strided, padded beyond
        (k-1)*d, or widening (O > C) and not pointwise: its im2col would
        then move more data than dcols (d16 Conv1D, 64 -> 128: 0.3-0.7 ms)."""
        pad = tuple(((k - 1) * d - lo, (k - 1) * d - hi)
                    for k, d, (lo, hi) in zip(self.kernel, self.dilation, self.pad))
        if self.stride != (1, 1) or min(min(p) for p in pad) < 0 or \
                (out_channels > self.shape[3] and not self.pointwise):
            return None
        return _Geometry((self.shape[0], *self.out_hw, out_channels), self.kernel, (1, 1),
                         self.dilation, pad, self.groups)

    def workspace(self, chunks, dtype, spare: np.ndarray | None = None) -> np.ndarray:
        """An (n, Ho, Wo, G, kh, kw, C/G) cols workspace for the largest of the
        (b0, n) ``chunks``, in ``spare`` if that holds enough ``dtype``
        values; empty for a pointwise conv, whose cols are its input."""
        n = 0 if self.pointwise else max((n for _, n in chunks), default=0)
        shape = (n, *self.out_hw, self.groups, *self.kernel, self.cg)
        size = math.prod(shape)
        if spare is not None and spare.dtype == dtype and spare.size >= size:
            return spare.reshape(-1)[:size].reshape(shape)
        return np.empty(shape, dtype)

    def cols(self, a: np.ndarray, chunks, ws: np.ndarray):
        """Yield the (n*Ho*Wo, G, kh*kw*C/G) im2col of each (b0, n) chunk of
        C-contiguous channels-last ``a``, taps in (row, column, channel)
        order, in ``ws``. By shape: a pointwise conv yields its input rows; a
        dilated one-row kernel (Conv1D, d > 1) copies each tap's shifted rows
        in, the columns reading the padding zeroed once; other kernels copy
        the chunk into a zero-padded, group-major (n, Hp, G, Wp, C/G) buffer,
        then all windows at once in runs of kw*C/G values. At B=32, float32
        the second spares a d16 Conv1D chunk that copy, and the third halves
        the im2col of MCAFF's grouped conv (16-value taps) against per-tap
        copies."""
        B, H, W, _ = a.shape
        G, cg = self.groups, self.cg
        kh, kw = self.kernel
        sh, sw = self.stride
        dh, dw = self.dilation
        (pt, pb), (pl, pr) = self.pad
        if self.pointwise:
            for b0, n in chunks:
                yield np.ascontiguousarray(a[b0:b0 + n]).reshape(-1, G, cg)
            return
        per_tap = kh == 1 and dw > 1
        if per_tap:
            for u, v, oi, oj, _, _ in self.taps:
                tap = ws[:, :, :, :, u, v]
                tap[:, :oi.start] = 0
                tap[:, oi.stop:] = 0
                tap[:, oi, :oj.start] = 0
                tap[:, oi, oj.stop:] = 0
        else:
            xp = np.zeros((len(ws), H + pt + pb, G, W + pl + pr, cg), a.dtype)
            s0, s1, s2, s3, s4 = xp.strides
            windows = (s0, sh * s1, sw * s3, s2, dh * s1, dw * s3, s4)
        for b0, n in chunks:
            ac = a[b0:b0 + n].reshape(n, H, W, G, cg)
            if per_tap:
                for u, v, oi, oj, ii, ij in self.taps:
                    ws[:n, oi, oj, :, u, v] = ac[:, ii, ij]
            else:
                xp[:n, pt:pt + H, :, pl:pl + W] = ac.transpose(0, 1, 3, 2, 4)
                ws[:n] = as_strided(xp, ws[:n].shape, windows)
            yield ws[:n].reshape(-1, G, kh * kw * cg)

    def scatter(self, dcols: np.ndarray, dx: np.ndarray) -> None:
        """Add each tap of a chunk's (n, Ho, Wo, G, kh, kw, C/G) dcols into the
        inputs it read, in the chunk's (n, H, W, C) dx. A tap that read them
        all (a causal conv's last, a "same" conv's centre) is written first,
        so dx is not zeroed."""
        dxv = dx.reshape(*dx.shape[:3], self.groups, self.cg)
        whole = (slice(0, dx.shape[1], 1), slice(0, dx.shape[2], 1))
        taps = sorted(self.taps, key=lambda t: t[4:] != whole)
        u, v, oi, oj, ii, ij = taps[0]
        covers = (ii, ij) == whole
        dxv[...] = dcols[:, oi, oj, :, u, v] if covers else 0
        for u, v, oi, oj, ii, ij in taps[covers:]:
            dxv[:, ii, ij] += dcols[:, oi, oj, :, u, v]


def _by_group(rows: np.ndarray, groups: int) -> np.ndarray:
    """(M, G*k) rows as the (G, M, k) stack of their group blocks; a view."""
    return rows.reshape(len(rows), groups, -1).transpose(1, 0, 2)


def _conv(x: Tensor, w: Tensor, b: Tensor, kernel, stride, dilation, pad, groups, relu) -> Tensor:
    """The core (see the module docstring): convolve a (B, C, T) input, as
    one row, or a (B, C, H, W) input by a weight of O rows that reshapes to
    (O, C/groups, kh, kw); returns the channels-last (B, O, ...) view."""
    B, C, *sp = x.data.shape
    # C-contiguous channels-last: no copy for a conv's output
    xl = np.ascontiguousarray(x.data.transpose(0, *range(2, x.data.ndim), 1))
    xl = xl.reshape(B, *(1,) * (2 - len(sp)), *sp, C)
    geo = _Geometry(xl.shape, kernel, stride, dilation, pad, groups)
    kh, kw = kernel
    G = groups
    cg = C // G
    O = w.data.shape[0]
    og = O // G
    r = geo.out_hw[0] * geo.out_hw[1]
    wg = w.data.reshape(G, og, cg, kh, kw)
    w2 = wg.transpose(0, 3, 4, 2, 1).reshape(G, kh * kw * cg, og)
    out = np.empty((B * r, O), dtype=xl.dtype)
    runs = _workers._runs(geo.chunks)

    def forward(job):
        run, ws = job
        cols = None
        for (b0, n), cols in zip(run, geo.cols(xl, run, ws)):
            o = out[b0 * r:(b0 + n) * r]
            np.matmul(cols.transpose(1, 0, 2), w2, out=_by_group(o, G))
            o += b.data
            if relu:
                np.maximum(o, 0, out=o)
        return ws, cols

    # workspaces come from the calling thread, so the pool's threads allocate
    # little; backward keeps one, the last run's, holding the last chunk's cols
    ws, cols = _workers._map(forward, [(run, geo.workspace(run, xl.dtype)) for run in runs])[-1]

    def bw(g):
        g2 = np.ascontiguousarray(g.transpose(0, *range(2, g.ndim), 1)).reshape(-1, O)
        if relu:    # masked by the kept output, each run its own rows
            g_up, g2 = g2, np.empty_like(g2)
        if x.requires_grad:
            dx = np.empty(geo.shape, g2.dtype)
            geo_t = geo.transposed(O)
            if geo_t is not None:
                w2t = wg[..., ::-1, ::-1].transpose(0, 3, 4, 1, 2).reshape(G, kh * kw * og, cg)

        def backward(job):
            """The dW partial of each chunk of a run, last chunk first, then
            the run's dx, in one workspace: the kept one for the last run."""
            run, ws, cols = job
            if relu:
                for b0, n in run:
                    rows = slice(b0 * r, (b0 + n) * r)
                    np.multiply(g_up[rows], out[rows] > 0, out=g2[rows])
            parts = []
            if w.requires_grad:
                # the kept cols go first: the rebuild then overwrites them
                wcols = geo.cols(xl, run, ws) if cols is None else \
                    itertools.chain([cols], geo.cols(xl, run[1:], ws))
                parts = [np.matmul(c.transpose(1, 2, 0), _by_group(g2[b0 * r:(b0 + n) * r], G))
                         for c, (b0, n) in zip(wcols, run)]
            if x.requires_grad and geo_t is None:
                dcols = geo.workspace(run, g2.dtype, ws)
                for b0, n in run:
                    gr = g2[b0 * r:(b0 + n) * r]
                    np.matmul(_by_group(gr, G), w2.transpose(0, 2, 1),
                              out=_by_group(dcols[:n].reshape(len(gr), -1), G))
                    geo.scatter(dcols[:n], dx[b0:b0 + n])
            elif x.requires_grad:
                # in the layer's chunks, which may hold more items than geo_t's
                tcols = geo_t.cols(g2.reshape(geo_t.shape), run, geo_t.workspace(run, g2.dtype, ws))
                for tc, (b0, n) in zip(tcols, run):
                    np.matmul(tc.transpose(1, 0, 2), w2t,
                              out=_by_group(dx[b0:b0 + n].reshape(-1, C), G))
            return parts

        jobs = [(run[::-1], geo.workspace(run, g2.dtype), None) for run in runs[:-1]]
        parts = _workers._map(backward, jobs + [(runs[-1][::-1], ws, cols)])
        if b.requires_grad:
            b._accum(np.ones(len(g2), dtype=g2.dtype) @ g2)
        if w.requires_grad:
            # summed in the one-thread order, last chunk first
            dw = np.zeros(w2.shape, g2.dtype)
            for p in itertools.chain.from_iterable(parts[::-1]):
                dw += p
            w._accum(dw.reshape(G, kh, kw, cg, og).transpose(0, 4, 3, 1, 2).reshape(w.data.shape))
        if x.requires_grad:
            x._accum(dx.reshape(B, *sp, C).transpose(0, -1, *range(1, len(sp) + 1)))

    y = out.reshape(B, *geo.out_hw[2 - len(sp):], O)
    return Tensor.from_op(y.transpose(0, -1, *range(1, len(sp) + 1)), (x, w, b), bw)


# each conv argument's rule, checked before any shape arithmetic
_CONV_RULES = {"in_channels": _count(1), "out_channels": _count(1), "kernel_size": _count(1),
               "dilation": _count(1), "stride": lambda s: len(s) == 2 and all(map(_count(1), s)),
               "padding": _count(0), "groups": _count(1), "relu": lambda v: isinstance(v, bool)}


class _Conv(Layer):
    """The construction both convs share. Each argument is checked against
    ``_CONV_RULES`` (a ValueError names the first one out of range), then
    kept as the attribute of its name. The weight has shape (out_channels,
    in_channels // groups) + (kernel_size,) * ``axes`` and is Glorot-uniform:
    fan-in is a group's input channels times the taps, fan-out a group's
    output channels, times the taps too if ``fan_out_taps``. The bias is 0."""

    def __init__(self, rng: np.random.Generator, dtype, *, axes: int, fan_out_taps: bool, **args):
        for name, value in args.items():
            if not _CONV_RULES[name](value):
                raise ValueError(f"{type(self).__name__} {name} out of range: {value}")
        groups, cin, cout = args.get("groups", 1), args["in_channels"], args["out_channels"]
        if cin % groups or cout % groups:
            raise ValueError(f"groups={groups} must divide in_channels={cin} and out_channels={cout}")
        vars(self).update(args)
        k, cg = args["kernel_size"], cin // groups
        taps = k ** axes
        self.weight = Tensor(glorot_uniform(rng, (cout, cg) + (k,) * axes, cg * taps,
                                            cout // groups * (taps if fan_out_taps else 1), dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)


class Conv1D(_Conv):
    """Causal 1-D convolution over (B, C, T) with dilation; output length = T.
    Tap j reads x[t - (K-1-j)*d], zero before the signal."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, dilation: int = 1, dtype=np.float64,
                 relu: bool = False):
        super().__init__(rng, dtype, axes=1, fan_out_taps=False, in_channels=in_channels,
                         out_channels=out_channels, kernel_size=kernel_size, dilation=dilation,
                         relu=relu)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 3 or x.data.shape[1] != self.in_channels:
            raise ShapeError(f"Conv1D expects (B, {self.in_channels}, T), got {x.data.shape}")
        K, d = self.kernel_size, self.dilation
        return _conv(x, self.weight, self.bias, (1, K), (1, 1), (1, d), ((0, 0), ((K - 1) * d, 0)), 1,
                     self.relu)


class Conv2D(_Conv):
    """2-D convolution over (B, C, H, W); stride may be an int or (sh, sw)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride=1, padding: int = 0,
                 groups: int = 1, dtype=np.float64, relu: bool = False):
        super().__init__(rng, dtype, axes=2, fan_out_taps=True, in_channels=in_channels,
                         out_channels=out_channels, kernel_size=kernel_size,
                         stride=(stride, stride) if np.ndim(stride) == 0 else tuple(stride),
                         padding=padding, groups=groups, relu=relu)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.in_channels:
            raise ShapeError(f"Conv2D expects (B, {self.in_channels}, H, W), got {x.data.shape}")
        k, p = self.kernel_size, self.padding
        return _conv(x, self.weight, self.bias, (k, k), self.stride, (1, 1), ((p, p),) * 2,
                     self.groups, self.relu)
