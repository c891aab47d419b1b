"""Network layers built on the tensor autodiff core.

``Layer.params()`` defines the GJW1 checkpoint order for every layer and model
built from layers. All learned parameters are initialized in float64, uniform
in +/- sqrt(6 / (fan_in + fan_out)) from the caller's seeded generator;
biases start at zero. ``Layer.cast`` is the one place a precision is set: it
takes float32 or float64 and rounds every parameter to it, so a float32 model
holds the float64 draws rounded.

Layout contract of the convolutions: ``Conv1D`` and ``Conv2D`` take and return
channels-first shapes, (B, C, T) and (B, C, H, W), and their weights are
(O, C, K) and (O, C/groups, k, k). In memory they compute channels-last. Each
returns a transposed view of a C-contiguous (B, T, O) or (B, H, W, O) buffer,
and reads its input as channels-last, which costs no copy when the producer
was a conv: numpy elementwise ops (ReLU, residual adds) keep their operand's
layout, so a conv stack passes channels-last buffers from conv to conv, and
their gradients take the same path back. A mean over the grid
(``GlobalAvgPool``) hands down a stride-0 broadcast of its (B, C) gradient
instead (``Tensor.sum``), which a ReLU conv reads as it is.

Both are shells over one channels-last core, ``_conv`` (``Conv1D`` is a
(1, K) kernel with (K-1)*d zeros before the signal). It works over chunks of
whole items, at most ``_ROWS`` output rows each (one item if an item has
more) and at least two for a call of two items or more, builds each
chunk's im2col in a workspace reused chunk after chunk, and runs one GEMM
per channel group into the chunk's output rows, adding the bias there.
Backward visits the chunks last to first: it takes each chunk's
weight-gradient GEMM on the chunk's cols, rebuilt from the input in a
workspace of the pass, so no whole-batch im2col exists; then it takes the
chunks' input gradient, one way for every conv: one GEMM per chunk
multiplies the upstream gradient rows by the weight, straight into dx for a
pointwise conv, and otherwise into the dcols workspace (the per-tap input
gradients), which is added into dx tap by tap. dcols is group-major, so
each group's GEMM writes contiguous rows: MCAFF's grouped conv took 2.0 ms
for the GEMM and 3.2 ms for the scatter that way, against 3.6 and 4.5 ms
channels-last (B=32, float32, one BLAS thread, 2-vCPU x86-64 Xeon VM).
The bias gradient is one GEMV. ``relu=True`` adds a ReLU epilogue, for
memory: rows are clamped in place after the bias add, and each forward job
packs its chunks' ``out > 0`` into bits (``np.packbits``); backward unpacks
a chunk's bits and multiplies the chunk's upstream, in whatever strides it
came, by them straight into the chunk's rows of the masked gradient, bitwise
as ``Tensor.relu``, whose node keeps a byte per value where the conv keeps a
bit (paper-width fusion train forward, B=32, float32, two runs: 29.5 MiB
held; 80.7 MiB when each conv kept its output for the mask and each node
its parents). So a ReLU conv never copies its upstream whole; a conv
without one reads its upstream as C-contiguous channels-last rows, a copy
only when the upstream comes in another layout.

The chunks run on the shared workers (``jamloc._workers``) by the one rule
of every chunk loop: ``_workers._runs`` splits the fixed chunks into
contiguous runs, ``_RUNS`` at most (two, or one on one CPU), the last on the
calling thread and the others on the pool; numpy's GEMMs and copies release
the interpreter lock. So every call of two items or more splits where
``_RUNS`` is 2, pointwise or not: MCAFF's grouped block at B=32 (2048 rows a
conv) runs on both workers, forward and backward. MCAFF's four stems run
their forwards side by side (``branches``), a conv inside one inline; their
backward runs on the calling thread, each stem conv split like any other.
The result is bitwise the one-thread result: the chunks do not depend on
``_RUNS``, each run writes only its own rows of the output and items of dx,
the per-chunk weight-gradient GEMMs are summed last chunk first, as one
thread sums them, and the bias gradient stays one GEMV over the batch.
Between forward and backward a conv keeps only what its backward reads
(the rule of ``nn.tensor``): its channels-last input and, with
``relu=True``, the mask's bits, not its output. Each run of a pass builds
one workspace, sized for its largest chunk, and frees it when the pass
ends; in backward it holds the run's cols rebuilds, then its dcols. So at
most one workspace per run, ``_RUNS`` in all, is alive at any time, beside
dx and, with ``relu=True``, the masked gradient; the upstream is read where
it lies. The paper-width fusion train step (B=32, float32, two runs) peaks
at 61.0 MiB (tracemalloc), against 77.0 MiB when the pool's gradient was
filled in whole and the IQ encoder's last conv copied it again before
masking it. The workers' gain rests on numpy running each GEMM on one
BLAS thread (OPENBLAS_NUM_THREADS=1, as the benchmark and CI set): the
paper-width fusion train step (B=32, float32, 2-vCPU x86-64 VM) then takes
41-43 ms on two workers, against 64-68 ms on one. With OpenBLAS running its
own threads on the same CPUs, the workers gain nothing: 59-83 ms either way.
"""

from __future__ import annotations

import enum
import functools
import itertools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .. import _workers
from .._checks import count, instance
from .tensor import ShapeError, Tensor, _float_dtype

__all__ = [
    "Mode", "Layer", "Dense", "Conv1D", "Conv2D",
    "GlobalAvgPool", "glorot_uniform", "branches",
]


class Mode(enum.Enum):
    """The pass a caller runs. No layer reads it: each computes the same in both."""

    TRAIN = "train"
    EVAL = "eval"


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


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

    def cast(self, dtype) -> "Layer":
        """Set the precision of every parameter, float32 or float64 (any other
        dtype is a ValueError naming it), keep it as ``self.dtype`` and
        return the layer."""
        self.dtype = _float_dtype(dtype)
        for p in self.params():
            p.data = p.data.astype(self.dtype, copy=False)
        return self


# ----------------------------------------------------------------------
# dense / pooling
# ----------------------------------------------------------------------

class Dense(Layer):
    """(B, in_features) -> (B, out_features); each count is an integer >= 1
    (``_checks.count``, as the convs check theirs)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        count("Dense.in_features", in_features, 1)
        count("Dense.out_features", out_features, 1)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(glorot_uniform(rng, (in_features, out_features),
                                            in_features, out_features), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

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

# Output rows per chunk of whole items at most (at least one item). At the IQ
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
        self.pointwise = kernel == stride == (1, 1) and pad == ((0, 0), (0, 0))
        # at most _ROWS rows, and two chunks at least for two items or more,
        # so the workers can split any batch; a fixed floor, not _RUNS, keeps
        # the chunk boundaries (and the bits) those of any run count
        items = max(1, min(_ROWS // (self.out_hw[0] * self.out_hw[1]), -(-B // 2)))
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

    def workspace(self, chunks, dtype) -> np.ndarray:
        """An (n, Ho, Wo, G, kh, kw, C/G) cols workspace for the largest of the
        (b0, n) ``chunks``, which also holds that chunk's dcols; empty for a
        pointwise conv, whose cols are its input and whose dcols its dx."""
        n = 0 if self.pointwise else max((n for _, n in chunks), default=0)
        return np.empty((n, *self.out_hw, self.groups, *self.kernel, self.cg), dtype)

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
        """Add each tap of a chunk's group-major (G, n*Ho*Wo, kh*kw*C/G) dcols
        into the inputs it read, in the chunk's (n, H, W, C) dx. A tap that
        read them all (a causal conv's last, a "same" conv's centre) is
        written first, so dx is not zeroed."""
        dcols = dcols.reshape(self.groups, len(dx), *self.out_hw, *self.kernel, self.cg)
        dxv = dx.reshape(*dx.shape[:3], self.groups, self.cg).transpose(3, 0, 1, 2, 4)
        whole = (slice(0, dx.shape[1], 1), slice(0, dx.shape[2], 1))
        taps = sorted(self.taps, key=lambda t: t[4:] != whole)
        u, v, oi, oj, ii, ij = taps[0]
        covers = (ii, ij) == whole
        dxv[...] = dcols[:, :, oi, oj, u, v] if covers else 0
        for u, v, oi, oj, ii, ij in taps[covers:]:
            dxv[:, :, ii, ij] += dcols[:, :, oi, oj, u, v]


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
    masks = {}      # b0 -> the chunk's rows > 0, bit-packed, for backward
    xn, wn, bn, wshape = x._node, w._node, b._node, w.data.shape

    def forward(job):
        run, ws = job
        for (b0, n), cols in zip(run, geo.cols(xl, run, ws)):
            o = out[b0 * r:(b0 + n) * r]
            np.matmul(cols.transpose(1, 0, 2), w2, out=_by_group(o, G))
            o += b.data
            if relu:
                np.maximum(o, 0, out=o)
                masks[b0] = np.packbits(o > 0)

    # workspaces come from the calling thread, so the pool's threads allocate
    # little; each lives for one pass
    _workers._map(forward, [(run, geo.workspace(run, xl.dtype)) for run in runs])

    def bw(g):
        g_up = g.transpose(0, *range(2, g.ndim), 1)     # channels-last, any strides
        if relu:    # masked by the kept bits, each run its own rows
            g2 = np.empty((B * r, O), g.dtype)
        else:       # no copy for a conv's channels-last gradient
            g2 = np.ascontiguousarray(g_up).reshape(-1, O)
        if xn is not None:
            dx = np.empty(geo.shape, g2.dtype)

        def backward(job):
            """The dW partial of each chunk of a run, last chunk first, then
            the run's dx, in one workspace."""
            run, ws = job
            if relu:
                for b0, n in run:
                    up = g_up[b0:b0 + n]
                    keep = np.unpackbits(masks[b0], count=n * r * O).view(bool).reshape(up.shape)
                    np.multiply(up, keep, out=g2[b0 * r:(b0 + n) * r].reshape(up.shape))
            parts = []
            if wn is not None:
                parts = [np.matmul(c.transpose(1, 2, 0), _by_group(g2[b0 * r:(b0 + n) * r], G))
                         for c, (b0, n) in zip(geo.cols(xl, run, ws), run)]
            if xn is not None:
                # a pointwise conv's dcols are its dx rows; the others' are
                # group-major, so each group's GEMM writes contiguous rows
                dcols = ws.reshape(-1)
                for b0, n in run:
                    d = _by_group(dx[b0:b0 + n].reshape(n * r, C), G) if geo.pointwise else \
                        dcols[:n * r * kh * kw * C].reshape(G, n * r, -1)
                    np.matmul(_by_group(g2[b0 * r:(b0 + n) * r], G), w2.transpose(0, 2, 1), out=d)
                    if not geo.pointwise:
                        geo.scatter(d, dx[b0:b0 + n])
            return parts

        parts = _workers._map(backward, [(run[::-1], geo.workspace(run, g2.dtype)) for run in runs])
        if bn is not None:
            bn.accum(np.ones(len(g2), dtype=g2.dtype) @ g2)
        if wn is not None:
            # summed in the one-thread order, last chunk first
            dw = np.zeros(w2.shape, g2.dtype)
            for p in itertools.chain.from_iterable(parts[::-1]):
                dw += p
            wn.accum(dw.reshape(G, kh, kw, cg, og).transpose(0, 4, 3, 1, 2).reshape(wshape))
        if xn is not None:
            xn.accum(dx.reshape(B, *sp, C).transpose(0, -1, *range(1, len(sp) + 1)))

    y = out.reshape(B, *geo.out_hw[2 - len(sp):], O)
    return Tensor.from_op(y.transpose(0, -1, *range(1, len(sp) + 1)), (x, w, b), bw)


class _Conv(Layer):
    """The construction both convs share. Each argument passes a ``_checks``
    rule (``relu`` a bool, ``padding`` >= 0, other counts and strides >= 1)
    and is kept under its name. The weight has shape (out_channels,
    in_channels // groups) + (kernel_size,) * ``axes`` and is Glorot-uniform:
    fan-in is a group's input channels times the taps, fan-out a group's
    output channels, times the taps too if ``fan_out_taps``. The bias is 0."""

    def __init__(self, rng: np.random.Generator, *, axes: int, fan_out_taps: bool, **args):
        for name, value in args.items():
            where = f"{type(self).__name__}.{name}"
            if name == "relu":
                instance(where, value, bool)
            elif name == "stride" and len(value) == 2:     # any other length fails as a count
                for i, s in enumerate(value):
                    count(f"{where}[{i}]", s, 1)
            else:
                count(where, value, 0 if name == "padding" else 1)
        groups, cin, cout = args.get("groups", 1), args["in_channels"], args["out_channels"]
        if cin % groups or cout % groups:
            raise ValueError(f"groups={groups} must divide in_channels={cin} and out_channels={cout}")
        vars(self).update(args)
        k, cg = args["kernel_size"], cin // groups
        taps = k ** axes
        self.weight = Tensor(glorot_uniform(rng, (cout, cg) + (k,) * axes, cg * taps,
                                            cout // groups * (taps if fan_out_taps else 1)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)


class Conv1D(_Conv):
    """Causal 1-D convolution over (B, C, T) with dilation; output length = T.
    Tap j reads x[t - (K-1-j)*d], zero before the signal."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, dilation: int = 1, relu: bool = False):
        super().__init__(rng, axes=1, fan_out_taps=False, in_channels=in_channels,
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
                 groups: int = 1, relu: bool = False):
        super().__init__(rng, axes=2, fan_out_taps=True, in_channels=in_channels,
                         out_channels=out_channels, kernel_size=kernel_size,
                         stride=(stride, stride) if np.ndim(stride) == 0 else tuple(stride),
                         padding=padding, groups=groups, relu=relu)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.in_channels:
            raise ShapeError(f"Conv2D expects (B, {self.in_channels}, H, W), got {x.data.shape}")
        k, p = self.kernel_size, self.padding
        return _conv(x, self.weight, self.bias, (k, k), self.stride, (1, 1), ((p, p),) * 2,
                     self.groups, self.relu)


# ----------------------------------------------------------------------
# branches: independent layers called side by side
# ----------------------------------------------------------------------

def branches(layers, inputs) -> list[Tensor]:
    """``[layer(x) for layer, x in zip(layers, inputs)]``, the calls split
    into contiguous runs on the shared workers (a map inside a call runs
    inline). The outputs are nodes of the caller's graph, so backward
    through them runs on the calling thread, as inline; only the forward
    runs side by side. Each call computes what it computes inline, so
    outputs and gradients are bitwise the inline ones."""
    runs = _workers._map(lambda run: [layer(x) for layer, x in run],
                         _workers._runs(list(zip(layers, inputs))))
    return [y for run in runs for y in run]
