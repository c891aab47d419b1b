import itertools
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from jamloc import _workers
from jamloc.models import FusionConfig, IQEncoder
from jamloc.nn import Conv1D, Conv2D, Dense, GlobalAvgPool, ShapeError, Tensor, concat, layers

from _oracles import check_grads, conv1d_grads_ref, conv1d_ref, conv2d_grads_ref, conv2d_ref

GRAD_TOL = 1e-4  # layer-level finite-difference tolerance at 64-bit
# forward oracle tolerance, relative to max |reference|, per dtype
FWD_TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _proj_loss(out, seed=0):
    r = np.random.default_rng(seed).normal(size=out.data.shape)
    return (out * r).sum()


# ----------------------------------------------------------------------
# forward contracts
# ----------------------------------------------------------------------

def test_dense_shape_contract():
    rng = np.random.default_rng(0)
    layer = Dense(288, 512, rng)
    out = layer(Tensor(rng.normal(size=(5, 288))))
    assert out.shape == (5, 512)


def test_dense_rejects_wrong_width():
    layer = Dense(8, 4, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((2, 9))))


def test_relu_values():
    out = Tensor(np.array([-1.0, 0.0, 2.0])).relu()
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_conv1d_causal_output_length():
    rng = np.random.default_rng(3)
    layer = Conv1D(2, 5, kernel_size=3, rng=rng, dilation=4)
    out = layer(Tensor(rng.normal(size=(2, 2, 32))))
    assert out.shape == (2, 5, 32)


def test_conv2d_output_geometry():
    rng = np.random.default_rng(4)
    layer = Conv2D(4, 16, kernel_size=3, rng=rng, stride=2, padding=1)
    out = layer(Tensor(rng.normal(size=(2, 4, 32, 32))))
    assert out.shape == (2, 16, 16, 16)


def test_conv2d_asymmetric_stride():
    rng = np.random.default_rng(5)
    layer = Conv2D(4, 8, kernel_size=3, rng=rng, stride=(4, 2), padding=1)
    out = layer(Tensor(rng.normal(size=(1, 4, 128, 15))))
    assert out.shape == (1, 8, 32, 8)


@pytest.mark.parametrize("kernel_size,dilation", [(1, 1), (3, 1), (3, 16)])
def test_conv1d_matches_direct_oracle(kernel_size, dilation):
    for dtype, tol in FWD_TOL.items():
        rng = np.random.default_rng(7)
        layer = Conv1D(3, 5, kernel_size, rng, dilation=dilation).cast(dtype)
        layer.bias.data[...] = rng.normal(size=5)
        x = rng.normal(size=(2, 3, 40)).astype(dtype)
        out = layer(Tensor(x))
        assert out.dtype == dtype
        ref = conv1d_ref(x, layer.weight.data, layer.bias.data, dilation)
        assert np.max(np.abs(out.data - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("stride", [2, (4, 2)], ids=["s2", "s4x2"])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("groups", [1, 2, 8])
def test_conv2d_matches_direct_oracle(stride, padding, groups):
    for dtype, tol in FWD_TOL.items():
        rng = np.random.default_rng(8)
        layer = Conv2D(8, 16, 3, rng, stride=stride, padding=padding, groups=groups).cast(dtype)
        layer.bias.data[...] = rng.normal(size=16)
        x = rng.normal(size=(2, 8, 11, 9)).astype(dtype)
        out = layer(Tensor(x))
        assert out.dtype == dtype
        ref = conv2d_ref(x, layer.weight.data, layer.bias.data, layer.stride, padding, groups)
        assert out.shape == ref.shape
        assert np.max(np.abs(out.data - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("cls,field,kwargs", [
    (Conv2D, "kernel_size", dict(kernel_size=0)), (Conv2D, "stride[0]", dict(stride=0)),
    (Conv2D, "stride[1]", dict(stride=(2, 0))), (Conv2D, "padding", dict(padding=-1)),
    (Conv2D, "groups", dict(groups=0)),
    (Conv2D, "in_channels", dict(in_channels=0)), (Conv2D, "out_channels", dict(out_channels=0)),
    (Conv1D, "in_channels", dict(in_channels=0)), (Conv1D, "out_channels", dict(out_channels=0)),
    (Conv1D, "kernel_size", dict(kernel_size=0)), (Conv1D, "dilation", dict(dilation=0)),
    (Conv2D, "relu", dict(relu=1)), (Conv1D, "relu", dict(relu="yes")),
    # not ints: dilation=1.5 and groups=True constructed, kernel_size=2.5 failed inside numpy
    (Conv1D, "dilation", dict(dilation=1.5)), (Conv2D, "kernel_size", dict(kernel_size=2.5)),
    (Conv2D, "groups", dict(groups=True)),
], ids=["kernel_size", "stride", "stride-pair", "padding", "groups", "in_channels",
        "out_channels", "conv1d-in_channels",
        "conv1d-out_channels", "conv1d-kernel_size", "conv1d-dilation", "relu", "conv1d-relu",
        "conv1d-dilation-float", "kernel_size-float", "groups-bool"])
def test_conv2d_rejects_bad_arguments(cls, field, kwargs):
    args = dict(in_channels=4, out_channels=4, kernel_size=3, rng=np.random.default_rng(0))
    error, rule = ((TypeError, "a bool") if field == "relu"
                   else (ValueError, f"an integer >= {int(field != 'padding')}"))
    with pytest.raises(error, match=rf"^{cls.__name__}\.{re.escape(field)} must be {rule}, got "):
        cls(**{**args, **kwargs})


@pytest.mark.parametrize("field,kwargs", [
    ("in_features", dict(in_features=0)), ("out_features", dict(out_features=0)),
    # Dense(0, 4) built a (0, 4) weight, Dense(2.5, 4) failed inside numpy
    ("in_features", dict(in_features=2.5)), ("out_features", dict(out_features=True)),
], ids=["in_features", "out_features", "in_features-float", "out_features-bool"])
def test_dense_rejects_bad_arguments(field, kwargs):
    args = dict(in_features=2, out_features=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=rf"^Dense\.{field} must be an integer >= 1, "
                                         rf"got {kwargs[field]!r}$"):
        Dense(**{**args, **kwargs})


@pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex64],
                         ids=["float16", "int32", "complex64"])
def test_cast_rejects_a_dtype_other_than_float32_or_float64(dtype):
    layer = Dense(2, 4, np.random.default_rng(0))
    bad = f"^dtype must be float32 or float64, got {np.dtype(dtype)}$"
    with pytest.raises(ValueError, match=bad):
        layer.cast(dtype)
    assert [p.data.dtype for p in layer.params()] == [np.float64] * 2


def test_cast_sets_every_parameter_and_records_the_dtype():
    # layers draw float64 weights; a cast rounds the same draws
    want = Dense(3, 5, np.random.default_rng(0))
    layer = Dense(3, 5, np.random.default_rng(0))
    assert layer.cast(np.float32) is layer and layer.dtype == np.float32
    for p, q in zip(layer.params(), want.params()):
        assert p.data.dtype == np.float32 and np.array_equal(p.data, q.data.astype(np.float32))


# ----------------------------------------------------------------------
# memory layouts: the convs compute channels-last, whatever they are fed
# ----------------------------------------------------------------------

# (in_channels, out_channels, kernel_size, dilation, T); the third and
# fourth have (K-1)*d >= T, so the earliest taps read only the zero history;
# the last keeps its width, as the IQ encoder's d2 and d8 convs do
CONV1D_CASES = [(3, 4, 3, 2, 11), (3, 4, 1, 1, 7), (2, 3, 3, 4, 5), (2, 3, 3, 2, 4),
                (4, 4, 3, 2, 11)]
# (in_channels, out_channels, kernel_size, stride, padding, groups, (H, W))
CONV2D_CASES = [(3, 4, 3, 2, 1, 1, (7, 6)), (4, 6, 3, 1, 1, 2, (5, 5)),
                (4, 6, 1, 1, 0, 1, (3, 4)), (2, 2, 3, (2, 1), 2, 2, (4, 3))]
# both lists as (dim, case); pytest numbers the ids in this order, so a case
# added later goes last and the ids of the cases before it stay
CONV_CASES = ([(1, c) for c in CONV1D_CASES[:4]] + [(2, c) for c in CONV2D_CASES]
              + [(1, c) for c in CONV1D_CASES[4:]])


def _channels_last_view(leaf: Tensor) -> Tensor:
    """A C-contiguous (B, ..., C) leaf seen as (B, C, ...) through the
    autodiff transpose: the channels-last view a conv returns."""
    n = leaf.data.ndim
    return leaf.transpose((0, n - 1, *range(1, n - 1)))


def _conv_case(dim, case, dtype=np.float64):
    """A conv with a random bias, a (2, C, ...) input, and the oracle's output."""
    rng = np.random.default_rng(20)
    if dim == 1:
        cin, cout, k, d, t = case
        layer = Conv1D(cin, cout, k, rng, dilation=d).cast(dtype)
        x = rng.normal(size=(2, cin, t)).astype(dtype)
        layer.bias.data[...] = rng.normal(size=cout)
        return layer, x, conv1d_ref(x, layer.weight.data, layer.bias.data, d)
    cin, cout, k, s, p, g, hw = case
    layer = Conv2D(cin, cout, k, rng, stride=s, padding=p, groups=g).cast(dtype)
    x = rng.normal(size=(2, cin, *hw)).astype(dtype)
    layer.bias.data[...] = rng.normal(size=cout)
    return layer, x, conv2d_ref(x, layer.weight.data, layer.bias.data, layer.stride, p, g)


def _upstream(shape, kind, rng):
    """A gradient array of logical ``shape`` (B, C, ...) in the named layout."""
    if kind == "channels-first":
        return rng.normal(size=shape)
    if kind == "channels-last":
        return np.moveaxis(rng.normal(size=(shape[0], *shape[2:], shape[1])), -1, 1)
    return rng.normal(size=(*shape[:-1], 2 * shape[-1]))[..., ::2]  # strided


def _loss_with_upstream(out: Tensor, G: np.ndarray) -> Tensor:
    """sum(out * G) whose backward hands ``out`` the array G itself (the loss
    is the graph's root, so its own gradient is 1)."""
    node = out._node
    return Tensor.from_op(np.sum(out.data * G), (out,), lambda g: node.accum(G))


@pytest.mark.parametrize("dim,case", CONV_CASES)
def test_conv_matches_oracle_in_either_input_layout(dim, case):
    for dtype, tol in FWD_TOL.items():
        layer, x, want = _conv_case(dim, case, dtype)
        for xin in (Tensor(x), _channels_last_view(Tensor(np.moveaxis(x, 1, -1).copy()))):
            out = layer(xin)
            assert out.dtype == dtype and out.shape == want.shape
            assert np.max(np.abs(out.data - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("upstream", ["channels-first", "channels-last", "strided"])
@pytest.mark.parametrize("channels_last", [False, True], ids=["in-cf", "in-cl"])
@pytest.mark.parametrize("dim,case", CONV_CASES)
def test_gradcheck_conv_any_layout(dim, case, channels_last, upstream):
    layer, x, _ = _conv_case(dim, case)
    if channels_last:
        leaf = Tensor(np.moveaxis(x, 1, -1).copy(), requires_grad=True)
    else:
        leaf = Tensor(x, requires_grad=True)

    def xin():  # rebuilt per call, so finite differences see the leaf's edits
        return _channels_last_view(leaf) if channels_last else leaf

    G = _upstream(layer(xin()).shape, upstream, np.random.default_rng(21))
    params = [leaf, layer.weight, layer.bias]
    assert check_grads(lambda: _loss_with_upstream(layer(xin()), G), params, probes=16) < GRAD_TOL


# ----------------------------------------------------------------------
# Conv1D chunks: whole samples, _ROWS output rows at a time
# ----------------------------------------------------------------------

# (B, C, O, K, d, T); at T = 1500 a 4096-row chunk holds 2 samples, so B = 3
# runs a full chunk and a remainder. d = 800 gives (K-1)*d >= T, K = 1 is the
# unchunked pointwise GEMM, and the last keeps its width (4 -> 4).
CHUNK_CASES = [(3, 3, 4, 3, 2, 1500), (3, 2, 3, 3, 800, 1500), (3, 3, 4, 1, 1, 1500),
               (3, 4, 4, 3, 4, 1500)]
# gradient tolerance against the float64 einsum oracle, relative to max |oracle|
GRAD_REF_TOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-no-grad"])
@pytest.mark.parametrize("case", CHUNK_CASES, ids=["K3d2", "K3d800", "K1", "K3d4-same-width"])
def test_conv1d_chunks_match_oracles_and_the_one_chunk_result(monkeypatch, case, x_grad):
    # the default chunks (2 + 1 samples) against one sample a chunk
    B, C, O, K, d, T = case
    assert layers._ROWS // T == 2    # the chunk shape these cases were written for
    for dtype, tol in FWD_TOL.items():
        rng = np.random.default_rng(30)
        layer = Conv1D(C, O, K, rng, dilation=d).cast(dtype)
        layer.bias.data[...] = rng.normal(size=O)
        x = Tensor(rng.normal(size=(B, C, T)).astype(dtype), requires_grad=x_grad)
        G = rng.normal(size=(B, O, T)).astype(dtype)

        out = layer(x)
        ref = conv1d_ref(x.data, layer.weight.data, layer.bias.data, d)
        assert np.max(np.abs(out.data - ref)) <= tol * np.max(np.abs(ref))
        _loss_with_upstream(out, G).backward()
        with monkeypatch.context() as m:
            m.setattr(layers, "_ROWS", T)
            np.testing.assert_array_equal(layer(x).data, out.data)

        dx, dw, db = conv1d_grads_ref(x.data, layer.weight.data, G, d)
        got = [(layer.weight.grad, dw), (layer.bias.grad, db)]
        got += [(x.grad, dx)] if x_grad else []
        assert x_grad or x.grad is None
        for grad, want in got:
            assert grad.dtype == dtype and grad.shape == want.shape
            assert np.max(np.abs(grad - want)) <= GRAD_REF_TOL[dtype] * np.max(np.abs(want))


def test_conv1d_never_holds_a_whole_batch_im2col(monkeypatch, traced):
    # paper width of the IQ encoder's dilated convs, fed and differentiated
    # channels-last as inside the model: eight chunks, split in two runs as
    # on any host of two CPUs or more
    monkeypatch.setattr(_workers, "_RUNS", 2)
    B, C, T, K = 32, 64, 1024, 3
    rng = np.random.default_rng(31)
    layer = Conv1D(C, C, K, rng, dilation=16).cast(np.float32)
    leaf = Tensor(rng.normal(size=(B, T, C)).astype(np.float32), requires_grad=True)
    G = np.moveaxis(rng.normal(size=(B, T, C)).astype(np.float32), -1, 1)
    whole_cols = B * T * K * C * 4
    _, _, peak = traced(lambda: _loss_with_upstream(layer(_channels_last_view(leaf)), G).backward())
    assert leaf.grad.shape == (B, T, C) and layer.weight.grad.shape == (C, C, K)
    assert peak < whole_cols, f"peak {peak} B, whole-batch cols {whole_cols} B"


def test_grouped_conv_forward_keeps_no_workspace_for_backward(monkeypatch, traced):
    # MCAFF's grouped conv at paper width (block width 128, cardinality 8,
    # 8x8 grid), B=32, float32, fed channels-last as inside the model: its
    # forward keeps the bits of its ReLU mask, which backward masks by, and
    # no workspace. Held: 1.11 MiB with the 1.00 MiB output; a forward that
    # kept one run's cols workspace for backward (16 items, 4.5 MiB) would
    # hold 5.58 MiB
    monkeypatch.setattr(_workers, "_RUNS", 2)
    B, C, H = 32, 128, 8
    rng = np.random.default_rng(33)
    layer = Conv2D(C, C, 3, rng, padding=1, groups=8, relu=True).cast(np.float32)
    leaf = Tensor(rng.normal(size=(B, H, H, C)).astype(np.float32), requires_grad=True)
    x = _channels_last_view(leaf)
    out, held, _ = traced(lambda: layer(x))
    assert out.shape == (B, C, H, H) and out.requires_grad
    assert held <= out.data.nbytes * 5 // 4, f"{held / 2**20:.2f} MiB held"


# a Tensor made from the leaf, and an op that reads nothing of it in
# backward (an add, a pool's sum); the skip conv is pointwise, as the IQ
# encoder's
DROPPED = {
    "add-operand": (lambda leaf: leaf * 2.0, lambda t: t + 1.0),
    "pool-operand": (lambda leaf: leaf * 2.0, GlobalAvgPool()),
    "skip-conv-output": (Conv1D(4, 6, 1, np.random.default_rng(35)), lambda t: t + 1.0),
    "relu-conv-output": (Conv1D(4, 6, 3, np.random.default_rng(36), dilation=2, relu=True),
                         lambda t: t + 1.0),
}


@pytest.mark.parametrize("make,use", DROPPED.values(), ids=DROPPED.keys())
def test_the_data_of_a_dropped_tensor_dies_before_backward(make, use):
    # a node keeps only what its backward reads: once the caller drops the
    # Tensor, its data (the buffer a conv's output views) dies, and backward
    # through it gives the gradient it gives with the Tensor alive
    leaf = Tensor(np.random.default_rng(37).normal(size=(2, 4, 9)), requires_grad=True)
    grads = []
    for drop in (False, True):
        x = make(leaf)
        loss = _proj_loss(use(x))
        if drop:
            data = weakref.ref(x.data if x.data.base is None else x.data.base)
            del x
            assert data() is None
        loss.backward()
        grads.append(leaf.grad)
        leaf.grad = None
    np.testing.assert_array_equal(grads[1], grads[0])


def _assert_grads(got, dtype):
    """Each (gradient, oracle) pair within GRAD_REF_TOL of the oracle's peak."""
    for grad, want in got:
        assert grad.dtype == dtype and grad.shape == want.shape
        assert np.max(np.abs(grad - want)) <= GRAD_REF_TOL[dtype] * np.max(np.abs(want))


# ----------------------------------------------------------------------
# Conv2D chunks: the same core, whole items of _ROWS output rows at a time
# ----------------------------------------------------------------------

# (B, C, O, k, stride, padding, groups, (H, W), x_grad); the x-grad cases
# are fed channels-last, as inside the model, and the last is a
# C-contiguous model input without a gradient, as the stems get. Items of
# 16 or 32 output rows, a multiple of 16, give the same output bitwise in
# chunks of any size: a chunk's GEMM rows meet the BLAS kernel's row blocks
# as they do in another chunking. The odd grid (15 rows per
# item) does not, as OpenBLAS rounds a tail of rows that fills no whole
# block differently (2.4e-7 apart in float32), so it is held to the oracle.
CONV2D_CHUNK_CASES = [(3, 8, 8, 3, 1, 1, 4, (8, 4), True), (3, 4, 6, 3, 2, 1, 1, (16, 8), True),
                      (3, 4, 4, 3, (4, 2), 1, 2, (13, 7), True),
                      (3, 4, 6, 3, (4, 1), 1, 1, (16, 8), True),
                      (3, 4, 6, 3, 2, 1, 1, (16, 8), False),
                      (3, 4, 6, 3, (4, 1), 1, 1, (12, 5), True),
                      (3, 4, 4, 3, 1, 0, 2, (10, 6), True)]


@pytest.mark.parametrize("case", CONV2D_CHUNK_CASES,
                         ids=["grouped-same", "s2", "s42-grouped", "s41", "model-input", "odd-rows",
                              "valid-grouped"])
def test_conv2d_chunks_match_oracles_and_the_one_chunk_result(monkeypatch, case):
    # a pointwise conv takes dx by one GEMM, every other conv scatters its
    # dcols per tap: no case here is pointwise, so every one scatters
    B, C, O, k, s, p, g, (H, W), x_grad = case
    for dtype in FWD_TOL:
        rng = np.random.default_rng(32)
        layer = Conv2D(C, O, k, rng, stride=s, padding=p, groups=g).cast(dtype)
        layer.bias.data[...] = rng.normal(size=O)
        xd = rng.normal(size=(B, C, H, W)).astype(dtype)
        leaf = Tensor(np.moveaxis(xd, 1, -1).copy(), requires_grad=True) if x_grad else Tensor(xd)
        want = conv2d_ref(xd, layer.weight.data, layer.bias.data, layer.stride, p, g)
        Ho, Wo = want.shape[2:]
        up = rng.normal(size=(B, O, Ho, Wo)).astype(dtype)
        dx, dw, db = conv2d_grads_ref(xd, layer.weight.data, up, layer.stride, p, g)
        # the whole batch fits _ROWS, so the default is the floor's two chunks
        assert layers._ROWS >= B * Ho * Wo
        one = None
        for rows in (layers._ROWS, Ho * Wo):  # 2 + 1 items, then 1 item a chunk
            with monkeypatch.context() as m:
                m.setattr(layers, "_ROWS", rows)
                out = layer(_channels_last_view(leaf) if x_grad else leaf)
                one = out.data if one is None else one
                if Ho * Wo % 16 == 0:
                    np.testing.assert_array_equal(out.data, one)
                assert np.max(np.abs(out.data - want)) <= FWD_TOL[dtype] * np.max(np.abs(want))
                _loss_with_upstream(out, up).backward()
            got = [(layer.weight.grad, dw), (layer.bias.grad, db)]
            got += [(np.moveaxis(leaf.grad, -1, 1), dx)] if x_grad else []
            assert x_grad or leaf.grad is None
            _assert_grads(got, dtype)
            layer.weight.grad = layer.bias.grad = leaf.grad = None


def test_conv2d_never_holds_a_whole_batch_im2col(monkeypatch, traced):
    # MCAFF's grouped 3x3 conv at paper width (128 channels, 8 groups, 8x8),
    # fed and differentiated channels-last as inside the model, at B=256:
    # 16384 output rows, four chunks, in two runs as on any host of two CPUs
    # or more
    monkeypatch.setattr(_workers, "_RUNS", 2)
    B, C, G, HW = 256, 128, 8, (8, 8)
    rng = np.random.default_rng(33)
    layer = Conv2D(C, C, 3, rng, padding=1, groups=G).cast(np.float32)
    leaf = Tensor(rng.normal(size=(B, *HW, C)).astype(np.float32), requires_grad=True)
    up = np.moveaxis(rng.normal(size=(B, *HW, C)).astype(np.float32), -1, 1)
    whole_cols = B * HW[0] * HW[1] * 9 * C * 4
    _, _, peak = traced(lambda: _loss_with_upstream(layer(_channels_last_view(leaf)), up).backward())
    assert leaf.grad.shape == (B, *HW, C) and layer.weight.grad.shape == (C, C // G, 3, 3)
    assert peak < whole_cols, f"peak {peak} B, whole-batch cols {whole_cols} B"


# ----------------------------------------------------------------------
# upstream gradients of any strides: a ReLU conv masks the upstream as it
# is, chunk by chunk; any other conv copies it to channels-last rows first
# ----------------------------------------------------------------------

# (layer class, constructor arguments, input shape); B = 5 gives two
# chunks of 3 + 2 items, which two runs split
STRIDED_UPSTREAM_CASES = {
    "1d-K3d2": (Conv1D, dict(in_channels=3, out_channels=4, kernel_size=3, dilation=2),
                (5, 3, 11)),
    "2d-strided-grouped": (Conv2D, dict(in_channels=4, out_channels=6, kernel_size=3, stride=2,
                                        padding=1, groups=2), (5, 4, 7, 6)),
}


def _strided_upstream(shape, kind, rng):
    """A float32 (B, C, ...) gradient that is not C-contiguous: a mean over
    the grid's stride-0 broadcast, the reversed axis order, or a slice."""
    if kind == "broadcast":
        pooled = rng.normal(size=(*shape[:2], *(1,) * (len(shape) - 2))).astype(np.float32)
        return np.broadcast_to(pooled, shape)
    if kind == "transposed":
        return rng.normal(size=shape[::-1]).astype(np.float32).T
    return rng.normal(size=(*shape[:-1], shape[-1] + 3)).astype(np.float32)[..., 1:-2]


@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("case", sorted(STRIDED_UPSTREAM_CASES))
def test_conv_backward_from_a_strided_upstream_equals_it_from_a_copy(monkeypatch, case, relu):
    # the oracle is the same conv differentiated from a C-contiguous copy of
    # the upstream: input, weight and bias gradients bitwise equal, in one
    # run and in two
    cls, kwargs, shape = STRIDED_UPSTREAM_CASES[case]
    rng = np.random.default_rng(55)
    layer = cls(**kwargs, rng=rng, relu=relu).cast(np.float32)
    layer.bias.data[...] = rng.normal(size=kwargs["out_channels"])
    x = rng.normal(size=shape).astype(np.float32)
    out_shape = layer(Tensor(x)).shape
    for kind in ("broadcast", "transposed", "sliced"):
        up = _strided_upstream(out_shape, kind, rng)
        assert up.shape == out_shape and not up.flags.c_contiguous, kind
        for runs in (1, 2):
            monkeypatch.setattr(_workers, "_RUNS", runs)
            grads = []
            for g in (up, np.ascontiguousarray(up)):
                leaf = Tensor(x, requires_grad=True)
                _loss_with_upstream(layer(leaf), g).backward()
                grads.append([leaf.grad, layer.weight.grad, layer.bias.grad])
                layer.weight.grad = layer.bias.grad = None
            for name, got, want in zip(("x", "weight", "bias"), *grads):
                assert got.tobytes() == want.tobytes(), (kind, runs, name)


def test_a_pooled_relu_conv_copies_no_upstream(monkeypatch, traced):
    # the IQ encoder's last conv (64 -> 128 channels, d=16, ReLU) at paper
    # width, T=1024, float32, fed channels-last as inside the model, in two
    # runs: from the pool's stride-0 gradient its backward allocates what it
    # allocates from a C-contiguous channels-last one, which it reads with
    # no copy, and not one array more of the upstream's size
    monkeypatch.setattr(_workers, "_RUNS", 2)
    conv = IQEncoder(FusionConfig(), np.random.default_rng(0)).cast(np.float32).blocks[-1][0]
    assert (conv.dilation, conv.relu) == (16, True)
    B, T, C, O = 4, 1024, conv.in_channels, conv.out_channels
    rng = np.random.default_rng(56)
    leaf = Tensor(rng.normal(size=(B, T, C)).astype(np.float32), requires_grad=True)
    pooled = np.broadcast_to(rng.normal(size=(B, O, 1)).astype(np.float32), (B, O, T))
    assert pooled.strides[2] == 0
    peaks = []
    for up in (pooled, np.moveaxis(np.ascontiguousarray(np.moveaxis(pooled, 1, -1)), -1, 1)):
        loss = _loss_with_upstream(conv(_channels_last_view(leaf)), up)
        peaks.append(traced(loss.backward)[2])
        leaf.grad = conv.weight.grad = conv.bias.grad = None
    assert peaks[0] - peaks[1] < pooled.nbytes // 2, f"peaks {peaks} B, upstream {pooled.nbytes} B"


@pytest.mark.parametrize("rows", [None, 1], ids=["one-chunk", "item-chunks"])
@pytest.mark.parametrize("dim", [1, 2])
def test_convs_reenter_with_shared_weights(monkeypatch, dim, rows):
    # one layer on two inputs, first in one graph, then in two graphs whose
    # forwards both run before either backward (taken in reverse order):
    # each call keeps its own workspaces, so every gradient matches the oracle
    rng = np.random.default_rng(34)
    if dim == 1:
        layer, shape = Conv1D(3, 4, 3, rng, dilation=2), (4, 3, 11)

        def ref(x, up):
            return conv1d_grads_ref(x, layer.weight.data, up, 2)
    else:
        layer, shape = Conv2D(4, 4, 3, rng, padding=1, groups=2), (4, 4, 5, 6)

        def ref(x, up):
            return conv2d_grads_ref(x, layer.weight.data, up, (1, 1), 1, 2)
    xs = [Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(2)]
    ups = [rng.normal(size=(shape[0], 4, *shape[2:])) for _ in range(2)]
    refs = [ref(x.data, up) for x, up in zip(xs, ups)]
    with monkeypatch.context() as m:
        if rows is not None:
            m.setattr(layers, "_ROWS", rows)
        for runs, graphs in itertools.product((1, 2), (1, 2)):
            m.setattr(_workers, "_RUNS", runs)
            outs = [layer(x) for x in xs]
            losses = [_loss_with_upstream(out, up) for out, up in zip(outs, ups)]
            if graphs == 1:
                (losses[0] + losses[1]).backward()
            else:
                for loss in losses[::-1]:
                    loss.backward()
            got = [(x.grad, r[0]) for x, r in zip(xs, refs)]
            got += [(layer.weight.grad, refs[0][1] + refs[1][1]),
                    (layer.bias.grad, refs[0][2] + refs[1][2])]
            _assert_grads(got, np.float64)
            for t in xs + layer.params():
                t.grad = None


@pytest.mark.parametrize("dim,case", [(1, CONV1D_CASES[0]), (1, CONV1D_CASES[1]),
                                      (2, CONV2D_CASES[0]), (2, CONV2D_CASES[1]), (2, CONV2D_CASES[2])],
                         ids=["1d-K3", "1d-K1", "2d-s2", "2d-grouped-same", "2d-1x1"])
def test_convs_take_an_empty_batch(monkeypatch, dim, case):
    layer, x, want = _conv_case(dim, case)
    for runs in (1, 2):
        monkeypatch.setattr(_workers, "_RUNS", runs)
        leaf = Tensor(x[:0], requires_grad=True)
        out = layer(leaf)
        assert out.shape == (0, *want.shape[1:])
        _loss_with_upstream(out, np.zeros(out.shape)).backward()
        assert leaf.grad.shape == leaf.shape
        assert not np.any(layer.weight.grad) and not np.any(layer.bias.grad)
        layer.weight.grad = layer.bias.grad = None


@pytest.mark.parametrize("make,shape,message", [
    (lambda rng: Conv1D(2, 3, 3, rng), (1, 2, 0), "input grid (1, 0) is empty"),
    (lambda rng: Conv2D(2, 3, 3, rng), (1, 2, 2, 5),
     "output would be empty: input grid (2, 5) gives (0, 3)"),
    (lambda rng: Conv2D(2, 3, 3, rng, stride=2, padding=1), (1, 2, 0, 4),
     "input grid (0, 4) is empty"),
    (lambda rng: Conv2D(2, 2, 3, rng, padding=2), (1, 2, 0, 4), "input grid (0, 4) is empty"),
], ids=["1d-T0", "2d-valid", "2d-strided-H0", "2d-padded-H0"])
def test_convs_reject_an_empty_output_grid(make, shape, message):
    # the T = 0 Conv1D raised a bare ZeroDivisionError while sizing its chunks;
    # the padded H = 0 Conv2D gave a (1, 2, 2, 6) output whose backward raised
    layer = make(np.random.default_rng(0))
    with pytest.raises(ShapeError, match=f"^convolution {re.escape(message)}$"):
        layer(Tensor(np.zeros(shape)))


# ----------------------------------------------------------------------
# worker threads: a call's chunks run as contiguous runs, at most _RUNS of
# them, each of at least one chunk; a call of two items or more has two
# chunks at least
# ----------------------------------------------------------------------

# (layer class, constructor arguments, input shape, x_grad), B = 10. K1 is
# pointwise: it takes dx by one GEMM. The others, the widening K3 d2 conv
# among them, scatter per tap.
WORKER_CASES = {
    "1d-K3d2": (Conv1D, dict(in_channels=3, out_channels=4, kernel_size=3, dilation=2),
                (10, 3, 11), True),
    "1d-K1": (Conv1D, dict(in_channels=3, out_channels=4, kernel_size=1), (10, 3, 11), True),
    "2d-strided": (Conv2D, dict(in_channels=3, out_channels=4, kernel_size=3, stride=2,
                                padding=1), (10, 3, 8, 6), True),
    "2d-strided-model-input": (Conv2D, dict(in_channels=3, out_channels=4, kernel_size=3,
                                            stride=(2, 1), padding=1), (10, 3, 8, 6), False),
    "2d-grouped": (Conv2D, dict(in_channels=4, out_channels=4, kernel_size=3, padding=1,
                                groups=2, relu=True), (10, 4, 4, 5), True),
}


# the id counts the chunks of _ROWS rows: the floor of two chunks splits the
# first's whole batch 5 + 5
@pytest.mark.parametrize("items", [10, 5, 4, 2, 1],
                         ids=["1-chunk", "2-chunks", "3-chunks", "5-chunks", "10-chunks"])
@pytest.mark.parametrize("case", sorted(WORKER_CASES))
def test_convs_are_bitwise_equal_for_any_worker_count(monkeypatch, map_jobs, case, items):
    # one, two or three runs: 2 chunks split 1 + 1, 3 chunks 1 + 2 or
    # 1 + 1 + 1, and 10 chunks 5 + 5 or 3 + 3 + 4; each run writes its own
    # items of out and dx, and the dW partials are summed in one order
    cls, kwargs, shape, x_grad = WORKER_CASES[case]
    rng = np.random.default_rng(50)
    layer = cls(**kwargs, rng=rng).cast(np.float32)
    layer.bias.data[...] = rng.normal(size=kwargs["out_channels"])
    x = rng.normal(size=shape).astype(np.float32)
    G = rng.normal(size=layer(Tensor(x)).shape).astype(np.float32)
    chunks = -(-shape[0] // min(items, shape[0] // 2))
    runs = []
    monkeypatch.setattr(layers, "_ROWS", items * int(np.prod(G.shape[2:])))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # threads switch often, so a shared write would show
    try:
        for n_runs in (1, 2, 3):
            monkeypatch.setattr(_workers, "_RUNS", n_runs)
            map_jobs.clear()
            leaf = Tensor(x.copy(), requires_grad=x_grad)
            out = layer(leaf)
            _loss_with_upstream(out, G).backward()
            assert map_jobs == [min(n_runs, chunks)] * 2     # forward, backward
            runs.append([out.data, leaf.grad, layer.weight.grad, layer.bias.grad])
            layer.weight.grad = layer.bias.grad = None
    finally:
        sys.setswitchinterval(interval)
    assert (runs[0][1] is None) != x_grad
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            if want is not None:
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("case", sorted(WORKER_CASES))
def test_conv_chunks_are_the_same_for_any_worker_count(monkeypatch, at_worker_counts, case):
    # the floor of two chunks is a fixed 2, not _RUNS, so the chunk
    # boundaries (and with them the bits) do not move with the run count:
    # at _ROWS of the whole batch, 3 items and 1 item
    cls, kwargs, shape, _ = WORKER_CASES[case]
    layer = cls(**kwargs, rng=np.random.default_rng(52))
    x = Tensor(np.random.default_rng(53).normal(size=shape))
    rows = int(np.prod(layer(x).shape[2:]))
    seen, runs = [], _workers._runs
    monkeypatch.setattr(_workers, "_runs", lambda items: seen.append(items) or runs(items))
    for items, chunks in ((10, [(0, 5), (5, 5)]), (3, [(0, 3), (3, 3), (6, 3), (9, 1)]),
                          (1, [(b, 1) for b in range(10)])):
        monkeypatch.setattr(layers, "_ROWS", items * rows)

        def call():
            seen.clear()
            layer(x)
            return list(seen)
        outs = at_worker_counts(call)
        assert outs == [[chunks]] * len(outs), items


def test_calls_of_one_item_submit_nothing_and_runs_are_capped(monkeypatch, pool_jobs):
    # two runs: a call of one item (one chunk) runs inline, a call of two
    # items or more runs at most _RUNS runs of at least one chunk, the last
    # on the calling thread
    monkeypatch.setattr(_workers, "_RUNS", 2)
    T = 11
    monkeypatch.setattr(layers, "_ROWS", 2 * T)      # chunks of 2 items at most
    rng = np.random.default_rng(51)
    layer = Conv1D(3, 4, 3, rng, dilation=2)
    for B, chunks in ((0, []), (1, [1]), (2, [1]), (3, [2]), (16, [2, 2, 2, 2])):
        pool_jobs.clear()
        leaf = Tensor(rng.normal(size=(B, 3, T)), requires_grad=True)
        _loss_with_upstream(layer(leaf), rng.normal(size=(B, 4, T))).backward()
        # a job is (run, workspace), forward then backward
        assert [[n for _, n in job[0]] for job in pool_jobs] == ([chunks] * 2 if B > 1 else []), B


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("make,shape,ref,grads_ref", [
    (lambda rng, dt: Conv1D(3, 4, 3, rng, dilation=2).cast(dt), (3, 11),
     lambda x, layer: conv1d_ref(x, layer.weight.data, layer.bias.data, 2),
     lambda x, layer, up: conv1d_grads_ref(x, layer.weight.data, up, 2)),
    (lambda rng, dt: Conv1D(3, 4, 1, rng).cast(dt), (3, 11),
     lambda x, layer: conv1d_ref(x, layer.weight.data, layer.bias.data, 1),
     lambda x, layer, up: conv1d_grads_ref(x, layer.weight.data, up, 1)),
    (lambda rng, dt: Conv2D(4, 4, 3, rng, stride=2, padding=1, groups=2).cast(dt), (4, 8, 6),
     lambda x, layer: conv2d_ref(x, layer.weight.data, layer.bias.data, (2, 2), 1, 2),
     lambda x, layer, up: conv2d_grads_ref(x, layer.weight.data, up, (2, 2), 1, 2)),
    (lambda rng, dt: Conv2D(4, 6, 1, rng).cast(dt), (4, 5, 3),
     lambda x, layer: conv2d_ref(x, layer.weight.data, layer.bias.data, (1, 1), 0, 1),
     lambda x, layer, up: conv2d_grads_ref(x, layer.weight.data, up, (1, 1), 0, 1)),
], ids=["1d-K3d2", "1d-K1", "2d-strided-grouped", "2d-1x1"])
def test_convs_of_one_and_two_items_match_oracles(monkeypatch, pool_jobs, make, shape, ref,
                                                  grads_ref, B, dtype):
    # one item is one chunk, run inline; two are two one-item chunks, one
    # run each in two runs, a pointwise conv's too
    monkeypatch.setattr(_workers, "_RUNS", 2)
    rng = np.random.default_rng(54)
    layer = make(rng, dtype)
    layer.bias.data[...] = rng.normal(size=layer.out_channels)
    x = rng.normal(size=(B, *shape)).astype(dtype)
    leaf = Tensor(x, requires_grad=True)
    out = layer(leaf)
    want = ref(x, layer)
    assert out.dtype == dtype and out.shape == want.shape
    assert np.max(np.abs(out.data - want)) <= FWD_TOL[dtype] * np.max(np.abs(want))
    up = rng.normal(size=want.shape).astype(dtype)
    _loss_with_upstream(out, up).backward()
    dx, dw, db = grads_ref(x, layer, up)
    _assert_grads([(leaf.grad, dx), (layer.weight.grad, dw), (layer.bias.grad, db)], dtype)
    assert [job[0] for job in pool_jobs] == ([] if B == 1 else [[(0, 1)]] * 2)


def _child(code: str) -> str:
    """What ``code`` prints, run in a child process that imports this
    checkout's jamloc."""
    env = {**os.environ, "PYTHONPATH": str(Path(layers.__file__).parents[2])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True).stdout


def test_importing_jamloc_starts_no_thread():
    code = ("import threading, jamloc, jamloc.dsp, jamloc.models, jamloc.nn, jamloc.sigsim; "
            "from jamloc import _workers; "
            "print(threading.active_count(), _workers._pool.cache_info().currsize)")
    assert _child(code).split() == ["1", "0"]


_PINNABLE = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                               reason="no CPU affinity on this platform")


@_PINNABLE
def test_runs_are_the_cpus_the_process_may_use_two_at_most():
    assert _child("from jamloc import _workers; print(_workers._RUNS)").strip() == \
        str(min(2, len(os.sched_getaffinity(0))))


@_PINNABLE
def test_a_process_pinned_to_one_cpu_takes_one_run_and_still_maps_two_jobs():
    # _RUNS is read at import: pinned before, the process splits no loop,
    # and a map handed two jobs of its own runs the first on the pool's one
    # thread
    code = ("import os, threading; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from jamloc import _workers; "
            "print(_workers._RUNS, _workers._runs([1, 2, 3]), "
            "_workers._map(lambda j: threading.current_thread().name, [0, 1]))")
    assert _child(code).strip() == "1 [[1, 2, 3]] ['jamloc-worker_0', 'MainThread']"


def test_a_map_inside_a_mapped_job_runs_inline(pool_jobs):
    # the pool has one thread, so a job on it that waited on the pool would
    # wait on itself; run in a child process, so that a hang fails the test
    # instead of holding the suite at exit
    code = ("import threading; from jamloc import _workers; "
            "outer = lambda j: (threading.current_thread().name, "
            "_workers._map(lambda i: 2 * i, [j, j + 1])); "
            "print(_workers._map(outer, [0, 10]))")
    assert _child(code).strip() == "[('jamloc-worker_0', [0, 2]), ('MainThread', [20, 22])]"
    # a map inside the caller's own job runs inline too, and a job that
    # raises leaves its thread unmarked, so the next map fans out again
    def inner(j):
        return _workers._map(lambda i: 2 * i, [j, j + 1])
    assert _workers._map(inner, [0, 10]) == [[0, 2], [20, 22]]
    assert pool_jobs == [0]

    def fail(j):
        raise ValueError(f"job {j}")
    with pytest.raises(ValueError, match="^job 0$"):
        _workers._map(fail, [0, 1])

    def marked(_):
        return getattr(_workers._local, "in_job", False)
    assert not marked(None)
    assert not _workers._pool().submit(marked, None).result()      # the pool's one thread
    pool_jobs.clear()
    assert _workers._map(inner, [0, 10]) == [[0, 2], [20, 22]]
    assert pool_jobs == [0]


# ----------------------------------------------------------------------
# branches: independent layers called side by side
# ----------------------------------------------------------------------

def _branch_case(rng):
    """Three small convs (one strided, one grouped) and their inputs: the
    first a leaf that requires grad, the second a reshape of one (a graph
    node), the third a constant."""
    convs = [Conv2D(3, 4, 3, rng, stride=2, padding=1, relu=True),
             Conv2D(4, 4, 3, rng, padding=1, groups=2),
             Conv2D(2, 3, 1, rng)]
    a = Tensor(rng.normal(size=(3, 3, 8, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4, 30)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 2, 5, 5)))
    return convs, [a, b], [a, b.reshape(3, 4, 5, 6), c]


# the maps of more than one job at two and three runs: forward, the
# branches', then each conv's in its branch (three items, two chunks, two
# runs, inline); backward, each conv's that the loss reaches, on the calling
# thread
@pytest.mark.parametrize("used,ungraded,jobs", [((0, 1, 2), 0, [2] * 7 + [3] + [2] * 6),
                                               ((2, 0), 3, [2] * 6 + [3] + [2] * 5)],
                         ids=["all", "two"])
def test_branches_are_bitwise_the_inline_calls(used, ungraded, jobs, map_jobs, at_worker_counts):
    # outputs and every gradient, inputs' too, as the layers give inline, on
    # one run or split in two or three; a branch the loss does not read gets
    # no gradient, as inline: unread, the second conv's weight and bias and
    # the leaf under its input get none, and backward runs only the two
    # convs read
    def run(parallel):
        convs, leaves, xs = _branch_case(np.random.default_rng(60))
        outs = layers.branches(convs, xs) if parallel else [conv(x) for conv, x in zip(convs, xs)]
        loss = _proj_loss(outs[used[0]], 1)
        for i in used[1:]:
            loss = loss + _proj_loss(outs[i], 2 + i)
        loss.backward()
        params = [p for conv in convs for p in conv.params()]
        return [o.data for o in outs] + [t.grad for t in params + leaves]

    want = run(False)
    assert sum(g is None for g in want) == ungraded
    for got in at_worker_counts(lambda: run(True)):
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            assert g is None or (g.dtype == w.dtype and g.tobytes() == w.tobytes())
    assert [n for n in map_jobs if n > 1] == jobs     # forward, backward


def test_one_layer_as_two_branches_is_bitwise_the_inline_calls(at_worker_counts):
    # one conv on one leaf that requires grad, as both branches: the weight,
    # the bias and the leaf sum both branches' gradients, as inline
    def run(parallel):
        rng = np.random.default_rng(61)
        conv = Conv2D(2, 3, 3, rng, padding=1)
        x = Tensor(rng.normal(size=(3, 2, 4, 5)), requires_grad=True)
        outs = layers.branches([conv, conv], [x, x]) if parallel else [conv(x), conv(x)]
        (_proj_loss(outs[0], 1) + _proj_loss(outs[1], 2)).backward()
        return [o.data for o in outs] + [t.grad for t in conv.params() + [x]]

    want = run(False)
    for got in at_worker_counts(lambda: run(True)):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class _Failing:
    """A layer that records when it finishes and raises ``message``, in its
    forward after ``delay`` seconds or, if ``in_backward``, in its backward."""

    def __init__(self, message: str, delay: float, in_backward: bool, finished: list):
        self.message, self.delay, self.in_backward, self.finished = \
            message, delay, in_backward, finished
        self.weight = Tensor(np.ones(1), requires_grad=True)

    def _fail(self, g=None):
        time.sleep(self.delay)
        self.finished.append(self.message)
        raise ValueError(self.message)

    def __call__(self, x):
        if not self.in_backward:
            self._fail()
        return Tensor.from_op(x.data * self.weight.data, (self.weight,), self._fail)


@pytest.mark.parametrize("in_backward", [False, True], ids=["forward", "backward"])
def test_a_failing_branch_raises_after_every_run_and_the_first_error_first(in_backward,
                                                                           monkeypatch):
    # two runs: forward, the first branch, on the pool, fails last; the
    # second, on the calling thread, at once; the first branch's error comes
    # out, as serially. Backward runs on the calling thread, as inline: the
    # first branch's fails, and the second's never runs
    monkeypatch.setattr(_workers, "_RUNS", 2)
    finished = []
    branch = [_Failing("first", 0.2, in_backward, finished),
              _Failing("second", 0.0, in_backward, finished)]
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError, match="^first$"):
        outs = layers.branches(branch, [x, x])
        (outs[0].sum() + outs[1].sum()).backward()
    assert finished == (["first"] if in_backward else ["second", "first"])


# ----------------------------------------------------------------------
# ReLU epilogue: relu=True is the conv followed by Tensor.relu, bit for bit
# ----------------------------------------------------------------------

# (layer class, constructor arguments, input shape); a pointwise conv takes
# dx by one GEMM of the masked upstream gradient, every other conv scatters
# per tap: none here is pointwise, so every one scatters
FUSED_CASES = {
    "1d-dilated": (Conv1D, dict(in_channels=4, out_channels=4, kernel_size=3, dilation=2),
                   (3, 4, 11)),
    "1d-widening": (Conv1D, dict(in_channels=3, out_channels=5, kernel_size=3, dilation=4),
                    (3, 3, 9)),
    "2d-strided": (Conv2D, dict(in_channels=3, out_channels=4, kernel_size=3, stride=2,
                                padding=1), (3, 3, 8, 6)),
    "2d-grouped": (Conv2D, dict(in_channels=4, out_channels=4, kernel_size=3, padding=1,
                                groups=2), (3, 4, 4, 5)),
}


@pytest.mark.parametrize("rows", [None, 1], ids=["one-chunk", "item-chunks"])
@pytest.mark.parametrize("layout", ["channels-first", "channels-last", "model-input"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_relu_epilogue_is_bitwise_conv_then_relu(monkeypatch, case, dtype, layout, rows):
    # the output and the x, w and b gradients, -0.0s included: the upstream
    # gradient is negative at about half the entries the ReLU zeroes
    cls, kwargs, shape = FUSED_CASES[case]
    rng = np.random.default_rng(40)
    fused, plain = (cls(**kwargs, rng=np.random.default_rng(41), relu=relu).cast(dtype)
                    for relu in (True, False))
    fused.bias.data[...] = plain.bias.data[...] = rng.normal(size=kwargs["out_channels"])
    x = rng.normal(size=shape).astype(dtype)
    G = rng.normal(size=plain(Tensor(x)).shape).astype(dtype)
    runs = []
    with monkeypatch.context() as m:
        if rows is not None:
            m.setattr(layers, "_ROWS", rows)
        for layer, act in ((fused, lambda t: t), (plain, Tensor.relu)):
            if layout == "channels-last":
                leaf = Tensor(np.moveaxis(x, 1, -1).copy(), requires_grad=True)
                out = act(layer(_channels_last_view(leaf)))
            else:
                leaf = Tensor(x.copy(), requires_grad=layout == "channels-first")
                out = act(layer(leaf))
            _loss_with_upstream(out, G).backward()
            runs.append([out.data, leaf.grad, layer.weight.grad, layer.bias.grad])
    assert np.any(runs[0][0] == 0) and np.any(runs[0][0] > 0)
    assert (runs[0][1] is None) == (layout == "model-input")
    for got, want in zip(*runs):
        if want is not None:
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_grouped_conv_requires_divisibility():
    with pytest.raises(ValueError):
        Conv2D(6, 8, 3, np.random.default_rng(0), groups=4)


def test_grouped_conv_with_one_group_equals_plain():
    rng = np.random.default_rng(6)
    plain = Conv2D(4, 6, 3, np.random.default_rng(42), padding=1)
    grouped = Conv2D(4, 6, 3, np.random.default_rng(0), padding=1, groups=1)
    grouped.weight.data[...] = plain.weight.data
    grouped.bias.data[...] = plain.bias.data
    x = Tensor(rng.normal(size=(2, 4, 8, 8)))
    np.testing.assert_array_equal(plain(x).data, grouped(x).data)


def test_global_avg_pool_and_flatten():
    x = Tensor(np.arange(24.0).reshape(1, 2, 3, 4))
    pooled = GlobalAvgPool()(x)
    assert pooled.shape == (1, 2)
    np.testing.assert_allclose(pooled.data[0, 0], np.arange(12.0).mean())
    # the models flatten with a reshape that keeps the batch axis
    assert x.reshape(x.shape[0], -1).shape == (1, 24)


# ----------------------------------------------------------------------
# finite-difference gradient suite, one case per layer kind
# ----------------------------------------------------------------------

def test_gradcheck_dense():
    rng = np.random.default_rng(10)
    layer = Dense(6, 4, rng)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    params = [x, layer.weight, layer.bias]
    assert check_grads(lambda: _proj_loss(layer(x)), params) < GRAD_TOL


def test_gradcheck_conv1d_dilated():
    rng = np.random.default_rng(11)
    # kernel 1 is the pointwise skip projection, which needs no padding
    for kernel_size, dilation in ((3, 2), (1, 1)):
        layer = Conv1D(3, 4, kernel_size=kernel_size, rng=rng, dilation=dilation)
        x = Tensor(rng.normal(size=(2, 3, 11)), requires_grad=True)
        params = [x, layer.weight, layer.bias]
        assert check_grads(lambda: _proj_loss(layer(x)), params) < GRAD_TOL


def test_gradcheck_conv2d_strided():
    rng = np.random.default_rng(12)
    layer = Conv2D(3, 4, kernel_size=3, rng=rng, stride=2, padding=1)
    x = Tensor(rng.normal(size=(2, 3, 7, 7)), requires_grad=True)
    params = [x, layer.weight, layer.bias]
    assert check_grads(lambda: _proj_loss(layer(x)), params) < GRAD_TOL


def test_gradcheck_grouped_conv2d():
    rng = np.random.default_rng(13)
    layer = Conv2D(4, 6, kernel_size=3, rng=rng, padding=1, groups=2)
    x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
    params = [x, layer.weight, layer.bias]
    assert check_grads(lambda: _proj_loss(layer(x)), params) < GRAD_TOL


def test_gradcheck_activations():
    rng = np.random.default_rng(14)
    # keep ReLU inputs away from the kink where the derivative is undefined
    base = rng.uniform(0.2, 1.5, size=(3, 5)) * np.sign(rng.normal(size=(3, 5)))
    for act in (Tensor.relu, Tensor.tanh, Tensor.sigmoid):
        x = Tensor(base.copy(), requires_grad=True)
        assert check_grads(lambda: _proj_loss(act(x)), [x]) < GRAD_TOL


def test_gradcheck_pool_flatten_concat():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    assert check_grads(lambda: _proj_loss(GlobalAvgPool()(x)), [x]) < GRAD_TOL
    assert check_grads(lambda: _proj_loss(x.reshape(2, -1)), [x]) < GRAD_TOL
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    assert check_grads(lambda: _proj_loss(concat([a, b], axis=1)), [a, b]) < GRAD_TOL


# ----------------------------------------------------------------------
# float32 stays float32, forward and backward
# ----------------------------------------------------------------------

def test_every_layer_keeps_float32():
    rng = np.random.default_rng(17)
    f32 = np.float32
    cases = [
        (Dense(6, 4, rng).cast(f32), (3, 6)),
        (Conv1D(3, 4, 3, rng, dilation=2).cast(f32), (2, 3, 11)),
        (Conv1D(3, 4, 1, rng).cast(f32), (2, 3, 11)),
        (Conv2D(4, 6, 3, rng, stride=2, padding=1).cast(f32), (2, 4, 7, 7)),
        (Conv2D(4, 6, 3, rng, padding=1, groups=2).cast(f32), (2, 4, 5, 5)),
        (GlobalAvgPool(), (2, 3, 4, 4)),
    ]
    for layer, shape in cases:
        x = Tensor(rng.normal(size=shape).astype(f32), requires_grad=True)
        out = layer(x)
        assert out.dtype == f32, type(layer).__name__
        _proj_loss(out).backward()
        for p in [x] + layer.params():
            assert p.grad.dtype == f32, type(layer).__name__
    for act in (Tensor.relu, Tensor.tanh, Tensor.sigmoid):
        x = Tensor(rng.normal(size=(3, 5)).astype(f32), requires_grad=True)
        out = act(x)
        assert out.dtype == f32, act.__name__
        _proj_loss(out).backward()
        assert x.grad.dtype == f32, act.__name__
    a = Tensor(rng.normal(size=(2, 3)).astype(f32), requires_grad=True)
    out = concat([a, Tensor(np.zeros((2, 5), dtype=f32))], axis=1)
    assert out.dtype == f32
    _proj_loss(out).backward()
    assert a.grad.dtype == f32
