import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from jamloc import _workers
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
        layer = Conv1D(3, 5, kernel_size, rng, dilation=dilation, dtype=dtype)
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
        layer = Conv2D(8, 16, 3, rng, stride=stride, padding=padding, groups=groups, dtype=dtype)
        layer.bias.data[...] = rng.normal(size=16)
        x = rng.normal(size=(2, 8, 11, 9)).astype(dtype)
        out = layer(Tensor(x))
        assert out.dtype == dtype
        ref = conv2d_ref(x, layer.weight.data, layer.bias.data, layer.stride, padding, groups)
        assert out.shape == ref.shape
        assert np.max(np.abs(out.data - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("cls,field,kwargs", [
    (Conv2D, "kernel_size", dict(kernel_size=0)), (Conv2D, "stride", dict(stride=0)),
    (Conv2D, "stride", dict(stride=(2, 0))), (Conv2D, "padding", dict(padding=-1)),
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
    with pytest.raises(ValueError, match=f"^{cls.__name__} {field} out of range: "):
        cls(**{**args, **kwargs})


@pytest.mark.parametrize("field,kwargs", [
    ("in_features", dict(in_features=0)), ("out_features", dict(out_features=0)),
    # Dense(0, 4) built a (0, 4) weight, Dense(2.5, 4) failed inside numpy
    ("in_features", dict(in_features=2.5)), ("out_features", dict(out_features=True)),
], ids=["in_features", "out_features", "in_features-float", "out_features-bool"])
def test_dense_rejects_bad_arguments(field, kwargs):
    args = dict(in_features=2, out_features=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^Dense {field} out of range: "):
        Dense(**{**args, **kwargs})


# ----------------------------------------------------------------------
# memory layouts: the convs compute channels-last, whatever they are fed
# ----------------------------------------------------------------------

# (in_channels, out_channels, kernel_size, dilation, T); the last two have
# (K-1)*d >= T, so the earliest taps read only the zero history
CONV1D_CASES = [(3, 4, 3, 2, 11), (3, 4, 1, 1, 7), (2, 3, 3, 4, 5), (2, 3, 3, 2, 4)]
# (in_channels, out_channels, kernel_size, stride, padding, groups, (H, W))
CONV2D_CASES = [(3, 4, 3, 2, 1, 1, (7, 6)), (4, 6, 3, 1, 1, 2, (5, 5)),
                (4, 6, 1, 1, 0, 1, (3, 4)), (2, 2, 3, (2, 1), 2, 2, (4, 3))]


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
        layer = Conv1D(cin, cout, k, rng, dilation=d, dtype=dtype)
        x = rng.normal(size=(2, cin, t)).astype(dtype)
        layer.bias.data[...] = rng.normal(size=cout)
        return layer, x, conv1d_ref(x, layer.weight.data, layer.bias.data, d)
    cin, cout, k, s, p, g, hw = case
    layer = Conv2D(cin, cout, k, rng, stride=s, padding=p, groups=g, dtype=dtype)
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
    return Tensor.from_op(np.sum(out.data * G), (out,), lambda g: out._accum(G))


@pytest.mark.parametrize("dim,case", [(1, c) for c in CONV1D_CASES] + [(2, c) for c in CONV2D_CASES])
def test_conv_matches_oracle_in_either_input_layout(dim, case):
    for dtype, tol in FWD_TOL.items():
        layer, x, want = _conv_case(dim, case, dtype)
        for xin in (Tensor(x), _channels_last_view(Tensor(np.moveaxis(x, 1, -1).copy()))):
            out = layer(xin)
            assert out.dtype == dtype and out.shape == want.shape
            assert np.max(np.abs(out.data - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("upstream", ["channels-first", "channels-last", "strided"])
@pytest.mark.parametrize("channels_last", [False, True], ids=["in-cf", "in-cl"])
@pytest.mark.parametrize("dim,case", [(1, c) for c in CONV1D_CASES] + [(2, c) for c in CONV2D_CASES])
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
# unchunked pointwise GEMM.
CHUNK_CASES = [(3, 3, 4, 3, 2, 1500), (3, 2, 3, 3, 800, 1500), (3, 3, 4, 1, 1, 1500)]
# gradient tolerance against the float64 einsum oracle, relative to max |oracle|
GRAD_REF_TOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-no-grad"])
@pytest.mark.parametrize("case", CHUNK_CASES, ids=["K3d2", "K3d800", "K1"])
def test_conv1d_chunks_match_oracles_and_the_one_chunk_result(monkeypatch, case, x_grad):
    B, C, O, K, d, T = case
    assert layers._ROWS // T == 2    # the chunk shape these cases were written for
    for dtype, tol in FWD_TOL.items():
        rng = np.random.default_rng(30)
        layer = Conv1D(C, O, K, rng, dilation=d, dtype=dtype)
        layer.bias.data[...] = rng.normal(size=O)
        x = Tensor(rng.normal(size=(B, C, T)).astype(dtype), requires_grad=x_grad)
        G = rng.normal(size=(B, O, T)).astype(dtype)

        out = layer(x)
        ref = conv1d_ref(x.data, layer.weight.data, layer.bias.data, d)
        assert np.max(np.abs(out.data - ref)) <= tol * np.max(np.abs(ref))
        _loss_with_upstream(out, G).backward()
        with monkeypatch.context() as m:
            m.setattr(layers, "_ROWS", B * T)
            np.testing.assert_array_equal(layer(x).data, out.data)

        dx, dw, db = conv1d_grads_ref(x.data, layer.weight.data, G, d)
        got = [(layer.weight.grad, dw), (layer.bias.grad, db)]
        got += [(x.grad, dx)] if x_grad else []
        assert x_grad or x.grad is None
        for grad, want in got:
            assert grad.dtype == dtype and grad.shape == want.shape
            assert np.max(np.abs(grad - want)) <= GRAD_REF_TOL[dtype] * np.max(np.abs(want))


def test_conv1d_never_holds_a_whole_batch_im2col(monkeypatch):
    # paper width of the IQ encoder's dilated convs, fed and differentiated
    # channels-last as inside the model: eight chunks, which eight workers
    # would split eight ways if the runs were not capped
    monkeypatch.setattr(_workers, "_WORKERS", 8)
    B, C, T, K = 32, 64, 1024, 3
    rng = np.random.default_rng(31)
    layer = Conv1D(C, C, K, rng, dilation=16, dtype=np.float32)
    leaf = Tensor(rng.normal(size=(B, T, C)).astype(np.float32), requires_grad=True)
    G = np.moveaxis(rng.normal(size=(B, T, C)).astype(np.float32), -1, 1)
    whole_cols = B * T * K * C * 4
    tracemalloc.start()
    try:
        _loss_with_upstream(layer(_channels_last_view(leaf)), G).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert leaf.grad.shape == (B, T, C) and layer.weight.grad.shape == (C, C, K)
    assert peak < whole_cols, f"peak {peak} B, whole-batch cols {whole_cols} B"


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
# 16 or 32 output rows, a multiple of 16 like every conv of both models (64
# to 1024), give the one-chunk output bitwise: a chunk's GEMM rows meet the
# BLAS kernel's row blocks as they do in one chunk. The odd grid (15 rows per
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
    # the stride-1 convs take their input gradient as a transposed conv
    # (whose input, the upstream gradient, has fewer rows per item than the
    # "valid" conv's input), the strided ones scatter per tap
    B, C, O, k, s, p, g, (H, W), x_grad = case
    for dtype in FWD_TOL:
        rng = np.random.default_rng(32)
        layer = Conv2D(C, O, k, rng, stride=s, padding=p, groups=g, dtype=dtype)
        layer.bias.data[...] = rng.normal(size=O)
        xd = rng.normal(size=(B, C, H, W)).astype(dtype)
        leaf = Tensor(np.moveaxis(xd, 1, -1).copy(), requires_grad=True) if x_grad else Tensor(xd)
        want = conv2d_ref(xd, layer.weight.data, layer.bias.data, layer.stride, p, g)
        Ho, Wo = want.shape[2:]
        up = rng.normal(size=(B, O, Ho, Wo)).astype(dtype)
        dx, dw, db = conv2d_grads_ref(xd, layer.weight.data, up, layer.stride, p, g)
        assert layers._ROWS >= B * Ho * Wo   # the default is one chunk
        one = None
        for rows in (layers._ROWS, Ho * Wo, 2 * Ho * Wo):  # one chunk, then 1 and 2 items
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


def test_conv2d_never_holds_a_whole_batch_im2col(monkeypatch):
    # MCAFF's grouped 3x3 conv at paper width (128 channels, 8 groups, 8x8),
    # fed and differentiated channels-last as inside the model, at B=256:
    # 16384 output rows, four chunks, on as many workers as the runs allow
    monkeypatch.setattr(_workers, "_WORKERS", 8)
    B, C, G, HW = 256, 128, 8, (8, 8)
    rng = np.random.default_rng(33)
    layer = Conv2D(C, C, 3, rng, padding=1, groups=G, dtype=np.float32)
    leaf = Tensor(rng.normal(size=(B, *HW, C)).astype(np.float32), requires_grad=True)
    up = np.moveaxis(rng.normal(size=(B, *HW, C)).astype(np.float32), -1, 1)
    whole_cols = B * HW[0] * HW[1] * 9 * C * 4
    tracemalloc.start()
    try:
        _loss_with_upstream(layer(_channels_last_view(leaf)), up).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert leaf.grad.shape == (B, *HW, C) and layer.weight.grad.shape == (C, C // G, 3, 3)
    assert peak < whole_cols, f"peak {peak} B, whole-batch cols {whole_cols} B"


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
        for workers, graphs in itertools.product((1, 2), (1, 2)):
            m.setattr(_workers, "_WORKERS", workers)
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
    for workers in (1, 2):
        monkeypatch.setattr(_workers, "_WORKERS", workers)
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
# worker threads: a call's chunks run as contiguous runs, at most _RUNS of them,
# each of at least two chunks
# ----------------------------------------------------------------------

# (layer class, constructor arguments, input shape, x_grad), B = 10. The K3
# d2 and grouped convs take dx as a transposed conv, the strided ones scatter
# per tap; K1 is pointwise, one chunk whatever _ROWS, so it runs inline.
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


@pytest.mark.parametrize("items", [10, 5, 4, 2, 1],
                         ids=["1-chunk", "2-chunks", "3-chunks", "5-chunks", "10-chunks"])
@pytest.mark.parametrize("case", sorted(WORKER_CASES))
def test_convs_are_bitwise_equal_for_any_worker_count(monkeypatch, map_jobs, case, items):
    # runs of at least two chunks: 5 chunks split 2 + 3, and 10 chunks
    # 5 + 5 or, with the cap raised to three runs, 3 + 3 + 4; each run writes
    # its own items of out and dx, and the dW partials are summed in one order
    cls, kwargs, shape, x_grad = WORKER_CASES[case]
    rng = np.random.default_rng(50)
    layer = cls(**kwargs, rng=rng, dtype=np.float32)
    layer.bias.data[...] = rng.normal(size=kwargs["out_channels"])
    x = rng.normal(size=shape).astype(np.float32)
    G = rng.normal(size=layer(Tensor(x)).shape).astype(np.float32)
    chunks = 1 if kwargs["kernel_size"] == 1 else -(-shape[0] // items)
    runs = []
    monkeypatch.setattr(layers, "_ROWS", items * int(np.prod(G.shape[2:])))
    monkeypatch.setattr(_workers, "_RUNS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # threads switch often, so a shared write would show
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(_workers, "_WORKERS", workers)
            map_jobs.clear()
            leaf = Tensor(x.copy(), requires_grad=x_grad)
            out = layer(leaf)
            _loss_with_upstream(out, G).backward()
            assert map_jobs == [max(1, min(workers, chunks // 2))] * 2     # forward, backward
            runs.append([out.data, leaf.grad, layer.weight.grad, layer.bias.grad])
            layer.weight.grad = layer.bias.grad = None
    finally:
        sys.setswitchinterval(interval)
    assert (runs[0][1] is None) != x_grad
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            if want is not None:
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_calls_of_few_chunks_submit_nothing_and_runs_are_capped(monkeypatch):
    # 8 workers: a call of fewer than four chunks runs inline, and a longer
    # one runs at most _RUNS runs of at least two chunks, the last on the
    # calling thread
    submitted = []
    with ThreadPoolExecutor(2) as pool:
        class Spy:
            def submit(self, fn, job):
                submitted.append(job)
                return pool.submit(fn, job)
        monkeypatch.setattr(_workers, "_pool", Spy)
        monkeypatch.setattr(_workers, "_WORKERS", 8)
        T = 11
        monkeypatch.setattr(layers, "_ROWS", 2 * T)      # chunks of 2 items
        rng = np.random.default_rng(51)
        layer = Conv1D(3, 4, 3, rng, dilation=2)
        for B, runs in ((0, 1), (1, 1), (2, 1), (5, 1), (6, 1), (7, 2), (16, 2)):
            submitted.clear()
            leaf = Tensor(rng.normal(size=(B, 3, T)), requires_grad=True)
            _loss_with_upstream(layer(leaf), rng.normal(size=(B, 4, T))).backward()
            assert len(submitted) == 2 * (runs - 1), B
            assert all(len(job[0]) >= 2 for job in submitted), B


def test_importing_jamloc_starts_no_thread():
    code = ("import threading, jamloc, jamloc.dsp, jamloc.models, jamloc.nn, jamloc.sigsim; "
            "from jamloc import _workers; "
            "print(threading.active_count(), _workers._pool.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(layers.__file__).parents[2])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.split() == ["1", "0"]


def test_a_map_inside_a_mapped_job_runs_inline():
    # the pool has one thread, so a job on it that waited on the pool would
    # wait on itself; run in a child process, so that a hang fails the test
    # instead of holding the suite at exit
    code = ("import threading; from jamloc import _workers; "
            "outer = lambda j: (threading.current_thread().name, "
            "_workers._map(lambda i: 2 * i, [j, j + 1])); "
            "print(_workers._map(outer, [0, 10]))")
    env = {**os.environ, "PYTHONPATH": str(Path(layers.__file__).parents[2])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[('jamloc-worker_0', [0, 2]), ('MainThread', [20, 22])]"


# ----------------------------------------------------------------------
# ReLU epilogue: relu=True is the conv followed by Tensor.relu, bit for bit
# ----------------------------------------------------------------------

# (layer class, constructor arguments, input shape); the stride-1 convs that
# do not widen take dx as a transposed conv of the masked upstream gradient,
# the others scatter per tap
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
    fused, plain = (cls(**kwargs, rng=np.random.default_rng(41), dtype=dtype, relu=relu)
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
        (Dense(6, 4, rng, dtype=f32), (3, 6)),
        (Conv1D(3, 4, 3, rng, dilation=2, dtype=f32), (2, 3, 11)),
        (Conv1D(3, 4, 1, rng, dtype=f32), (2, 3, 11)),
        (Conv2D(4, 6, 3, rng, stride=2, padding=1, dtype=f32), (2, 4, 7, 7)),
        (Conv2D(4, 6, 3, rng, padding=1, groups=2, dtype=f32), (2, 4, 5, 5)),
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
