import tracemalloc

import numpy as np
import pytest

from jamloc.nn import (Conv1D, Conv2D, Dense, Dropout, GlobalAvgPool, Mode,
                       ShapeError, Tensor, concat, layers)

from _oracles import check_grads, conv1d_grads_ref, conv1d_ref, conv2d_ref

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


def test_dropout_eval_is_identity():
    x = Tensor(np.random.default_rng(1).normal(size=(4, 7)))
    out = Dropout(0.5)(x, mode=Mode.EVAL)
    assert out is x


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)
    with pytest.raises(ValueError):
        Dropout(-0.1)


def test_dropout_train_expectation():
    # inverted dropout: E[out] == x; check mean over many resamples within 2%
    rng = np.random.default_rng(2)
    x = Tensor(np.full((10,), 3.0))
    layer = Dropout(0.3)
    acc = np.zeros(10)
    n = 10_000
    for _ in range(n):
        acc += layer(x, mode=Mode.TRAIN, rng=rng).data
    np.testing.assert_allclose(acc / n, x.data, rtol=0.02)


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
], ids=["kernel_size", "stride", "stride-pair", "padding", "groups", "in_channels",
        "out_channels", "conv1d-in_channels",
        "conv1d-out_channels", "conv1d-kernel_size", "conv1d-dilation"])
def test_conv2d_rejects_bad_arguments(cls, field, kwargs):
    args = dict(in_channels=4, out_channels=4, kernel_size=3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^{cls.__name__} {field} out of range: "):
        cls(**{**args, **kwargs})


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


def test_conv1d_never_holds_a_whole_batch_im2col():
    # paper width of the IQ encoder's dilated convs, fed and differentiated
    # channels-last as inside the model
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


def test_gradcheck_dropout_fixed_mask():
    rng = np.random.default_rng(16)
    layer = Dropout(0.4)
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)

    def build():
        # identical rng seed per call keeps the mask fixed for finite differences
        return _proj_loss(layer(x, mode=Mode.TRAIN, rng=np.random.default_rng(99)))

    assert check_grads(build, [x]) < GRAD_TOL


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
        (Dropout(0.4), (3, 6)), (GlobalAvgPool(), (2, 3, 4, 4)),
    ]
    for layer, shape in cases:
        x = Tensor(rng.normal(size=shape).astype(f32), requires_grad=True)
        out = layer(x, mode=Mode.TRAIN, rng=np.random.default_rng(0))
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
