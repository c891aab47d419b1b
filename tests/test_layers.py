import numpy as np
import pytest

from jamloc.nn import (BatchConcat, Conv1D, Conv2D, Dense, Dropout, Flatten,
                       GlobalAvgPool, Mode, ReLU, ShapeError,
                       Sigmoid, Tanh, Tensor)

from _oracles import check_grads, conv1d_ref, conv2d_ref

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
    out = ReLU()(Tensor(np.array([-1.0, 0.0, 2.0])))
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
    flat = Flatten()(x)
    assert flat.shape == (1, 24)


def test_batch_concat_width():
    xs = [Tensor(np.zeros((3, 128))), Tensor(np.zeros((3, 128))), Tensor(np.zeros((3, 32)))]
    assert BatchConcat()(xs).shape == (3, 288)


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
    for layer in (ReLU(), Tanh(), Sigmoid()):
        x = Tensor(base.copy(), requires_grad=True)
        assert check_grads(lambda: _proj_loss(layer(x)), [x]) < GRAD_TOL


def test_gradcheck_pool_flatten_concat():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    assert check_grads(lambda: _proj_loss(GlobalAvgPool()(x)), [x]) < GRAD_TOL
    assert check_grads(lambda: _proj_loss(Flatten()(x)), [x]) < GRAD_TOL
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    assert check_grads(lambda: _proj_loss(BatchConcat()([a, b])), [a, b]) < GRAD_TOL


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
        (ReLU(), (3, 5)), (Tanh(), (3, 5)), (Sigmoid(), (3, 5)),
        (Dropout(0.4), (3, 6)), (GlobalAvgPool(), (2, 3, 4, 4)), (Flatten(), (2, 3, 4, 4)),
    ]
    for layer, shape in cases:
        x = Tensor(rng.normal(size=shape).astype(f32), requires_grad=True)
        out = layer(x, mode=Mode.TRAIN, rng=np.random.default_rng(0))
        assert out.dtype == f32, type(layer).__name__
        _proj_loss(out).backward()
        for p in [x] + layer.params():
            assert p.grad.dtype == f32, type(layer).__name__
    a = Tensor(rng.normal(size=(2, 3)).astype(f32), requires_grad=True)
    out = BatchConcat()([a, Tensor(np.zeros((2, 5), dtype=f32))])
    assert out.dtype == f32
    _proj_loss(out).backward()
    assert a.grad.dtype == f32
