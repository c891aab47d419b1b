import numpy as np
import pytest

from jamloc.nn import GraphConsumedError, ShapeError, Tensor, concat

from _oracles import check_grads


def test_linear_map_gradient():
    # loss = sum(W @ x) with W = identity, x = [1, 2]  ->  dL/dW = [[1, 2], [1, 2]]
    W = Tensor(np.eye(2), requires_grad=True)
    x = Tensor(np.array([[1.0], [2.0]]))
    loss = (W @ x).sum()
    loss.backward()
    np.testing.assert_array_equal(W.grad, np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_tanh_grad_at_zero_is_one():
    x = Tensor(np.zeros(3), requires_grad=True)
    x.tanh().sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * 2.0 + x  # x used twice
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [3.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(4), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_graph_single_use():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphConsumedError):
        loss.backward()


def test_broadcast_add_reduces_grad():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    (x + b).sum().backward()
    np.testing.assert_array_equal(b.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_concat_splits_grad():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    (out * np.arange(10.0).reshape(2, 5)).sum().backward()
    np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
    np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])


def test_getitem_grad_scatters():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x[:, 1].sum().backward()
    np.testing.assert_array_equal(x.grad, [[0, 1, 0], [0, 1, 0]])


def test_composite_expression_matches_finite_difference():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    r = rng.normal(size=(3, 2))

    def build():
        h = (a @ b).tanh()
        return (h * r).sum() + (h * h).mean()

    assert check_grads(build, [a, b]) < 1e-6


def test_reductions_and_reshape_grads():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    r = rng.normal(size=(2, 12))

    def build():
        return (x.reshape(2, 12) * r).sum() + x.mean(axis=(1, 2)).sum() * 0.5

    assert check_grads(build, [x]) < 1e-6


def test_division_and_pow_grads():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
    y = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)

    def build():
        return ((x / y) ** 2.0).sum() + x.log().sum() + (-y).exp().sum()

    assert check_grads(build, [x, y]) < 1e-6


def test_non_finite_detection():
    x = Tensor(np.array([1.0, np.inf]))
    with pytest.raises(FloatingPointError):
        x.assert_finite("unit test")


def test_scalar_and_ndarray_operands_keep_float32():
    x = Tensor(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    outs = [x.mean(), x.mean(axis=1), x * 0.5, 0.5 * x, x / 2, x + 1, 1 - x,
            x - np.ones((2, 3)), x * np.arange(3.0), x ** 2, x @ np.ones((3, 2))]
    assert [y.dtype for y in outs] == [np.float32] * len(outs)
    loss = outs[0]
    for y in outs[1:]:
        loss = loss + y.sum()
    assert loss.dtype == np.float32
    loss.backward()
    assert x.grad.dtype == np.float32
