import operator

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


def test_sigmoid_saturates_without_overflow_warning():
    # exp(-x) overflows float32 below x ~ -88.7; the warning filter makes it an error
    out = Tensor(np.array([-100.0, 0.0, 100.0], dtype=np.float32)).sigmoid()
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])


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


def test_scalar_backward_keeps_its_three_errors():
    x = Tensor(np.ones(4), requires_grad=True)
    with pytest.raises(ShapeError, match=r"^backward\(\) requires a scalar loss, got shape \(4,\)$"):
        (x * 2.0).backward()
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphConsumedError, match="already ran"):
        loss.backward()
    with pytest.raises(RuntimeError, match="does not require grad"):
        Tensor(np.ones(())).backward()


def test_only_a_tensor_that_requires_grad_takes_a_gradient():
    x, c = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2))
    x.grad = np.full(2, 3.0)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    c.grad = None
    assert c.grad is None and not c.requires_grad
    with pytest.raises(AttributeError, match="does not require grad"):
        c.grad = np.ones(2)


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


@pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex64, np.bool_],
                         ids=["float16", "int32", "complex64", "bool"])
def test_an_explicit_dtype_other_than_float32_or_float64_is_rejected(dtype):
    # Tensor(np.zeros(3), dtype=np.float16) was a float64 Tensor
    bad = f"^dtype must be float32 or float64, got {np.dtype(dtype)}$"
    with pytest.raises(ValueError, match=bad):
        Tensor(np.zeros(3), dtype=dtype)


@pytest.mark.parametrize("data,dtype", [
    (np.arange(3), np.float64), (np.ones(3, dtype=bool), np.float64),
    (np.ones(3, dtype=np.float16), np.float64), (np.ones(3, dtype=np.float32), np.float32),
], ids=["int", "bool", "float16", "float32"])
def test_an_inferred_dtype_is_float32_or_float64(data, dtype):
    assert Tensor(data).dtype == dtype
    assert Tensor(data, dtype=np.float32).dtype == np.float32


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

    # a Tensor, ndarray, Python scalar or numpy scalar on either side of
    # + - * / gives the bits of the two-Tensor form, value and gradient;
    # an ndarray on the left must not turn the result into an object array
    both, right = (False, True), (False,)
    ops = [(operator.add, both), (operator.sub, both), (operator.mul, both),
           (operator.truediv, right)]
    for dtype in (np.float32, np.float64):
        data = np.linspace(0.5, 2.0, 6, dtype=dtype).reshape(2, 3)
        weight = Tensor(np.random.default_rng(0).normal(size=(2, 3)), dtype=dtype)
        for c in (np.arange(1.0, 4.0), 0.3, np.float64(0.3), np.float32(0.3),
                  Tensor(np.arange(1.0, 4.0), dtype=dtype)):
            ct = c if isinstance(c, Tensor) else Tensor(c, dtype=dtype)
            for op, lefts in ops:
                for left in lefts:
                    x, ref = (Tensor(data, requires_grad=True) for _ in range(2))
                    got, want = (op(c, x), op(ct, ref)) if left else (op(x, c), op(ref, ct))
                    assert isinstance(got, Tensor) and got.dtype == dtype
                    assert got.data.tobytes() == want.data.tobytes()
                    (got * weight).sum().backward()
                    (want * weight).sum().backward()
                    assert x.grad.dtype == dtype
                    assert x.grad.tobytes() == ref.grad.tobytes()
            if not isinstance(c, Tensor):
                with pytest.raises(TypeError):
                    c / Tensor(data)
        with pytest.raises(TypeError):
            np.ones((3, 2), dtype=dtype) @ Tensor(data)



@pytest.mark.parametrize("reduce", [lambda x: x.sum(axis=2), lambda x: x.mean(axis=(2, 3)),
                                    lambda x: x.sum(), lambda x: x.mean(axis=1, keepdims=True)],
                         ids=["sum-axis", "mean-axes", "sum-all", "mean-keepdims"])
def test_sum_and_mean_backward_keep_operand_layout(reduce):
    # a channels-last (B, C, H, W) view, as a conv returns: its gradient must
    # stay channels-last, or the conv below it pays a transposing copy
    rng = np.random.default_rng(3)
    data = rng.normal(size=(2, 5, 4, 3)).transpose(0, 3, 1, 2)
    grads = []
    for leaf in (Tensor(data, requires_grad=True), Tensor(data.copy(), requires_grad=True)):
        out = reduce(leaf)
        (out * np.random.default_rng(4).normal(size=out.shape)).sum().backward()
        grads.append(leaf.grad)
    assert grads[0].strides == data.strides
    np.testing.assert_array_equal(grads[0], grads[1])
