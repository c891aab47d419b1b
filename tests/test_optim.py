import math
import re

import numpy as np
import pytest

from jamloc.nn import SGD, Dense, Tensor


def test_plain_sgd_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([p], learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step(epoch=0)
    np.testing.assert_allclose(p.data, [0.9])
    assert p.grad is None  # cleared


def test_multistep_schedule():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = SGD([p], learning_rate=1e-2, milestones=[10], lr_decay_factor=0.1)
    assert opt.lr_at(9) == pytest.approx(1e-2)
    assert opt.lr_at(10) == pytest.approx(1e-3)
    assert opt.lr_at(25) == pytest.approx(1e-3)


def test_momentum_matches_hand_recurrence():
    # two identical steps, grad g each: v1 = g, v2 = 0.9 g + g
    g = np.array([2.0, -1.0])
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = SGD([p], learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    expect = p.data.copy()
    v = np.zeros(2)
    for _ in range(2):
        p.grad = g.copy()
        opt.step(0)
        v = 0.9 * v + g
        expect = expect - 0.1 * v
    np.testing.assert_array_equal(p.data, expect)


def test_weight_decay_enters_velocity():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = SGD([p], learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    p.grad = np.array([0.0])
    opt.step(0)
    # v = 0 + 0 + 0.5*2 = 1 -> p = 2 - 0.1
    np.testing.assert_allclose(p.data, [1.9])


def test_missing_grad_raises():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([p])
    with pytest.raises(RuntimeError):
        opt.step(0)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-2), ("learning_rate", math.nan),
    ("learning_rate", math.inf), ("momentum", 1.0), ("momentum", -0.1), ("momentum", math.nan),
    ("weight_decay", -5e-4), ("weight_decay", math.nan), ("weight_decay", math.inf),
    ("lr_decay_factor", 0.0), ("lr_decay_factor", 1.5), ("lr_decay_factor", math.nan),
    ("milestones", [5, 2]),
])
def test_sgd_rejects_bad_hyperparameter_naming_field_and_value(field, value):
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match=rf"^{field} .*, got {re.escape(repr(value))}$"):
        SGD([p], **{field: value})


def _train_k_steps(seed: int, k: int = 5) -> bytes:
    rng = np.random.default_rng(seed)
    layer = Dense(4, 3, np.random.default_rng(seed + 1))
    opt = SGD(layer.params(), learning_rate=1e-2, momentum=0.9, weight_decay=5e-4)
    for step in range(k):
        x = Tensor(rng.normal(size=(8, 4)))
        loss = (layer(x) ** 2.0).mean()
        loss.backward()
        opt.step(epoch=step)
    return b"".join(p.data.tobytes() for p in layer.params())


def test_fixed_seed_training_is_bit_identical():
    assert _train_k_steps(123) == _train_k_steps(123)
    assert _train_k_steps(123) != _train_k_steps(124)
