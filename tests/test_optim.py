import math
import re

import numpy as np
import pytest

from jamloc.nn import SGD, Dense, Tensor
from jamloc.nn.optim import MOMENTUM, WEIGHT_DECAY


def test_plain_sgd_step():
    # first step from zero velocity: v = g + WEIGHT_DECAY p, p -= lr v
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([p], learning_rate=0.1)
    p.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * (1.0 + WEIGHT_DECAY * 1.0)])
    assert p.grad is None  # cleared


def test_momentum_matches_hand_recurrence():
    # two identical steps, grad g each: v1 = g + wd p0, v2 = m v1 + g + wd p1
    g = np.array([2.0, -1.0])
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = SGD([p], learning_rate=0.1)
    expect = p.data.copy()
    v = np.zeros(2)
    for _ in range(2):
        p.grad = g.copy()
        opt.step()
        v = MOMENTUM * v + g + WEIGHT_DECAY * expect
        expect = expect - 0.1 * v
    np.testing.assert_array_equal(p.data, expect)


def test_weight_decay_enters_velocity():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = SGD([p], learning_rate=0.1)
    p.grad = np.array([0.0])
    opt.step()
    # v = 0 + 0 + WEIGHT_DECAY*2 -> p = 2 - 0.1*v
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * WEIGHT_DECAY * 2.0])
    assert opt.velocity[0][0] == pytest.approx(WEIGHT_DECAY * 2.0)


def test_three_float32_steps_match_the_update_rule_bitwise():
    # v = 0.9 v + g + 5e-4 p, then p -= lr v, in that order, in float32
    rng = np.random.default_rng(7)
    p = Tensor(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True)
    opt = SGD([p], learning_rate=0.05)
    want, v = p.data.copy(), np.zeros_like(p.data)
    for _ in range(3):
        g = rng.normal(size=p.shape).astype(np.float32)
        p.grad = g.copy()
        opt.step()
        v = v * np.float32(0.9)
        v = v + g
        v = v + np.float32(5e-4) * want
        want = want - np.float32(0.05) * v
        assert p.grad is None  # cleared
        assert p.data.dtype == np.float32
        assert p.data.tobytes() == want.tobytes()


def test_missing_grad_raises():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD([p])
    with pytest.raises(RuntimeError):
        opt.step()


@pytest.mark.parametrize("bias_grad,error,match", [
    (None, RuntimeError, r"^parameter 1 has no gradient"),
    (np.ones(2, dtype=np.float32), ValueError,
     r"^parameter 1 is float64 but its gradient is float32 and its velocity float64$"),
], ids=["missing-grad", "float32-grad"])
def test_a_failed_step_changes_no_parameter(bias_grad, error, match):
    # the weight was stepped, its gradient cleared and its velocity changed
    # before the bias's missing gradient raised
    rng = np.random.default_rng(5)
    layer = Dense(3, 2, np.random.default_rng(6))
    opt = SGD(layer.params(), learning_rate=0.1)
    for _ in range(2):      # so that the velocities are nonzero
        (layer(Tensor(rng.normal(size=(4, 3)))) ** 2.0).mean().backward()
        opt.step()
    layer.weight.grad = np.full((3, 2), 0.5)
    layer.bias.grad = bias_grad

    def state():
        return [(p.data.tobytes(), None if p.grad is None else p.grad.tobytes(), v.tobytes())
                for p, v in zip(opt.params, opt.velocity)]

    before = state()
    with pytest.raises(error, match=match):
        opt.step()
    assert state() == before


def test_a_cast_after_sgd_raises_naming_the_parameter():
    # the float32 velocities rounded the float64 gradients down silently
    layer = Dense(3, 2, np.random.default_rng(8)).cast(np.float32)
    opt = SGD(layer.params())
    layer.cast(np.float64)
    (layer(Tensor(np.ones((4, 3)))) ** 2.0).mean().backward()
    with pytest.raises(ValueError, match=r"^parameter 0 is float64 but its gradient is "
                                         r"float64 and its velocity float32$"):
        opt.step()


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-2), ("learning_rate", math.nan),
    ("learning_rate", math.inf),
])
def test_sgd_rejects_bad_hyperparameter_naming_field_and_value(field, value):
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match=rf"^SGD\.{field} must be a finite number in \(0, inf\], "
                                         rf"got {re.escape(repr(value))}$"):
        SGD([p], **{field: value})


def _train_k_steps(seed: int, k: int = 5) -> bytes:
    rng = np.random.default_rng(seed)
    layer = Dense(4, 3, np.random.default_rng(seed + 1))
    opt = SGD(layer.params(), learning_rate=1e-2)
    for _ in range(k):
        x = Tensor(rng.normal(size=(8, 4)))
        loss = (layer(x) ** 2.0).mean()
        loss.backward()
        opt.step()
    return b"".join(p.data.tobytes() for p in layer.params())


def test_fixed_seed_training_is_bit_identical():
    assert _train_k_steps(123) == _train_k_steps(123)
    assert _train_k_steps(123) != _train_k_steps(124)
