"""Task losses and the weighted combination: oracles, frozen constants, FD."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from pmtl.errors import ConfigError, NumericalError
from pmtl.gradcheck import grad_check
from pmtl.losses import (
    LossConfig,
    combine,
    cross_entropy_loss,
    mse_loss,
    total_loss,
)

# Frozen from the closed forms: w_i = 1 / (2 e^{a_i}) with a = (0.34, 0.33, 0.33)
W_EMOTION = 0.3558851613813049
W_COUNTRY = 0.3594618667159631
W_AGE = 0.3594618667159631


def mse_oracle(pred, target):
    total, count = 0.0, 0
    for p, t in zip(pred.reshape(-1), target.reshape(-1)):
        total += (p - t) ** 2
        count += 1
    return total / count


def cross_entropy_oracle(logits, classes):
    total = 0.0
    for row, c in zip(logits, classes):
        z = row - max(row)
        log_norm = math.log(sum(math.exp(v) for v in z))
        total += -(z[c] - log_norm)
    return total / len(classes)


def test_mse_matches_oracle(rng_np):
    for _ in range(20):
        pred = rng_np.standard_normal((5, 3))
        target = rng_np.standard_normal((5, 3))
        loss, _ = mse_loss(pred, target)
        assert loss == pytest.approx(mse_oracle(pred, target), abs=1e-12)


def test_mse_zero_at_equality(rng_np):
    x = rng_np.standard_normal((4, 2))
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(x))


def test_mse_gradient_fd(rng_np):
    target = rng_np.standard_normal((3, 4))

    def f(params):
        loss, grad = mse_loss(params["pred"], target)
        return loss, {"pred": grad}

    assert grad_check(f, {"pred": rng_np.standard_normal((3, 4))}) < 1e-6


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy_loss(np.zeros((6, 4)), np.array([0, 1, 2, 3, 0, 1]))
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_matches_oracle(rng_np):
    for _ in range(20):
        logits = rng_np.standard_normal((7, 4)) * 3.0
        classes = rng_np.integers(0, 4, size=7)
        loss, _ = cross_entropy_loss(logits, classes)
        assert loss == pytest.approx(cross_entropy_oracle(logits, classes), abs=1e-10)


def test_cross_entropy_confident_correct_is_small():
    logits = np.full((1, 4), -50.0)
    logits[0, 2] = 50.0
    loss, _ = cross_entropy_loss(logits, np.array([2]))
    assert 0.0 <= loss < 1e-12


def test_cross_entropy_stable_at_large_logits():
    loss, grad = cross_entropy_loss(np.array([[1e4, 0.0, -1e4, 0.0]]), np.array([0]))
    assert math.isfinite(loss)
    assert np.isfinite(grad).all()


def test_cross_entropy_gradient_fd(rng_np):
    classes = np.array([0, 3, 1, 2, 2])

    def f(params):
        loss, grad = cross_entropy_loss(params["logits"], classes)
        return loss, {"logits": grad}

    assert grad_check(f, {"logits": rng_np.standard_normal((5, 4))}) < 1e-6


def test_cross_entropy_gradient_rows_sum_to_zero(rng_np):
    logits = rng_np.standard_normal((6, 4))
    _, grad = cross_entropy_loss(logits, np.array([0, 1, 2, 3, 0, 1]))
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def _mse_by_the_textbook(pred, target):
    diff = pred - target
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


def _cross_entropy_by_the_textbook(logits, classes):
    # two sums of exp, and the softmax copied, as the losses first computed it
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    rows = np.arange(n)
    dlogits = softmax.copy()
    dlogits[rows, classes] -= 1.0
    return float(-log_probs[rows, classes].mean()), dlogits / n


@pytest.mark.parametrize("n", [1, 7, 8, 256])
def test_losses_keep_the_textbook_bits(n):
    # the one-pass forms, with their in-place scaling and out buffers, give
    # the bytes of the plain formulas: on random logits, on tied ones and on
    # logits at +-700, where exp would overflow without the max shift
    rng = np.random.default_rng(n)
    classes = rng.integers(0, 4, size=n)
    ties = np.repeat(rng.standard_normal((n, 1)), 4, axis=1)
    ties[:, 2] += 1.0
    extreme = rng.choice([-700.0, 700.0, 0.0, 1e-3], size=(n, 4))
    for logits in (rng.standard_normal((n, 4)) * 5.0, ties, extreme):
        expected = _cross_entropy_by_the_textbook(logits, classes)
        for out in (None, np.empty((n, 4))):
            loss, grad = cross_entropy_loss(logits, classes, out=out)
            assert (loss, grad.tobytes()) == (expected[0], expected[1].tobytes())
    for shape in ((n, 10), (n, 1)):
        pred, target = rng.standard_normal(shape) * 3.0, rng.uniform(0, 1, size=shape)
        expected = _mse_by_the_textbook(pred, target)
        for out in (None, np.empty(shape)):
            loss, grad = mse_loss(pred, target, out=out)
            assert (loss, grad.tobytes()) == (expected[0], expected[1].tobytes())


def test_weights_frozen_values():
    w_e, w_c, w_a = LossConfig().weights()
    assert w_e == pytest.approx(W_EMOTION, abs=1e-15)
    assert w_c == pytest.approx(W_COUNTRY, abs=1e-15)
    assert w_a == pytest.approx(W_AGE, abs=1e-15)
    assert LossConfig().constant_term() == 0.5


@pytest.mark.parametrize("key,value", [("alpha_age", "x"), ("alpha_emotion", True),
                                       ("alpha_country", None)])
def test_loss_config_rejects_non_numbers(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        LossConfig(**{key: value})
    assert LossConfig(**{key: 1}).weights()  # an int is a number


@pytest.mark.parametrize("key,value", [
    ("alpha_age", 1000), ("alpha_age", 710), ("alpha_emotion", -1000), ("alpha_country", -746),
    ("alpha_age", math.inf), ("alpha_age", -math.inf), ("alpha_emotion", math.nan),
    ("alpha_country", 10 ** 400),
])
def test_loss_config_rejects_alphas_without_a_finite_positive_weight(key, value):
    with pytest.raises(ConfigError, match=key):
        LossConfig(**{key: value})


def test_loss_config_weights_finite_and_positive_at_the_alpha_bounds():
    for bound in (-700, 700):
        weights = LossConfig(alpha_emotion=bound, alpha_country=bound, alpha_age=bound).weights()
        assert all(0.0 < w < math.inf for w in weights)


def test_total_loss_zero_components():
    # all task losses zero leaves only the constant sum(a_i)/2 = 0.5
    assert total_loss(0.0, 0.0, 0.0, LossConfig()) == 0.5


def test_total_loss_all_ones_frozen():
    total = total_loss(1.0, 1.0, 1.0, LossConfig())
    assert total == pytest.approx(1.5748088948132312, abs=1e-12)
    assert round(total, 6) == 1.574809


def test_total_loss_is_weighted_sum(rng_np):
    cfg = LossConfig()
    for _ in range(10):
        le, lc, la = rng_np.uniform(0, 5, size=3)
        expected = le * W_EMOTION + lc * W_COUNTRY + la * W_AGE + 0.5
        assert total_loss(le, lc, la, cfg) == pytest.approx(expected, abs=1e-12)


def test_total_loss_strictly_monotone():
    cfg = LossConfig()
    base = total_loss(1.0, 1.0, 1.0, cfg)
    assert total_loss(1.5, 1.0, 1.0, cfg) > base
    assert total_loss(1.0, 1.5, 1.0, cfg) > base
    assert total_loss(1.0, 1.0, 1.5, cfg) > base


def test_total_loss_custom_alphas():
    cfg = LossConfig(alpha_emotion=0.0, alpha_country=0.0, alpha_age=0.0)
    # all weights collapse to 1/2 and the constant vanishes
    assert total_loss(2.0, 4.0, 6.0, cfg) == pytest.approx(6.0, abs=1e-12)


def test_total_loss_rejects_nonfinite():
    cfg = LossConfig()
    with pytest.raises(NumericalError):
        total_loss(float("nan"), 0.0, 0.0, cfg)
    with pytest.raises(NumericalError):
        total_loss(0.0, float("inf"), 0.0, cfg)


def test_combine_breakdown_consistent():
    b = combine(1.0, 2.0, 3.0, LossConfig())
    assert (b.l_emotion, b.l_country, b.l_age) == (1.0, 2.0, 3.0)
    assert b.l_total == total_loss(1.0, 2.0, 3.0, LossConfig())
    d = asdict(b)
    assert set(d) == {"l_emotion", "l_country", "l_age", "l_total"}
