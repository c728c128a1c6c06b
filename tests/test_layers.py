"""Layer primitives against loop oracles and finite differences.

The primitives do not validate their operands on every call: the leaky
slope and the layer-norm eps are checked once, by ModelConfig. The
validation tests below exercise that boundary.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from pmtl.gradcheck import grad_check
from pmtl.layers import (
    layer_norm_backward,
    layer_norm_forward,
    leaky_relu_backward,
    leaky_relu_forward,
    linear_backward,
    linear_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from pmtl.model import ModelConfig


def matmul_oracle(a, b):
    """Triple-loop product, no numpy linear algebra."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (5, 1, 2), (4, 6, 3)])
def test_matmul_matches_loop_oracle(shape, rng_np):
    # the product inside linear_forward, at edge shapes (single entries,
    # inner dimension 1)
    n, k, m = shape
    a = rng_np.standard_normal((n, k))
    b = rng_np.standard_normal((k, m))
    y = linear_forward(a, b, np.zeros(m))
    assert np.allclose(y, matmul_oracle(a, b), rtol=0, atol=1e-12)


def test_linear_forward_matches_oracle(rng_np):
    x = rng_np.standard_normal((4, 5))
    w = rng_np.standard_normal((5, 3))
    b = rng_np.standard_normal(3)
    y = linear_forward(x, w, b)
    expected = matmul_oracle(x, w) + b
    assert np.allclose(y, expected, rtol=0, atol=1e-12)


def test_linear_gradients_fd(rng_np):
    x0 = rng_np.standard_normal((3, 4))
    c = rng_np.standard_normal((3, 2))  # fixed projection to a scalar

    def f(params):
        y = linear_forward(params["x"], params["w"], params["b"])
        dx, dw, db = linear_backward(params["x"], params["w"], c)
        return float(np.sum(y * c)), {"x": dx, "w": dw, "b": db}

    params = {"x": x0, "w": rng_np.standard_normal((4, 2)),
              "b": rng_np.standard_normal(2)}
    assert grad_check(f, params) < 1e-6


def blocked_dw_mismatches():
    """The (d_in, rows) shapes at which ``linear_backward``'s blocked dw
    differs in any bit from one ``np.matmul(x.T, dy)``. x is a slice of a
    larger array at a row offset, as a batch of the train rows is."""
    rng = np.random.default_rng(3)
    bad = []
    for d_in in (1, 7, 64, 1023, 1024, 1025, 2048, 2049, 6373):
        for rows in (1, 7, 8, 255, 256, 257):
            x = rng.standard_normal((rows + 3, d_in))[3:]
            dy = rng.standard_normal((rows, 128))
            _, dw, _ = linear_backward(x, np.empty((d_in, 128)), dy, input_grad=False)
            if dw.tobytes() != np.matmul(x.T, dy).tobytes():
                bad.append((d_in, rows))
    return bad


def test_blocked_dw_equals_one_product_bit_for_bit():
    # at OpenBLAS's default thread count: two threads on a 2-core machine
    assert blocked_dw_mismatches() == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blocked_dw_equals_one_product_at_a_fixed_thread_count(threads):
    # OpenBLAS reads its thread count once, at load: a fresh process
    script = ("import sys\n"
              f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
              "from test_layers import blocked_dw_mismatches\n"
              "print(blocked_dw_mismatches())\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_layer_norm_known_row():
    y, _, _ = layer_norm_forward(np.array([[1.0, 2.0, 3.0]]),
                                 np.ones(3), np.zeros(3))
    v = 1.2247356859083902  # (3-2)/sqrt(2/3 + 1e-5)
    assert np.allclose(y, [[-v, 0.0, v]], rtol=0, atol=1e-12)


def test_layer_norm_row_statistics(rng_np):
    x = rng_np.standard_normal((6, 9)) * 3.0 + 1.5
    y, _, _ = layer_norm_forward(x, np.ones(9), np.zeros(9))
    assert np.allclose(y.mean(axis=1), 0.0, atol=1e-12)
    # population variance slightly below 1 because eps sits inside the sqrt
    assert np.allclose(y.var(axis=1), 1.0, atol=1e-4)


def test_layer_norm_constant_row_is_safe():
    y, _, _ = layer_norm_forward(np.full((2, 5), 7.0), np.ones(5), np.zeros(5))
    assert np.allclose(y, 0.0)
    assert np.isfinite(y).all()


def test_layer_norm_affine_applied():
    gamma = np.array([2.0, 2.0, 2.0])
    beta = np.array([-1.0, 0.0, 1.0])
    y, _, _ = layer_norm_forward(np.array([[1.0, 2.0, 3.0]]), gamma, beta)
    base, _, _ = layer_norm_forward(np.array([[1.0, 2.0, 3.0]]), np.ones(3), np.zeros(3))
    assert np.allclose(y, base * gamma + beta, atol=1e-12)


def test_layer_norm_gradients_fd(rng_np):
    c = rng_np.standard_normal((4, 5))

    def f(params):
        y, xhat, inv_std = layer_norm_forward(params["x"], params["gamma"], params["beta"])
        dx, dgamma, dbeta = layer_norm_backward(c, xhat, inv_std, params["gamma"])
        return float(np.sum(y * c)), {"x": dx, "gamma": dgamma, "beta": dbeta}

    params = {
        "x": rng_np.standard_normal((4, 5)) * 2.0,
        "gamma": rng_np.standard_normal(5) + 1.0,
        "beta": rng_np.standard_normal(5),
    }
    assert grad_check(f, params) < 1e-6


def test_layer_norm_matches_numpy_mean_var_bits(rng_np):
    # the reference is the textbook form with np.mean and np.var
    x = rng_np.standard_normal((64, 33)) * 5.0 + 2.0
    gamma = rng_np.standard_normal(33)
    beta = rng_np.standard_normal(33)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv_std
    y, got_xhat, got_inv_std = layer_norm_forward(x, gamma, beta, 1e-5)
    assert y.tobytes() == (gamma * xhat + beta).tobytes()
    assert got_xhat.tobytes() == xhat.tobytes()
    assert got_inv_std.tobytes() == inv_std.tobytes()


def test_layer_norm_eps_validation():
    for eps in (0.0, -1e-5, float("nan")):
        with pytest.raises(ValueError, match="ln_eps"):
            ModelConfig(input_dim=3, ln_eps=eps)


def test_leaky_relu_values():
    x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    y = leaky_relu_forward(x, slope=0.1)
    assert np.allclose(y, [[-0.2, -0.05, 0.0, 0.5, 2.0]], atol=1e-15)


def test_leaky_relu_slope_validation():
    for slope in (0.0, 1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="leaky_slope"):
            ModelConfig(input_dim=3, leaky_slope=slope)


def test_leaky_relu_gradients_fd(rng_np):
    c = rng_np.standard_normal((3, 6))
    # keep entries away from the kink at 0 where FD is ill-defined
    x0 = rng_np.standard_normal((3, 6))
    x0[np.abs(x0) < 0.05] = 0.5

    def f(params):
        y = leaky_relu_forward(params["x"], 0.01)
        return float(np.sum(y * c)), {"x": leaky_relu_backward(params["x"], c, 0.01)}

    assert grad_check(f, {"x": x0}) < 1e-6


def _edge_values(rng):
    """Values over the whole float64 range, signed zeros, subnormals and infinities."""
    scale = 10.0 ** rng.integers(-300, 300, size=4000).astype(float)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, 1.0, -1.0]
    return np.concatenate([rng.standard_normal(4000) * scale, rng.standard_normal(4000),
                           special]).reshape(-1, 6)


@pytest.mark.parametrize("slope", [1e-8, 0.01, 0.2, 0.5, 0.75, 0.999])
def test_branch_free_leaky_relu_keeps_the_masked_bits(slope):
    # max(x, slope*x) and the scale (x >= 0)(1 - slope) + slope give the bits
    # of the form that picks 1 or slope per element
    rng = np.random.default_rng(int(slope * 1000))
    x = _edge_values(rng)
    dy = rng.standard_normal(x.shape)
    scale = np.where(x >= 0.0, 1.0, slope)
    assert leaky_relu_forward(x, slope).tobytes() == (x * scale).tobytes()
    assert leaky_relu_backward(x, dy, slope).tobytes() == (dy * scale).tobytes()


def test_branch_free_sigmoid_keeps_the_masked_bits():
    # exp(-|x|) once, then 1/(1+e) or e/(1+e) by sign: the bits of the form
    # that indexes the two signs with boolean masks
    rng = np.random.default_rng(9)
    x = np.concatenate([_edge_values(rng).reshape(-1), rng.standard_normal(4000) * 40.0])
    expected = np.empty_like(x)
    pos = x >= 0.0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    assert sigmoid_forward(x.reshape(-1, 10)).tobytes() == expected.tobytes()


def test_sigmoid_values_and_stability():
    x = np.array([[0.0, 1000.0, -1000.0]])
    y = sigmoid_forward(x)
    assert y[0, 0] == 0.5
    assert y[0, 1] == 1.0  # saturates without overflow
    assert y[0, 2] == 0.0
    assert np.isfinite(y).all()


def test_sigmoid_symmetry(rng_np):
    x = rng_np.standard_normal((5, 4)) * 3.0
    yp = sigmoid_forward(x)
    yn = sigmoid_forward(-x)
    assert np.allclose(yp + yn, 1.0, atol=1e-12)


def test_sigmoid_gradients_fd(rng_np):
    c = rng_np.standard_normal((3, 4))

    def f(params):
        y = sigmoid_forward(params["x"])
        return float(np.sum(y * c)), {"x": sigmoid_backward(y, c)}

    assert grad_check(f, {"x": rng_np.standard_normal((3, 4))}) < 1e-6
