"""The finite-difference checker itself: detection power and edge cases."""

import numpy as np
import pytest

from pmtl.errors import NumericalError
from pmtl.gradcheck import DENOM_FLOOR, grad_check, relative_error
from pmtl.model import Params


def quadratic(center):
    def f(params):
        w = params["w"]
        return float(np.sum((w - center) ** 2)), {"w": 2.0 * (w - center)}

    return f


def test_correct_gradient_passes():
    center = np.array([1.0, -2.0, 0.5])
    err = grad_check(quadratic(center), {"w": np.array([0.3, 0.7, -1.1])})
    assert err < 1e-8


def test_corrupted_gradient_detected():
    # a 10% overestimate must report relative error above the 0.05 alarm line
    center = np.array([1.0, -2.0, 0.5])

    def corrupted(params):
        loss, grads = quadratic(center)(params)
        return loss, {"w": grads["w"] * 1.1}

    err = grad_check(corrupted, {"w": np.array([0.3, 0.7, -1.1])})
    assert err > 0.05
    assert abs(err - 0.1 / 1.1) < 1e-4


def test_sign_flip_detected():
    center = np.zeros(2)

    def flipped(params):
        loss, grads = quadratic(center)(params)
        return loss, {"w": -grads["w"]}

    assert grad_check(flipped, {"w": np.array([1.0, 2.0])}) > 1.0


def test_zero_gradient_is_not_flagged():
    # at the minimum both analytic and numeric gradients vanish; the floor
    # keeps 0/0 from being reported as an error
    center = np.array([2.0, -1.0])
    assert grad_check(quadratic(center), {"w": center.copy()}) < 1e-4


def test_params_not_modified():
    w = np.array([0.1, 0.2])
    grad_check(quadratic(np.zeros(2)), {"w": w})
    assert np.array_equal(w, [0.1, 0.2])


def test_a_params_is_perturbed_in_a_copy_of_its_layout():
    params = Params({"b": (2,), "a": (1, 2)})  # a layout out of name order
    params.flat[...] = [1.0, 2.0, 3.0, 4.0]
    seen = set()

    def f(p):
        seen.add((type(p), p.layout, tuple(p), np.shares_memory(p.flat, params.flat)))
        return float(p.flat @ p.flat), {name: 2.0 * v for name, v in p.items()}

    assert grad_check(f, params) < 1e-8
    # the analytic gradients come from the input itself, the perturbations from a copy
    assert seen == {(Params, params.layout, ("b", "a"), shared) for shared in (True, False)}
    assert params.flat.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_missing_gradient_key():
    def f(params):
        return float(np.sum(params["w"] ** 2)), {}

    with pytest.raises(KeyError, match="w"):
        grad_check(f, {"w": np.ones(2)})


def test_nonfinite_loss_rejected():
    def f(params):
        return float("nan"), {"w": np.zeros(2)}

    with pytest.raises(NumericalError):
        grad_check(f, {"w": np.ones(2)})


def test_multiple_tensors():
    def f(params):
        a, b = params["a"], params["b"]
        return float(np.sum(a**2) + 3.0 * np.sum(b**2)), {"a": 2.0 * a, "b": 6.0 * b}

    err = grad_check(f, {"a": np.array([[1.0, 2.0]]), "b": np.array([3.0])})
    assert err < 1e-8


@pytest.mark.parametrize(
    "analytic,numeric,expected",
    [
        (1.0, 1.0, 0.0),
        (0.0, 0.0, 0.0),
        (1.0, 1.1, pytest.approx(0.1 / 1.1)),
        (0.0, DENOM_FLOOR / 2, pytest.approx(0.5)),
    ],
)
def test_relative_error_definition(analytic, numeric, expected):
    assert relative_error(analytic, numeric) == expected
