"""Differentiable layer primitives with hand-written backward passes.

All tensors are float64 numpy arrays; matrices are row-major with samples
in rows. Each ``*_forward`` returns its output, and the matching
``*_backward`` takes what it needs of the forward pass (the input, the
normalized rows, the output) as arguments: there are no cache records, no
global state and no autodiff graph. Gradients here are exact analytic
derivatives; they are cross-checked against central finite differences in
the test suite.

The caller owns the buffers: each function writes into the output arrays
it is given (``out``, ``xhat``, ``dw``, ...) and allocates the others.
Linear and layer norm also take a stack of k layers that read one input:
``w`` (k, d_in, d_out), vectors (k, d_out) broadcast as ``v[..., None, :]``,
activations (k, n, d_out); each slice gets the bits of its layer alone.

These functions sit on the training hot path and, like the model and the
losses that call them, do not validate their operands. Inputs are checked
once where they enter: ``ModelConfig`` (widths, leaky slope, layer-norm
eps), ``load_checkpoint`` (tensor shapes against the layer plan), the
feature and label loaders, ``train_run`` and ``pmtl eval`` (input width).
"""

from __future__ import annotations

import numpy as np


# -- linear -----------------------------------------------------------------


def linear_forward(x, w, b, out=None):
    """y = x @ w + b, bias broadcast over rows.

    x: (n, d_in), w: (d_in, d_out), b: (d_out,); or a stack as above.
    """
    y = np.matmul(x, w, out=out)
    y += b[..., None, :]
    return y


DW_ROWS = 1024  # rows of dw per product in linear_backward


def linear_backward(x, w, dy, dw=None, db=None, dx=None, input_grad=True):
    """Gradients of linear_forward: dx = dy wᵀ, dw = xᵀ dy, db = Σ_rows dy.

    Returns ``(dx, dw, db)``, written into the arrays given. With
    ``input_grad=False`` the input gradient is not computed and ``dx`` is
    None (the first layer of a network has no use for it); a stack gives
    one input gradient per layer, (k, n, d_in). ``dw`` is formed in blocks
    of DW_ROWS rows, the last one also taking the leftover rows, so
    OpenBLAS packs one block of xᵀ at a time, not a copy of the whole
    batch. Each element is still one sum over the batch: the bits equal
    one product's (a block of a few rows would not).
    """
    dw = np.empty_like(w) if dw is None else dw
    d_in = w.shape[-2]
    blocks = max(1, d_in // DW_ROWS)
    for i in range(blocks):
        rows = slice(i * DW_ROWS, d_in if i == blocks - 1 else (i + 1) * DW_ROWS)
        np.matmul(x[:, rows].T, dy, out=dw[..., rows, :])
    db = np.add.reduce(dy, axis=-2, out=db)
    return (np.matmul(dy, w.swapaxes(-1, -2), out=dx) if input_grad else None), dw, db


# -- layer normalization ----------------------------------------------------


def layer_norm_forward(x, gamma, beta, eps=1e-5, out=None, xhat=None, inv_std=None):
    """Per-row normalization to zero mean / unit variance, then affine.

    Returns ``(y, xhat, inv_std)``: the output, the normalized rows x̂ and
    each row's 1/√(var+eps), which the backward pass takes. ``xhat`` may be
    ``x`` itself, to normalize in place; ``out`` holds the squared
    deviations before the output, so it must be neither.

    Uses the population (1/d) variance; eps is added inside the square
    root, so a constant row maps to zeros rather than dividing by zero.
    The mean is one row sum divided by d and the variance reuses the
    centred rows, the same operations ``np.mean`` and ``np.var`` perform,
    so the result is bit-identical to them.
    """
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True, out=inv_std)
    mu /= d
    xhat = np.subtract(x, mu, out=xhat)
    y = np.multiply(xhat, xhat, out=out)
    var = np.add.reduce(y, axis=-1, keepdims=True, out=mu)
    var /= d
    var += eps
    inv_std = np.sqrt(var, out=var)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(gamma[..., None, :], xhat, out=y)
    y += beta[..., None, :]
    return y, xhat, inv_std


def layer_norm_backward(dy, xhat, inv_std, gamma, dgamma=None, dbeta=None, out=None,
                        scratch=None):
    """Gradients of layer_norm_forward; returns ``(dx, dgamma, dbeta)``.

    With x̂ the normalized rows and s the per-row 1/√(var+eps):

        dγ = Σ_rows dy·x̂          dβ = Σ_rows dy
        dx = s · (g − mean(g) − x̂ · mean(g·x̂)),   g = dy·γ

    The mean terms come from differentiating through the row mean and
    (population) variance; each row mean is a row sum divided by d, as in
    ``np.mean``. ``out`` may be ``dy``; ``scratch``, shaped like ``dy``,
    holds the products that are summed.
    """
    d = xhat.shape[-1]
    t = np.multiply(dy, xhat, out=scratch)
    dgamma = np.add.reduce(t, axis=-2, out=dgamma)
    dbeta = np.add.reduce(dy, axis=-2, out=dbeta)
    g = np.multiply(dy, gamma[..., None, :], out=out)
    mean_g = np.add.reduce(g, axis=-1, keepdims=True)
    mean_g /= d
    np.multiply(g, xhat, out=t)
    mean_gx = np.add.reduce(t, axis=-1, keepdims=True)
    mean_gx /= d
    g -= mean_g
    np.multiply(xhat, mean_gx, out=t)
    g -= t
    g *= inv_std
    return g, dgamma, dbeta


# -- activations ------------------------------------------------------------


def leaky_relu_forward(x, slope=0.01, out=None):
    """y = x for x >= 0, slope*x otherwise; slope lies in (0, 1).

    Taken as max(x, slope*x), with no branch on each element's sign."""
    y = np.multiply(x, slope, out=out)
    return np.maximum(x, y, out=y)


def leaky_relu_backward(x, dy, slope=0.01, out=None):
    """dy times 1 where the forward input ``x`` is >= 0, times slope elsewhere.

    The scale is (x >= 0)·(1 − slope) + slope, which is exactly 1.0 where
    x >= 0 for every slope in (0, 1). ``out`` may be ``x`` but not ``dy``."""
    scale = np.greater_equal(x, 0.0, out=np.empty_like(x) if out is None else out)
    scale *= 1.0 - slope
    scale += slope
    scale *= dy
    return scale


def sigmoid_forward(x, out=None):
    """Numerically stable logistic function: with e = exp(-|x|), 1/(1+e)
    where x >= 0 and e/(1+e) elsewhere, so exp never overflows. ``out``
    must not be ``x``."""
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    np.divide(e, den, out=e)
    np.divide(1.0, den, out=den)
    np.copyto(e, den, where=x >= 0.0)
    return e


def sigmoid_backward(y, dy, out=None):
    """dy·y·(1 − y), for the forward output ``y``."""
    dx = np.multiply(dy, y, out=out)
    dx *= 1.0 - y
    return dx
