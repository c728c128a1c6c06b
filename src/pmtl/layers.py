"""Differentiable layer primitives with hand-written backward passes.

All tensors are float64 numpy arrays; matrices are row-major with samples
in rows. Each ``*_forward`` returns ``(output, cache)`` and the matching
``*_backward`` consumes that cache, so no global state or autodiff graph
is involved. Gradients here are exact analytic derivatives; they are
cross-checked against central finite differences in the test suite.

These functions sit on the training hot path and, like the model and the
losses that call them, do not validate their operands. Inputs are checked
once where they enter: ``ModelConfig`` (widths, leaky slope, layer-norm
eps), ``load_checkpoint`` (tensor shapes against the layer plan), the
feature and label loaders, ``train_run`` and ``pmtl eval`` (input width).
Parameter-gradient backward passes accept ``out`` arrays and write into
them, so gradients can land in preallocated views.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


# -- linear -----------------------------------------------------------------


class LinearCache(NamedTuple):
    x: np.ndarray
    w: np.ndarray


def linear_forward(x, w, b):
    """y = x @ w + b, bias broadcast over rows.

    x: (n, d_in), w: (d_in, d_out), b: (d_out,).
    """
    y = x @ w
    y += b
    return y, LinearCache(x, w)


DW_ROWS = 1024  # rows of dw per product in linear_backward


def linear_backward(cache: LinearCache, dy, dw=None, db=None, input_grad=True):
    """Gradients of linear_forward: dx = dy wᵀ, dw = xᵀ dy, db = Σ_rows dy.

    ``dw`` and ``db``, when given, receive the parameter gradients in
    place. With ``input_grad=False`` the input gradient is not computed
    and ``dx`` is None (the first layer of a network has no use for it).
    ``dw`` is formed in blocks of DW_ROWS rows, the last one also taking
    the leftover rows, so OpenBLAS packs one block of xᵀ at a time, not a
    copy of the whole batch. Each element is still one sum over the batch:
    the bits equal one product's (a block of a few rows would not).
    """
    x, w = cache
    dw = np.empty_like(w) if dw is None else dw
    blocks = max(1, w.shape[0] // DW_ROWS)
    for i in range(blocks):
        rows = slice(i * DW_ROWS, w.shape[0] if i == blocks - 1 else (i + 1) * DW_ROWS)
        np.matmul(x[:, rows].T, dy, out=dw[rows])
    db = np.add.reduce(dy, axis=0, out=db)
    return (dy @ w.T if input_grad else None), dw, db


# -- layer normalization ----------------------------------------------------


class LayerNormCache(NamedTuple):
    xhat: np.ndarray
    inv_std: np.ndarray
    gamma: np.ndarray


def layer_norm_forward(x, gamma, beta, eps=1e-5):
    """Per-row normalization to zero mean / unit variance, then affine.

    Uses the population (1/d) variance; eps is added inside the square
    root, so a constant row maps to zeros rather than dividing by zero.
    The mean is one row sum divided by d and the variance reuses the
    centred rows, the same operations ``np.mean`` and ``np.var`` perform,
    so the result is bit-identical to them.
    """
    d = x.shape[1]
    mu = np.add.reduce(x, axis=1, keepdims=True)
    mu /= d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True)
    var /= d
    var += eps
    inv_std = 1.0 / np.sqrt(var)
    xc *= inv_std
    y = gamma * xc
    y += beta
    return y, LayerNormCache(xc, inv_std, gamma)


def layer_norm_backward(cache: LayerNormCache, dy, dgamma=None, dbeta=None):
    """Gradients of layer_norm_forward.

    With x̂ the normalized rows and s the per-row 1/√(var+eps):

        dγ = Σ_rows dy·x̂          dβ = Σ_rows dy
        dx = s · (g − mean(g) − x̂ · mean(g·x̂)),   g = dy·γ

    The mean terms come from differentiating through the row mean and
    (population) variance; each row mean is a row sum divided by d, as in
    ``np.mean``. ``dgamma`` and ``dbeta``, when given, receive the
    parameter gradients in place.
    """
    xhat, inv_std, gamma = cache
    d = xhat.shape[1]
    dgamma = np.add.reduce(dy * xhat, axis=0, out=dgamma)
    dbeta = np.add.reduce(dy, axis=0, out=dbeta)
    g = dy * gamma
    mean_g = np.add.reduce(g, axis=1, keepdims=True)
    mean_g /= d
    mean_gx = np.add.reduce(g * xhat, axis=1, keepdims=True)
    mean_gx /= d
    dx = g - mean_g
    dx -= xhat * mean_gx
    dx *= inv_std
    return dx, dgamma, dbeta


# -- activations ------------------------------------------------------------


class LeakyReluCache(NamedTuple):
    scale: np.ndarray


def leaky_relu_forward(x, slope=0.01):
    """y = x for x >= 0, slope*x otherwise; slope lies in (0, 1)."""
    scale = np.where(x >= 0.0, 1.0, slope)
    return x * scale, LeakyReluCache(scale)


def leaky_relu_backward(cache: LeakyReluCache, dy):
    return dy * cache.scale


class SigmoidCache(NamedTuple):
    y: np.ndarray


def sigmoid_forward(x):
    """Numerically stable logistic function."""
    y = np.empty_like(x)
    pos = x >= 0.0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y, SigmoidCache(y)


def sigmoid_backward(cache: SigmoidCache, dy):
    y = cache.y
    return dy * y * (1.0 - y)
