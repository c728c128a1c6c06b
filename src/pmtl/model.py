"""Multitask network: shared trunk plus emotion, country, and age heads.

The trunk applies [linear -> layer norm -> leaky ReLU] once per entry of
``shared_dims`` (default 128 then 64 units). Each head consumes the final
trunk representation through its own hidden block(s) of the same recipe,
then an affine output layer: 10 emotion intensities (optionally squashed
by a sigmoid), 4 country logits, and a single standardized-age value.
The age head has two hidden blocks (32 then 16 units) under the default
``two-layer-age`` variant; ``one-hidden-all`` gives every head one.

``layer_plan`` describes this once, as one chain of layers for the trunk
and one per head. Parameter names and shapes, the initialization draw
order (so a seed fully determines the network), the gradient order and
the forward and backward passes all walk it; only the emotion sigmoid and
the skipped input gradient of the first trunk layer depend on the chain.

Parameters live in a ``Params`` dict of named float64 tensors that are
views into one contiguous buffer, ``Params.flat``. The buffer holds the
tensors row-major in lexicographic name order, the order of the
checkpoint payload, so a checkpoint is the buffer's bytes and the
optimizer updates every tensor in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Literal

import numpy as np

from .data import COUNTRIES, EMOTIONS
from .errors import ConfigError, ShapeError, check_fields
from .layers import (
    layer_norm_backward,
    layer_norm_forward,
    leaky_relu_backward,
    leaky_relu_forward,
    linear_backward,
    linear_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from .rng import RngStream


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    shared_dims: tuple[int, ...] = (128, 64)
    age_head_dims: tuple[int, ...] = (32, 16)
    emotion_hidden: int = 32
    country_hidden: int = 32
    emotion_out: int = 10
    country_out: int = 4
    leaky_slope: float = 0.01
    ln_eps: float = 1e-5
    head_variant: Literal["two-layer-age", "one-hidden-all"] = "two-layer-age"
    emotion_activation: Literal["sigmoid", "linear"] = "sigmoid"

    def __post_init__(self):
        check_fields(self)  # also makes JSON lists tuples, which layer_plan's cache hashes
        outs, labels = (self.emotion_out, self.country_out), (len(EMOTIONS), len(COUNTRIES))
        if outs != labels:
            raise ConfigError(f"(emotion_out, country_out) must be {labels} to fit the labels, "
                              f"got {outs}")
        dims = (self.input_dim, *self.shared_dims, *self.age_head_dims, self.emotion_hidden,
                self.country_hidden)
        if any(d < 1 for d in dims):
            raise ConfigError(f"all dimensions must be >= 1, got {dims}")
        if not self.shared_dims or not self.age_head_dims:
            raise ConfigError("shared_dims and age_head_dims must not be empty")
        if self.head_variant == "two-layer-age" and len(self.age_head_dims) != 2:
            raise ConfigError("two-layer-age needs exactly 2 age_head_dims")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")
        if not self.ln_eps > 0.0:
            raise ConfigError(f"ln_eps must be > 0, got {self.ln_eps}")


def _blocks(prefix: str, d_in: int, widths) -> tuple:
    """[linear -> layer norm -> leaky ReLU] layers named prefix0, prefix1, ..."""
    dims = (d_in, *widths)
    return tuple((f"{prefix}{i}", dims[i], dims[i + 1], True) for i in range(len(widths)))


@functools.lru_cache(maxsize=64)
def layer_plan(config: ModelConfig) -> tuple[tuple[tuple[str, int, int, bool], ...], ...]:
    """The network as a tuple of chains: the trunk, then the emotion,
    country and age heads, each head fed by the trunk's output.

    A layer is ``(name, d_in, d_out, has_norm)``: with a norm it is a
    [linear -> layer norm -> leaky ReLU] block, without one the affine
    output layer that ends every head. Iterating the chains in order gives
    the canonical parameter order and the initialization draw order.
    """
    trunk = _blocks("shared", config.input_dim, config.shared_dims)
    d = config.shared_dims[-1]
    n_age = 2 if config.head_variant == "two-layer-age" else 1
    age = _blocks("age_hidden", d, config.age_head_dims[:n_age])
    return (
        trunk,
        (("emotion_hidden", d, config.emotion_hidden, True),
         ("emotion_out", config.emotion_hidden, config.emotion_out, False)),
        (("country_hidden", d, config.country_hidden, True),
         ("country_out", config.country_hidden, config.country_out, False)),
        age + (("age_out", age[-1][2], 1, False),),
    )


@functools.lru_cache(maxsize=64)
def param_shapes(config: ModelConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of every parameter tensor, in layer-plan order."""
    shapes = []
    for chain in layer_plan(config):
        for name, d_in, d_out, has_norm in chain:
            shapes += [(f"{name}.w", (d_in, d_out)), (f"{name}.b", (d_out,))]
            if has_norm:
                shapes += [(f"{name}.gamma", (d_out,)), (f"{name}.beta", (d_out,))]
    return tuple(shapes)


@functools.lru_cache(maxsize=64)
def _backward_order(config: ModelConfig) -> tuple[str, ...]:
    """Parameter names in the order ``backward`` visits them: each head
    from its output layer down, then the trunk from the top. Gradient
    dicts are keyed in this order, which fixes the per-tensor summation
    order of the global gradient norm."""
    trunk, *heads = layer_plan(config)
    names = []
    for chain in (*heads, trunk):
        for name, _, _, has_norm in reversed(chain):
            names += [f"{name}.{s}" for s in
                      (("gamma", "beta", "w", "b") if has_norm else ("w", "b"))]
    return tuple(names)


class Params(dict):
    """Named float64 tensors that are views into one contiguous buffer.

    ``flat`` holds every tensor row-major in lexicographic name order, the
    order of the checkpoint payload. The dict keeps the key order of the
    ``shapes`` mapping it is built from, whatever the buffer layout. Write
    into a tensor (``params[name][...] = value``); rebinding a name would
    detach it from ``flat``.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray | None = None):
        sizes = {name: math.prod(shape) for name, shape in shapes.items()}
        starts, total = {}, 0
        for name in sorted(sizes):
            starts[name] = total
            total += sizes[name]
        if flat is None:
            try:
                flat = np.zeros(total)
            except MemoryError:
                raise ConfigError(f"a model of {total:,} parameters does not fit in memory") from None
        super().__init__(
            (name, flat[starts[name]:starts[name] + sizes[name]].reshape(shape))
            for name, shape in shapes.items()
        )
        self.flat = flat


def init_params(config: ModelConfig, rng: RngStream) -> Params:
    """Fresh parameters: weights uniform in (-s, s) with s = sqrt(1/fan_in),
    biases zero, layer-norm scale 1 and shift 0. Draw order follows the
    layer plan, so a given seed always yields the same tensors."""
    params = Params(dict(param_shapes(config)))
    for chain in layer_plan(config):
        for name, d_in, d_out, has_norm in chain:
            s = math.sqrt(1.0 / d_in)
            params[f"{name}.w"][...] = rng.uniform(d_in * d_out).reshape(d_in, d_out) * (2.0 * s) - s
            if has_norm:
                params[f"{name}.gamma"].fill(1.0)
    return params


def init_grads(config: ModelConfig) -> Params:
    """Zeroed gradient tensors for ``config``, keyed in backward order."""
    shapes = dict(param_shapes(config))
    return Params({name: shapes[name] for name in _backward_order(config)})


def check_params(params: dict, config: ModelConfig) -> None:
    """Raise ShapeError unless ``params`` holds exactly the tensors of the
    layer plan, each with its planned shape."""
    expected = param_shapes(config)
    for name, shape in expected:
        got = np.shape(params[name]) if name in params else ()
        if got != shape:
            raise ShapeError(f"parameter {name!r}", got, shape)
    if len(params) != len(expected):
        extra = sorted(set(params) - {name for name, _ in expected})
        raise ShapeError(f"parameters not in the layer plan {extra}",
                         (len(params),), (len(expected),))


def params_copy(params: Params) -> Params:
    """A deep copy: one copy of the flat buffer."""
    return Params({name: v.shape for name, v in params.items()}, params.flat.copy())


# -- forward ----------------------------------------------------------------


@dataclass(frozen=True)
class ModelOutputs:
    emotion: np.ndarray        # (n, emotion_out)
    country_logits: np.ndarray  # (n, country_out)
    age_scaled: np.ndarray     # (n, 1), standardized scale


# Each head chain's output, in layer-plan order; also backward's d_outputs keys.
HEAD_OUTPUTS = tuple(f.name for f in fields(ModelOutputs))


def _chain_forward(params, chain, h, config, keep):
    """Run one chain; returns its output and, with ``keep``, one (name, linear cache,
    norm cache, activation cache) record per layer, None for no norm."""
    caches = []
    for name, _, _, has_norm in chain:
        h, lin = linear_forward(h, params[f"{name}.w"], params[f"{name}.b"])
        ln = act = None
        if has_norm:
            h, ln = layer_norm_forward(h, params[f"{name}.gamma"], params[f"{name}.beta"],
                                       config.ln_eps)
            ln = ln if keep else None  # frees the normalized rows before the activation
            h, act = leaky_relu_forward(h, config.leaky_slope)
        if keep:
            caches.append((name, lin, ln, act))
    return h, caches


def forward(params: dict, config: ModelConfig, x: np.ndarray, keep_caches: bool = True):
    """Run the network on a batch; returns (ModelOutputs, caches), where
    ``caches`` is what ``backward`` needs, or None with ``keep_caches=False``.

    ``x`` is a float64 (n, input_dim) array. Rows are independent (layer
    norm acts per row), so splitting a batch into blocks of rows changes
    no result beyond rounding; not always bit for bit, since BLAS picks its
    matrix-product kernels by shape (by the row count too).
    """
    trunk, *heads = layer_plan(config)
    h, trunk_caches = _chain_forward(params, trunk, x, config, keep_caches)
    ys, head_caches, sig_cache = [], [], None
    for key, chain in zip(HEAD_OUTPUTS, heads):
        y, chain_caches = _chain_forward(params, chain, h, config, keep_caches)
        if key == "emotion" and config.emotion_activation == "sigmoid":
            y, sig_cache = sigmoid_forward(y)
        ys.append(y)
        head_caches.append(chain_caches)
    caches = (config, trunk_caches, head_caches, sig_cache) if keep_caches else None
    return ModelOutputs(*ys), caches


# -- backward ---------------------------------------------------------------


def _chain_backward(grads, caches, dy, input_grad=True):
    """Walk one chain's caches from the top, writing every parameter
    gradient into ``grads``; returns the gradient of the chain's input,
    or None with ``input_grad=False``."""
    for i in reversed(range(len(caches))):
        name, lin, ln, act = caches[i]
        if ln is not None:
            dy = leaky_relu_backward(act, dy)
            dy, _, _ = layer_norm_backward(ln, dy, grads[f"{name}.gamma"],
                                           grads[f"{name}.beta"])
        dy, _, _ = linear_backward(lin, dy, grads[f"{name}.w"], grads[f"{name}.b"],
                                   input_grad or i > 0)
    return dy


def backward(params: dict, caches, d_outputs: dict, grads: Params) -> Params:
    """Gradients for every parameter given output-side gradients.

    ``d_outputs`` maps each name in HEAD_OUTPUTS to an array shaped like
    that output. Each head is walked from its output layer down, then the
    trunk from the top with the sum of the heads' input gradients. Every
    gradient is written into ``grads`` (from ``init_grads``), which is
    returned; the weights come from ``caches`` (from ``forward``).
    """
    config, trunk_caches, head_caches, sig_cache = caches
    n = trunk_caches[0][1].x.shape[0]
    d_shared = np.zeros((n, config.shared_dims[-1]))
    for key, chain_caches in zip(HEAD_OUTPUTS, head_caches):
        dy = d_outputs[key]
        if key == "emotion" and sig_cache is not None:
            dy = sigmoid_backward(sig_cache, dy)
        d_shared += _chain_backward(grads, chain_caches, dy)
    _chain_backward(grads, trunk_caches, d_shared, input_grad=False)
    return grads


# -- inference --------------------------------------------------------------


@dataclass(frozen=True)
class PredictionSet:
    emotion: np.ndarray       # (n, emotion_out), in [0, 1] under sigmoid
    age_years: np.ndarray     # (n,), de-standardized
    country: np.ndarray       # (n,), int class ids; argmax ties -> lowest id


PREDICT_ROWS = 128  # rows per forward pass of ``predict``


def predict(params: dict, config: ModelConfig, x: np.ndarray, age_scaler) -> PredictionSet:
    """Inference: emotion vector, age in years, and country class per row.

    ``forward`` runs on consecutive blocks of PREDICT_ROWS rows, the last
    one also taking the leftover rows. No block is shorter unless n is:
    OpenBLAS rounds products of a few rows with other kernels. The outputs
    then equal one full ``forward``'s bit for bit up to about 3,100 rows.
    Besides its result arrays, predict holds one block's activations, for
    at most 2 * PREDICT_ROWS - 1 rows, and no backward caches.

    ``age_scaler`` maps the standardized age output back to years via its
    ``descale`` method. Country is the argmax of the logits; numpy argmax
    resolves ties toward the lowest class index.
    """
    n = x.shape[0]
    emotion = np.empty((n, config.emotion_out))
    logits = np.empty((n, config.country_out))
    age_scaled = np.empty(n)
    blocks = max(1, n // PREDICT_ROWS)
    for i in range(blocks):
        rows = slice(i * PREDICT_ROWS, n if i == blocks - 1 else (i + 1) * PREDICT_ROWS)
        outputs, _ = forward(params, config, x[rows], False)
        emotion[rows] = outputs.emotion
        logits[rows] = outputs.country_logits
        age_scaled[rows] = outputs.age_scaled[:, 0]
        del outputs  # not alive while the next block's forward allocates
    country = np.argmax(logits, axis=1).astype(np.int64)
    return PredictionSet(emotion=emotion, age_years=age_scaler.descale(age_scaled),
                         country=country)
