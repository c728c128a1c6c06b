"""Multitask network: shared trunk plus emotion, country, and age heads.

The trunk applies [linear -> layer norm -> leaky ReLU] once per entry of
``shared_dims`` (default 128 then 64 units). Each head consumes the final
trunk representation through its own hidden block(s) of the same recipe,
then an affine output layer: 10 emotion intensities (optionally squashed
by a sigmoid), 4 country logits, and a single standardized-age value.
The age head has two hidden blocks (32 then 16 units) under the default
``two-layer-age`` variant; ``one-hidden-all`` gives every head one.

``layer_plan`` describes this once, as one chain of layers for the trunk
and one per head. Parameter names and shapes and the initialization draw
order (so a seed fully determines the network) walk it. A ``StepPlan`` is
built from it once per row count: it owns every activation, normalized-row,
scale and gradient array of a pass, and a training plan the batch's input
rows; ``forward`` and ``backward`` write into them, and there are no per-call
cache records. The caller owns the parameters and the gradient buffer
(``init_grads``).

Parameters live in a ``Params`` dict of named float64 tensors that are
views into one contiguous buffer, ``Params.flat``, which the optimizer
updates in one pass. ``param_shapes`` gives its layout: the layer plan's
order, except that the stacked head layer's four kinds of tensor are each
one (3, ...) block, which that layer reads and writes as it stands. The
gradients are a ``Params`` of the same layout and key order; the
checkpoint writes the tensors by name.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace
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


_NORM = ("w", "b", "gamma", "beta")  # a hidden layer's tensors, in the order layers use them


def _stacked(config: ModelConfig) -> bool:
    """Whether the heads' first hidden layers share a width: one stacked layer."""
    return len({chain[0][2] for chain in layer_plan(config)[1:]}) == 1


@functools.lru_cache(maxsize=64)
def param_shapes(config: ModelConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of every parameter tensor, in the layout of
    ``Params.flat``: layer by layer in layer-plan order, but the stacked
    layer's three hold each kind of tensor in one block, head after head."""
    trunk, *heads = layer_plan(config)
    stacked = _stacked(config)
    groups = [[layer] for layer in trunk] + ([[chain[0] for chain in heads]] if stacked else [])
    groups += [[layer] for chain in heads for layer in (chain[1:] if stacked else chain)]
    return tuple((f"{name}.{t}", (d_in, d_out) if t == "w" else (d_out,))
                 for group in groups for t in (_NORM if group[0][3] else _NORM[:2])
                 for name, d_in, d_out, _ in group)


class Params(dict):
    """Named float64 tensors that are views into one contiguous buffer.

    ``flat`` holds every tensor row-major in the order of the ``shapes``
    mapping, recorded as ``layout``; the model's is ``param_shapes``. The
    dict is keyed in that order too. Write into a tensor
    (``params[name][...] = value``); rebinding a name would detach it from
    ``flat``.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray | None = None):
        self.layout = tuple(shapes.items())
        if flat is None:
            flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
        start = 0
        for name, shape in self.layout:
            self[name] = flat[start:start + math.prod(shape)].reshape(shape)
            start += self[name].size
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
    """Zeroed gradients for ``config``, in the parameters' layout and key order."""
    return Params(dict(param_shapes(config)))


def params_copy(params: Params) -> Params:
    """A deep copy in the same layout: one copy of the flat buffer."""
    return Params(dict(params.layout), params.flat.copy())


# -- step plan --------------------------------------------------------------


@dataclass(frozen=True)
class ModelOutputs:
    emotion: np.ndarray        # (n, emotion_out)
    country_logits: np.ndarray  # (n, country_out)
    age_scaled: np.ndarray     # (n, 1), standardized scale


# Each head chain's output, in layer-plan order; also backward's d_outputs keys.
HEAD_OUTPUTS = tuple(f.name for f in fields(ModelOutputs))


class _Layer(SimpleNamespace):
    get = x = dx = key = act = g = s = None  # see StepPlan


class StepPlan:
    """Every buffer that ``forward`` and ``backward`` write, for ``rows``
    rows of one ModelConfig: built once, run on every batch of that size.

    ``layers`` follows ``layer_plan`` in forward order, the trunk and then
    one head after the other. A layer's ``get`` takes its tensors from the
    parameters or the gradients. If the heads' first hidden layers share a
    width, they are one stacked layer: its ``get`` returns their (3, d, w)
    and (3, w) blocks of ``flat``, and one call of each layer function
    serves all three. A layer reads ``x`` (None: the model input) and sends
    its input gradient to ``dx`` (None: nowhere). A hidden layer holds the
    linear output ``z`` (then, in place, its normalized rows), each row's
    1/√(var+eps) ``inv``, the layer-norm output ``y`` and the activation
    ``h``; ``g`` receives the gradient of ``h``, and ``s`` holds that of
    ``y``, then of ``z``. An output layer's ``z`` is the output ``key``;
    under the emotion sigmoid ``act`` holds the squashed output and ``s``
    the gradient before it. The heads' gradients of the trunk output land
    in ``head_dx`` and are summed in head order into the top trunk layer's
    ``g``.

    A training plan holds the batch's rows in ``input``, which has exactly
    the plan's rows for the split's ``take`` to fill. An inference plan
    (``backward=False``) has no input or gradient buffer, ``h`` is ``z``,
    and the hidden layers' ``y``, which no other layer reads, share one
    scratch as large as the widest of them. A plan built ``within`` another
    of the same config and kind with at least as many rows takes its
    buffers from that plan's memory; the two must not run at once.

    ``forward`` keeps a reference to its input for ``backward``. Its outputs
    are views of the plan, overwritten by its next call.
    """

    def __init__(self, config: ModelConfig, rows: int, backward: bool = True,
                 within: StepPlan | None = None):
        self.config, self.rows, self.x, self.buffers = config, rows, None, []
        pool = None if within is None else iter(within.buffers)

        def new(shape):
            size = math.prod(shape)
            buf = np.empty(shape) if pool is None else next(pool)[:size].reshape(shape)
            self.buffers.append(buf.reshape(-1))
            return buf

        self.input = new((rows, config.input_dim)) if backward else None
        self.layers, outputs = [], []
        trunk, *heads = layer_plan(config)
        stacked, (first, _, w, _) = _stacked(config), heads[0][0]
        widths = [d_out for chain in (trunk, *heads) for _, _, d_out, _ in chain]
        scratch = None if backward else new((rows * max(*widths, 3 * w if stacked else 0),))

        def hidden(get, d_out, feed, stack=()):
            """Add a hidden layer; returns the feed of the next: (h, g)."""
            shape = (*stack, rows, d_out)
            z = new(shape)
            y = new(shape) if backward else scratch[:math.prod(shape)].reshape(shape)
            layer = _Layer(get=get, x=feed[0], dx=feed[1], z=z, y=y,
                           h=new(shape) if backward else z, inv=new((*shape[:-1], 1)))
            if backward:
                layer.g, layer.s = new(shape), new(shape)
            self.layers.append(layer)
            return layer.h, layer.g

        feed = (None, None)
        for name, _, d_out, _ in trunk:
            feed = hidden(_getter(name, _NORM), d_out, feed)
        self.trunk_top, h_top = self.layers[-1], feed[0]
        self.head_dx = new((3, rows, trunk[-1][2])) if backward else None
        feeds = [(h_top, dx) for dx in ([None] * 3 if self.head_dx is None else self.head_dx)]
        if stacked:  # each kind's block starts at the first head's tensor and holds three
            names, shapes = zip(*param_shapes(config))
            start = dict(zip(names, itertools.accumulate(map(math.prod, shapes), initial=0)))
            blocks = [(slice(start[name], start[name] + 3 * math.prod(shape)), (3, *shape))
                      for name, shape in param_shapes(config) if name.startswith(f"{first}.")]
            h, g = hidden(lambda p: [p.flat[at].reshape(shape) for at, shape in blocks],
                          w, (h_top, self.head_dx), (3,))
            feeds = [(h[i], None if g is None else g[i]) for i in range(3)]
        for key, chain, feed in zip(HEAD_OUTPUTS, heads, feeds):
            for name, _, d_out, has_norm in chain[1:] if stacked else chain:
                if has_norm:
                    feed = hidden(_getter(name, _NORM), d_out, feed)
                    continue
                layer = _Layer(get=_getter(name, _NORM[:2]), x=feed[0], dx=feed[1], key=key,
                               z=new((rows, d_out)))
                if key == "emotion" and config.emotion_activation == "sigmoid":
                    layer.act, layer.s = new(layer.z.shape), new(layer.z.shape)
                self.layers.append(layer)
                outputs.append(layer.z if layer.act is None else layer.act)
        self.outputs = ModelOutputs(*outputs)
        self.d_outputs = ({key: new(v.shape) for key, v in zip(HEAD_OUTPUTS, outputs)}
                          if backward else None)


def _getter(name, tensors):
    return operator.itemgetter(*(f"{name}.{t}" for t in tensors))


def forward(params: Params, plan: StepPlan, x: np.ndarray) -> ModelOutputs:
    """Run the network on a batch of ``plan.rows`` rows, into the plan's
    buffers; returns the plan's outputs.

    ``x`` is a float64 (n, input_dim) array. Rows are independent (layer
    norm acts per row), so splitting a batch into blocks of rows changes
    no result beyond rounding; not always bit for bit, since BLAS picks its
    matrix-product kernels by shape (by the row count too).
    """
    plan.x = x
    eps, slope = plan.config.ln_eps, plan.config.leaky_slope
    for layer in plan.layers:
        p = layer.get(params)
        linear_forward(x if layer.x is None else layer.x, p[0], p[1], out=layer.z)
        if layer.key is None:
            layer_norm_forward(layer.z, p[2], p[3], eps, out=layer.y, xhat=layer.z,
                               inv_std=layer.inv)
            leaky_relu_forward(layer.y, slope, out=layer.h)
        elif layer.act is not None:
            sigmoid_forward(layer.z, out=layer.act)
    return plan.outputs


def backward(params: Params, plan: StepPlan, d_outputs: dict, grads: Params) -> Params:
    """Gradients for every parameter given output-side gradients.

    ``d_outputs`` maps each name in HEAD_OUTPUTS to an array shaped like
    that output (``plan.d_outputs`` holds such buffers). The layers of
    ``plan``'s last ``forward`` are walked in reverse: each head from its
    output layer down, then the trunk from the top with the sum of the
    heads' input gradients. Every gradient is written into ``grads`` (from
    ``init_grads``), which is returned.
    """
    slope = plan.config.leaky_slope
    for layer in reversed(plan.layers):
        p, dp = layer.get(params), layer.get(grads)
        if layer.key is None:
            if layer is plan.trunk_top:
                np.add.reduce(plan.head_dx, axis=0, out=layer.g, initial=0.0)
            dy = leaky_relu_backward(layer.y, layer.g, slope, out=layer.s)
            layer_norm_backward(dy, layer.z, layer.inv, p[2], dp[2], dp[3], out=dy,
                                scratch=layer.g)
        else:
            dy = d_outputs[layer.key]
            if layer.act is not None:
                dy = sigmoid_backward(layer.act, dy, out=layer.s)
        linear_backward(plan.x if layer.x is None else layer.x, p[0], dy, dp[0], dp[1],
                        layer.dx, layer.dx is not None)
    return grads


# -- inference --------------------------------------------------------------


@dataclass(frozen=True)
class PredictionSet:
    emotion: np.ndarray       # (n, emotion_out), in [0, 1] under sigmoid
    age_years: np.ndarray     # (n,), de-standardized
    country: np.ndarray       # (n,), int class ids; argmax ties -> lowest id


PREDICT_ROWS = 128  # rows of every forward pass of ``predict``


def predict(params: Params, config: ModelConfig, x, age_scaler,
            out: np.ndarray | None = None, standardizer=None) -> PredictionSet:
    """Inference: emotion vector, age in years, and country class per row.

    ``x`` is an (n, input_dim) array, a FileRows, a CsvRows (read once, in
    order) or a SplitPart (which standardizes the rows it takes).
    ``forward`` runs on blocks of exactly PREDICT_ROWS rows, so every row goes
    through the same matrix-product kernels and its outputs have the same bits
    whatever rows come with it. A block's k rows are taken, in order, into the
    first rows of ``out``, if it holds PREDICT_ROWS rows, else of a buffer that
    predict makes, and ``standardizer``, if given, is applied to them there;
    the rest of the block is zeroed, not standardized, and its outputs are
    dropped. Besides that buffer and its result arrays, predict holds one
    inference StepPlan of PREDICT_ROWS rows, without gradient buffers.

    ``age_scaler``, the age target's one-column Standardizer, gives years
    through ``invert``. Country is the argmax of the logits; numpy argmax
    resolves ties toward the lowest class index. ``params`` in another
    layout than ``param_shapes`` raise ShapeError.
    """
    if getattr(params, "layout", ()) != param_shapes(config):
        raise ShapeError("parameter layout", getattr(params, "layout", ()), param_shapes(config))
    n = len(x)
    if out is None or len(out) < PREDICT_ROWS:
        out = np.empty((PREDICT_ROWS, config.input_dim))
    block, plan = out[:PREDICT_ROWS], StepPlan(config, PREDICT_ROWS, backward=False)
    emotion = np.empty((n, config.emotion_out))
    logits = np.empty((n, config.country_out))
    age_scaled = np.empty(n)
    for start in range(0, n, PREDICT_ROWS):
        k = min(PREDICT_ROWS, n - start)
        x.take(np.arange(start, start + k), axis=0, out=block[:k], mode="clip")
        if standardizer is not None:
            standardizer.apply(block[:k], out=block[:k])
        block[k:] = 0.0
        outputs = forward(params, plan, block)
        emotion[start:start + k] = outputs.emotion[:k]
        logits[start:start + k] = outputs.country_logits[:k]
        age_scaled[start:start + k] = outputs.age_scaled[:k, 0]
    country = np.argmax(logits, axis=1).astype(np.int64)
    return PredictionSet(emotion=emotion, age_years=age_scaler.invert(age_scaled),
                         country=country)
