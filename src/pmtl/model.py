"""Multitask network: shared trunk plus emotion, country, and age heads.

The trunk applies [linear -> layer norm -> leaky ReLU] once per entry of
``shared_dims`` (default 128 then 64 units). Each head consumes the final
trunk representation through its own hidden block(s) of the same recipe,
then an affine output layer: 10 emotion intensities (optionally squashed
by a sigmoid), 4 country logits, and a single standardized-age value.

The age head has two hidden blocks (32 then 16 units) under the default
``two-layer-age`` variant to step down from the trunk width; the
``one-hidden-all`` variant gives every head exactly one hidden block.

Parameters live in a ``Params`` dict of named float64 tensors that are
views into one contiguous buffer, ``Params.flat``. The buffer holds the
tensors row-major in lexicographic name order, the order of the
checkpoint payload, so a checkpoint is the buffer's bytes and the
optimizer updates every tensor in one pass. The layer plan derived from
ModelConfig fixes the names, the shapes and the initialization draw
order, so a seed fully determines the network.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
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

HEAD_VARIANTS = ("two-layer-age", "one-hidden-all")
EMOTION_ACTIVATIONS = ("sigmoid", "linear")


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
    head_variant: str = "two-layer-age"
    emotion_activation: str = "sigmoid"

    def __post_init__(self):
        dims = (
            (self.input_dim,)
            + tuple(self.shared_dims)
            + tuple(self.age_head_dims)
            + (self.emotion_hidden, self.country_hidden, self.emotion_out, self.country_out)
        )
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        if not self.shared_dims:
            raise ValueError("shared_dims must not be empty")
        if self.head_variant not in HEAD_VARIANTS:
            raise ValueError(f"head_variant must be one of {HEAD_VARIANTS}")
        if self.emotion_activation not in EMOTION_ACTIVATIONS:
            raise ValueError(f"emotion_activation must be one of {EMOTION_ACTIVATIONS}")
        if self.head_variant == "two-layer-age" and len(self.age_head_dims) != 2:
            raise ValueError("two-layer-age needs exactly 2 age_head_dims")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")
        if not self.ln_eps > 0.0:
            raise ValueError(f"ln_eps must be > 0, got {self.ln_eps}")
        object.__setattr__(self, "shared_dims", tuple(int(d) for d in self.shared_dims))
        object.__setattr__(self, "age_head_dims", tuple(int(d) for d in self.age_head_dims))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        for key in ("shared_dims", "age_head_dims"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


class LayerPlan(NamedTuple):
    """Named (d_in, d_out) pairs for every block and output layer."""

    trunk: tuple[tuple[str, int, int], ...]
    emotion_blocks: tuple[tuple[str, int, int], ...]
    emotion_out: tuple[str, int, int]
    country_blocks: tuple[tuple[str, int, int], ...]
    country_out: tuple[str, int, int]
    age_blocks: tuple[tuple[str, int, int], ...]
    age_out: tuple[str, int, int]


@functools.lru_cache(maxsize=64)
def layer_plan(config: ModelConfig) -> LayerPlan:
    trunk = []
    d = config.input_dim
    for i, width in enumerate(config.shared_dims):
        trunk.append((f"shared{i}", d, width))
        d = width

    if config.head_variant == "two-layer-age":
        a0, a1 = config.age_head_dims
        age_blocks = ((f"age_hidden0", d, a0), (f"age_hidden1", a0, a1))
        age_out = ("age_out", a1, 1)
    else:
        a0 = config.age_head_dims[0]
        age_blocks = (("age_hidden0", d, a0),)
        age_out = ("age_out", a0, 1)

    return LayerPlan(
        trunk=tuple(trunk),
        emotion_blocks=(("emotion_hidden", d, config.emotion_hidden),),
        emotion_out=("emotion_out", config.emotion_hidden, config.emotion_out),
        country_blocks=(("country_hidden", d, config.country_hidden),),
        country_out=("country_out", config.country_hidden, config.country_out),
        age_blocks=age_blocks,
        age_out=age_out,
    )


def _iter_layers(plan: LayerPlan):
    """All (name, d_in, d_out, has_norm) in canonical parameter order."""
    for name, d_in, d_out in plan.trunk:
        yield name, d_in, d_out, True
    for name, d_in, d_out in plan.emotion_blocks:
        yield name, d_in, d_out, True
    yield (*plan.emotion_out, False)
    for name, d_in, d_out in plan.country_blocks:
        yield name, d_in, d_out, True
    yield (*plan.country_out, False)
    for name, d_in, d_out in plan.age_blocks:
        yield name, d_in, d_out, True
    yield (*plan.age_out, False)


@functools.lru_cache(maxsize=64)
def param_shapes(config: ModelConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of every parameter tensor, in layer-plan order."""
    shapes = []
    for name, d_in, d_out, has_norm in _iter_layers(layer_plan(config)):
        shapes += [(f"{name}.w", (d_in, d_out)), (f"{name}.b", (d_out,))]
        if has_norm:
            shapes += [(f"{name}.gamma", (d_out,)), (f"{name}.beta", (d_out,))]
    return tuple(shapes)


@functools.lru_cache(maxsize=64)
def _backward_order(config: ModelConfig) -> tuple[str, ...]:
    """Parameter names in the order ``backward`` visits them: each head's
    output layer then its blocks from the top, then the trunk from the
    top. Gradient dicts are keyed in this order, which fixes the
    per-tensor summation order of the global gradient norm."""
    plan = layer_plan(config)
    names = []

    def blocks(chain):
        for name, _, _ in reversed(chain):
            names.extend(f"{name}.{s}" for s in ("gamma", "beta", "w", "b"))

    for chain, (out_name, _, _) in ((plan.emotion_blocks, plan.emotion_out),
                                    (plan.country_blocks, plan.country_out),
                                    (plan.age_blocks, plan.age_out)):
        names += [f"{out_name}.w", f"{out_name}.b"]
        blocks(chain)
    blocks(plan.trunk)
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
            flat = np.zeros(total)
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
    for name, d_in, d_out, has_norm in _iter_layers(layer_plan(config)):
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


class BlockCache(NamedTuple):
    lin: object
    ln: object
    act: object


class ForwardCaches(NamedTuple):
    config: ModelConfig
    trunk: tuple
    emotion: tuple
    country: tuple
    age: tuple
    emotion_sigmoid: object  # None under the linear variant


@dataclass(frozen=True)
class ModelOutputs:
    emotion: np.ndarray        # (n, emotion_out)
    age_scaled: np.ndarray     # (n, 1), standardized scale
    country_logits: np.ndarray  # (n, country_out)


def _block_forward(params, name, x, config):
    h, lin = linear_forward(x, params[f"{name}.w"], params[f"{name}.b"])
    h, ln = layer_norm_forward(h, params[f"{name}.gamma"], params[f"{name}.beta"], config.ln_eps)
    h, act = leaky_relu_forward(h, config.leaky_slope)
    return h, BlockCache(lin, ln, act)


def _chain_forward(params, blocks, out_layer, x, config):
    caches = []
    h = x
    for name, _, _ in blocks:
        h, cache = _block_forward(params, name, h, config)
        caches.append(cache)
    out_name = out_layer[0]
    y, out_cache = linear_forward(h, params[f"{out_name}.w"], params[f"{out_name}.b"])
    return y, (tuple(caches), out_cache)


def forward(params: dict, config: ModelConfig, x: np.ndarray):
    """Run the network on a batch; returns (ModelOutputs, ForwardCaches).

    Rows are independent (layer norm acts per row), so batched and
    row-at-a-time evaluation agree.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ShapeError("model forward input", x.shape, (-1, config.input_dim))
    plan = layer_plan(config)

    h = x
    trunk_caches = []
    for name, _, _ in plan.trunk:
        h, cache = _block_forward(params, name, h, config)
        trunk_caches.append(cache)

    emotion, emotion_cache = _chain_forward(params, plan.emotion_blocks, plan.emotion_out, h, config)
    sig_cache = None
    if config.emotion_activation == "sigmoid":
        emotion, sig_cache = sigmoid_forward(emotion)
    country, country_cache = _chain_forward(params, plan.country_blocks, plan.country_out, h, config)
    age, age_cache = _chain_forward(params, plan.age_blocks, plan.age_out, h, config)

    outputs = ModelOutputs(emotion=emotion, age_scaled=age, country_logits=country)
    caches = ForwardCaches(
        config=config,
        trunk=tuple(trunk_caches),
        emotion=emotion_cache,
        country=country_cache,
        age=age_cache,
        emotion_sigmoid=sig_cache,
    )
    return outputs, caches


# -- backward ---------------------------------------------------------------


def _block_backward(grads, name, cache: BlockCache, dy, input_grad=True):
    dy = leaky_relu_backward(cache.act, dy)
    dy, _, _ = layer_norm_backward(cache.ln, dy, grads[f"{name}.gamma"],
                                   grads[f"{name}.beta"])
    dx, _, _ = linear_backward(cache.lin, dy, grads[f"{name}.w"], grads[f"{name}.b"],
                               input_grad)
    return dx


def _chain_backward(grads, blocks, out_layer, chain_cache, dy):
    block_caches, out_cache = chain_cache
    out_name = out_layer[0]
    dy, _, _ = linear_backward(out_cache, dy, grads[f"{out_name}.w"],
                               grads[f"{out_name}.b"])
    for (name, _, _), cache in zip(reversed(blocks), reversed(block_caches)):
        dy = _block_backward(grads, name, cache, dy)
    return dy


def backward(params: dict, caches: ForwardCaches, d_outputs: dict,
             grads: Params | None = None) -> Params:
    """Gradients for every parameter given output-side gradients.

    ``d_outputs`` maps each of "emotion", "age_scaled", "country_logits"
    to an array shaped like the corresponding output. The trunk gradient
    is the sum of the three head contributions. Every gradient is written
    into ``grads`` (from ``init_grads``), which is allocated when not
    given; the weights come from ``caches``.
    """
    config = caches.config
    plan = layer_plan(config)
    if grads is None:
        grads = init_grads(config)

    n = caches.trunk[0].lin.x.shape[0]
    d_shared = np.zeros((n, plan.trunk[-1][2]))
    heads = (
        ("emotion", config.emotion_out, plan.emotion_blocks, plan.emotion_out, caches.emotion),
        ("country_logits", config.country_out, plan.country_blocks, plan.country_out,
         caches.country),
        ("age_scaled", 1, plan.age_blocks, plan.age_out, caches.age),
    )
    for key, width, blocks, out_layer, chain_cache in heads:
        dy = d_outputs[key]
        if np.shape(dy) != (n, width):
            raise ShapeError(f"backward {key}", np.shape(dy), (n, width))
        if key == "emotion" and caches.emotion_sigmoid is not None:
            dy = sigmoid_backward(caches.emotion_sigmoid, dy)
        d_shared += _chain_backward(grads, blocks, out_layer, chain_cache, dy)

    dy = d_shared
    first = plan.trunk[0][0]
    for (name, _, _), cache in zip(reversed(plan.trunk), reversed(caches.trunk)):
        dy = _block_backward(grads, name, cache, dy, input_grad=name != first)
    return grads


# -- inference --------------------------------------------------------------


@dataclass(frozen=True)
class PredictionSet:
    emotion: np.ndarray       # (n, emotion_out), in [0, 1] under sigmoid
    age_years: np.ndarray     # (n,), de-standardized
    country: np.ndarray       # (n,), int class ids; argmax ties -> lowest id


def predict(params: dict, config: ModelConfig, x: np.ndarray, age_scaler) -> PredictionSet:
    """Inference: emotion vector, age in years, and country class per row.

    ``age_scaler`` maps the standardized age output back to years via its
    ``descale`` method. Country is the argmax of the logits; numpy argmax
    resolves ties toward the lowest class index.
    """
    check_params(params, config)
    outputs, _ = forward(params, config, x)
    age_years = age_scaler.descale(outputs.age_scaled[:, 0])
    country = np.argmax(outputs.country_logits, axis=1).astype(np.int64)
    return PredictionSet(emotion=outputs.emotion, age_years=age_years, country=country)
