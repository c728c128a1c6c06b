"""Network forward/backward: shapes, determinism, and finite differences."""

import json
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

import pmtl.model
from pmtl.errors import ConfigError
import pmtl.train
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
from pmtl.losses import LossConfig, cross_entropy_loss, mse_loss
from pmtl.model import (
    HEAD_OUTPUTS,
    PREDICT_ROWS,
    ModelConfig,
    Params,
    PredictionSet,
    StepPlan,
    backward,
    forward,
    init_grads,
    init_params,
    layer_plan,
    param_shapes,
    params_copy,
    predict,
)
from pmtl.rng import RngStream


def make_batch(config, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, config.input_dim))
    y_emotion = rng.uniform(0, 1, size=(n, config.emotion_out))
    y_country = rng.integers(0, config.country_out, size=n)
    y_age = rng.standard_normal((n, 1))
    return x, y_emotion, y_country, y_age


def run_forward(params, config, x):
    """``forward`` on a plan of its own for x's rows; returns (outputs, plan)."""
    plan = StepPlan(config, len(x))
    return forward(params, plan, x), plan


def head_grads(outputs, **given):
    """Output gradients for backward: those given, zeros for the other heads."""
    d_outputs = {"emotion": np.zeros_like(outputs.emotion),
                 "country_logits": np.zeros_like(outputs.country_logits),
                 "age_scaled": np.zeros_like(outputs.age_scaled)}
    d_outputs.update(given)
    return d_outputs


def multitask_closure(config, x, y_emotion, y_country, y_age, loss_cfg=LossConfig()):
    """(loss, grads) of the full weighted objective on a fixed batch."""
    w_e, w_c, w_a = loss_cfg.weights()

    def f(params):
        outputs, plan = run_forward(params, config, x)
        l_e, g_e = mse_loss(outputs.emotion, y_emotion)
        l_c, g_c = cross_entropy_loss(outputs.country_logits, y_country)
        l_a, g_a = mse_loss(outputs.age_scaled, y_age)
        loss = l_e * w_e + l_c * w_c + l_a * w_a + loss_cfg.constant_term()
        grads = backward(params, plan, {
            "emotion": g_e * w_e,
            "country_logits": g_c * w_c,
            "age_scaled": g_a * w_a,
        }, init_grads(config))
        return loss, grads

    return f


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(input_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, shared_dims=())
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, head_variant="three-layer")
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, head_variant="two-layer-age", age_head_dims=(8,))
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, head_variant="one-hidden-all", age_head_dims=())
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, emotion_activation="tanh")
    # integer dimensions and real constants; a bool is neither
    for bad in ({"shared_dims": (64.7, 8)}, {"emotion_hidden": 8.5}, {"input_dim": True},
                {"ln_eps": True}, {"leaky_slope": "0.1"}):
        (key, value), = bad.items()
        with pytest.raises(ValueError, match=re.escape(f"{key} must be ") + ".*"
                           + re.escape(f", got {value!r}")):
            ModelConfig(**{"input_dim": 4, **bad})
    # the output widths are those of the labels
    for widths in ((5, 4), (10, 6), (10, 3), (0, 4)):
        with pytest.raises(ConfigError, match=re.escape(
                f"(emotion_out, country_out) must be (10, 4) to fit the labels, got {widths}")):
            ModelConfig(input_dim=4, emotion_out=widths[0], country_out=widths[1])


def test_config_dict_round_trip(tiny_config):
    assert ModelConfig(**json.loads(json.dumps(asdict(tiny_config)))) == tiny_config


def test_default_param_count_pinned():
    # 1024 -> [128, 64] trunk, 32-wide emotion/country heads, [32, 16] age head
    config = ModelConfig(input_dim=1024)
    params = init_params(config, RngStream(0))
    assert params.flat.size == sum(v.size for v in params.values()) == 147311


def test_layer_plan_variants():
    two = ModelConfig(input_dim=6, shared_dims=(5, 4), age_head_dims=(3, 2))
    *_, age = layer_plan(two)
    assert [name for name, _, _, _ in age[:-1]] == ["age_hidden0", "age_hidden1"]
    assert age[-1] == ("age_out", 2, 1, False)
    one = ModelConfig(input_dim=6, shared_dims=(5, 4), age_head_dims=(3,),
                      head_variant="one-hidden-all")
    *_, age = layer_plan(one)
    assert [name for name, _, _, _ in age[:-1]] == ["age_hidden0"]
    assert age[-1] == ("age_out", 3, 1, False)


@pytest.mark.parametrize("variant", ["two-layer-age", "one-hidden-all"])
def test_parameter_orders_pinned(tiny_config, variant):
    # layout order (param_shapes, Params.flat: the stacked head layer's kinds
    # in blocks), which the parameters and the gradients are keyed in too;
    # the checkpoint header lists the names sorted
    age = ["age_hidden0"] + (["age_hidden1"] if variant == "two-layer-age" else [])
    config = ModelConfig(**{**asdict(tiny_config), "head_variant": variant,
                            "age_head_dims": (3, 2)[:len(age)]})

    def block(name):
        return [f"{name}.{s}" for s in ("w", "b", "gamma", "beta")]

    stack = ["emotion_hidden", "country_hidden", "age_hidden0"]
    canonical = (block("shared0") + block("shared1")
                 + [f"{name}.{s}" for s in ("w", "b", "gamma", "beta") for name in stack]
                 + ["emotion_out.w", "emotion_out.b", "country_out.w", "country_out.b"]
                 + sum((block(a) for a in age[1:]), []) + ["age_out.w", "age_out.b"])
    assert [name for name, _ in param_shapes(config)] == canonical
    params, grads = init_params(config, RngStream(8)), init_grads(config)
    assert list(params) == list(grads) == canonical
    assert params.layout == grads.layout == param_shapes(config)
    assert len(canonical) == (30 if variant == "two-layer-age" else 26)


def test_init_bounds_and_determinism(tiny_config):
    p1 = init_params(tiny_config, RngStream(5))
    p2 = init_params(tiny_config, RngStream(5))
    p3 = init_params(tiny_config, RngStream(6))
    assert set(p1) == set(p2)
    for name, v in p1.items():
        assert np.array_equal(v, p2[name]), name
    assert any(not np.array_equal(v, p3[name]) for name, v in p1.items())
    fan_in = {name: d_in for chain in layer_plan(tiny_config)
              for name, d_in, _, _ in chain}
    for name, v in p1.items():
        base = name.rsplit(".", 1)[0]
        kind = name.rsplit(".", 1)[1]
        if kind == "w":
            d_in = fan_in[base]
            assert v.shape[0] == d_in
            assert np.abs(v).max() <= np.sqrt(1.0 / d_in)
            assert np.abs(v).max() > 0
        elif kind == "b" or kind == "beta":
            assert np.array_equal(v, np.zeros_like(v))
        else:  # gamma
            assert np.array_equal(v, np.ones_like(v))


def test_forward_shapes(tiny_config):
    params = init_params(tiny_config, RngStream(0))
    x = np.zeros((7, tiny_config.input_dim))
    outputs, _ = run_forward(params, tiny_config, x)
    assert outputs.emotion.shape == (7, 10)
    assert outputs.country_logits.shape == (7, 4)
    assert outputs.age_scaled.shape == (7, 1)


def test_forward_rows_independent(tiny_config):
    params = init_params(tiny_config, RngStream(2))
    x, *_ = make_batch(tiny_config, 5)
    batched, _ = run_forward(params, tiny_config, x)
    for i in range(5):
        single, _ = run_forward(params, tiny_config, x[i:i + 1])
        assert np.allclose(single.emotion, batched.emotion[i:i + 1], atol=1e-12)
        assert np.allclose(single.country_logits, batched.country_logits[i:i + 1],
                           atol=1e-12)
        assert np.allclose(single.age_scaled, batched.age_scaled[i:i + 1], atol=1e-12)


def test_forward_permutation_equivariant(tiny_config):
    params = init_params(tiny_config, RngStream(2))
    x, *_ = make_batch(tiny_config, 6)
    perm = np.array([3, 0, 5, 1, 4, 2])
    direct, _ = run_forward(params, tiny_config, x[perm])
    base, _ = run_forward(params, tiny_config, x)
    assert np.allclose(direct.emotion, base.emotion[perm], atol=1e-12)


def test_emotion_sigmoid_range(tiny_config):
    params = init_params(tiny_config, RngStream(1))
    x, *_ = make_batch(tiny_config, 20)
    outputs, _ = run_forward(params, tiny_config, x)
    assert np.all((outputs.emotion > 0.0) & (outputs.emotion < 1.0))


def test_linear_emotion_variant_skips_sigmoid(tiny_config):
    linear_cfg = ModelConfig(**{**asdict(tiny_config),
                                "emotion_activation": "linear"})
    params = init_params(tiny_config, RngStream(3))
    x, *_ = make_batch(tiny_config, 8)
    sig_out, _ = run_forward(params, tiny_config, x)
    lin_out, _ = run_forward(params, linear_cfg, x)
    squashed = sigmoid_forward(lin_out.emotion)
    assert np.allclose(squashed, sig_out.emotion, atol=1e-12)


# Central differences at eps=1e-6 carry irreducible cancellation noise of
# about |loss| * 2^-52 / (2 eps) ~ 1e-10 absolute, so entries whose true
# gradient sits below ~1e-5 are noise-bound in the relative comparison.
# The floor reflects that; the age-only test below re-checks the deep
# chain at healthy gradient scales with the strict default floor.
FULL_MODEL_FLOOR = 1e-5


@pytest.mark.parametrize("variant,age_dims", [("two-layer-age", (3, 2)),
                                              ("one-hidden-all", (3,))])
def test_full_model_gradients_fd(variant, age_dims):
    config = ModelConfig(input_dim=6, shared_dims=(5, 4), emotion_hidden=3,
                         country_hidden=3, age_head_dims=age_dims,
                         head_variant=variant)
    params = init_params(config, RngStream(4))
    f = multitask_closure(config, *make_batch(config, 4, seed=1))
    assert grad_check(f, params, floor=FULL_MODEL_FLOOR) < 1e-4


def test_full_model_gradients_fd_linear_emotion():
    config = ModelConfig(input_dim=6, shared_dims=(5, 4), emotion_hidden=3,
                         country_hidden=3, age_head_dims=(3, 2),
                         emotion_activation="linear")
    params = init_params(config, RngStream(4))
    f = multitask_closure(config, *make_batch(config, 4, seed=2))
    assert grad_check(f, params, floor=FULL_MODEL_FLOOR) < 1e-4


def test_age_chain_gradients_absolute_fd():
    # the deep age chain at standard init has entries with tiny gradients,
    # where relative FD comparison is noise-bound; here every age-chain
    # entry is checked in mixed absolute/relative terms instead, down to
    # the FD noise level itself
    config = ModelConfig(input_dim=6, shared_dims=(5, 4), emotion_hidden=3,
                         country_hidden=3, age_head_dims=(3, 2))
    params = init_params(config, RngStream(4))
    x, _, _, y_age = make_batch(config, 4, seed=1)

    def f(p):
        outputs, plan = run_forward(p, config, x)
        loss, grad = mse_loss(outputs.age_scaled, y_age)
        return loss, backward(p, plan, head_grads(outputs, age_scaled=grad),
                             init_grads(config))

    _, grads = f(params)
    eps = 1e-6
    for name in [k for k in params if k.startswith("age")]:
        flat = params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = f(params)
            flat[i] = orig - eps
            lm, _ = f(params)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            assert abs(gflat[i] - numeric) <= 5e-9 + 1e-6 * abs(numeric), (name, i)


def test_backward_zero_fill_for_missing_heads(tiny_config):
    params = init_params(tiny_config, RngStream(6))
    x, y_emotion, y_country, y_age = make_batch(tiny_config, 5)
    outputs, plan = run_forward(params, tiny_config, x)
    _, g_e = mse_loss(outputs.emotion, y_emotion)
    # heads given zero output gradients get zero parameter gradients, also
    # in a reused gradient buffer that holds stale values
    grads = init_grads(tiny_config)
    grads.flat.fill(7.0)
    backward(params, plan, head_grads(outputs, emotion=g_e), grads)
    assert set(grads) == set(params)
    for name, g in grads.items():
        if name.startswith(("country", "age")):
            assert np.array_equal(g, np.zeros_like(g)), name
        elif name.startswith(("shared", "emotion")):
            assert np.abs(g).sum() > 0, name


def test_head_gradients_are_independent(tiny_config):
    # a head's parameter gradients do not depend on the other heads' output
    # gradients; only the trunk sums contributions
    params = init_params(tiny_config, RngStream(7))
    x, y_emotion, y_country, y_age = make_batch(tiny_config, 5)
    outputs, plan = run_forward(params, tiny_config, x)
    _, g_e = mse_loss(outputs.emotion, y_emotion)
    _, g_c = cross_entropy_loss(outputs.country_logits, y_country)
    _, g_a = mse_loss(outputs.age_scaled, y_age)
    full = backward(params, plan, {
        "emotion": g_e, "country_logits": g_c, "age_scaled": g_a,
    }, init_grads(tiny_config))
    only_c = backward(params, plan, head_grads(outputs, country_logits=g_c),
                      init_grads(tiny_config))
    for name in params:
        if name.startswith("country"):
            assert np.allclose(full[name], only_c[name], atol=1e-15), name
    # trunk gradient is the sum of single-head contributions
    only_e = backward(params, plan, head_grads(outputs, emotion=g_e),
                      init_grads(tiny_config))
    only_a = backward(params, plan, head_grads(outputs, age_scaled=g_a),
                      init_grads(tiny_config))
    for name in params:
        if name.startswith("shared"):
            total = only_e[name] + only_c[name] + only_a[name]
            assert np.allclose(full[name], total, atol=1e-12), name


def reference_pass(params, config, x, d_outputs):
    """Outputs and gradients of the network walked one layer at a time
    through the public layer functions, each head on its own chain and no
    buffer reused: the StepPlan without its stacking, gathering or arenas."""
    trunk, *heads = layer_plan(config)
    eps, slope = config.ln_eps, config.leaky_slope
    grads = {}

    def chain_forward(chain, h):
        saved = []
        for name, _, _, has_norm in chain:
            z, norm = linear_forward(h, params[f"{name}.w"], params[f"{name}.b"]), None
            if has_norm:
                norm = layer_norm_forward(z, params[f"{name}.gamma"], params[f"{name}.beta"], eps)
                z = leaky_relu_forward(norm[0], slope)
            saved.append((name, h, norm))
            h = z
        return h, saved

    def chain_backward(saved, dy, input_grad=True):
        for i in reversed(range(len(saved))):
            name, h, norm = saved[i]
            if norm is not None:
                y, xhat, inv_std = norm
                dy = leaky_relu_backward(y, dy, slope)
                dy, grads[f"{name}.gamma"], grads[f"{name}.beta"] = layer_norm_backward(
                    dy, xhat, inv_std, params[f"{name}.gamma"])
            dy, grads[f"{name}.w"], grads[f"{name}.b"] = linear_backward(
                h, params[f"{name}.w"], dy, input_grad=input_grad or i > 0)
        return dy

    h, trunk_saved = chain_forward(trunk, x)
    outputs, d_shared = [], np.zeros_like(h)
    for key, chain in zip(HEAD_OUTPUTS, heads):
        y, saved = chain_forward(chain, h)
        dy = d_outputs[key]
        if key == "emotion" and config.emotion_activation == "sigmoid":
            y = sigmoid_forward(y)
            dy = sigmoid_backward(y, dy)
        outputs.append(y)
        d_shared += chain_backward(saved, dy)
    chain_backward(trunk_saved, d_shared, input_grad=False)
    return outputs, grads


def assert_plan_equals_reference(config, n):
    params = init_params(config, RngStream(n))
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, config.input_dim))
    d_outputs = {"emotion": rng.standard_normal((n, config.emotion_out)),
                 "country_logits": rng.standard_normal((n, config.country_out)),
                 "age_scaled": rng.standard_normal((n, 1))}
    plan = StepPlan(config, n)
    outputs = forward(params, plan, x)
    grads = backward(params, plan, d_outputs, init_grads(config))
    inference = forward(params, StepPlan(config, n, backward=False), x)
    want_outputs, want_grads = reference_pass(params, config, x, d_outputs)
    for key, want in zip(HEAD_OUTPUTS, want_outputs):
        assert getattr(outputs, key).tobytes() == want.tobytes(), (key, n)
        assert getattr(inference, key).tobytes() == want.tobytes(), (key, n)
    assert set(grads) == set(want_grads)
    for name, want in want_grads.items():
        assert grads[name].tobytes() == want.tobytes(), (name, n)


@pytest.mark.parametrize("activation", ["sigmoid", "linear"])
@pytest.mark.parametrize("variant", ["two-layer-age", "one-hidden-all"])
@pytest.mark.parametrize("heads", [(5, 5, 5), (7, 4, 3), None], ids=["5-5-5", "7-4-3", "default"])
@pytest.mark.parametrize("dim", [12, 64])
def test_step_plan_equals_the_layer_walk_bit_for_bit(dim, heads, variant, activation):
    # equal head widths run as one stacked layer, unequal ones each on its own;
    # the row counts cover one row, a few, predict's blocks and a batch of 256
    config = ModelConfig(input_dim=dim, head_variant=variant, emotion_activation=activation)
    if heads is not None:
        e, c, a = heads
        config = ModelConfig(input_dim=dim, shared_dims=(10, 6), emotion_hidden=e,
                             country_hidden=c, head_variant=variant,
                             age_head_dims=(a, 3) if variant == "two-layer-age" else (a,),
                             emotion_activation=activation)
    for n in (1, 7, 8, 128, 200, 255, 256):
        assert_plan_equals_reference(config, n)


def test_step_plan_equals_the_layer_walk_at_the_widest_input():
    assert_plan_equals_reference(ModelConfig(input_dim=6373), 256)


@pytest.mark.parametrize("with_backward", [True, False])
def test_two_plans_do_not_alias_each_others_outputs(tiny_config, with_backward):
    params = init_params(tiny_config, RngStream(3))
    x, *_ = make_batch(tiny_config, 8)
    first, second = (StepPlan(tiny_config, 8, with_backward) for _ in range(2))
    outputs = forward(params, first, x)
    kept = [getattr(outputs, key).copy() for key in HEAD_OUTPUTS]
    other = forward(params, second, x[::-1].copy())
    for key, want in zip(HEAD_OUTPUTS, kept):
        assert getattr(outputs, key).tobytes() == want.tobytes(), key
        assert getattr(other, key).tobytes() == want[::-1].tobytes(), key


def test_a_plan_within_another_shares_its_memory_and_keeps_the_bits(tiny_config):
    # the short last batch of an epoch runs in the memory of the full batch's plan
    params = init_params(tiny_config, RngStream(4))
    x, y_emotion, _, y_age = make_batch(tiny_config, 5)
    full = StepPlan(tiny_config, 8)
    inner, alone = StepPlan(tiny_config, 5, within=full), StepPlan(tiny_config, 5)
    assert len(inner.buffers) == len(full.buffers)
    assert all(np.shares_memory(a, b) for a, b in zip(inner.buffers, full.buffers))
    results = []
    for plan in (inner, alone):
        outputs = forward(params, plan, x)
        d = {"emotion": y_emotion, "country_logits": np.ones_like(outputs.country_logits),
             "age_scaled": y_age}
        grads = backward(params, plan, d, init_grads(tiny_config))
        results.append([getattr(outputs, key).tobytes() for key in HEAD_OUTPUTS]
                       + [g.tobytes() for g in grads.values()])
    assert results[0] == results[1]


def test_params_copy_is_deep(tiny_config):
    params = init_params(tiny_config, RngStream(8))
    clone = params_copy(params)
    clone["shared0.w"][0, 0] += 1.0
    assert params["shared0.w"][0, 0] != clone["shared0.w"][0, 0]
    assert list(clone) == list(params)
    # the copy keeps the layout, also where the keys follow another order
    grads = init_grads(tiny_config)
    grads.flat[...] = np.arange(grads.flat.size)
    for original in (params, grads):
        copy = params_copy(original)
        assert copy.layout == original.layout == param_shapes(tiny_config)
        assert list(copy) == list(original)
        assert copy.flat.tobytes() == original.flat.tobytes()
        assert all(np.shares_memory(v, copy.flat) for v in copy.values())


def test_params_are_views_into_one_buffer_in_layout_order(tiny_config):
    params = init_params(tiny_config, RngStream(8))
    assert isinstance(params, Params)
    assert params.layout == param_shapes(tiny_config)
    assert list(params) == [name for name, _ in param_shapes(tiny_config)]
    ordered = np.concatenate([params[name].reshape(-1) for name, _ in params.layout])
    assert params.flat.tobytes() == ordered.tobytes()
    # each kind of the stacked head layer is one contiguous block, head after head
    heads = ("emotion_hidden", "country_hidden", "age_hidden0")
    for kind in ("w", "b", "gamma", "beta"):
        first = params[f"{heads[0]}.{kind}"]
        start = (first.__array_interface__["data"][0]
                 - params.flat.__array_interface__["data"][0]) // 8
        block = params.flat[start:start + 3 * first.size].reshape(3, *first.shape)
        for i, name in enumerate(heads):
            assert np.shares_memory(block[i], params[f"{name}.{kind}"])
            assert block[i].tobytes() == params[f"{name}.{kind}"].tobytes(), (name, kind)
    params.flat[...] = 0.0
    assert not any(v.any() for v in params.values())


def test_stacked_layer_reads_and_writes_the_flat_buffers(tiny_config):
    # the plan holds no copy of a parameter or a gradient
    params, grads = init_params(tiny_config, RngStream(8)), init_grads(tiny_config)
    x, y_emotion, _, y_age = make_batch(tiny_config, 8)
    outputs, plan = run_forward(params, tiny_config, x)
    backward(params, plan, head_grads(outputs, emotion=y_emotion, age_scaled=y_age), grads)
    stacked, = [layer for layer in plan.layers if layer.z.ndim == 3]
    heads = ("emotion_hidden", "country_hidden", "age_hidden0")
    for tensors, store in ((stacked.get(params), params), (stacked.get(grads), grads)):
        for kind, block in zip(("w", "b", "gamma", "beta"), tensors):
            assert np.shares_memory(block, store.flat)
            for i, name in enumerate(heads):
                assert np.shares_memory(block[i], store[f"{name}.{kind}"])
    assert not any(np.shares_memory(buf, t.flat) for buf in plan.buffers for t in (params, grads))


def test_predict_refuses_params_in_another_layout(tiny_config, age_scaler):
    # filled by name but laid out in reverse: the stacked layer would read
    # the wrong memory
    params = init_params(tiny_config, RngStream(8))
    mislaid = Params(dict(reversed(param_shapes(tiny_config))))
    for name in mislaid:
        mislaid[name][...] = params[name]
    x, *_ = make_batch(tiny_config, 4)
    for bad in (mislaid, dict(params)):
        with pytest.raises(ConfigError, match="parameter layout"):
            predict(bad, tiny_config, x, age_scaler(30.0, 5.0))
    other = ModelConfig(**{**asdict(tiny_config), "emotion_hidden": 4})
    with pytest.raises(ConfigError, match="parameter layout"):
        predict(params, other, x, age_scaler(30.0, 5.0))


def test_predict_shapes_and_descaling(tiny_config, age_scaler):
    params = init_params(tiny_config, RngStream(9))
    x, *_ = make_batch(tiny_config, 12)
    preds = predict(params, tiny_config, x, age_scaler(30.0, 5.0))
    assert preds.emotion.shape == (12, 10)
    assert preds.age_years.shape == (12,)
    assert preds.country.shape == (12,)
    assert preds.country.dtype == np.int64
    assert np.all((preds.country >= 0) & (preds.country < 4))
    outputs, _ = run_forward(params, tiny_config, x)
    assert np.allclose(preds.age_years, outputs.age_scaled[:, 0] * 5.0 + 30.0,
                       atol=1e-12)
    assert np.array_equal(preds.country, np.argmax(outputs.country_logits, axis=1))


GOLDEN_MODEL = ModelConfig(input_dim=12, shared_dims=(10, 6), age_head_dims=(5, 3),
                           emotion_hidden=5, country_hidden=5)


def _prediction_rows(preds, at=slice(None)):
    return [getattr(preds, f.name)[at].tobytes() for f in fields(PredictionSet)]


@pytest.mark.parametrize("config", [ModelConfig(input_dim=16), ModelConfig(input_dim=1024),
                                    GOLDEN_MODEL], ids=["w16", "w1024", "golden"])
def test_a_row_predicts_the_same_bits_whatever_rows_come_with_it(config, age_scaler):
    # Every forward pass has PREDICT_ROWS rows, the last block zero-padded,
    # so no row count picks other BLAS kernels: each row of predict(x[:n])
    # is that row of predict(x), and permuted rows give permuted outputs.
    params = init_params(config, RngStream(4))
    x = np.random.default_rng(2).standard_normal((3200, config.input_dim))
    scaler = age_scaler(29.5, 4.25)
    full = predict(params, config, x, scaler)
    for n in (1, 7, 127, 129, 200, 255, 257, 3000, 3200):
        assert _prediction_rows(predict(params, config, x[:n], scaler)) == \
            _prediction_rows(full, slice(n)), n
    permutation = np.random.default_rng(3).permutation(len(x))
    assert _prediction_rows(predict(params, config, x[permutation], scaler)) == \
        _prediction_rows(full, permutation)


def test_predict_memory_does_not_grow_with_the_rows_beyond_its_outputs(traced_peak, age_scaler):
    config = ModelConfig(input_dim=64)
    params = init_params(config, RngStream(5))
    scaler = age_scaler(30.0, 5.0)
    peaks = {}
    for n in (1000, 16000):
        x = np.random.default_rng(n).standard_normal((n, config.input_dim))
        _, peaks[n] = traced_peak(lambda: predict(params, config, x, scaler))
    # per row: emotion, country logits, standardized age, age in years, country id
    outputs = 8 * (config.emotion_out + config.country_out + 3)
    assert peaks[16000] - peaks[1000] <= 1.1 * 15000 * outputs


def test_predict_keeps_the_traced_forward_path(monkeypatch, age_scaler):
    # perfbench's traced runs wrap these names in pmtl.model and need a call of each
    names = ("forward", "linear_forward", "layer_norm_forward", "leaky_relu_forward",
             "sigmoid_forward")
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(pmtl.model, name, counting(name, getattr(pmtl.model, name)))
    config = ModelConfig(input_dim=16)
    x = np.random.default_rng(3).standard_normal((300, config.input_dim))
    predict(init_params(config, RngStream(6)), config, x, age_scaler(30.0, 5.0))
    assert set(calls) == set(names)
    assert calls.count("forward") == -(-300 // PREDICT_ROWS)  # the last block zero-padded


def test_a_training_step_keeps_the_traced_names(monkeypatch, tiny_config):
    # perfbench wraps these names where pmtl.train and pmtl.model look them
    # up; its trace and its call-count pass need a call of each in every step
    traced = {pmtl.train: ("forward", "backward", "mse_loss", "cross_entropy_loss", "combine",
                           "adam_step"),
              pmtl.model: tuple(f"{layer}_{way}" for layer in
                                ("linear", "layer_norm", "leaky_relu", "sigmoid")
                                for way in ("forward", "backward"))}
    calls = set()

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            calls.add(label)
            return fn(*args, **kwargs)
        return wrapper

    for module, names in traced.items():
        for name in names:
            monkeypatch.setattr(module, name, counting((module, name), getattr(module, name)))
    config = pmtl.train.TrainConfig(model=tiny_config, batch_size=8)
    x, y_emotion, y_country, y_age = make_batch(tiny_config, 8)
    params = init_params(tiny_config, RngStream(6))
    pmtl.train._epoch_pass(params, config, pmtl.train.step_plans(tiny_config, 8, 8),
                           init_grads(tiny_config), x, y_emotion, y_country,
                           y_age, RngStream(1), pmtl.train.init_adam(params))
    assert calls == {(module, name) for module, names in traced.items() for name in names}


def test_predict_holds_one_block_and_no_backward_caches(traced_peak, age_scaler):
    config = ModelConfig(input_dim=64)
    params = init_params(config, RngStream(5))
    x = np.random.default_rng(7).standard_normal((1000, config.input_dim))
    _, peak = traced_peak(lambda: predict(params, config, x, age_scaler(30.0, 5.0)))
    # the outputs, then at most four arrays as large as the widest layer of the
    # largest block: no backward caches, and no earlier block still held
    outputs = 8 * len(x) * (config.emotion_out + config.country_out + 3)
    block = 8 * (2 * PREDICT_ROWS - 1) * max(config.shared_dims)
    assert peak <= outputs + 4 * block
