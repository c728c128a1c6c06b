"""Optimizer behavior, the epoch loop, and run reproducibility."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import pmtl.train
from pmtl.cli import parse_train_config
from pmtl.data import FIT_CHUNK, SynthSpec, standardize, synth_dataset
from pmtl.errors import ConfigError, DataError, NumericalError
from pmtl.losses import LossConfig
from pmtl.metrics import compute_bundle
from pmtl.model import ModelConfig, Params, init_grads, init_params, param_shapes, predict
from pmtl.rng import RngStream
from pmtl.train import (
    ADAM_CHUNK,
    TrainConfig,
    _epoch_pass,
    adam_step,
    evaluate,
    init_adam,
    step_plans,
    train_run,
)


def small_model(input_dim=24):
    return ModelConfig(
        input_dim=input_dim,
        shared_dims=(16, 8),
        age_head_dims=(8, 4),
        emotion_hidden=8,
        country_hidden=8,
    )


def small_train_config(**overrides):
    base = dict(model=small_model(), seed=3, batch_size=8,
                max_epochs=8, patience=8)
    base.update(overrides)
    return TrainConfig(**base)


# -- config -----------------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"batch_size": 0},
    {"learning_rate": 0.0},
    {"learning_rate": -1e-3},
    {"adam_beta1": 1.0},
    {"adam_beta2": 0.0},
    {"adam_eps": 0.0},
    {"max_epochs": 0},
    {"patience": -1},
    {"patience": 9},  # exceeds max_epochs=8
    {"learning_rate": math.nan},
    {"seed": 1.5},
    {"batch_size": 8.5},
    {"max_epochs": 2.5},
    {"patience": True},
    {"learning_rate": True},
    {"seed": None},  # no field takes None
    {"adam_beta1": "0.9"},
])
def test_train_config_validation(overrides):
    with pytest.raises(ValueError):
        small_train_config(**overrides)


def test_train_config_dict_round_trip():
    config = small_train_config(
        loss=LossConfig(alpha_emotion=0.5, alpha_country=0.25, alpha_age=0.1),
        patience=4,
    )
    # the manifest's train_config reads back as a train config
    rebuilt, _ = parse_train_config(json.loads(json.dumps(dataclasses.asdict(config))))
    assert rebuilt == config


def test_patience_zero_allowed():
    config = small_train_config(patience=0)
    assert config.patience == 0


# -- optimizer --------------------------------------------------------------


def test_adam_zero_gradients_are_a_no_op(tiny_config):
    params = init_params(tiny_config, RngStream(0))
    before = {k: v.copy() for k, v in params.items()}
    state = init_adam(params)
    grads = init_grads(tiny_config)
    adam_step(params, grads, state, small_train_config())
    assert state.step == 1
    for name in params:
        assert np.array_equal(params[name], before[name])


def test_adam_first_step_magnitude_near_learning_rate():
    config = small_train_config(learning_rate=0.5)
    params, grads = Params({"w": (1, 2)}), Params({"w": (1, 2)})
    grads["w"][...] = [[10.0, -0.001]]
    state = init_adam(params)
    adam_step(params, grads, state, config)
    # bias correction makes step ~= lr * sign(g) regardless of |g|
    assert params["w"][0, 0] == pytest.approx(-0.5, rel=1e-5)
    assert params["w"][0, 1] == pytest.approx(0.5, rel=1e-2)


def test_adam_converges_on_scalar_quadratic():
    config = small_train_config(learning_rate=0.01)
    params, grads = Params({"w": (1, 1)}), Params({"w": (1, 1)})
    state = init_adam(params)
    for _ in range(2000):
        grads["w"][...] = 2.0 * (params["w"] - 3.0)
        adam_step(params, grads, state, config)
    assert abs(params["w"][0, 0] - 3.0) < 1e-3
    assert state.step == 2000


def test_adam_rejects_non_finite_gradient_naming_tensor():
    config = small_train_config()
    shapes = {"a": (2,), "shared0.w": (2, 2)}
    params, grads = Params(shapes), Params(shapes)
    grads["a"][...] = 1.0
    grads["shared0.w"][1, 0] = np.nan
    state = init_adam(params)
    with pytest.raises(NumericalError, match="shared0.w"):
        adam_step(params, grads, state, config)
    # rejected before any mutation of params or state
    assert state.step == 0
    assert not (params.flat.any() or state.m.any() or state.v.any())


def test_adam_chunked_update_matches_per_tensor_reference():
    # the per-tensor expression of the update is the reference; the flat
    # chunked update must reproduce its bits across chunk boundaries
    config = small_train_config(learning_rate=3e-3)
    shapes = {"big": (3, ADAM_CHUNK // 2 + 5), "small": (7,), "mid": (ADAM_CHUNK - 3,)}
    params, grads = Params(shapes), Params(shapes)
    rng = np.random.default_rng(4)
    params.flat[...] = rng.standard_normal(params.flat.size)
    ref_p = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    state = init_adam(params)
    b1, b2 = config.adam_beta1, config.adam_beta2
    for step in range(1, 4):
        grads.flat[...] = rng.standard_normal(grads.flat.size) * 10.0 ** (step - 2)
        adam_step(params, grads, state, config)
        root_bc2 = math.sqrt(1.0 - b2 ** step)
        alpha = config.learning_rate * root_bc2 / (1.0 - b1 ** step)
        eps_hat = config.adam_eps * root_bc2
        for k, p in ref_p.items():
            g, m, v = grads[k], ref_m[k], ref_v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= m * alpha / (np.sqrt(v) + eps_hat)
    for k in shapes:
        assert params[k].tobytes() == ref_p[k].tobytes(), k


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3])
def test_adam_update_stays_within_ulps_of_textbook_form(scale):
    # the textbook update lr*(m/bc1)/(sqrt(v/bc2)+eps) on the same moments;
    # with eps_hat = eps*sqrt(bc2) the two differ only by rounding, at most
    # 8 and 5.5 units of 2**-53 relative error to first order: under 14 ulps.
    # At scale 1e-9 eps dominates sqrt(v), so a plain eps fails.
    config = small_train_config(learning_rate=1e-3)
    b1, b2, lr, eps = (config.adam_beta1, config.adam_beta2, config.learning_rate,
                       config.adam_eps)
    params, grads = Params({"w": (256,)}), Params({"w": (256,)})
    state = init_adam(params)
    m, v = np.zeros(256), np.zeros(256)
    rng = np.random.default_rng(5)
    for step in range(1, 201):
        grads.flat[...] = (rng.standard_normal(256) + 0.3) * scale
        params.flat[...] = 0.0  # so that params hold minus this step's update
        adam_step(params, grads, state, config)
        m *= b1
        m += (1.0 - b1) * grads.flat
        v *= b2
        v += (1.0 - b2) * grads.flat * grads.flat
        textbook = lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
        ulps = np.abs(-params.flat - textbook) / np.spacing(np.abs(textbook))
        assert ulps.max() <= 14, (step, ulps.max())


def _adam_step_peak(traced_peak, width):
    """Parameter count and traced peak bytes of one ``adam_step`` at ``width``."""
    model = ModelConfig(input_dim=width)
    params, grads = init_params(model, RngStream(0)), init_grads(model)
    grads.flat[...] = np.random.default_rng(1).standard_normal(grads.flat.size)
    state = init_adam(params)
    config = small_train_config(model=model)
    adam_step(params, grads, state, config)  # warm-up, so lazy set-up is not counted
    _, peak = traced_peak(lambda: adam_step(params, grads, state, config))
    return params.flat.size, peak


def test_adam_step_allocates_only_its_chunk_buffers(traced_peak):
    # two chunk-sized scratch buffers and the pre-scan's boolean array: less
    # than one float64 copy of the parameters, so per-tensor temporaries fail
    size, peak = _adam_step_peak(traced_peak, 1024)
    bound = 2 * 8 * ADAM_CHUNK + size + 16384
    assert bound < 8 * size
    assert peak <= bound


def test_adam_finiteness_scan_holds_no_flag_per_parameter(traced_peak):
    # the scan runs before the chunk buffers exist; at width 6373 a flag per
    # parameter (0.8 MB) would outgrow them, the scan's fixed scratch does not
    size, peak = _adam_step_peak(traced_peak, 6373)
    assert peak <= 2 * 8 * ADAM_CHUNK + FIT_CHUNK + 16384 < size


# -- training runs ----------------------------------------------------------


@pytest.fixture(scope="module")
def train_dataset():
    ds = synth_dataset(SynthSpec(n_train=200, n_val=80, dim=24, rank=5, seed=21))
    return standardize(ds, "zscore")


def test_train_run_deterministic(train_dataset):
    config = small_train_config(max_epochs=4, patience=4)
    params_a, hist_a = train_run(config, train_dataset)
    params_b, hist_b = train_run(config, train_dataset)
    for name in params_a:
        assert params_a[name].tobytes() == params_b[name].tobytes()
    assert json.dumps(hist_a.canonical_dict()) == json.dumps(hist_b.canonical_dict())


def test_train_run_seed_changes_results(train_dataset):
    config = small_train_config(max_epochs=2, patience=2)
    params_a, _ = train_run(config, train_dataset)
    params_b, _ = train_run(dataclasses.replace(config, seed=4), train_dataset)
    assert any(not np.array_equal(params_a[k], params_b[k]) for k in params_a)


def test_history_structure(train_dataset):
    config = small_train_config(max_epochs=5, patience=5)
    _, history = train_run(config, train_dataset)
    assert [e.epoch for e in history.epochs] == list(range(1, len(history.epochs) + 1))
    scores = [e.val.score for e in history.epochs]
    assert history.best_val.score == max(scores)
    # ties resolve to the earliest epoch
    assert history.best_epoch == 1 + scores.index(max(scores))
    assert set(history.canonical_dict()) == {
        "initial_val", "epochs", "best_epoch", "best_val", "stopped_early",
    }
    assert history.wall_seconds > 0.0


def test_patience_zero_runs_exactly_one_epoch(train_dataset):
    config = small_train_config(max_epochs=5, patience=0)
    _, history = train_run(config, train_dataset)
    assert len(history.epochs) == 1
    assert history.best_epoch == 1
    assert history.stopped_early


def test_patience_zero_single_epoch_not_early(train_dataset):
    config = small_train_config(max_epochs=1, patience=0)
    _, history = train_run(config, train_dataset)
    assert len(history.epochs) == 1
    assert not history.stopped_early


def test_early_stop_gap_equals_patience():
    # low rank + noise: the score plateaus fast, so patience triggers
    ds = standardize(
        synth_dataset(SynthSpec(n_train=120, n_val=60, dim=24, rank=2, seed=30)),
        "zscore",
    )
    config = small_train_config(max_epochs=40, patience=3, learning_rate=1e-2)
    _, history = train_run(config, ds)
    if history.stopped_early:
        assert len(history.epochs) - history.best_epoch == config.patience
        assert len(history.epochs) < config.max_epochs


@pytest.mark.parametrize("batch_size", [2, 4, 8, 16, 32])
def test_loss_decreases_for_every_batch_size(train_dataset, batch_size):
    config = small_train_config(batch_size=batch_size, max_epochs=8, patience=8,
                                learning_rate=3e-3)
    _, history = train_run(config, train_dataset)
    first = history.epochs[0].train_loss.l_total
    tail = np.median([e.train_loss.l_total for e in history.epochs[-3:]])
    assert tail < first


def test_training_improves_over_untrained(train_dataset):
    config = small_train_config(max_epochs=8, patience=8, learning_rate=3e-3)
    _, history = train_run(config, train_dataset)
    assert history.best_val.score > history.initial_val.score


def test_best_params_reproduce_best_val(train_dataset):
    config = small_train_config(max_epochs=4, patience=4)
    params, history = train_run(config, train_dataset)
    bundle = evaluate(predict(params, config.model, train_dataset.val,
                              train_dataset.age_scaler), train_dataset.val)
    assert bundle.score == history.best_val.score
    assert dataclasses.asdict(bundle) == dataclasses.asdict(history.best_val)


def test_train_run_holds_five_parameter_copies_and_one_batch(traced_peak):
    # params, best params, gradients, two Adam moments and the step plan's
    # batch buffer, which predict reads no array blocks into; the data exists
    # before the run, so it is not counted
    dim = 4096
    ds = standardize(synth_dataset(SynthSpec(n_train=256, n_val=32, dim=dim, rank=4, seed=7)),
                     "zscore")
    config = TrainConfig(model=ModelConfig(input_dim=dim), batch_size=128,
                         max_epochs=4, patience=4, learning_rate=1e-2)
    train_run(config, ds)  # warm-up, so that one-time lazy imports are not counted
    (_, history), peak = traced_peak(lambda: train_run(config, ds))
    assert history.best_epoch > 1  # at least one improving epoch after the first
    param_bytes = 8 * sum(math.prod(shape) for _, shape in param_shapes(config.model))
    assert peak <= 1.1 * (5 * param_bytes + config.batch_size * dim * 8)


def test_epoch_pass_holds_no_copy_of_a_batch(traced_peak):
    # each batch is taken into its step plan's input buffer: with the
    # gradients and step plans that train_run makes for it, the pass
    # allocates less than one (batch, width) array
    dim, batch = 2048, 256
    ds = synth_dataset(SynthSpec(n_train=2 * batch, n_val=8, dim=dim, rank=4, seed=7))
    config = TrainConfig(model=ModelConfig(input_dim=dim), batch_size=batch)
    params = init_params(config.model, RngStream(0))
    adam = init_adam(params)
    y_age_scaled = ds.age_scaler.apply(ds.train.y_age.reshape(-1, 1))
    plans, grads = step_plans(config.model, len(ds.train), batch), init_grads(config.model)
    original = ds.train.rows.copy()

    def one_epoch():
        return _epoch_pass(params, config, plans, grads, ds.train.rows, ds.train.y_emotion,
                           ds.train.y_country, y_age_scaled, RngStream(1), adam)
    one_epoch()  # warm-up, so that one-time lazy imports are not counted
    _, peak = traced_peak(one_epoch)
    assert peak < batch * dim * 8
    assert ds.train.rows.tobytes() == original.tobytes()  # the rows are only read


def test_a_batch_256_step_allocates_no_layer_sized_array(traced_peak):
    # with its step plan, gradients and Adam moments made beforehand, a step
    # allocates small temporaries and Adam's two chunk buffers; it peaked at
    # 3.2 MB when each layer allocated its outputs and caches
    dim, batch = 1024, 256
    ds = synth_dataset(SynthSpec(n_train=batch, n_val=8, dim=dim, rank=4, seed=7))
    config = TrainConfig(model=ModelConfig(input_dim=dim), batch_size=batch)
    params = init_params(config.model, RngStream(0))
    adam = init_adam(params)
    plans, grads = step_plans(config.model, batch, batch), init_grads(config.model)
    y_age_scaled = ds.age_scaler.apply(ds.train.y_age.reshape(-1, 1))

    def one_step():
        return _epoch_pass(params, config, plans, grads, ds.train.rows, ds.train.y_emotion,
                           ds.train.y_country, y_age_scaled, RngStream(1), adam)
    one_step()  # warm-up, so that one-time lazy imports are not counted
    _, peak = traced_peak(one_step)
    assert peak <= 500_000


@pytest.mark.parametrize("how", ["all-epochs", "early-stop", "raises-in-epoch-2"])
def test_train_run_puts_the_train_rows_back(monkeypatch, how):
    # the run only reads the rows: they are in the caller's order while it
    # lasts, and after it, however it ends
    ds = standardize(synth_dataset(SynthSpec(n_train=60, n_val=20, dim=24, rank=4, seed=8)),
                     "zscore")
    before = ds.train.rows.tobytes()
    config = small_train_config(max_epochs=4, patience=0 if how == "early-stop" else 4)
    calls, seen = itertools.count(), []

    def watched_predict(*args):
        seen.append(ds.train.rows.tobytes() != before)
        if how == "raises-in-epoch-2" and next(calls) == 2:  # initial, epoch 1, epoch 2
            raise FloatingPointError("overflow encountered in multiply")
        return predict(*args)
    monkeypatch.setattr(pmtl.train, "predict", watched_predict)
    if how == "raises-in-epoch-2":
        with pytest.raises(NumericalError, match="^epoch 2: overflow"):
            train_run(config, ds)
    else:
        _, history = train_run(config, ds)
        assert history.stopped_early == (how == "early-stop")
    assert seen[1:] and not any(seen)
    assert ds.train.rows.tobytes() == before


def test_overflow_in_the_untrained_validation_reports_epoch_0(train_dataset):
    # the parameters are fresh from init, so only the validation data can
    # overflow: here a standardized value, so the split standardizes no more
    val = train_dataset.val
    val_x = val.take(np.arange(len(val)), axis=0)
    val_x[0, 0] = 1.7e308
    ds = dataclasses.replace(train_dataset, val=dataclasses.replace(val, rows=val_x,
                                                                    standardizer=None))
    with pytest.raises(DataError, match="^epoch 0: overflow encountered in "):
        train_run(small_train_config(), ds)


def test_train_run_rejects_dim_mismatch(train_dataset):
    config = small_train_config(model=small_model(input_dim=10))
    with pytest.raises(ConfigError, match="input_dim"):
        train_run(config, train_dataset)


def test_train_run_rejects_unlabeled_val(train_dataset):
    stripped = dataclasses.replace(
        train_dataset,
        val=dataclasses.replace(train_dataset.val, y_emotion=None,
                                y_age=None, y_country=None),
    )
    with pytest.raises(DataError, match="labeled"):
        train_run(small_train_config(), stripped)


def test_non_finite_forward_reports_epoch(train_dataset):
    poisoned_x = train_dataset.train.rows.copy()
    poisoned_x[0, 0] = np.inf
    poisoned = dataclasses.replace(
        train_dataset,
        train=dataclasses.replace(train_dataset.train, rows=poisoned_x),
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="epoch 1"):
            train_run(small_train_config(max_epochs=3, patience=3), poisoned)


# -- evaluation -------------------------------------------------------------


def test_evaluate_composes_predict_and_metrics(train_dataset):
    config = small_model()
    params = init_params(config, RngStream(7))
    split = train_dataset.val
    preds = predict(params, config, split.rows, train_dataset.age_scaler)
    bundle = evaluate(preds, split)
    direct = compute_bundle(
        pred_emotion=preds.emotion,
        true_emotion=split.y_emotion,
        pred_country=preds.country,
        true_country=split.y_country,
        pred_age_years=preds.age_years,
        true_age_years=split.y_age,
    )
    assert dataclasses.asdict(bundle) == dataclasses.asdict(direct)


def test_evaluate_is_pure(train_dataset):
    config = small_model()
    params = init_params(config, RngStream(7))
    preds = predict(params, config, train_dataset.val.rows, train_dataset.age_scaler)
    a = evaluate(preds, train_dataset.val)
    b = evaluate(preds, train_dataset.val)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
