"""Release gate: one test per shipping criterion.

Every test prints exactly one ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) and enforces the criterion's tolerance and runtime budget.
A red line here means the criterion is genuinely not met; nothing in this
file is allowed to lower a bar to get to green.
"""

import json
import math
import time

import numpy as np

from pmtl.cli import main
from pmtl.data import SynthSpec, standardize, synth_dataset
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
from pmtl.losses import LossConfig, combine, cross_entropy_loss, mse_loss
from pmtl.metrics import ccc, mae, multitask_score, uar
from pmtl.model import ModelConfig, StepPlan, backward, forward, init_grads, init_params
from pmtl.rng import RngStream
from pmtl.sweep import SweepSpec, report_markdown, run_sweep, sidecar_csv
from pmtl.train import TrainConfig, train_run

# Published validation scores for nine upstream acoustic feature sets:
# (name, mean CCC, UAR, inverted MAE, combined score). The combined-score
# column must be reproducible from the three components at 3-decimal
# rounding tolerance.
PUBLISHED_ROWS = (
    ("ComParE", 0.416, 0.506, 0.237, 0.349),
    ("eGeMAPS", 0.353, 0.423, 0.249, 0.324),
    ("BoAW-125", 0.335, 0.417, 0.234, 0.311),
    ("BoAW-250", 0.354, 0.423, 0.238, 0.319),
    ("BoAW-500", 0.374, 0.432, 0.218, 0.314),
    ("BoAW-1000", 0.384, 0.438, 0.225, 0.321),
    ("DeepSpec", 0.369, 0.456, 0.227, 0.322),
    ("w2v2-R-er", 0.533, 0.523, 0.252, 0.386),
    ("w2v2-R-vad", 0.534, 0.525, 0.253, 0.388),
)


def finish(name, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        failures = list(failures) + [f"runtime {elapsed:.1f}s >= budget {budget:.0f}s"]
    status = "PASS" if not failures else "FAIL"
    detail = "; ".join(failures) if failures else f"{elapsed:.1f}s"
    print(f"[{status}] {name} ({detail})", flush=True)
    assert not failures, f"{name}: {detail}"


# -- independent oracle for criterion 4 (built before any model training) ---
#
# Closed-form baselines with no dependency on the network, optimizer, or
# backprop code: ridge regression for the two regression tasks and a
# nearest-centroid rule for country. The trained network must reach at
# least 0.9x this oracle's combined score.


def _ridge(x_train, y_train, x_eval, lam=1e-2):
    xb = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
    w = np.linalg.solve(xb.T @ xb + lam * np.eye(xb.shape[1]), xb.T @ y_train)
    return np.hstack([x_eval, np.ones((x_eval.shape[0], 1))]) @ w


def _nearest_centroid(x_train, labels_train, x_eval, n_classes=4):
    centroids = np.stack([
        x_train[labels_train == c].mean(axis=0) for c in range(n_classes)
    ])
    d2 = ((x_eval[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def oracle_scores(ds):
    """Combined score of the closed-form baseline on the validation split."""
    emotion = np.clip(_ridge(ds.train.rows, ds.train.y_emotion, ds.val.rows), 0.0, 1.0)
    age = _ridge(ds.train.rows, ds.train.y_age.astype(float).reshape(-1, 1),
                 ds.val.rows).ravel()
    country = _nearest_centroid(ds.train.rows, ds.train.y_country, ds.val.rows)
    mean_ccc = float(np.mean([
        ccc(emotion[:, j], ds.val.y_emotion[:, j])
        for j in range(emotion.shape[1])
    ]))
    u = uar(country, ds.val.y_country)
    inv_mae = 1.0 / mae(age, ds.val.y_age.astype(float))
    return multitask_score(mean_ccc, u, inv_mae)


# -- criteria ---------------------------------------------------------------


def test_criterion_1_published_score_consistency():
    t0 = time.perf_counter()
    failures = []
    for name, c, u, m, expected in PUBLISHED_ROWS:
        got = multitask_score(c, u, m)
        diff = abs(got - expected)
        if diff > 0.0015:
            failures.append(f"{name}: |{got:.6f} - {expected}| = {diff:.6f} > 0.0015")
    finish("criterion 1: combined score reproduces published rows (+-0.0015)",
           failures, t0, budget=1.0)


def multitask_fd_closure(config, x, y_emotion, y_country, y_age, loss_config):
    w_e, w_c, w_a = loss_config.weights()

    def f(params):
        plan = StepPlan(config, len(x))
        outputs = forward(params, plan, x)
        l_e, g_e = mse_loss(outputs.emotion, y_emotion)
        l_c, g_c = cross_entropy_loss(outputs.country_logits, y_country)
        l_a, g_a = mse_loss(outputs.age_scaled, y_age)
        breakdown = combine(l_e, l_c, l_a, loss_config)
        grads = backward(params, plan, {
            "emotion": g_e * w_e,
            "country_logits": g_c * w_c,
            "age_scaled": g_a * w_a,
        }, init_grads(config))
        return breakdown.l_total, grads

    return f


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6))
    y_emotion = rng.uniform(0.1, 0.9, size=(6, 10))
    y_country = np.array([0, 1, 2, 3, 1, 2])
    y_age = rng.standard_normal((6, 1))
    loss_config = LossConfig()

    # full model, both head variants; FD noise floor keeps tiny-gradient
    # entries from dominating the relative error (see test_model)
    for variant in ("two-layer-age", "one-hidden-all"):
        config = ModelConfig(
            input_dim=6, shared_dims=(5, 4),
            age_head_dims=(3, 2) if variant == "two-layer-age" else (3,),
            emotion_hidden=3, country_hidden=3, head_variant=variant,
        )
        params = init_params(config, RngStream(1))
        f = multitask_fd_closure(config, x, y_emotion, y_country, y_age, loss_config)
        worst = grad_check(f, params, floor=1e-5)
        if worst >= 1e-4:
            failures.append(f"full model {variant}: max rel err {worst:.2e} >= 1e-4")

    # per-layer checks at the tighter bar
    w = rng.standard_normal((4, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    xs = rng.standard_normal((5, 4))
    xs[np.abs(xs) < 0.05] = 0.5  # stay away from the leaky-ReLU kink
    gamma = rng.uniform(0.5, 1.5, size=4)
    beta = rng.standard_normal(4) * 0.1
    c = rng.standard_normal((5, 3))
    c4 = rng.standard_normal((5, 4))

    def check(label, f, params):
        worst = grad_check(f, params)
        if worst >= 1e-5:
            failures.append(f"{label}: max rel err {worst:.2e} >= 1e-5")

    def f_linear(params):
        y = linear_forward(xs, params["w"], params["b"])
        dx, dw, db = linear_backward(xs, params["w"], c)
        return float((y * c).sum()), {"w": dw, "b": db}

    def f_ln(params):
        y, xhat, inv_std = layer_norm_forward(xs, params["gamma"], params["beta"])
        dx, dg, db = layer_norm_backward(c4, xhat, inv_std, params["gamma"])
        return float((y * c4).sum()), {"gamma": dg, "beta": db}

    def f_leaky(params):
        y = leaky_relu_forward(params["x"], 0.01)
        return float((y * c4).sum()), {"x": leaky_relu_backward(params["x"], c4, 0.01)}

    def f_sigmoid(params):
        y = sigmoid_forward(params["x"])
        return float((y * c4).sum()), {"x": sigmoid_backward(y, c4)}

    check("linear", f_linear, {"w": w, "b": b})
    check("layer_norm", f_ln, {"gamma": gamma, "beta": beta})
    check("leaky_relu", f_leaky, {"x": xs.copy()})
    check("sigmoid", f_sigmoid, {"x": xs.copy()})

    finish("criterion 2: finite-difference gradient checks "
           "(full model < 1e-4, per layer < 1e-5)", failures, t0, budget=10.0)


def test_criterion_3_train_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    data = tmp_path / "data"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps(
        {"n_train": 500, "n_val": 125, "dim": 32, "rank": 6, "seed": 7}))
    assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "model": {"shared_dims": [32, 16], "age_head_dims": [8, 4],
                  "emotion_hidden": 8, "country_hidden": 8},
        "seed": 42, "max_epochs": 5, "patience": 5,
    }))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}"
        code = main(["train",
                     "--train-features", str(data / "train_features.csv"),
                     "--val-features", str(data / "val_features.csv"),
                     "--labels", str(data / "labels.csv"),
                     "--config", str(train_cfg), "--out", str(out)])
        if code != 0:
            failures.append(f"train run {run} exited {code}")
        outs.append(out)

    if not failures:
        ck_a = (outs[0] / "checkpoint.pmck").read_bytes()
        ck_b = (outs[1] / "checkpoint.pmck").read_bytes()
        if ck_a != ck_b:
            failures.append("checkpoints differ")
        hist_a = json.loads((outs[0] / "history.json").read_text())["run"]
        hist_b = json.loads((outs[1] / "history.json").read_text())["run"]
        if json.dumps(hist_a, sort_keys=True) != json.dumps(hist_b, sort_keys=True):
            failures.append("run histories differ")

    finish("criterion 3: repeated train runs are bit-identical",
           failures, t0, budget=60.0)


def test_criterion_4_end_to_end_learnability():
    t0 = time.perf_counter()
    failures = []
    ds = standardize(
        synth_dataset(SynthSpec(n_train=2000, n_val=500, dim=64, rank=8, seed=101)),
        "zscore",
    )
    oracle = oracle_scores(ds)  # baseline first, fully closed-form

    config = TrainConfig(model=ModelConfig(input_dim=64))  # defaults: batch 8
    _, history = train_run(config, ds)
    trained = history.best_val.score
    untrained = history.initial_val.score

    if trained < 0.9 * oracle:
        failures.append(f"trained {trained:.4f} < 0.9 x oracle {oracle:.4f}")
    if trained < 2.0 * untrained:
        failures.append(f"trained {trained:.4f} < 2 x untrained {untrained:.4f}")

    finish(f"criterion 4: learns synthetic data "
           f"(trained {trained:.3f}, oracle {oracle:.3f}, untrained {untrained:.3f})",
           failures, t0, budget=120.0)


def check_table_structure(text, n_rows, label):
    failures = []
    lines = text.strip().splitlines()
    if lines[0] != "| cell | ccc | uar | inv_mae | s_mtl | best |":
        failures.append(f"{label}: unexpected header {lines[0]!r}")
    data_rows = lines[2:2 + n_rows]
    if len(lines) != 2 + n_rows:
        failures.append(f"{label}: expected {n_rows} data rows, got {len(lines) - 2}")
    for row in data_rows:
        if row.count("±") != 4:
            failures.append(f"{label}: row missing mean ± std formatting: {row!r}")
            break
    marked = [row for row in data_rows if row.rstrip().endswith("| * |")]
    if len(marked) != 1:
        failures.append(f"{label}: expected exactly one best-marked row, "
                        f"got {len(marked)}")
    return failures


def test_criterion_5_sweep_structure():
    t0 = time.perf_counter()
    failures = []
    ds = standardize(
        synth_dataset(SynthSpec(n_train=120, n_val=48, dim=16, rank=4, seed=17)),
        "zscore",
    )
    base = TrainConfig(
        model=ModelConfig(input_dim=16, shared_dims=(12, 6), age_head_dims=(6, 3),
                          emotion_hidden=6, country_hidden=6),
        seed=42, batch_size=8, max_epochs=2, patience=2,
    )

    seeds = (42, 101, 102, 103, 104, 105, 106)
    seed_table = run_sweep(
        SweepSpec(axis="seed", values=seeds, base=base, runs_per_cell=5), lambda value: ds)
    failures += check_table_structure(report_markdown(seed_table), len(seeds),
                                      "seed table")
    if sidecar_csv(seed_table).count("\n") != 1 + len(seeds) * 5:
        failures.append("seed table: expected 5 recorded runs per cell")

    batches_axis = (2, 4, 8, 16, 32)
    batch_table = run_sweep(
        SweepSpec(axis="batch_size", values=batches_axis, base=base,
                  runs_per_cell=5), lambda value: ds)
    failures += check_table_structure(report_markdown(batch_table),
                                      len(batches_axis), "batch table")
    if sidecar_csv(batch_table).count("\n") != 1 + len(batches_axis) * 5:
        failures.append("batch table: expected 5 recorded runs per cell")

    finish("criterion 5: sweep tables have published structure "
           "(7 seed rows, 5 batch rows, ± columns, best marker)",
           failures, t0, budget=900.0)


def test_criterion_6_metric_properties():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(3)

    x = rng.uniform(0.0, 1.0, size=200)
    y = rng.uniform(0.0, 1.0, size=200)
    if not -1.0 <= ccc(x, y) <= 1.0:
        failures.append("ccc out of [-1, 1]")
    if abs(ccc(x, y) - ccc(y, x)) > 1e-12:
        failures.append("ccc not symmetric")
    if abs(ccc(x, x) - 1.0) > 1e-12:
        failures.append("ccc(x, x) != 1")
    mirrored = 2.0 * x.mean() - x  # reflection about the mean
    if abs(ccc(x, mirrored) + 1.0) > 1e-12:
        failures.append("ccc of mirrored series != -1")

    truth = np.repeat(np.arange(4), 25)
    preds = rng.integers(0, 4, size=100)
    if abs(uar(preds, truth) - uar(np.tile(preds, 3), np.tile(truth, 3))) > 1e-12:
        failures.append("uar changes under duplication")
    if abs(uar(np.zeros(100, dtype=int), truth) - 0.25) > 1e-12:
        failures.append("constant predictor on 4 balanced classes != 0.25")

    for _ in range(50):
        a, b, c = rng.uniform(0.05, 1.5, size=3)
        s = multitask_score(a, b, c)
        if not min(a, b, c) - 1e-12 <= s <= max(a, b, c) + 1e-12:
            failures.append("harmonic mean outside [min, max]")
            break
    if abs(multitask_score(0.3, 0.3, 0.3) - 0.3) > 1e-12:
        failures.append("equal-component fixed point broken")

    zero = combine(0.0, 0.0, 0.0, LossConfig()).l_total
    if abs(zero - 0.5) > 1e-12:
        failures.append(f"zero-loss constant {zero!r} != 0.5")
    base = combine(1.0, 1.0, 1.0, LossConfig()).l_total
    for bump in ((1.1, 1.0, 1.0), (1.0, 1.1, 1.0), (1.0, 1.0, 1.1)):
        if not combine(*bump, LossConfig()).l_total > base:
            failures.append("combined loss not strictly monotone")
            break

    finish("criterion 6: metric property suite", failures, t0, budget=5.0)


def test_criterion_7_loss_weighting_contract():
    t0 = time.perf_counter()
    failures = []
    alphas = (0.34, 0.33, 0.33)
    loss_config = LossConfig(*alphas)
    weights = loss_config.weights()
    for alpha, weight, name in zip(alphas, weights, ("emotion", "country", "age")):
        expected = 1.0 / (2.0 * math.exp(alpha))
        if abs(weight - expected) > 1e-10:
            failures.append(f"{name} weight {weight!r} != 1/(2 exp({alpha}))")

    # d(total)/d(l_i) must equal the task weight exactly (total is linear
    # in the component losses)
    h = 0.5

    def total(*losses):
        return combine(*losses, loss_config).l_total

    sensitivities = (
        (total(1 + h, 1, 1) - total(1 - h, 1, 1)),
        (total(1, 1 + h, 1) - total(1, 1 - h, 1)),
        (total(1, 1, 1 + h) - total(1, 1, 1 - h)),
    )
    for slope_2h, weight in zip(sensitivities, weights):
        if abs(slope_2h / (2 * h) - weight) > 1e-10:
            failures.append("loss sensitivity differs from task weight")

    # shared-trunk gradients: the combined backward pass decomposes into
    # the per-task passes scaled by exactly these weights
    config = ModelConfig(input_dim=6, shared_dims=(5, 4), age_head_dims=(3, 2),
                         emotion_hidden=3, country_hidden=3)
    params = init_params(config, RngStream(5))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 6))
    plan = StepPlan(config, len(x))
    outputs = forward(params, plan, x)
    _, g_e = mse_loss(outputs.emotion, rng.uniform(0.1, 0.9, size=(8, 10)))
    _, g_c = cross_entropy_loss(outputs.country_logits,
                                np.array([0, 1, 2, 3, 0, 1, 2, 3]))
    _, g_a = mse_loss(outputs.age_scaled, rng.standard_normal((8, 1)))
    zero = {"emotion": np.zeros_like(g_e),
            "country_logits": np.zeros_like(g_c),
            "age_scaled": np.zeros_like(g_a)}
    unit = []
    for key, g in (("emotion", g_e), ("country_logits", g_c), ("age_scaled", g_a)):
        d = {k: v.copy() for k, v in zero.items()}
        d[key] = g
        unit.append(backward(params, plan, d, init_grads(config)))
    combined = backward(params, plan, {
        "emotion": g_e * weights[0],
        "country_logits": g_c * weights[1],
        "age_scaled": g_a * weights[2],
    }, init_grads(config))
    for tensor in ("shared0.w", "shared0.b", "shared1.w"):
        expected = sum(w * u[tensor] for w, u in zip(weights, unit))
        err = np.abs(combined[tensor] - expected).max()
        scale = max(np.abs(expected).max(), 1.0)
        if err / scale > 1e-10:
            failures.append(
                f"trunk gradient {tensor} off by relative {err / scale:.2e}")

    finish("criterion 7: per-task gradient weighting is 1/(2 exp(alpha))",
           failures, t0, budget=5.0)
