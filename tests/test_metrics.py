"""Metrics: CCC/UAR/MAE oracles, harmonic-mean score, degenerate handling."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from pmtl.errors import DataError
from pmtl.metrics import (
    MetricsBundle,
    ccc,
    ccc_columns,
    ccc_detail,
    compute_bundle,
    mae,
    multitask_score,
    multitask_score_detail,
    uar,
)


def ccc_oracle(x, y):
    """Two-pass loop implementation with population moments."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    var_x = sum((v - mx) ** 2 for v in x) / n
    var_y = sum((v - my) ** 2 for v in y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    return 2.0 * cov / (var_x + var_y + (mx - my) ** 2)


def uar_oracle(pred, true, k):
    recalls = []
    for c in range(k):
        hits = sum(1 for p, t in zip(pred, true) if t == c and p == c)
        total = sum(1 for t in true if t == c)
        recalls.append(hits / total)
    return sum(recalls) / k


def test_ccc_matches_loop_oracle(rng_np):
    for _ in range(50):
        n = int(rng_np.integers(2, 40))
        x = rng_np.standard_normal(n) * rng_np.uniform(0.5, 3.0)
        y = x * rng_np.uniform(-1.0, 2.0) + rng_np.standard_normal(n)
        assert ccc(x, y) == pytest.approx(ccc_oracle(x.tolist(), y.tolist()), abs=1e-12)


def test_ccc_perfect_agreement(rng_np):
    x = rng_np.standard_normal(25)
    assert ccc(x, x.copy()) == pytest.approx(1.0, abs=1e-12)


def test_ccc_reversed_monotone_is_minus_one():
    x = np.arange(1.0, 11.0)
    assert ccc(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)


def test_ccc_symmetry_and_range(rng_np):
    for _ in range(50):
        x = rng_np.standard_normal(15)
        y = rng_np.standard_normal(15)
        v = ccc(x, y)
        assert v == pytest.approx(ccc(y, x), abs=1e-14)
        assert -1.0 <= v <= 1.0


def test_ccc_penalizes_scale_and_shift(rng_np):
    x = rng_np.standard_normal(100)
    assert ccc(x, x + 1.0) < 1.0
    assert ccc(x, 2.0 * x) < 1.0
    # shifting further away only hurts
    assert ccc(x, x + 2.0) < ccc(x, x + 1.0)


def test_ccc_degenerate_flag():
    value, degenerate = ccc_detail(np.full(5, 2.0), np.full(5, 2.0))
    assert (value, degenerate) == (0.0, True)
    # constant but different means: denominator is (Δmean)^2, well defined
    value, degenerate = ccc_detail(np.full(5, 2.0), np.full(5, 3.0))
    assert (value, degenerate) == (0.0, False)


def test_ccc_needs_two_points():
    with pytest.raises(DataError, match="^ccc needs at least 2 points, got 1$"):
        ccc(np.array([1.0]), np.array([1.0]))


def test_ccc_overflowing_moments_raise_data_error():
    with pytest.raises(DataError, match="^ccc: values too large, moments are not finite$"):
        ccc_detail(np.full(3, 1e308), np.arange(3.0))
    with pytest.raises(DataError, match="^ccc of emotion 1: values too large"):
        ccc_columns(np.array([[0.0, 1e308], [1.0, -1e308]]), np.eye(2))


def test_mean_ccc_columns(rng_np):
    pred = rng_np.standard_normal((30, 10))
    target = rng_np.standard_normal((30, 10))
    per_col, degenerate = ccc_columns(pred, target)
    for j in range(10):
        assert per_col[j] == pytest.approx(
            ccc_oracle(pred[:, j].tolist(), target[:, j].tolist()), abs=1e-12
        )
    assert not degenerate.any()
    bundle = compute_bundle(pred, target, np.arange(30) % 4, np.arange(30) % 4,
                            np.zeros(30), np.ones(30))
    assert bundle.mean_ccc == pytest.approx(per_col.mean(), abs=1e-14)


def test_uar_confusion_fixture():
    # class recalls: 1.0, 0.5, 1.0, 0.5 -> UAR 0.75
    true = [0, 0, 1, 1, 2, 2, 3, 3]
    pred = [0, 0, 1, 2, 2, 2, 3, 0]
    assert uar(pred, true) == pytest.approx(0.75, abs=1e-12)
    assert uar(pred, true) == pytest.approx(uar_oracle(pred, true, 4), abs=1e-12)


def test_uar_matches_oracle_random(rng_np):
    for _ in range(30):
        true = np.concatenate([np.full(5, c) for c in range(4)])
        pred = rng_np.integers(0, 4, size=20)
        assert uar(pred, true) == pytest.approx(
            uar_oracle(pred.tolist(), true.tolist(), 4), abs=1e-12
        )


def test_uar_duplication_invariance(rng_np):
    true = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    pred = rng_np.integers(0, 4, size=8)
    doubled_true = np.concatenate([true, true])
    doubled_pred = np.concatenate([pred, pred])
    assert uar(pred, true) == pytest.approx(uar(doubled_pred, doubled_true), abs=1e-14)


def test_uar_constant_predictor_balanced():
    true = np.array([0, 1, 2, 3] * 10)
    pred = np.zeros(40, dtype=int)
    assert uar(pred, true) == pytest.approx(0.25, abs=1e-14)


def test_uar_insensitive_to_class_imbalance():
    # recall per class unchanged when one class is oversampled
    true = np.array([0] * 100 + [1, 2, 3])
    pred = np.array([0] * 100 + [1, 2, 3])
    assert uar(pred, true) == 1.0


def test_uar_missing_class():
    with pytest.raises(DataError) as info:
        uar([0, 1, 2], [0, 1, 2])
    assert str(info.value) == "recall undefined: classes (3,) absent from reference labels"
    # labels without a class are bad data: exit code 2
    assert info.value.exit_code == 2


def test_mae_and_inversion():
    assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0, abs=1e-15)
    emotion = np.linspace(0.0, 1.0, 40).reshape(4, 10)
    country = np.arange(4)
    for offset, inverted in ((4.0, 0.25), (0.5, 2.0)):
        bundle = compute_bundle(emotion, emotion, country, country,
                                np.full(4, 30.0 + offset), np.full(4, 30.0))
        assert (bundle.mae_years, bundle.inv_mae) == (offset, inverted)


def test_multitask_score_spec_examples():
    # printed component triples from the feature-comparison fixtures
    assert round(multitask_score(0.534, 0.525, 0.253), 3) == 0.388
    assert round(multitask_score(0.416, 0.506, 0.237), 3) == 0.349


def test_multitask_score_equal_components_fixed_point():
    for v in (0.1, 0.5, 0.737, 3.0):
        assert multitask_score(v, v, v) == pytest.approx(v, abs=1e-14)


def test_multitask_score_bounds(rng_np):
    for _ in range(100):
        c, u, m = rng_np.uniform(0.05, 3.0, size=3)
        s = multitask_score(c, u, m)
        assert min(c, u, m) <= s + 1e-12
        assert s <= max(c, u, m) + 1e-12


def test_multitask_score_dominated_by_weakest():
    # harmonic mean drags toward the smallest component
    assert multitask_score(0.01, 0.9, 0.9) < 0.03


def test_multitask_score_nonpositive_flag():
    assert multitask_score_detail(-0.1, 0.5, 0.5) == (0.0, True)
    assert multitask_score_detail(0.5, 0.0, 0.5) == (0.0, True)


def test_multitask_score_infinite_component_drops_out():
    s = multitask_score(1.0, 1.0, math.inf)
    assert s == pytest.approx(1.5, abs=1e-14)
    assert multitask_score(math.inf, math.inf, math.inf) == math.inf


def test_multitask_score_nan_rejected():
    with pytest.raises(ValueError):
        multitask_score(float("nan"), 0.5, 0.5)


def test_compute_bundle_perfect_predictions(rng_np):
    emotion = rng_np.uniform(0, 1, size=(40, 10))
    country = np.array([0, 1, 2, 3] * 10)
    age = rng_np.uniform(20, 39, size=40)
    bundle = compute_bundle(emotion, emotion.copy(), country, country.copy(),
                            age, age.copy())
    assert bundle.mean_ccc == pytest.approx(1.0, abs=1e-12)
    assert bundle.uar == 1.0
    assert bundle.mae_years == 0.0
    assert bundle.inv_mae == math.inf
    assert "perfect_age_regression" in bundle.flags
    assert bundle.score == pytest.approx(1.5, abs=1e-12)


def test_compute_bundle_degenerate_column_flagged(rng_np):
    emotion = rng_np.uniform(0, 1, size=(20, 10))
    target = emotion.copy()
    emotion[:, 3] = 0.5  # constant prediction matching a constant target
    target[:, 3] = 0.5
    bundle = compute_bundle(emotion, target, np.array([0, 1, 2, 3] * 5),
                            np.array([0, 1, 2, 3] * 5),
                            np.arange(20.0), np.arange(20.0) + 1.0)
    assert "ccc_degenerate_column_3" in bundle.flags
    assert bundle.ccc_per_emotion[3] == 0.0


def test_bundle_dict_round_trip(rng_np):
    emotion = rng_np.uniform(0, 1, size=(20, 10))
    noisy = np.clip(emotion + rng_np.normal(0, 0.1, size=emotion.shape), 0, 1)
    bundle = compute_bundle(emotion, noisy, np.array([0, 1, 2, 3] * 5),
                            np.array([0, 1, 2, 3] * 5),
                            np.arange(20.0), np.arange(20.0) + 2.0)
    assert MetricsBundle.from_dict(json.loads(json.dumps(asdict(bundle)))) == bundle
