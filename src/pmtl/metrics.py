"""Evaluation metrics for the three tasks and their combined score.

Emotion intensities are scored with the concordance correlation
coefficient (CCC) averaged over the ten emotion columns, country with
unweighted average recall (UAR), and age with mean absolute error, which
is inverted (1/MAE) so that higher is better for every task. The single
summary number is the harmonic mean of (mean CCC, UAR, 1/MAE).

Degenerate cases never produce NaN: a CCC with a vanishing denominator
scores 0 and is flagged, and a non-positive harmonic-mean component maps
the combined score to 0 with a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import COUNTRIES
from .errors import DataError, MissingClassError, MomentOverflowError

CCC_DEGENERATE_DENOM = 1e-12


def _as_series(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64).reshape(-1)


def ccc_detail(x, y, name: str = "ccc") -> tuple[float, bool]:
    """CCC of two equal-length series, plus a degeneracy flag.

    CCC = 2*cov(x,y) / (var(x) + var(y) + (mean(x) - mean(y))^2) with
    population (1/n) moments. A denominator below 1e-12 (both series
    constant and equal means) yields (0.0, True). Moments that overflow
    raise MomentOverflowError; ``name`` heads every error message.
    """
    x = _as_series(x)
    y = _as_series(y)
    n = x.size
    if n < 2:
        raise DataError(f"{name} needs at least 2 points, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
        mx = x.mean()
        my = y.mean()
        dx = x - mx
        dy = y - my
        var_x = float(dx @ dx) / n
        var_y = float(dy @ dy) / n
        cov = float(dx @ dy) / n
        denom = var_x + var_y + (mx - my) ** 2
    if not (math.isfinite(denom) and math.isfinite(cov)):
        raise MomentOverflowError(f"{name}: values too large, moments are not finite")
    if denom < CCC_DEGENERATE_DENOM:
        return 0.0, True
    return 2.0 * cov / denom, False


def ccc(x, y) -> float:
    return ccc_detail(x, y)[0]


def ccc_columns(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CCC of each column pair of two (n, k) arrays and its degeneracy
    flag; a degenerate column scores 0."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    values = np.empty(pred.shape[1])
    degenerate = np.zeros(pred.shape[1], dtype=bool)
    for j in range(pred.shape[1]):
        values[j], degenerate[j] = ccc_detail(pred[:, j], target[:, j], f"ccc of emotion {j}")
    return values, degenerate


def uar(pred_classes, true_classes, n_classes: int = len(COUNTRIES)) -> float:
    """Unweighted average recall of two equal-length class-id series: the
    mean over classes of per-class recall.

    Every class id in [0, n_classes) must occur in ``true_classes``,
    otherwise its recall is undefined and MissingClassError is raised.
    """
    pred = np.asarray(pred_classes).astype(np.int64).reshape(-1)
    true = np.asarray(true_classes).astype(np.int64).reshape(-1)
    masks = [true == c for c in range(n_classes)]
    absent = [c for c, mask in enumerate(masks) if not mask.any()]
    if absent:
        raise MissingClassError(absent)
    return float(np.mean([float(np.mean(pred[mask] == c)) for c, mask in enumerate(masks)]))


def mae(pred, true) -> float:
    """Mean absolute error of two equal-length series."""
    pred = _as_series(pred)
    true = _as_series(true)
    if pred.size == 0:
        raise DataError("mae needs at least 1 point")
    return float(np.mean(np.abs(pred - true)))


def multitask_score(mean_ccc_value: float, uar_value: float, inv_mae_value: float) -> float:
    """Harmonic mean of the three per-task scores.

    Defined for positive components; if any component is <= 0 the score
    is 0 (see ``multitask_score_detail`` for the flag). An infinite
    component simply drops out of the sum of reciprocals; three give +inf.
    """
    return multitask_score_detail(mean_ccc_value, uar_value, inv_mae_value)[0]


def multitask_score_detail(mean_ccc_value: float, uar_value: float,
                           inv_mae_value: float) -> tuple[float, bool]:
    components = (mean_ccc_value, uar_value, inv_mae_value)
    if any(math.isnan(v) for v in components):
        raise ValueError(f"multitask_score: NaN component in {components}")
    if any(v <= 0.0 for v in components):
        return 0.0, True
    reciprocals = sum(1.0 / v for v in components)  # 0 if every component is infinite
    return (3.0 / reciprocals if reciprocals else math.inf), False


@dataclass(frozen=True)
class MetricsBundle:
    """All per-task metrics plus the combined score for one evaluation.

    ``inv_mae`` is +inf when ``mae_years`` is exactly 0 (flagged as
    ``perfect_age_regression``); the harmonic mean then ignores the age
    term. ``flags`` names every degeneracy encountered.
    """

    ccc_per_emotion: tuple[float, ...]
    mean_ccc: float
    uar: float
    mae_years: float
    inv_mae: float
    score: float
    flags: tuple[str, ...] = ()

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsBundle":
        """Inverse of ``dataclasses.asdict`` after a JSON round trip."""
        return cls(**{**d, "ccc_per_emotion": tuple(d["ccc_per_emotion"]),
                      "flags": tuple(d["flags"])})


def compute_bundle(pred_emotion: np.ndarray, true_emotion: np.ndarray, pred_country,
                   true_country, pred_age_years, true_age_years) -> MetricsBundle:
    """Score one prediction set against labels across all three tasks."""
    values, degenerate = ccc_columns(pred_emotion, true_emotion)
    c_hat = float(values.mean())
    u_hat = uar(pred_country, true_country)
    mae_years = mae(pred_age_years, true_age_years)

    flags = [f"ccc_degenerate_column_{j}" for j in np.nonzero(degenerate)[0]]
    if mae_years == 0.0:
        m_hat = math.inf
        flags.append("perfect_age_regression")
    else:
        m_hat = 1.0 / mae_years

    score, nonpositive = multitask_score_detail(c_hat, u_hat, m_hat)
    if nonpositive:
        flags.append("score_nonpositive_component")

    return MetricsBundle(ccc_per_emotion=tuple(values.tolist()), mean_ccc=c_hat, uar=u_hat,
                         mae_years=mae_years, inv_mae=m_hat, score=score, flags=tuple(flags))
