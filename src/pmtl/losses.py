"""Per-task losses and their weighted combination.

Emotion and age use mean squared error, country uses cross-entropy. The
total is a fixed homoscedastic-uncertainty weighting: with per-task
coefficients a_i,

    total = sum_i [ L_i / (2 * exp(a_i)) + a_i / 2 ]

The a_i are constants (not trained), so the a_i/2 terms only shift the
reported value; the gradient of the total w.r.t. each task loss is
1 / (2 * exp(a_i)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, check_fields


@dataclass(frozen=True)
class LossConfig:
    alpha_emotion: float = 0.34
    alpha_country: float = 0.33
    alpha_age: float = 0.33

    def __post_init__(self):
        check_fields(self)
        for name, alpha in vars(self).items():  # so 1 / (2 exp(alpha)) is finite, normal, > 0
            if not -700 <= alpha <= 700:
                raise ConfigError(f"{name} must lie in [-700, 700], got {alpha!r}")

    def weights(self) -> tuple[float, float, float]:
        """Multipliers on (emotion, country, age) losses inside the total."""
        return tuple(1.0 / (2.0 * math.exp(a))
                     for a in (self.alpha_emotion, self.alpha_country, self.alpha_age))

    def constant_term(self) -> float:
        return (self.alpha_emotion + self.alpha_country + self.alpha_age) / 2.0


@dataclass(frozen=True)
class LossBreakdown:
    l_emotion: float
    l_country: float
    l_age: float
    l_total: float


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean over all entries of squared error.

    ``pred`` and ``target`` are float64 arrays of the same shape. Returns
    ``(loss, dpred)`` with ``dpred = 2 (pred - target) / pred.size``.
    """
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def cross_entropy_loss(logits: np.ndarray, classes: np.ndarray):
    """Mean negative log-softmax of the true class, max-subtracted for
    stability.

    ``logits`` is a float64 (n, k) array and ``classes`` an (n,) integer
    array of ids in [0, k). Returns ``(loss, dlogits)`` with
    ``dlogits = (softmax - onehot) / n``.
    """
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    softmax = exp / exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    rows = np.arange(n)
    loss = float(-log_probs[rows, classes].mean())
    dlogits = softmax.copy()
    dlogits[rows, classes] -= 1.0
    return loss, dlogits / n


def total_loss(l_emotion: float, l_country: float, l_age: float, cfg: LossConfig) -> float:
    """Weighted sum of the three task losses plus the constant a_i/2 terms."""
    parts = (l_emotion, l_country, l_age)
    if not all(math.isfinite(v) for v in parts):
        raise NumericalError(f"total_loss: non-finite component losses {parts}")
    w_e, w_c, w_a = cfg.weights()
    return l_emotion * w_e + l_country * w_c + l_age * w_a + cfg.constant_term()


def combine(l_emotion: float, l_country: float, l_age: float, cfg: LossConfig) -> LossBreakdown:
    return LossBreakdown(
        l_emotion=l_emotion,
        l_country=l_country,
        l_age=l_age,
        l_total=total_loss(l_emotion, l_country, l_age, cfg),
    )
