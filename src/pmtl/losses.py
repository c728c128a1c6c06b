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


def mse_loss(pred: np.ndarray, target: np.ndarray, out=None):
    """Mean over all entries of squared error.

    ``pred`` and ``target`` are float64 arrays of the same shape. Returns
    ``(loss, dpred)`` with ``dpred = 2 (pred - target) / pred.size``, written
    into ``out`` when given. The mean is one sum divided by the count, as in
    ``np.mean``.
    """
    diff = np.subtract(pred, target, out=out)
    loss = float(np.add.reduce(diff * diff, axis=None)) / diff.size
    diff *= 2.0 / diff.size
    return loss, diff


def cross_entropy_loss(logits: np.ndarray, classes: np.ndarray, out=None):
    """Mean negative log-softmax of the true class, max-subtracted for
    stability.

    ``logits`` is a float64 (n, k) array and ``classes`` an (n,) integer
    array of ids in [0, k). Returns ``(loss, dlogits)`` with
    ``dlogits = (softmax - onehot) / n``, written into ``out`` when given:
    the shifted logits, then their exponentials, are scaled in place.
    """
    n = logits.shape[0]
    rows = np.arange(n)
    shifted = np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True), out=out)
    picked = shifted[rows, classes]
    exp = np.exp(shifted, out=shifted)
    total = np.add.reduce(exp, axis=1, keepdims=True)
    picked -= np.log(total[:, 0])
    loss = -float(np.add.reduce(picked)) / n
    exp /= total
    exp[rows, classes] -= 1.0
    exp /= n
    return loss, exp


def combine(l_emotion: float, l_country: float, l_age: float, cfg: LossConfig) -> LossBreakdown:
    """The task losses and their weighted total; a non-finite one is a NumericalError."""
    parts = (l_emotion, l_country, l_age)
    if not all(math.isfinite(v) for v in parts):
        raise NumericalError(f"total_loss: non-finite component losses {parts}")
    w_e, w_c, w_a = cfg.weights()
    return LossBreakdown(*parts, l_emotion * w_e + l_country * w_c + l_age * w_a
                         + cfg.constant_term())
