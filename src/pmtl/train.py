"""Adam optimizer, epoch loop, and validation-based model selection.

A run is strictly sequential and deterministic: the seed derives two
independent sub-streams (index 0 for parameter init, index 1 for epoch
shuffling) and nothing else consumes randomness. The best parameters by
validation combined score are retained, with ties resolved toward the
earliest epoch, and training stops once the score has not improved for
``patience`` consecutive epochs.

The optimizer is Adam in Kingma & Ba's efficient form: after the moment
updates, ``p -= alpha * m / (sqrt(v) + eps_hat)`` with
``alpha = lr*sqrt(1-b2^t)/(1-b1^t)`` and ``eps_hat = eps*sqrt(1-b2^t)``.
The gradients are a ``Params`` of the parameters' layout and key order, so
the update runs over the two flat buffers side by side; no gradient is
clipped.

The run's wall-clock time in RunHistory is informational only; the
canonical form used for run comparison (``RunHistory.canonical_dict``)
excludes it, since timing can never be bit-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from .data import SplitDataset, SplitPart, all_finite, batches
from .errors import ConfigError, DataError, NumericalError, check_fields
from .losses import LossBreakdown, LossConfig, combine, cross_entropy_loss, mse_loss
from .metrics import MetricsBundle, compute_bundle
from .model import (
    ModelConfig,
    Params,
    PredictionSet,
    StepPlan,
    backward,
    forward,
    init_grads,
    init_params,
    param_shapes,
    params_copy,
    predict,
)
from .rng import RngStream, derive_subseed


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    loss: LossConfig = LossConfig()
    seed: int = 0
    batch_size: int = 8
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_epochs: int = 100
    patience: int = 15

    def __post_init__(self):
        check_fields(self)
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0 <= self.patience <= self.max_epochs:
            raise ConfigError(
                f"patience must lie in [0, max_epochs], got {self.patience}"
            )


# -- optimizer --------------------------------------------------------------

# Elements per pass of the Adam update: a chunk of p, g, m, v and the two
# scratch arrays (6 x 128 KiB) stays in a per-core L2 cache.
ADAM_CHUNK = 16384


@dataclass
class AdamState:
    m: np.ndarray  # first moment, laid out like Params.flat
    v: np.ndarray  # second moment, laid out like Params.flat
    step: int = 0


def init_adam(params: Params) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: Params, grads: Params, state: AdamState, config: TrainConfig):
    """One bias-corrected adaptive-moment update, in place, in Kingma & Ba's
    efficient form (arXiv:1412.6980, section 2).

    ``m = b1*m + (1-b1)*g`` and ``v = b2*v + (1-b2)*g*g``, then
    ``p -= alpha * m / (sqrt(v) + eps_hat)`` at step t, with
    ``alpha = lr*sqrt(1-b2^t)/(1-b1^t)`` and ``eps_hat = eps*sqrt(1-b2^t)``:
    the textbook ``lr*(m/bc1)/(sqrt(v/bc2)+eps)`` rewritten exactly, so only
    rounding differs, with one divide and one square root per element. A
    non-finite gradient raises NumericalError naming its tensor and leaves
    params and state untouched. The update runs over the flat buffers in
    cache-sized chunks."""
    if not all_finite(grads.flat):
        bad = next(name for name in params if not np.isfinite(grads[name]).all())
        raise NumericalError(f"non-finite gradient for tensor {bad!r}")
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    root_bc2 = math.sqrt(1.0 - b2 ** state.step)
    alpha = config.learning_rate * root_bc2 / (1.0 - b1 ** state.step)
    eps_hat = config.adam_eps * root_bc2
    size = params.flat.size
    t_buf = np.empty(min(size, ADAM_CHUNK))
    u_buf = np.empty_like(t_buf)
    for start in range(0, size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        p, g = params.flat[chunk], grads.flat[chunk]
        m, v = state.m[chunk], state.v[chunk]
        t, u = t_buf[:p.size], u_buf[:p.size]
        m *= b1
        np.multiply(g, 1.0 - b1, out=t)
        m += t
        v *= b2
        np.multiply(g, 1.0 - b2, out=t)
        t *= g
        v += t
        np.sqrt(v, out=u)
        u += eps_hat
        np.multiply(m, alpha, out=t)
        t /= u
        p -= t


# -- run records ------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: LossBreakdown
    val: MetricsBundle


@dataclass(frozen=True)
class RunHistory:
    initial_val: MetricsBundle  # untrained (epoch 0) validation metrics
    epochs: tuple[EpochRecord, ...]
    best_epoch: int
    best_val: MetricsBundle
    stopped_early: bool
    wall_seconds: float

    def canonical_dict(self) -> dict:
        """Everything that the determinism contract covers: ``asdict``
        without the wall-clock time."""
        record = asdict(self)
        del record["wall_seconds"]
        return record


# -- evaluation -------------------------------------------------------------


def evaluate(preds: PredictionSet, split: SplitPart) -> MetricsBundle:
    """Score predictions for the rows of a labeled split on all three tasks."""
    return compute_bundle(
        pred_emotion=preds.emotion,
        true_emotion=split.y_emotion,
        pred_country=preds.country,
        true_country=split.y_country,
        pred_age_years=preds.age_years,
        true_age_years=split.y_age,
    )


# -- training ---------------------------------------------------------------


def step_plans(model: ModelConfig, n: int, batch_size: int) -> dict[int, StepPlan]:
    """A StepPlan for each batch size that an epoch over ``n`` rows takes:
    ``batch_size``, and the short last batch, if there is one, within it."""
    full = StepPlan(model, min(batch_size, n))
    plans = {full.rows: full}
    if n > batch_size and n % batch_size:
        plans[n % batch_size] = StepPlan(model, n % batch_size, within=full)
    return plans


def _epoch_pass(params, config: TrainConfig, plans, grads, rows, y_emotion, y_country,
                y_age_scaled, shuffle_rng: RngStream, adam: AdamState) -> LossBreakdown:
    """One epoch of minibatch updates; returns per-sample mean losses.

    ``rows`` (a SplitPart, or an array) takes each batch into the input
    buffer of its plan from ``plans`` (``step_plans``); the step runs in the
    plan's buffers and writes its gradients into ``grads``."""
    n = len(rows)
    w_e, w_c, w_a = config.loss.weights()
    sum_e = sum_c = sum_a = 0.0
    for batch in batches(n, config.batch_size, shuffle_rng):
        plan = plans[batch.size]
        d = plan.d_outputs
        outputs = forward(params, plan,
                          rows.take(batch, axis=0, out=plan.input, mode="clip"))
        l_e, g_e = mse_loss(outputs.emotion, y_emotion[batch], d["emotion"])
        l_c, g_c = cross_entropy_loss(outputs.country_logits, y_country[batch],
                                      d["country_logits"])
        l_a, g_a = mse_loss(outputs.age_scaled, y_age_scaled[batch], d["age_scaled"])
        combine(l_e, l_c, l_a, config.loss)  # raises on non-finite components
        g_e *= w_e
        g_c *= w_c
        g_a *= w_a
        backward(params, plan, d, grads)
        adam_step(params, grads, adam, config)
        frac = batch.size / n
        sum_e += l_e * frac
        sum_c += l_c * frac
        sum_a += l_a * frac
    return combine(sum_e, sum_c, sum_a, config.loss)


def train_run(config: TrainConfig, data: SplitDataset):
    """Full training loop; returns ``(best_params, history)``.

    ``data`` is used as given (``standardize`` first if desired): each
    split's ``take`` reads its rows into a step or predict buffer and
    standardizes them there; the rows themselves are never written. The
    age head learns the train ages through ``data.age_scaler.apply``, and
    ``predict`` inverts it. Randomness: sub-seed 0 of ``config.seed``
    initializes parameters, sub-seed 1 drives every epoch's shuffle;
    identical (config, data) reproduce the history bit for bit, wall-clock
    time aside. The gradients are written into one ``Params`` of the
    parameters' layout. A model whose parameters, optimizer moments, step
    buffers or best-parameter copy do not fit in memory raises ConfigError.
    A floating-point fault raises NumericalError naming its epoch; at epoch
    0, with fresh parameters, it is in the data: DataError, as is a value
    that overflows a split's standardization.
    """
    if not (data.train.labeled and data.val.labeled):
        raise DataError("train and val splits must be labeled")
    if config.model.input_dim != data.dim:
        raise ConfigError(f"model input_dim must be {data.dim} to fit the data, "
                          f"got {config.model.input_dim}")

    t_start = time.perf_counter()
    init_rng = RngStream(derive_subseed(config.seed, 0))
    shuffle_rng = RngStream(derive_subseed(config.seed, 1))
    try:
        params = init_params(config.model, init_rng)
        adam = init_adam(params)
        plans = step_plans(config.model, len(data.train), config.batch_size)
        grads = init_grads(config.model)
        best_params = params_copy(params)
    except MemoryError:
        size = sum(math.prod(shape) for _, shape in param_shapes(config.model))
        raise ConfigError(f"a model of {size:,} parameters does not fit in memory") from None
    y_age_scaled = data.age_scaler.apply(data.train.y_age.reshape(-1, 1))
    batch_buffer = plans[min(config.batch_size, len(data.train))].input  # lent to predict

    records: list[EpochRecord] = []
    best_epoch = 0
    best_score = -math.inf
    stopped_early = False

    for epoch in range(config.max_epochs + 1):  # epoch 0 scores the untrained model
        try:  # a diverging run overflows somewhere before a check sees a non-finite value
            with np.errstate(over="raise", invalid="raise"):
                if epoch:
                    train_loss = _epoch_pass(
                        params, config, plans, grads, data.train, data.train.y_emotion,
                        data.train.y_country, y_age_scaled, shuffle_rng, adam,
                    )
                preds = predict(params, config.model, data.val, data.age_scaler, batch_buffer)
        except (NumericalError, FloatingPointError) as exc:
            raise (NumericalError if epoch else DataError)(f"epoch {epoch}: {exc}") from exc
        val = evaluate(preds, data.val)
        if not epoch:
            initial_val = best_val = val
            continue
        records.append(EpochRecord(epoch=epoch, train_loss=train_loss, val=val))
        if val.score > best_score:  # strict: ties keep the earliest epoch
            best_score = val.score
            best_epoch = epoch
            best_val = val
            np.copyto(best_params.flat, params.flat)
        if epoch - best_epoch >= config.patience:
            stopped_early = epoch < config.max_epochs
            break

    return best_params, RunHistory(
        initial_val=initial_val, epochs=tuple(records), best_epoch=best_epoch, best_val=best_val,
        stopped_early=stopped_early, wall_seconds=time.perf_counter() - t_start)
