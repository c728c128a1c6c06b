"""Central finite-difference gradient checker.

Works on any scalar-valued function of a dict of named float64 tensors
that also returns its analytic gradients. Used by the test suite to
validate every hand-written backward pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError
from .model import Params, params_copy

# Entries whose analytic and numeric magnitudes are both below this floor
# are compared against the floor instead, so FD noise on near-zero
# gradients cannot dominate the reported error.
DENOM_FLOOR = 1e-8


def relative_error(analytic: float, numeric: float, floor: float = DENOM_FLOOR) -> float:
    denom = max(abs(analytic), abs(numeric), floor)
    return abs(analytic - numeric) / denom


def grad_check(
    f: Callable[[dict], tuple[float, dict]],
    params: dict[str, np.ndarray],
    eps: float = 1e-6,
    floor: float = DENOM_FLOOR,
) -> float:
    """Return the worst relative error between analytic and central-difference
    gradients over every entry of every tensor in ``params``.

    ``f(params) -> (loss, grads)`` must be deterministic; ``grads`` mirrors
    the keys and shapes of ``params``. ``f`` sees a copy of ``params``, in
    the same layout if it is a ``Params``; ``params`` is not modified.
    """
    loss, grads = f(params)
    if not np.isfinite(loss):
        raise NumericalError(f"grad_check: loss is not finite ({loss})")
    missing = set(params) - set(grads)
    if missing:
        raise KeyError(f"grad_check: no gradient for {sorted(missing)}")

    work = (params_copy(params) if isinstance(params, Params)
            else {name: np.array(v, dtype=np.float64) for name, v in params.items()})
    worst = 0.0
    for name, tensor in work.items():
        flat = tensor.reshape(-1)
        gflat = np.asarray(grads[name], dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = f(work)
            flat[i] = orig - eps
            lm, _ = f(work)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericalError(
                    f"grad_check: non-finite loss while perturbing {name}[{i}]"
                )
            numeric = (lp - lm) / (2.0 * eps)
            worst = max(worst, relative_error(gflat[i], numeric, floor))
    return worst
