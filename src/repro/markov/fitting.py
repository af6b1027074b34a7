"""Fitting firing distributions to measured traces.

The paper's models take their delays from measurements (Table VII's
state powers, Table VIII's stage durations).  A user with their own
traces needs the inverse tool: given observed durations, pick and
parameterise a :class:`~repro.core.distributions.FiringDistribution`.

Estimators:

* :func:`fit_exponential` — maximum likelihood (rate = 1/mean).
* :func:`fit_deterministic` — the sample mean (for near-constant data).
* :func:`fit_erlang` — moment matching: ``k = round(1/cv²)`` clamped to
  ≥ 1, rate = k/mean.
* :func:`fit_lognormal` — moment matching via mean and cv.
* :func:`fit_best` — model selection across the above by
  log-likelihood with a small complexity penalty (AIC); near-constant
  samples short-circuit to Deterministic.

No CLI or scenario run calls this module.  It is library API for the
paper's Section V workflow (measure, fit, model, predict), shown end
to end by ``examples/measure_fit_model_predict.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..core.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    FiringDistribution,
    LogNormal,
)

__all__ = [
    "fit_exponential",
    "fit_deterministic",
    "fit_erlang",
    "fit_lognormal",
    "fit_best",
]


def _validate(samples: Sequence[float]) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D sample of at least 2 observations")
    if np.any(arr < 0):
        raise ValueError("durations must be non-negative")
    return arr


def fit_exponential(samples: Sequence[float]) -> Exponential:
    """MLE exponential fit: rate = 1 / sample mean."""
    arr = _validate(samples)
    mean = float(arr.mean())
    if mean <= 0:
        raise ValueError("cannot fit an exponential to all-zero durations")
    return Exponential(1.0 / mean)


def fit_deterministic(samples: Sequence[float]) -> Deterministic:
    """Constant-delay fit: the sample mean."""
    arr = _validate(samples)
    return Deterministic(float(arr.mean()))


def fit_erlang(samples: Sequence[float], max_k: int = 500) -> Erlang:
    """Moment-matched Erlang: shape from the coefficient of variation.

    ``cv² = 1/k`` for Erlang-k, so ``k = round(1/cv²)`` clamped to
    [1, max_k]; the rate then matches the mean.
    """
    arr = _validate(samples)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    if mean <= 0:
        raise ValueError("cannot fit an Erlang to all-zero durations")
    if var <= 0:
        return Erlang.from_mean(max_k, mean)
    cv2 = var / (mean * mean)
    k = int(np.clip(round(1.0 / cv2), 1, max_k))
    return Erlang.from_mean(k, mean)


def fit_lognormal(samples: Sequence[float]) -> LogNormal:
    """Moment-matched log-normal (mean and coefficient of variation)."""
    arr = _validate(samples)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    if mean <= 0 or var <= 0:
        raise ValueError("log-normal fit needs positive mean and variance")
    cv = math.sqrt(var) / mean
    return LogNormal.from_mean_cv(mean, cv)


def _log_likelihood(dist: FiringDistribution, arr: np.ndarray) -> float:
    from scipy import stats as sps

    if isinstance(dist, Exponential):
        return float(np.sum(sps.expon.logpdf(arr, scale=1.0 / dist.rate)))
    if isinstance(dist, Erlang):
        return float(
            np.sum(sps.gamma.logpdf(arr, a=dist.k, scale=1.0 / dist.rate))
        )
    if isinstance(dist, LogNormal):
        positive = arr[arr > 0]
        if positive.size != arr.size:
            return -math.inf
        return float(
            np.sum(
                sps.lognorm.logpdf(
                    positive, s=dist.sigma, scale=math.exp(dist.mu)
                )
            )
        )
    raise TypeError(f"no likelihood for {type(dist).__name__}")


#: Relative spread below which a sample is treated as constant.
_CONSTANT_CV = 1e-3


def fit_best(samples: Sequence[float]) -> FiringDistribution:
    """Pick the best of {Deterministic, Exponential, Erlang, LogNormal}.

    Near-constant samples (cv < 0.1 %) short-circuit to Deterministic;
    the continuous candidates compete by AIC (2·params − 2·logL).
    """
    arr = _validate(samples)
    mean = float(arr.mean())
    if mean <= 0:
        return Deterministic(0.0)
    cv = float(arr.std(ddof=1)) / mean
    if cv < _CONSTANT_CV:
        return fit_deterministic(arr)

    candidates: list[tuple[float, FiringDistribution]] = []
    fitters = (
        (fit_exponential, 1),
        (fit_erlang, 2),
        (fit_lognormal, 2),
    )
    for fitter, n_params in fitters:
        try:
            dist = fitter(arr)
        except ValueError:
            continue
        ll = _log_likelihood(dist, arr)
        if math.isfinite(ll):
            candidates.append((2.0 * n_params - 2.0 * ll, dist))
    if not candidates:
        return fit_deterministic(arr)
    candidates.sort(key=lambda pair: pair[0])
    return candidates[0][1]
