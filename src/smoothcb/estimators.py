"""Importance-weighted loss estimates and the median-of-means aggregator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import RectKernel
from .policies import PolicyClass


@dataclass
class IWSample:
    """One logged interaction: context, action, loss, selection density."""

    x: object
    a: object
    observed_loss: float
    propensity: float

    def __post_init__(self):
        if self.propensity <= 0:
            raise ValueError("propensity must be positive")
        if not 0.0 <= self.observed_loss <= 1.0:
            raise ValueError("observed loss must lie in [0,1]")


def iw_estimate(kernel: RectKernel, pc: PolicyClass, policy_index: int,
                s: IWSample) -> float:
    """Smoothing-aware inverse-propensity estimate of lambda_h(pi).

    Density of the policy's smoothing ball at the logged action, times the
    observed loss, over the logging propensity.  Zero whenever the action
    falls outside the ball; unbiased for lambda_h(pi) when the logging
    density covers the space.
    """
    center = pc.act(policy_index, s.x)
    return kernel.density(center, s.a) * s.observed_loss / s.propensity


def mom_batch_count(delta: float) -> int:
    """k = 5 * ceil(ln(1/delta)) batches."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0,1)")
    return 5 * math.ceil(math.log(1.0 / delta))


def median_of_means(values, delta: float = 0.1, k: int = None):
    """Median of k contiguous equal-batch means, k = 5*ceil(ln(1/delta)).

    Works along the last axis, so a (policies x samples) matrix gets one
    score per row; a 1-d input gives a float.  The caller truncates the
    input to a multiple of k; an explicit k overrides the delta-derived
    count.  For even k the lower median is taken (deterministic tie rule).
    """
    if k is None:
        k = mom_batch_count(delta)
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    if n < k:
        raise ValueError(f"need at least k={k} values")
    if n % k != 0:
        raise ValueError("number of values must be divisible by k")
    means = v.reshape(v.shape[:-1] + (k, -1)).mean(axis=-1)
    means.sort(axis=-1)
    med = means[..., (k - 1) // 2]
    return float(med) if v.ndim == 1 else med


def mom_error_bound(sigma: float, n: int, delta: float) -> float:
    """Deviation bound sigma * sqrt(40 ln(e/delta) / n) holding w.p. 1-delta."""
    return sigma * math.sqrt(40.0 * math.log(math.e / delta) / n)
