"""Rectangular smoothing kernels and the discretized bandwidth grid.

A kernel with bandwidth h in (0, 1] turns an action a into the uniform
distribution over the metric ball B(a, h); the unsmoothed benchmark at
h = 0 is the mean loss itself (``StochasticEnv.smoothed_policy_losses``).
A kernel's density sup, kappa, acts as the effective number of actions.
Densities and smoothed losses are batch-first, and the one-centre methods
are their one-row cases.  The bandwidth grid holds the multiples of 1/D
that the snapping rule maps arbitrary bandwidths onto; it is kept virtual
because its cardinality grows like D = d * 2^(d+2) * T^2.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import LossFunction
from .spaces import CUBE, RING, ActionSpace


class RectKernel:
    """Uniform-over-ball smoothing kernel on an action space."""

    def __init__(self, space: ActionSpace, h: float):
        if not 0.0 < h <= 1.0:
            raise ValueError("bandwidth must lie in (0, 1]")
        self.space = space
        self.h = float(h)

    def __repr__(self) -> str:
        return f"RectKernel({self.space!r}, h={self.h})"

    def density(self, center, a) -> float:
        return float(self.densities(np.asarray(center, dtype=float)[None],
                                    np.asarray(a, dtype=float)[None])[0])

    def densities(self, centers: np.ndarray, a) -> np.ndarray:
        """Density at one action per round of each of that round's centres.

        Shapes as in ``ActionSpace.distances``: centres (n,) or (n, k), plus
        a trailing d on the cube, against actions (n,) or (n, d); the result
        is (n,) or (n, k).
        """
        dist = self.space.distances(centers, a)
        if self.space.kind == RING:
            return np.where(dist <= self.h, 1.0 / min(1.0, 2.0 * self.h), 0.0)
        vols = self.space.ball_volumes(centers, self.h)
        return np.where(dist <= self.h, 1.0 / vols, 0.0)

    def kappa(self) -> float:
        """sup over centers and points of the kernel density."""
        if self.space.kind == RING:
            return 1.0 / min(1.0, 2.0 * self.h)
        return min(1.0, self.h) ** (-self.space.d)

    def sample(self, center, rng: np.random.Generator):
        """One draw from the kernel centred at ``center``: sample_ball's
        one-row draw, taken on the ring and the 1-d cube as scalar
        ``rng.uniform(lo, hi)`` doubles, ``lo + (hi - lo) * rng.random()``."""
        sp, h = self.space, self.h
        if sp.kind == RING:
            u = -h + (h + h) * rng.random()
            if 2.0 * h >= 1.0:
                return rng.random()
            return (float(center) + u) % 1.0
        if sp.kind == CUBE and sp.d == 1:
            c = float(center)
            lo = max(0.0, c - h)
            return lo + (min(1.0, c + h) - lo) * rng.random()
        out = sp.sample_ball(np.asarray(center, dtype=float)[None], h, rng)[0]
        return float(out) if sp.d == 1 else out

    def smoothed_loss(self, center, loss: LossFunction) -> float:
        """<K_h(center), loss>: the one-centre case of smoothed_losses."""
        return float(self.smoothed_losses(
            np.asarray(center, dtype=float)[None], loss)[0])

    def smoothed_losses(self, centers, loss: LossFunction) -> np.ndarray:
        """<K_h(c), loss>, the mean loss of a draw from B(c, h), for each
        centre c of shape (contexts, k), or (contexts, k, d) on the cube.

        Row i of the centres is scored against row i of a batch-first loss;
        a loss that ignores the context scores any leading shape.
        """
        c = np.asarray(centers, dtype=float)
        sp, h = self.space, self.h
        if sp.d > 1:
            val = loss.integrate_box(np.maximum(0.0, c - h),
                                     np.minimum(1.0, c + h))
            val = val / sp.ball_volumes(c, h)
        else:
            # a ring ball wider than the circle is the whole circle; the
            # parts wrapped below 0 or past 1 are the last two terms
            r = min(h, 0.5) if sp.kind == RING else h
            lo, hi = c - r, c + r
            val = loss.integrate(np.maximum(0.0, lo), np.minimum(1.0, hi))
            if sp.kind == RING:
                val = (val + loss.integrate(lo + 1.0, 1.0)
                       + loss.integrate(0.0, hi - 1.0))
            val = val / sp.ball_volumes(c, h)
        if np.any(val < -1e-9) or np.any(val > 1.0 + 1e-9):
            raise ValueError("loss violated its [0,1] range contract")
        return np.clip(val, 0.0, 1.0)


class BandwidthGrid:
    """Multiples of 1/D with kappa between 1 and 2^(ceil(log2 T)+1).

    D = d * 2^(d+2) * T^2.  The member list is never built: the extremes
    and snapping work from D alone.
    """

    def __init__(self, d: int, T: int):
        if T < 2:
            raise ValueError("horizon must be >= 2")
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.T = T
        self.D = d * 2 ** (d + 2) * T * T
        self.kappa_cap = 2.0 ** (math.ceil(math.log2(T)) + 1)
        # smallest multiple of 1/D with h^(-d) <= kappa_cap
        self.min_h = math.ceil(self.D * self.kappa_cap ** (-1.0 / d)) / self.D

    def __len__(self) -> int:
        return self.D - math.ceil(self.D * self.kappa_cap ** (-1.0 / self.d)) + 1

    def snap(self, h: float) -> float:
        """Largest grid multiple m / D at or below h; keeps kappa within a
        factor 2.  m = floor(h * D) is exact, in integers from h's ratio,
        and m / D rounds to a double that is still at or below h.

        Requires h >= T^(-1/d) (below that the caller should fall back to
        the trivial regret bound).
        """
        if h < self.T ** (-1.0 / self.d) - 1e-12:
            raise ValueError("bandwidth below T^(-1/d); snapping undefined")
        num, den = float(h).as_integer_ratio()
        m = num * self.D // den
        return min(m / self.D, 1.0)
