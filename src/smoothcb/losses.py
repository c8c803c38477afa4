"""Loss functions mapping the action space to [0,1].

Piecewise-constant and piecewise-linear losses over 1-d spaces carry explicit
breakpoints, so integrals against rectangular kernels are exact interval
arithmetic.  The cube in d >= 2 gets separable per-coordinate products, and
anything else falls back to a range-checked callable integrated by adaptive
quadrature.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
from scipy import integrate as _sciint

_RANGE_TOL = 1e-12


class LossFunction:
    """Base class.  Subclasses implement __call__ and integrate."""

    #: breakpoints of the 1-d representation, or None
    breakpoints: Optional[np.ndarray] = None

    def __call__(self, a):
        raise NotImplementedError

    def integrate(self, lo: float, hi: float) -> float:
        """Exact integral of the loss over [lo, hi] subset of [0,1]."""
        raise NotImplementedError

    def integrate_intervals(self, intervals) -> float:
        return sum(self.integrate(lo, hi) for lo, hi in intervals)


def _check_range(values) -> None:
    v = np.asarray(values, dtype=float)
    if v.size and (v.min() < -_RANGE_TOL or v.max() > 1.0 + _RANGE_TOL):
        raise ValueError("loss values must lie in [0,1]")


class PiecewiseConstantLoss(LossFunction):
    """Right-open constant pieces on [0,1].

    ``breaks`` has length K+1 with breaks[0]=0, breaks[-1]=1; ``values`` has
    length K with the value on [breaks[i], breaks[i+1]).  The point a=1 takes
    the last piece's value.  ``special_points`` optionally overrides the
    value at isolated points (measure zero, ignored by integrate).
    """

    def __init__(self, breaks: Sequence[float], values: Sequence[float],
                 special_points: Optional[Dict[float, float]] = None):
        self.breaks = np.asarray(breaks, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        _check_range(self.values)
        self.special_points = dict(special_points or {})
        _check_range(list(self.special_points.values()) or [0.0])
        self.breakpoints = self.breaks

    @staticmethod
    def constant(c: float) -> "PiecewiseConstantLoss":
        return PiecewiseConstantLoss([0.0, 1.0], [c])

    def __call__(self, a):
        if isinstance(a, float) or np.ndim(a) == 0:
            af = float(a)
            if af in self.special_points:
                return self.special_points[af]
            i = int(np.searchsorted(self.breaks, af, side="right")) - 1
            return float(self.values[min(max(i, 0), len(self.values) - 1)])
        arr = np.atleast_1d(np.asarray(a, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, arr, side="right") - 1,
                      0, len(self.values) - 1)
        out = self.values[idx]
        if self.special_points:
            for p, v in self.special_points.items():
                out = np.where(arr == p, v, out)
        return out

    def integrate(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        left = np.maximum(self.breaks[:-1], lo)
        right = np.minimum(self.breaks[1:], hi)
        overlap = np.maximum(0.0, right - left)
        return float(np.dot(overlap, self.values))


class PiecewiseLinearLoss(LossFunction):
    """Continuous piecewise-linear interpolation through knot values."""

    def __init__(self, breaks: Sequence[float], knot_values: Sequence[float],
                 special_points: Optional[Dict[float, float]] = None):
        self.breaks = np.asarray(breaks, dtype=float)
        self.knots = np.asarray(knot_values, dtype=float)
        if len(self.breaks) != len(self.knots):
            raise ValueError("need one knot value per breakpoint")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        _check_range(self.knots)
        self.special_points = dict(special_points or {})
        self.breakpoints = self.breaks

    def __call__(self, a):
        arr = np.atleast_1d(np.asarray(a, dtype=float))
        out = np.interp(arr, self.breaks, self.knots)
        if self.special_points:
            for p, v in self.special_points.items():
                out = np.where(arr == p, v, out)
        return float(out[0]) if np.isscalar(a) or np.asarray(a).ndim == 0 else out

    def integrate(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        # integral of the interpolant = trapezoid rule on the clipped knots
        cuts = np.unique(np.concatenate(
            [[lo, hi], self.breaks[(self.breaks > lo) & (self.breaks < hi)]]))
        vals = np.interp(cuts, self.breaks, self.knots)
        return float(np.trapezoid(vals, cuts))

    def lipschitz_constant(self) -> float:
        slopes = np.diff(self.knots) / np.diff(self.breaks)
        return float(np.max(np.abs(slopes))) if len(slopes) else 0.0


class SeparableProductLoss(LossFunction):
    """Product of per-coordinate 1-d losses on the cube [0,1]^d."""

    def __init__(self, factors: Sequence[LossFunction]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.d = len(self.factors)

    def __call__(self, a):
        arr = np.asarray(a, dtype=float).reshape(-1, self.d)
        out = np.ones(arr.shape[0])
        for i, f in enumerate(self.factors):
            out = out * np.atleast_1d(f(arr[:, i]))
        return float(out[0]) if out.shape[0] == 1 else out

    def integrate_box(self, lo: np.ndarray, hi: np.ndarray) -> float:
        """Exact integral over an axis-aligned box."""
        total = 1.0
        for i, f in enumerate(self.factors):
            total *= f.integrate(float(lo[i]), float(hi[i]))
        return total


class CallableLoss(LossFunction):
    """Arbitrary callable with a [0,1] range contract, quadrature-integrated."""

    def __init__(self, fn: Callable, d: int = 1, tol: float = 1e-9,
                 breakpoints: Optional[Sequence[float]] = None):
        self.fn = fn
        self.d = d
        self.tol = tol
        self.breakpoints = (np.asarray(breakpoints, dtype=float)
                            if breakpoints is not None else None)

    def __call__(self, a):
        out = np.atleast_1d(np.asarray(self.fn(a), dtype=float))
        _check_range(out)
        return float(out[0]) if out.size == 1 else out

    def integrate(self, lo: float, hi: float) -> float:
        if self.d != 1:
            raise ValueError("1-d integrate on a d>1 callable loss")
        if hi <= lo:
            return 0.0
        pts: List[float] = []
        if self.breakpoints is not None:
            pts = [float(b) for b in self.breakpoints if lo < b < hi]
        val, _ = _sciint.quad(self.fn, lo, hi, epsabs=self.tol,
                              points=pts or None, limit=200)
        return val

