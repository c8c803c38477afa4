"""Loss functions mapping the action space to [0,1].

Integrals are batch-first.  Piecewise-constant and piecewise-linear losses
over 1-d spaces keep a prefix table of their exact integral at the
breakpoints, so an interval costs F(hi) - F(lo), and a batch of shifted
copies of one piecewise-linear loss shares its table.  The cube in d >= 2
gets separable per-coordinate products and sums of scaled ones, whose box
integrals are products of the factors' exact 1-d integrals.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

_RANGE_TOL = 1e-12


class LossFunction:
    """Base class.  Subclasses implement __call__, and either integrate or
    _antiderivative(x), the integral over [0, x] with x clipped to [0, 1]."""

    def __call__(self, a):
        raise NotImplementedError

    def integrate(self, lo, hi):
        """Integral over each [lo, hi] within [0, 1], with lo and hi
        broadcast together; an empty interval (hi <= lo) gives 0."""
        F = self._antiderivative
        return np.where(hi > lo, F(hi) - F(lo), 0.0)[()]

    def integrate_intervals(self, intervals) -> float:
        return sum(self.integrate(lo, hi) for lo, hi in intervals)


def _check_range(values) -> None:
    v = np.asarray(values, dtype=float)
    # written so that a NaN fails too
    if v.size and not (v.min() >= -_RANGE_TOL and v.max() <= 1.0 + _RANGE_TOL):
        raise ValueError("loss values must lie in [0,1]")


class PiecewiseConstantLoss(LossFunction):
    """Right-open constant pieces on [0,1].

    ``breaks`` has length K+1 with breaks[0]=0, breaks[-1]=1; ``values`` has
    length K with the value on [breaks[i], breaks[i+1]).  The point a=1 takes
    the last piece's value.
    """

    def __init__(self, breaks: Sequence[float], values: Sequence[float]):
        self.breaks = np.asarray(breaks, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        _check_range(self.values)
        self._F = np.concatenate(
            [[0.0], np.cumsum(np.diff(self.breaks) * self.values)])

    @staticmethod
    def constant(c: float) -> "PiecewiseConstantLoss":
        return PiecewiseConstantLoss([0.0, 1.0], [c])

    def __call__(self, a):
        if isinstance(a, float) or np.ndim(a) == 0:
            i = int(self.breaks.searchsorted(float(a), side="right")) - 1
            return float(self.values[min(max(i, 0), len(self.values) - 1)])
        arr = np.atleast_1d(np.asarray(a, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, arr, side="right") - 1,
                      0, len(self.values) - 1)
        return self.values[idx]

    def _antiderivative(self, x: np.ndarray) -> np.ndarray:
        # F is linear between breakpoints (and np.interp clamps to [0, 1])
        return np.interp(x, self.breaks, self._F)


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
        # range-checked {point: value} overrides, as floats
        self.special_points = {float(p): float(v)
                               for p, v in (special_points or {}).items()}
        _check_range(list(self.special_points.values()))
        self._F = np.concatenate([[0.0], np.cumsum(
            np.diff(self.breaks) * (self.knots[:-1] + self.knots[1:]) / 2.0)])
        # the table as floats, with np.interp's slope on each piece
        self._xs, self._ys = self.breaks.tolist(), self.knots.tolist()
        self._slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(
            self._xs, self._xs[1:], self._ys, self._ys[1:])]

    def __call__(self, a):
        if isinstance(a, float) or np.ndim(a) == 0:
            af = float(a)
            if af in self.special_points:
                return self.special_points[af]
            return self._interp(af)
        arr = np.atleast_1d(np.asarray(a, dtype=float))
        out = np.interp(arr, self.breaks, self.knots)
        if self.special_points:
            for p, v in self.special_points.items():
                out = np.where(arr == p, v, out)
        return out

    def _interp(self, x: float) -> float:
        """``float(np.interp(x, breaks, knots))`` in float arithmetic: NaN
        passes through, x is clamped to the ends, a break gives its knot,
        and otherwise slope * (x - x_j) + y_j on the piece [x_j, x_j+1)."""
        xs, ys = self._xs, self._ys
        if x != x:
            return x
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        j = bisect_right(xs, x) - 1
        if xs[j] == x:
            return ys[j]
        return self._slopes[j] * (x - xs[j]) + ys[j]

    def _antiderivative(self, x: np.ndarray) -> np.ndarray:
        # the table up to the piece holding x, plus a trapezoid within it
        x = np.clip(x, 0.0, 1.0)
        i = np.clip(np.searchsorted(self.breaks, x, side="right") - 1,
                    0, len(self.breaks) - 2)
        inner = (x - self.breaks[i]) * (
            self.knots[i] + np.interp(x, self.breaks, self.knots)) / 2.0
        return self._F[i] + inner

    def lipschitz_constant(self) -> float:
        slopes = np.diff(self.knots) / np.diff(self.breaks)
        return float(np.max(np.abs(slopes))) if len(slopes) else 0.0


class ShiftedLoss(LossFunction):
    """A batch of one base loss under per-row changes of variable.

    Row i is u -> base(scale * u + offsets[i]), for a scale > 0 and offsets
    that keep scale * u + offsets[i] in [0, 1] for u in [0, 1].  The leading
    axis of an argument is the row; its integrals come from the base's
    prefix table, (G(scale * hi + offset) - G(scale * lo + offset)) / scale.
    """

    def __init__(self, base: PiecewiseLinearLoss, scale: float, offsets):
        self.base = base
        self.scale = scale
        self.offsets = np.asarray(offsets, dtype=float)

    def _rows(self, a: np.ndarray) -> np.ndarray:
        """The offsets on a's leading axis, broadcastable against a."""
        return self.offsets.reshape((-1,) + (1,) * max(a.ndim - 1, 0))

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        return self.base(self.scale * a + self._rows(a))

    def integrate(self, lo, hi):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        G, s, off = self.base._antiderivative, self.scale, self._rows(lo)
        return np.where(hi > lo, (G(s * hi + off) - G(s * lo + off)) / s,
                        0.0)


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

    def integrate_box(self, lo: np.ndarray, hi: np.ndarray):
        """Exact integral over each axis-aligned box [lo, hi] of (..., d)."""
        total = 1.0
        for i, f in enumerate(self.factors):
            total = total * f.integrate(lo[..., i], hi[..., i])
        return total


class SeparableSumLoss(LossFunction):
    """Sum of scaled separable products on the cube [0,1]^d.

    ``terms`` is a list of (scale, SeparableProductLoss); a value is the
    sum of scale * product(a), added in the order given, and a box integral
    the same sum of the products' exact box integrals.
    """

    def __init__(self, terms: Sequence[Tuple[float, SeparableProductLoss]]):
        self.terms = list(terms)
        self.d = self.terms[0][1].d

    def __call__(self, a):
        arr = np.asarray(a, dtype=float).reshape(-1, self.d)
        out = sum(s * np.atleast_1d(p(arr)) for s, p in self.terms)
        return float(out[0]) if out.shape[0] == 1 else out

    def integrate_box(self, lo: np.ndarray, hi: np.ndarray):
        return sum(s * p.integrate_box(lo, hi) for s, p in self.terms)
