"""A range-checked callable loss integrated by adaptive quadrature: the
reference for losses whose integrals the package computes exactly."""

from typing import Callable

import numpy as np
from scipy import integrate

from smoothcb.losses import LossFunction, _check_range


class CallableLoss(LossFunction):
    """Arbitrary callable with a [0,1] range contract, quadrature-integrated."""

    def __init__(self, fn: Callable, d: int = 1, tol: float = 1e-9):
        self.fn = fn
        self.d = d
        self.tol = tol

    def __call__(self, a):
        out = np.atleast_1d(np.asarray(self.fn(a), dtype=float))
        _check_range(out)
        return float(out[0]) if out.size == 1 else out

    def integrate(self, lo, hi):
        if self.d != 1:
            raise ValueError("1-d integrate on a d>1 callable loss")
        return self.integrate_box(np.asarray(lo, dtype=float)[..., None],
                                  np.asarray(hi, dtype=float)[..., None])

    def integrate_box(self, lo, hi):
        """Integral over each box [lo, hi] of (..., d), box by box."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        out = np.zeros(lo.shape[:-1])
        opts = {"epsabs": self.tol, "limit": 200}
        for i in np.ndindex(out.shape):
            if np.all(hi[i] > lo[i]):
                out[i], _ = integrate.nquad(
                    lambda *a: float(np.atleast_1d(self(np.array(a)))[0]),
                    list(zip(lo[i], hi[i])), opts=opts)
        return out[()]
