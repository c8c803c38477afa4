"""A batch-first mean loss for test environments over integer contexts."""

import numpy as np

from smoothcb.losses import LossFunction


class ByContext(LossFunction):
    """Row i is losses[xs[i]]: the mean loss of a batch of integer contexts,
    evaluated group by group as the reference for a per-context loss."""

    def __init__(self, losses, xs):
        self.losses = losses
        self.xs = np.asarray(xs).astype(int)

    def _by_row(self, method, *args):
        # the arguments broadcast against the rows on their leading axis
        args = [np.asarray(v, dtype=float) for v in args]
        nd = max(1, *(v.ndim for v in args))
        rows, *args = np.broadcast_arrays(
            self.xs.reshape((-1,) + (1,) * (nd - 1)), *args)
        out = np.empty(rows.shape)
        for c in np.unique(rows):
            sel = rows == c
            out[sel] = getattr(self.losses[c], method)(*(v[sel] for v in args))
        return out

    def __call__(self, a):
        return self._by_row("__call__", a)

    def integrate(self, lo, hi):
        return self._by_row("integrate", lo, hi)
