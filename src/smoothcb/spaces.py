"""Metric action spaces with uniform base measures.

Two kinds are supported:

* ``ring``: the unit circle represented as [0,1) with wraparound distance
  min(|a-b|, 1-|a-b|).  Diameter 1/2.
* ``cube``: [0,1]^d with the sup norm.  Diameter 1.

The base measure is the uniform (Lebesgue) probability measure, so ball
volumes live in (0, 1].
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

RING = "ring"
CUBE = "cube"


class ActionSpace:
    """A metric space of actions plus ball geometry helpers.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, kind: str, d: int = 1):
        if kind not in (RING, CUBE):
            raise ValueError(f"unknown action space kind: {kind!r}")
        if kind == CUBE and d < 1:
            raise ValueError("cube dimension must be >= 1")
        self.kind = kind
        self.d = d if kind == CUBE else 1

    # -- constructors -------------------------------------------------

    @staticmethod
    def ring() -> "ActionSpace":
        return ActionSpace(RING)

    @staticmethod
    def cube(d: int = 1) -> "ActionSpace":
        return ActionSpace(CUBE, d=d)

    def __repr__(self) -> str:
        if self.kind == RING:
            return "ActionSpace(ring)"
        return f"ActionSpace(cube, d={self.d})"

    # -- geometry ------------------------------------------------------

    def _as_array(self, a) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(a, dtype=float))
        if arr.shape[-1] != self.d:
            raise ValueError(
                f"action has dimension {arr.shape[-1]}, space has {self.d}"
            )
        return arr

    def distance(self, a, b) -> float:
        """Metric distance between two actions."""
        x = self._as_array(a)
        y = self._as_array(b)
        if self.kind == RING:
            dd = abs(float(x[0]) - float(y[0]))
            return min(dd, 1.0 - dd)
        return float(np.max(np.abs(x - y)))

    def distances(self, centers: np.ndarray, a) -> np.ndarray:
        """Distance from each round's centres to that round's action.

        ``centers`` has shape (n,) or (n, k), with a trailing axis d on the
        cube; ``a`` holds one action per round, shape (n,) or (n, d).  The
        action's leading axes line up with the centres' leading axes, so a
        single action against k centres works too.
        """
        c = np.asarray(centers, dtype=float)
        x = np.asarray(a, dtype=float)
        lead = x.ndim - (self.d > 1)
        if lead > 0 and c.ndim > x.ndim:
            x = x.reshape(x.shape[:lead] + (1,) * (c.ndim - x.ndim)
                          + x.shape[lead:])
        dd = np.abs(c - x) if self.d == 1 else np.abs(c[..., 0] - x[..., 0])
        for i in range(1, self.d):  # the sup one axis at a time, in place
            t = c[..., i] - x[..., i]
            np.maximum(dd, np.abs(t, out=t), out=dd)
        if self.kind == RING:
            np.minimum(dd, 1.0 - dd, out=dd)
        return dd

    def ball_volume(self, a, r: float) -> float:
        """Base measure of the closed ball B(a, r): one row of ball_volumes."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        arr = self._as_array(a)
        return float(self.ball_volumes(arr if self.d > 1 else arr[0], r))

    def ball_volumes(self, centers: np.ndarray, r: float) -> np.ndarray:
        """Vectorized ball_volume; the result has the centres' batch shape."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        c = np.asarray(centers, dtype=float)
        if self.kind == RING:
            return np.full(c.shape, min(1.0, 2.0 * r))
        side = np.minimum(1.0, c + r) - np.maximum(0.0, c - r)
        return side if self.d == 1 else np.prod(side, axis=-1)

    def ball_intervals(self, a, r: float) -> List[Tuple[float, float]]:
        """The ball B(a, r) as a list of disjoint subintervals of [0, 1].

        Only defined for 1-d spaces (ring and 1-d cube); the ring ball may
        wrap around 0 and then splits into two pieces.
        """
        if self.d > 1:
            raise ValueError("ball_intervals needs a 1-d space")
        c = float(self._as_array(a)[0])
        if self.kind == CUBE:
            return [(max(0.0, c - r), min(1.0, c + r))]
        if 2.0 * r >= 1.0:
            return [(0.0, 1.0)]
        lo, hi = c - r, c + r
        if lo < 0.0:
            return [(0.0, hi), (lo + 1.0, 1.0)]
        if hi > 1.0:
            return [(0.0, hi - 1.0), (lo, 1.0)]
        return [(lo, hi)]

    def sample_uniform(self, rng: np.random.Generator, size: int):
        """``size`` draws from the base measure nu, shape (size,) or
        (size, d) on the cube: ``rng.uniform(0, 1)``'s doubles, which are
        ``0.0 + 1.0 * u`` of the same u."""
        return rng.random(size if self.d == 1 else (size, self.d))

    def sample_ball(self, centers, r: float, rng: np.random.Generator):
        """One uniform (under nu) draw from each closed ball B(centers[i], r).

        ``centers`` has shape (n,), or (n, d) on the cube; so does the result.
        """
        c = np.asarray(centers, dtype=float)
        if self.kind == RING:
            # the offsets are drawn even when the ball is the whole ring, so
            # seeded runs keep their draw order
            u = rng.uniform(-r, r, size=c.shape)
            if 2.0 * r >= 1.0:
                return rng.random(c.shape)
            u += c  # x - floor(x) is np.mod(x, 1.0) bit for bit, and faster
            return np.subtract(u, np.floor(u), out=u)
        lo = np.maximum(0.0, c - r)  # as rng.uniform(lo, hi), faster
        u = rng.random(c.shape)
        u *= np.minimum(1.0, c + r) - lo
        return np.add(u, lo, out=u)

    # -- diagnostics ---------------------------------------------------

    def estimate_uniformity(self, hs: Iterable[float]) -> float:
        """Lattice estimate of sup_{a,a',h} nu(B(a,2h)) / nu(B(a',h)).

        A lower bound on the true constant (the sup is only taken over a
        lattice of 64 centers per axis).
        """
        hs = list(hs)
        if not hs:
            raise ValueError("hs must be nonempty")
        if any(h <= 0 for h in hs):
            raise ValueError("bandwidths must be positive")
        space = self
        if self.kind == RING:
            centers = np.linspace(0.0, 1.0, 64, endpoint=False)
        else:
            # a cube ball's volume is the product of its per-axis sides, and
            # a float product is monotone in each factor, so the extremes
            # over the lattice of 64^d centres are d-fold products of the
            # extremes over one axis, multiplied in np.prod's order
            space, centers = ActionSpace.cube(1), np.linspace(0.0, 1.0, 64)

        def extreme(r, pick):
            return np.prod(np.full(self.d, pick(space.ball_volumes(centers, r))))

        best = 0.0
        for h in hs:
            best = max(best, float(extreme(2.0 * h, np.max)
                                   / extreme(h, np.min)))
        return best
