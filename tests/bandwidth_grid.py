"""Reference membership for a BandwidthGrid and an ActionSpace: the
package only snaps into the grid and draws inside the space, so these
enumerate and test their members directly."""

import numpy as np

from smoothcb.spaces import RING


def grid_members(grid):
    """Every member of a small bandwidth grid, smallest first."""
    start = round(grid.min_h * grid.D)
    return np.arange(start, grid.D + 1) / grid.D


def grid_contains(grid, h: float) -> bool:
    """Whether h is a multiple of 1/D with kappa in the grid's range."""
    # m / D carries a rounding error relative to m, and D grows like T^2
    k = h * grid.D
    if abs(k - round(k)) > 1e-9 + 1e-15 * k:
        return False
    return grid.min_h - 1e-15 <= h <= 1.0 and h ** (-grid.d) >= 1.0 - 1e-12


def space_contains(space, a) -> bool:
    """Whether the action a is a point of the space: [0, 1) on the ring and
    [0, 1]^d on the cube."""
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if arr.shape[-1] != space.d:
        raise ValueError(
            f"action has dimension {arr.shape[-1]}, space has {space.d}")
    if space.kind == RING:
        return bool(np.all(arr >= 0) and np.all(arr < 1))
    return bool(np.all(arr >= 0) and np.all(arr <= 1))
