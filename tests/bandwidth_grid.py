"""Reference membership for a BandwidthGrid: the package only snaps into
the grid, so these enumerate and test its members directly."""

import numpy as np


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
