"""The measure of a union of boxes in [0, 1]^d by inclusion-exclusion: the
brute-force reference for the exact ball-union volume on the cube, where
under the sup metric every ball is a box."""

import itertools

import numpy as np


def box_union_volume(lo, hi) -> float:
    """Lebesgue measure of the union of the boxes [lo[i], hi[i]]: the sum
    over nonempty subsets S of the boxes of (-1)^(|S|+1) times the measure
    of their intersection, itself a box.  2^k - 1 terms for k boxes."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    total = 0.0
    for r in range(1, len(lo) + 1):
        for s in map(list, itertools.combinations(range(len(lo)), r)):
            side = hi[s].min(axis=0) - lo[s].max(axis=0)
            total += (-1) ** (r + 1) * float(np.prod(np.maximum(side, 0.0)))
    return total
