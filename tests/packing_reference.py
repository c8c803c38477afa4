"""Reference packing numbers for diagnose: one context at a time, one scalar
distance at a time."""

import numpy as np

from smoothcb.policies import VersionSpace, projected_actions


def greedy_packing(space, points, delta):
    """The greedy delta-packing size of the sorted points, testing each one
    against every kept point with the scalar ``space.distance``."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0
    if pts.ndim == 1:
        pts = pts[np.lexsort((pts,))]
    else:
        pts = pts[np.lexsort(pts.T[::-1])]
    kept = []
    for p in pts:
        if all(space.distance(p, q) >= delta for q in kept):
            kept.append(p)
    return len(kept)


def expected_packing(pc, panel, level_vals, eps_opt, delta_pack):
    """The panel-weighted packing number of the eps_opt-optimal set, as a
    running total over the contexts, each context's deduplicated actions
    packed on their own."""
    mask = level_vals <= level_vals.min() + eps_opt + 1e-12
    vs = VersionSpace(pc, mask)
    xs, ws = panel
    total = 0.0
    for x, w in zip(xs, ws):
        pts = projected_actions(vs, x)
        total += w * greedy_packing(pc.space, pts, 2.0 * delta_pack + 1e-12)
    return total
