"""Finite policy classes, version spaces, projections, and packing numbers."""

from __future__ import annotations

import csv
import math
from typing import Optional

import numpy as np

from .kernels import RectKernel
from .spaces import CUBE, ActionSpace

TABULAR = "tabular"
CONSTANT = "constant"
LINEAR_SPHERE = "linear_sphere"


class PolicyClass:
    """A finite set of deterministic context -> action maps.

    Representations:

    * Constant: |Pi| fixed actions, context ignored (the non-contextual
      class "x0 -> a").
    * Tabular: an (n_contexts x |Pi|) table of actions, contexts addressed
      by integer index.
    * LinearSphere: unit-norm weight vectors w; pi_w(x) = (1 + <w, x>)/2,
      the raw value <w, x> in [-1, 1] mapped into the unit interval.
    """

    def __init__(self, space: ActionSpace, representation: str,
                 actions: Optional[np.ndarray] = None,
                 table: Optional[np.ndarray] = None,
                 weights: Optional[np.ndarray] = None):
        self.space = space
        self.representation = representation
        if representation == CONSTANT:
            self.actions = np.array(actions, dtype=float)
            self.actions.flags.writeable = False
            self.size = self.actions.shape[0]
        elif representation == TABULAR:
            self.table = np.asarray(table, dtype=float)
            if self.table.ndim < 2:
                raise ValueError("a tabular class needs a (contexts x "
                                 f"policies) table, not {self.table.shape}")
            self.size = self.table.shape[1]
        elif representation == LINEAR_SPHERE:
            w = np.asarray(weights, dtype=float)
            norms = np.linalg.norm(w, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("linear-sphere weights must have unit norm")
            self.weights = w
            self.size = w.shape[0]
        else:
            raise ValueError(f"unknown representation: {representation!r}")
        if self.size < 1:
            raise ValueError("policy class must be nonempty")

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(space: ActionSpace, actions) -> "PolicyClass":
        return PolicyClass(space, CONSTANT, actions=actions)

    @staticmethod
    def tabular(space: ActionSpace, table) -> "PolicyClass":
        return PolicyClass(space, TABULAR, table=table)

    @staticmethod
    def linear_sphere(space: ActionSpace, weights) -> "PolicyClass":
        return PolicyClass(space, LINEAR_SPHERE, weights=weights)

    @staticmethod
    def from_csv(space: ActionSpace, path: str) -> "PolicyClass":
        """Load a tabular class: rows = contexts, columns = policies."""
        with open(path, newline="") as f:
            rows = [[float(c) for c in row] for row in csv.reader(f) if row]
        return PolicyClass.tabular(space, np.asarray(rows))

    # -- evaluation ----------------------------------------------------

    def act(self, policy_index: int, x=None):
        """One policy's action at context x: one entry of actions_many."""
        if not 0 <= policy_index < self.size:
            raise IndexError("policy index out of range")
        a = self.actions_many([x])[0, policy_index]
        return float(a) if np.ndim(a) == 0 else np.asarray(a, dtype=float)

    def actions_at(self, x=None) -> np.ndarray:
        """All policies' actions at context x, shape (|Pi|,) or (|Pi|, d);
        a constant class's own read-only row."""
        if self.representation == CONSTANT:
            return self.actions
        return self.actions_many([x])[0]

    def actions_many(self, values) -> np.ndarray:
        """All policies' actions at each context of a list, stacked on a
        leading axis: shape (contexts, |Pi|), plus a trailing d on the cube."""
        if self.representation == CONSTANT:
            return self.actions[None].repeat(len(values), axis=0)
        if self.representation == TABULAR:
            return self.table[np.asarray(values, dtype=np.intp)]
        # one matrix-vector product per context
        x = np.asarray(values, dtype=float)[:, :, None]
        z = np.clip((self.weights @ x)[..., 0], -1.0, 1.0)
        return (1.0 + z) / 2.0


class VersionSpace:
    """Subset of a policy class surviving elimination, by membership mask."""

    def __init__(self, pc: PolicyClass, mask: Optional[np.ndarray] = None):
        self.pc = pc
        self.mask = (np.ones(pc.size, dtype=bool) if mask is None
                     else np.asarray(mask, dtype=bool).copy())
        if not self.mask.any():
            raise ValueError("version space must be nonempty")

    @property
    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]

    def __len__(self) -> int:
        return int(self.mask.sum())


def projected_actions(subset: VersionSpace, x=None) -> np.ndarray:
    """Deduplicated actions of the surviving policies at context x."""
    acts = subset.pc.actions_at(x)[subset.mask]
    if acts.ndim == 1:
        return np.unique(acts)
    return np.unique(acts, axis=0)


def packing_number(space: ActionSpace, points, delta: float) -> int:
    """Size of a maximal greedy delta-packing of the given points.

    Points are sorted lexicographically, then added greedily whenever at
    distance >= delta from everything kept so far.  The result is maximal
    (nothing else can be added) but not necessarily maximum.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0
    if pts.ndim == 1:
        pts = pts[np.lexsort((pts,))]
    else:
        pts = pts[np.lexsort(pts.T[::-1])]
    kept = np.empty_like(pts)
    n = 0
    for p in pts:
        if np.all(space.distances(kept[:n], p) >= delta):
            kept[n] = p
            n += 1
    return n


# (context, ball, cell) triples per block: bounds the build's temporaries
_BLOCK_CELLS = 2 ** 15
# the most cells per context on the cube in d >= 2 (``segment_cuts``)
MAX_CELLS = 2 ** 13


def union_geometry(space: ActionSpace, centers: np.ndarray, h: float) -> list:
    """Each context's union of h-balls, cut into cells of constant density.

    ``centers`` has shape (contexts, k), plus a trailing d on the cube.
    Returns (dens, meas, volume, pieces) blocks of consecutive contexts: ball
    j's kernel density dens[c, j, s] on cell s of context c, the cell's
    measure meas[c, s], the union's measure volume[c], and per axis the
    (lo, hi) ends of its pieces, lo[c, p] and hi[c, p].  A cell is one piece
    per axis between ``segment_cuts``, those of length <= 1e-15 dropped,
    numbered in C order over the axes.  Each axis is padded, after its kept
    pieces, with zero-measure pieces to the most any context keeps, so a
    context's arrays, and sums over them, do not depend on how the contexts
    are blocked or grouped.  The volume is the covered cells'
    measure, in 1-d the covered runs' lengths summed left to right.  The cap
    of ``segment_cuts`` holds before any table is built.  The exploration
    program builds it once per distinct row of survivor actions.
    """
    c = np.asarray(centers, dtype=float)
    cuts = segment_cuts(space, c, h)
    widths = (np.diff(cuts, axis=-1) > 1e-15).sum(axis=-1).max(axis=0)
    step = max(1, _BLOCK_CELLS // (c.shape[1] * int(np.prod(widths))))
    return [_union_block(space, c[i:i + step], cuts[i:i + step], widths, h)
            for i in range(0, len(c), step)]


def distinct_rows(centers: np.ndarray):
    """(first, inverse): one row index per distinct row of ``centers``, and
    each row's place among them, so centers[first][inverse] == centers.
    Rows are compared byte for byte."""
    c = np.ascontiguousarray(centers).reshape(len(centers), -1)
    keys = c.view(np.dtype((np.void, c.itemsize * c.shape[1])))[:, 0]
    if len(keys) and (keys == keys[0]).all():  # np.unique's answer, no sort
        return np.zeros(1, dtype=np.intp), np.zeros(len(keys), dtype=np.intp)
    return np.unique(keys, return_index=True, return_inverse=True)[1:]


def segment_cuts(space: ActionSpace, centers: np.ndarray,
                 h: float) -> np.ndarray:
    """Each row's h-ball ends in [0, 1] per axis, sorted between 0 and 1.

    A ball is a box under the sup metric, so every ball's kernel density is
    constant on each product of pieces between consecutive cuts, one piece
    per axis (Klee's coordinate compression).  ``centers`` has shape (n, k),
    or (n, k, d) on the cube; the result is (n, d, 2k+2), with d = 1 on 1-d
    spaces, or (n, 1, 2) on the ring when a ball covers the whole circle.
    More than MAX_CELLS cells, the product over the axes of the most pieces
    over 1e-15 long that a row keeps, is a ValueError on the cube in d >= 2.
    """
    c = np.asarray(centers, dtype=float)
    c = np.moveaxis(c, -1, 1) if space.d > 1 else c[:, None]
    ends = np.concatenate([c - h, c + h], axis=-1)
    if space.kind == CUBE:
        ends = np.clip(ends, 0.0, 1.0)
    else:  # a ring ball wraps around 0, or covers the whole ring
        ends = np.mod(ends, 1.0) if 2.0 * h < 1.0 else ends[..., :0]
    edge = c.shape[:-1] + (1,)
    cuts = np.sort(np.concatenate([np.zeros(edge), ends, np.ones(edge)],
                                  axis=-1), axis=-1)
    if space.d > 1:  # as union_geometry pads each axis
        cells = np.prod((np.diff(cuts, axis=-1) > 1e-15).sum(-1).max(0))
        if cells > MAX_CELLS:
            raise ValueError(f"the balls at h = {h:g} cut the cube into "
                             f"{cells} cells per context, more than "
                             f"{MAX_CELLS}")
    return cuts


def _union_block(space: ActionSpace, c: np.ndarray, cuts: np.ndarray,
                 widths: np.ndarray, h: float):
    n, d = len(c), len(widths)
    keep = np.diff(cuts, axis=-1) > 1e-15
    # on each axis the kept pieces first, in order, then the padding
    order = np.argsort(~keep, axis=-1, kind="stable")
    lo, hi, keep = ([np.take_along_axis(x[:, a], order[:, a, :w], axis=1)
                     for a, w in enumerate(widths)]
                    for x in (cuts[..., :-1], cuts[..., 1:], keep))
    pieces = list(zip(lo, hi))
    meas = [np.where(k, b - a, 0.0) for a, b, k in zip(lo, hi, keep)]
    mids = [(a + b) / 2.0 for a, b in zip(lo, hi)]
    if d > 1:  # a cell is one piece per axis, numbered in C order
        grid = [(n,) + (1,) * a + (-1,) + (1,) * (d - 1 - a) for a in range(d)]
        meas = math.prod(map(np.reshape, meas, grid)).reshape(n, -1)
        mids = np.stack(np.broadcast_arrays(*map(np.reshape, mids, grid)),
                        axis=-1).reshape(n, -1, d)
    else:
        (lo,), (hi,), (keep,), (meas,), (mids,) = lo, hi, keep, meas, mids
    dens = RectKernel(space, h).densities(c[:, :, None], mids[:, None])
    covered = dens.any(axis=1)
    if d > 1:  # a padding piece gives its cells measure 0
        return (dens, meas, np.minimum(1.0, (covered * meas).sum(axis=1)),
                pieces)
    # each covered run's right end minus its left end, added left to right;
    # a sum of the cells' measures rounds once per cell and reads
    # 0.9999999999999968 where balls at h = 1/4 cover the ring, and V_m
    # sets the epoch budgets and goes into the epoch rows
    run = np.diff((covered & keep).astype(int), axis=1, prepend=0, append=0)
    first, after = np.nonzero(run == 1), np.nonzero(run == -1)
    runs = np.zeros_like(meas)
    runs[first] = hi[after[0], after[1] - 1] - lo[first]
    return (dens, meas, np.minimum(1.0, np.cumsum(runs, axis=1)[:, -1]),
            pieces)


def union_ball_volume(subset: VersionSpace, x=None, h: float = 0.1) -> float:
    """nu of the union of h-balls at the surviving policies' actions: the
    one-context case of ``union_geometry``."""
    acts = subset.pc.actions_at(x)[subset.mask]
    return float(union_geometry(subset.pc.space, acts[None], h)[0][2][0])
