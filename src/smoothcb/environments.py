"""Loss generators: stochastic environments, named instances, benchmarks."""

from __future__ import annotations

import inspect
import math
import numbers
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .kernels import RectKernel
from .losses import (LossFunction, PiecewiseConstantLoss, PiecewiseLinearLoss,
                     SeparableProductLoss, SeparableSumLoss, ShiftedLoss)
from .policies import PolicyClass
from .spaces import ActionSpace

BERNOULLI = "bernoulli"
DETERMINISTIC = "deterministic"
# contexts in the Monte Carlo panel over which a sampled context set's
# expectations are taken; context_panel reads it at call time
N_CTX = 2000


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _real(v) -> bool:
    """A real number that is finite as a float: not a string, bool, inf or
    nan, nor an integer too large for a float."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _whole(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def guide_search(row: np.ndarray):
    """``lambda u: row.searchsorted(u, "right")`` for a sorted row and u in
    [0, 1], through a guide table (Chen and Asau) built once, here.  With m
    a power of two, u * m and c * m are exact, so a u in [j/m, (j+1)/m) has
    between lo[j] = #{c <= j/m} and hi[j] = #{c < (j+1)/m} entries c <= u;
    only a u whose bucket holds an entry (at most 1/16 of them) searches.
    """
    m = 16 << (len(row) - 1).bit_length()
    cm = row * m
    # c <= j/m iff ceil(c * m) <= j, and c < (j+1)/m iff floor(c * m) <= j
    lo = np.bincount(np.ceil(cm).astype(np.intp), minlength=m + 1)
    hi = np.bincount(cm.astype(np.intp), minlength=m + 1)
    lo.cumsum(out=lo)
    hi.cumsum(out=hi)
    lo[lo != hi] = -1  # the guide table: the answer, or -1 to search

    def search(u: np.ndarray) -> np.ndarray:
        pos = np.empty(len(u), dtype=np.intp)
        np.multiply(u, m, out=pos, casting="unsafe")  # floor, no float copy
        # in place: mode "raise" would buffer a copy, and every bucket is <= m
        lo.take(pos, out=pos, mode="clip")
        miss = np.flatnonzero(pos < 0)
        pos[miss] = row.searchsorted(u[miss], "right")
        return pos
    return search


def draw_indices(p, n: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(len(p), size=n, p=p)`` for a float p: the same picks,
    checks and draws, as the count of cdf entries <= u_i (``guide_search``);
    its only n-length arrays are choice's two, the draws and the picks."""
    p = np.asarray(p, dtype=float)
    _check(p.ndim == 1, "p must be 1-dimensional")
    total = p.sum()
    _check(not np.isnan(total), "Probabilities contain NaN")
    _check(not np.any(p < 0), "Probabilities are not non-negative")
    _check(abs(total - 1.0) <= math.sqrt(np.finfo(float).eps),
           "Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return guide_search(cdf)(rng.random(n))


class FiniteContexts:
    """Enumerated context set with known weights (exact expectations)."""

    def __init__(self, values: Sequence, weights: Optional[Sequence[float]] = None):
        self.values = list(values)
        n = len(self.values)
        _check(n > 0, "a finite context set needs at least one value")
        self.weights = (np.full(n, 1.0 / n) if weights is None
                        else np.asarray(weights, dtype=float))
        _check(self.weights.shape == (n,),
               f"{n} context values need {n} weights")
        # stated so that a NaN weight fails both comparisons
        _check(abs(self.weights.sum() - 1.0) <= 1e-9
               and np.all(self.weights >= 0),
               "weights must form a probability vector")
        # choice's cdf, normalised by its last entry, so a draw never lands
        # past it on a context of weight 0
        self._cdf = np.cumsum(self.weights)
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator):
        """One context: ``rng.choice(len(values), p=weights)``'s pick, from
        the same one draw."""
        if len(self.values) == 1:
            return self.values[0]
        return self.values[int(self._cdf.searchsorted(rng.random(), "right"))]

    def sample_many(self, rng: np.random.Generator, n: int):
        """n i.i.d. contexts as (values, index).

        values is an array whose leading axis is the context; round i's
        context is values[index[i]].
        """
        if len(self.values) == 1:
            return np.asarray(self.values), np.zeros(n, dtype=int)
        return np.asarray(self.values), draw_indices(self.weights, n, rng)

    def panel(self, n_ctx: int, rng: np.random.Generator):
        return self.values, self.weights


class SamplerContexts:
    """Context sampler; expectations are Monte Carlo over a fixed panel.

    ``draw(rng, n)`` returns n i.i.d. contexts as an array whose leading
    axis is the context.
    """

    def __init__(self, draw: Callable[[np.random.Generator, int],
                                      np.ndarray]):
        self.draw = draw

    def sample(self, rng: np.random.Generator):
        return self.draw(rng, 1)[0]

    def sample_many(self, rng: np.random.Generator, n: int):
        """n i.i.d. contexts as (values, index).

        Round i's context is values[index[i]] = values[i].
        """
        return self.draw(rng, n), np.arange(n)

    def panel(self, n_ctx: int, rng: np.random.Generator):
        return self.draw(rng, n_ctx), np.full(n_ctx, 1.0 / n_ctx)


class StochasticEnv:
    """i.i.d. (context, loss) generator with closed-form mean losses.

    ``mean_losses`` maps a batch of contexts to one LossFunction in [0,1]
    whose leading axis is the context: row i, of both its values and its
    integrals, is context i's mean loss.  A loss that ignores the context
    broadcasts as it is, so ``lambda xs: mean`` serves any context set, and
    a one-row batch broadcasts over the rounds it is evaluated at.
    Noise models: Bernoulli (exactly mean-preserving, one double per round)
    and Deterministic (no draws).
    """

    def __init__(self, space: ActionSpace, contexts,
                 mean_losses: Callable[[Sequence], LossFunction],
                 noise: str = DETERMINISTIC,
                 lipschitz_constant: Optional[float] = None,
                 metadata: Optional[Dict] = None):
        if noise not in (BERNOULLI, DETERMINISTIC):
            raise ValueError(f"unknown noise model: {noise!r}")
        self.space = space
        self.contexts = contexts
        self.mean_losses = mean_losses
        self.noise = noise
        self.lipschitz_constant = lipschitz_constant
        self.metadata = metadata or {}

    def mean_loss_of(self, x) -> LossFunction:
        """Context x's mean loss: the one-context case of mean_losses."""
        return self.mean_losses([x])

    # -- sampling -------------------------------------------------------

    def realize_at(self, x, a, rng: np.random.Generator):
        """Realized and mean loss at a single action (per-round run loops)."""
        mv = self.mean_loss_of(x)(a)
        mu = mv if isinstance(mv, float) else float(np.atleast_1d(mv)[0])
        if self.noise == DETERMINISTIC:
            return mu, mu
        return float(rng.random() < mu), mu

    def realize_many(self, values, index, a: np.ndarray,
                     rng: np.random.Generator):
        """Realized and mean losses of one action per round.

        Round i has context values[index[i]]; one mean-loss call covers
        every round, and with one context value its one row is evaluated
        once and broadcast over the rounds.
        """
        ctx = values if len(values) == 1 else values[index]
        means = np.atleast_1d(self.mean_losses(ctx)(a))
        if self.noise == DETERMINISTIC:
            return means, means
        u = rng.random(len(a))
        return np.less(u, means, out=u), means

    # -- benchmarks -------------------------------------------------------

    def context_panel(self, rng: Optional[np.random.Generator] = None):
        """(contexts, weights): the finite set itself, or N_CTX contexts
        sampled from ``rng`` (default seed 0)."""
        return self.contexts.panel(N_CTX, rng or np.random.default_rng(0))

    def smoothed_policy_losses(self, pc: PolicyClass, h: float,
                               panel=None) -> np.ndarray:
        """lambda_h(pi) for every policy: one batched kernel integral over
        the panel's (contexts x policies), weighted over the contexts; h = 0
        gives the unsmoothed lambda(pi), from the mean loss at the policies'
        actions.  ``panel`` defaults to context_panel()."""
        xs, ws = panel if panel is not None else self.context_panel()
        acts, loss = pc.actions_many(xs), self.mean_losses(xs)
        if h == 0.0:
            return ws @ np.reshape(loss(acts), acts.shape[:2]).astype(float)
        return ws @ RectKernel(self.space, h).smoothed_losses(acts, loss)

    def smoothed_benchmark(self, pc: PolicyClass, h: float,
                           panel=None) -> Tuple[float, int]:
        vals = self.smoothed_policy_losses(pc, h, panel=panel)
        # ties (within float jitter) resolve to the lowest policy index
        idx = int(np.argmax(vals <= vals.min() + 1e-12))
        return float(vals[idx]), idx


# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------


def _discontinuous(ap: float = 0.7, noise: str = BERNOULLI) -> StochasticEnv:
    """V-shaped mean loss on the ring with an isolated dip at a single point.

    lambda0(a) = 1/4 + 1.5 * ringdist(a, 1/2) except lambda0(ap) = 0.1.
    The point dip has measure zero, so every smoothed benchmark sits at the
    center of the V: lambda_h(1/2) = 1/4 + 0.75 h.
    """
    _check(_real(ap) and 0.0 <= ap < 1.0, "discontinuous needs ap in [0, 1)")
    space = ActionSpace.ring()
    mean = PiecewiseLinearLoss([0.0, 0.5, 1.0], [1.0, 0.25, 1.0],
                               special_points={ap: 0.1})
    return StochasticEnv(
        space, FiniteContexts([None]), lambda xs: mean, noise=noise,
        metadata={"ap": ap})


def _absolute(astar: float = 0.5, noise: str = BERNOULLI) -> StochasticEnv:
    """lambda(a) = |a - astar| on the ring; 1-Lipschitz, benign zooming."""
    _check(_real(astar) and 0.0 < astar < 1.0, "astar must be interior")
    space = ActionSpace.ring()
    mean = PiecewiseLinearLoss([0.0, astar, 1.0], [astar, 0.0, 1.0 - astar])
    return StochasticEnv(
        space, FiniteContexts([None]), lambda xs: mean, noise=noise,
        lipschitz_constant=1.0, metadata={"astar": astar})


def _linear_sphere(d_ctx: int = 2, wstar: Optional[Sequence[float]] = None,
                   L: float = 4.0, L0: float = 1.0,
                   noise: str = BERNOULLI) -> StochasticEnv:
    """Linear policies on the sphere; mean loss is a clipped V around <w*,x>.

    Actions live on [0,1] via the affine map u = (1+z)/2 of the raw value
    z in [-1,1]; the mean loss in u-coordinates is f(2u - 1 - <w*,x>) with
    f(t) = min(1, 1/4 + L0|t| + (L - L0)(|t| - 1/4)_+), so the effective
    Lipschitz constant on the unit interval is 2L.
    """
    _check(_real(L) and _real(L0) and L >= L0 > 0,
           "linear_sphere needs finite L >= L0 > 0")
    _check(_whole(d_ctx) and d_ctx >= 1,
           "linear_sphere needs an integer d_ctx >= 1")
    wstar = np.asarray(np.eye(d_ctx)[0] if wstar is None else wstar,
                       dtype=float)
    norm = float(np.linalg.norm(wstar))
    _check(wstar.shape == (d_ctx,) and 0.0 < norm < math.inf,
           f"linear_sphere needs wstar: a nonzero vector of length {d_ctx}")
    wstar = wstar / norm
    space = ActionSpace.cube(1)

    def f(t: np.ndarray) -> np.ndarray:
        t = np.abs(t)
        return np.minimum(1.0, 0.25 + L0 * t + (L - L0) * np.maximum(0.0, t - 0.25))

    # every context's loss is g(u/2 + (1 - z)/4), z = clip(<w*, x>), for one
    # g(s) = f(4s - 2) on [0, 1], kinked where f is
    t_sat = (0.75 / L0 if 0.75 / L0 <= 0.25
             else 0.25 + (0.75 - 0.25 * L0) / L)
    ss = np.array(sorted({0.0, 1.0, *((t + 2.0) / 4.0 for t in (
        -t_sat, -0.25, 0.0, 0.25, t_sat) if -2.0 < t < 2.0)}))
    g = PiecewiseLinearLoss(ss, f(4.0 * ss - 2.0))

    def mean_losses(xs) -> ShiftedLoss:
        z = np.clip(np.asarray(xs, dtype=float) @ wstar, -1.0, 1.0)
        return ShiftedLoss(g, 0.5, (1.0 - z) / 4.0)

    def draw_ctx(rng: np.random.Generator, n: int) -> np.ndarray:
        # each norm as one dot product, the way np.linalg.norm takes a
        # single vector's: the same bits as n draws of one context
        v = rng.standard_normal((n, d_ctx))
        return v / np.sqrt(v[:, None] @ v[..., None])[:, 0]

    return StochasticEnv(
        space, SamplerContexts(draw_ctx), mean_losses, noise=noise,
        lipschitz_constant=2.0 * L,
        metadata={"wstar": wstar, "L": L, "L0": L0, "d_ctx": d_ctx})


def _pocket_center(width: float, side: int, d: int, index: int):
    """Centre of pocket ``index`` (from 1) of the side^d pockets centred at
    width * (2s - 1), s = 1..side per axis, numbered in the ravel order of
    np.meshgrid's default "xy" indexing, where axes 0 and 1 trade places;
    computed from the index, without building the grid."""
    digits, m = [], index - 1
    for _ in range(d):
        m, r = divmod(m, side)
        digits.insert(0, r)
    if d > 1:
        digits[0], digits[1] = digits[1], digits[0]
    c = width * (2 * np.array(digits) + 1)
    return float(c[0]) if d == 1 else c


def _closed_pocket(c: float, h: float) -> Tuple[float, float]:
    """The least and greatest doubles a >= 0 with |a - c| <= h as computed
    in floating point.  The test holds on one run of doubles around c, so
    stepping a double at a time from c -/+ h finds both ends."""
    ends = []
    for a, out in ((max(c - h, 0.0), 0.0), (c + h, 1.0)):
        while abs(a - c) > h:
            a = np.nextafter(a, c)
        while a != out and abs(np.nextafter(a, out) - c) <= h:
            a = np.nextafter(a, out)
        ends.append(float(a))
    return ends[0], ends[1]


def _indicator(lo: float, hi: float) -> PiecewiseConstantLoss:
    """1 on the doubles of [lo, hi] and 0 elsewhere on [0, 1], for
    0 <= lo <= hi < 1: a right-open piece that ends one double above hi."""
    top = float(np.nextafter(hi, 1.0))
    if lo == 0.0:
        return PiecewiseConstantLoss([0.0, top, 1.0], [1.0, 0.0])
    return PiecewiseConstantLoss([0.0, lo, top, 1.0], [0.0, 1.0, 0.0])


def _needle_field(ci, h: float, delta: float, d: int) -> SeparableSumLoss:
    """needle_h's mean on the cube: 1/2 - (Delta/2) 1[a in S] -
    Delta 1[a in P] for the safe orthant S = [1/2, 1]^d and the closed
    pocket P around ci (none when ci is None).

    P lies in [0, 1/2]^d, so S and P can meet only where P's corner
    reaches (1/2, ..., 1/2).  There the pocket's value holds: a term
    +Delta/2 on the product of S and P cancels S's term.  The terms are
    added in order, that pair first and the constant last, so every value
    is exactly 1/2 - Delta/2, 1/2 - Delta or 1/2.
    """
    prod = SeparableProductLoss
    terms = [(-delta / 2.0,
              prod([PiecewiseConstantLoss([0.0, 0.5, 1.0], [0.0, 1.0])] * d))]
    if ci is not None:
        pocket = [_closed_pocket(float(c), h) for c in ci]
        if all(hi >= 0.5 for _, hi in pocket):
            terms.append((delta / 2.0,
                          prod([_indicator(0.5, hi) for _, hi in pocket])))
        terms.append((-delta, prod([_indicator(lo, hi) for lo, hi in pocket])))
    terms.append((0.5, prod([PiecewiseConstantLoss.constant(1.0)] * d)))
    return SeparableSumLoss(terms)


def _needle_h(h: float = 0.125, R: float = 10.0, d: int = 1, index: int = 0,
              noise: str = BERNOULLI) -> StochasticEnv:
    """Hidden-needle field for stress-testing bandwidth-adaptive learners.

    N disjoint candidate pockets of radius h sit in [0, 1/2]; the safe
    half S = [1/2, 1] gives 1/2 - Delta/2, the selected pocket (index >= 1)
    gives 1/2 - Delta, everything else 1/2.  Delta = min(N / (40 R), 1/4)
    where R is the opposing learner's regret budget at smoothing 1/4.
    In d >= 2 the pockets are the cells of a grid on [0, 1/2]^d and the
    safe half is the orthant [1/2, 1]^d.
    """
    _check(_real(h) and 0 < h <= 0.25, "needle_h needs h in (0, 1/4]")
    _check(_real(R) and R > 0, "needle_h needs a finite R > 0")
    _check(_whole(d) and d >= 1, "needle_h needs an integer d >= 1")
    side = int(math.floor(1.0 / (4.0 * h)))
    N = side ** d
    delta = min(N / (40.0 * R), 0.25)
    _check(_whole(index) and 0 <= index <= N,
           f"needle index must be an integer in [0, {N}]")
    c = _pocket_center(h, side, d, index) if index >= 1 else None
    space = ActionSpace.cube(d)
    mean = _needle_field(None if c is None else np.atleast_1d(c), h, delta, d)
    if d == 1:
        # 1-d smoothing integrates and each round calls the loss at one
        # action: collapse the field into its pieces, valued at left ends
        breaks = sorted({b for _, p in mean.terms
                         for b in p.factors[0].breaks})
        mean = PiecewiseConstantLoss(breaks, mean(breaks[:-1]))
    return StochasticEnv(
        space, FiniteContexts([None]), lambda xs: mean, noise=noise,
        metadata={"h": h, "R": R, "delta": delta, "N": N, "center": c,
                  "index": index, "c0": np.full(d, 0.75) if d > 1 else 0.75})


def _needle_L(L: float = 4.0, R: float = 10.0, index: int = 0,
              noise: str = BERNOULLI) -> StochasticEnv:
    """Hidden-tent field for stress-testing Lipschitz-adaptive learners.

    A shallow 1-Lipschitz tent of depth Delta/2 at 3/4 is always present;
    policy index >= 1 adds an L-Lipschitz tent of depth Delta at one of N
    pockets in [0, 1/2].  Delta = min((L / (40 R 8))^(1/2), 1/8).
    """
    _check(_real(L) and L >= 1, "needle_L needs a finite L >= 1")
    _check(_real(R) and R > 0, "needle_L needs a finite R > 0")
    delta = min((L / (40.0 * R * 8.0)) ** 0.5, 0.125)
    _check(L / (4.0 * delta) < math.inf,
           f"needle_L: L = {L:g} is too large to count its pockets")
    N = int(math.floor(L / (4.0 * delta)))
    _check(_whole(index) and 0 <= index <= N,
           f"needle index must be an integer in [0, {N}]")
    space = ActionSpace.cube(1)
    c0 = 0.75
    ci = _pocket_center(delta / L, N, 1, index) if index >= 1 else None
    breaks = {0.0, 1.0, c0, c0 - delta / 2.0, c0 + delta / 2.0}
    if ci is not None:
        breaks |= {ci, ci - delta / L, ci + delta / L}
    bs = sorted(b for b in breaks if 0.0 <= b <= 1.0)

    def phi(a: float) -> float:
        v = 0.5 - max(0.0, delta / 2.0 - abs(a - c0))
        if ci is not None:
            v -= max(0.0, delta - L * abs(a - ci))
        return v

    mean = PiecewiseLinearLoss(bs, [phi(b) for b in bs])
    return StochasticEnv(
        space, FiniteContexts([None]), lambda xs: mean, noise=noise,
        lipschitz_constant=L if index >= 1 else 1.0,
        metadata={"L": L, "R": R, "delta": delta, "N": N, "center": ci,
                  "index": index, "c0": c0})


_NAMED = {
    "discontinuous": _discontinuous,
    "absolute": _absolute,
    "linear_sphere": _linear_sphere,
    "needle_h": _needle_h,
    "needle_L": _needle_L,
}


def make_named_instance(name: str, **params) -> StochasticEnv:
    if name not in _NAMED:
        raise ValueError(f"unknown instance name: {name!r}")
    known = inspect.signature(_NAMED[name]).parameters
    for key in params:
        if key not in known:
            raise ValueError(f"instance {name!r} has no parameter {key!r}")
    return _NAMED[name](**params)
