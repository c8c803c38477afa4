"""Epoch-based policy elimination with minimax exploration.

Each epoch solves a convex program for the exploration distribution over the
surviving policies, plays a mixture of uniform exploration and smoothed
policy draws, estimates every survivor's smoothed loss by importance
weighting with median-of-means aggregation across batches, and prunes
policies that fall behind the empirical best by more than the epoch radius
allows.  An epoch is played the same way on every space kind and context
class: its contexts, mixed draws and realized losses are drawn whole, as
vectors over its rounds, and a finite context set plays as one block.  With
one finite context its scores come from per-cell loss sums: on each cell of
the exploration program's ``union_geometry`` every survivor density and the
propensity are constant, so one (cells x survivors) table turns each batch's
per-cell loss sums into its estimates.  Every other round adds its own
density row.  An epoch that is not scored forms nothing per survivor.

Two schedules: the fixed-bandwidth variant keeps h_m = h and halves the
radius r_m = 2^-m; the Lipschitz variant halves the bandwidth h_m = 2^-m
with radius r_m = L * 2^-m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .environments import (FiniteContexts, StochasticEnv, draw_indices,
                           guide_search)
from .kernels import RectKernel
from .policies import (PolicyClass, VersionSpace, distinct_rows,
                       segment_cuts, union_geometry)

VARIANT_S = "s"
VARIANT_L = "l"
# the solver stops within SOLVER_TOL of its certificate, and gives up after
# SOLVER_ITER_CAP iterations
SOLVER_TOL = 1e-3
SOLVER_ITER_CAP = 5000
# rounds per block of an epoch's per-round work; blocks do not depend on the
# batch length, and a batch may span several blocks
CHUNK = 2 ** 13
# an action closer than EDGE to a piece's end takes its own density row:
# there the kernel's distance test and the sorted cuts may round apart
EDGE = 1e-12


class SolverFailure(RuntimeError):
    """Raised when the exploration program misses its certificate."""

    def __init__(self, value: float, target: float):
        super().__init__(
            f"exploration solver reached {value:.6g} > certificate {target:.6g}")
        self.value = value
        self.target = target


@dataclass
class ElimConfig:
    variant: str  # "s" (fixed bandwidth) or "l" (Lipschitz)
    T: int
    h: Optional[float] = None
    L: Optional[float] = None

    def __post_init__(self):
        if self.variant not in (VARIANT_S, VARIANT_L):
            raise ValueError("variant must be 's' or 'l'")
        if self.variant == VARIANT_S and not (self.h and 0 < self.h <= 1):
            raise ValueError("s-variant needs h in (0,1]")
        if self.variant == VARIANT_L and not (self.L and self.L >= 1):
            raise ValueError("l-variant needs L >= 1")
        if self.T < 2:
            raise ValueError("horizon must be >= 2")

    def delta_T(self, n_policies: int) -> int:
        """Batch count: 5 * ceil(ln(T * |Pi| * log2 T))."""
        return 5 * math.ceil(math.log(self.T * n_policies * math.log2(self.T)))


@dataclass
class EpochState:
    m: int
    vs: VersionSpace
    h_m: float
    r_m: float
    mu_m: float
    V_m: float
    tilde_n_m: int
    n_m: int
    Q: np.ndarray  # over the survivors, in support order
    solver_value: float
    solver_iters: int


# ---------------------------------------------------------------------------
# exploration program
# ---------------------------------------------------------------------------


def solve_variance_program(
        pc: PolicyClass, vs: VersionSpace, h: float, mu: float, panel,
) -> Tuple[np.ndarray, float, int, float]:
    """Minimize max_pi E_x E_{a~K_h(pi(x))}[1/q(a|x)] over simplex weights Q.

    q(a|x) = mu + (1-mu) sum_j Q_j K_h(pi_j(x))(a).  Entropic mirror ascent
    toward the worst-off policy, with the exact max-pi objective evaluated
    each iteration; stops once the value reaches V/(1-mu)*(1+SOLVER_TOL), the
    certified optimum bound, where V is the panel-weighted volume of the
    union of the survivors' h-balls, measured exactly on the objective's own
    ``union_geometry`` cells.  The geometry and each objective term are
    built once per distinct row of survivor actions over the panel and
    weighted back onto the panel's contexts.
    Returns (Q, value at Q, iterations, V).  Raises SolverFailure when the
    cap is hit and the best value still exceeds V/(1-mu)*(1+10*SOLVER_TOL).
    """
    if not 0.0 < mu <= 0.5:
        raise ValueError("mu must lie in (0, 1/2]")
    xs, ws = panel
    k = len(vs)
    c = pc.actions_many(xs)[:, vs.indices]
    first, inverse = distinct_rows(c)
    blocks = union_geometry(pc.space, c[first], h)
    # each row's volume and term are expanded back onto the panel, not summed
    # per row, so the panel sums add the same terms in the same order
    V = float(ws @ np.concatenate([b[2] for b in blocks])[inverse])
    target = V / (1.0 - mu) * (1.0 + SOLVER_TOL)
    hard_target = V / (1.0 - mu) * (1.0 + 10.0 * SOLVER_TOL)

    def terms_at(Q):
        per_row = []
        for dens, meas, *_ in blocks:
            q = mu + (1.0 - mu) * (Q @ dens)
            per_row.append(((dens * meas[:, None, :])
                            @ (1.0 / q)[..., None])[..., 0])
        return ws @ np.concatenate(per_row)[inverse]

    # Self-play entropic ascent: weight flows toward the worst-off policy,
    # which raises the mixture density on its ball and lowers its term.  The
    # running average of the iterates is the certified solution; plain
    # subgradient descent on the max stalls when mu is small.
    Q = np.full(k, 1.0 / k)
    Q_sum = np.zeros(k)
    best_Q, best_val = Q.copy(), math.inf
    iters = 0
    for iters in range(1, SOLVER_ITER_CAP + 1):
        terms = terms_at(Q)
        value = float(terms.max())
        if value < best_val:
            best_val, best_Q = value, Q.copy()
        if value <= target:
            return Q, value, iters, V
        Q_sum += Q
        if iters % 10 == 0:
            Q_bar = Q_sum / iters
            val_bar = float(terms_at(Q_bar).max())
            if val_bar < best_val:
                best_val, best_Q = val_bar, Q_bar.copy()
            if val_bar <= target:
                return Q_bar, val_bar, iters, V
        eta = 0.5 / value
        logq = np.log(np.maximum(Q, 1e-300)) + eta * terms
        logq -= logq.max()
        Q = np.exp(logq)
        Q = Q / Q.sum()
    if best_val > hard_target:
        raise SolverFailure(best_val, hard_target)
    return best_Q, best_val, iters, V


# ---------------------------------------------------------------------------
# the algorithm
# ---------------------------------------------------------------------------


class SmoothPolicyElimination:

    def __init__(self, env: StochasticEnv, pc: PolicyClass,
                 config: ElimConfig):
        self.env = env
        self.pc = pc
        self.config = config
        self.delta_T = config.delta_T(pc.size)
        self.max_epochs = math.ceil(math.log2(config.T))

    def schedule(self, m: int) -> Tuple[float, float]:
        """(h_m, r_m) for epoch m (1-based)."""
        if self.config.variant == VARIANT_S:
            return self.config.h, 2.0 ** (-m)
        return 2.0 ** (-m), self.config.L * 2.0 ** (-m)

    # -- one epoch -------------------------------------------------------

    def start_epoch(self, m: int, vs: VersionSpace, panel) -> EpochState:
        h_m, r_m = self.schedule(m)
        mu_m = min(0.5, r_m)
        kappa = RectKernel(self.pc.space, h_m).kappa()
        Q, value, iters, V_m = solve_variance_program(
            self.pc, vs, h_m, mu_m, panel)
        tilde_n = math.ceil(320.0 * kappa * V_m / (r_m * r_m))
        if tilde_n == 0:
            why = (": every cell the survivors' balls cover is 1e-15 wide or "
                   "less on some axis, and is dropped" if V_m == 0 else "")
            raise ValueError(f"epoch {m} has a budget of 0 rounds: V_m = "
                             f"{V_m:g} at h_m = {h_m:g}, r_m = {r_m:g}{why}")
        return EpochState(m=m, vs=vs, h_m=h_m, r_m=r_m, mu_m=mu_m, V_m=V_m,
                          tilde_n_m=tilde_n, n_m=tilde_n * self.delta_T, Q=Q,
                          solver_value=value, solver_iters=iters)

    def _actions(self, values, index):
        """Every policy's actions at the context rows in index's range (a
        finite set's few values, or a sampler's draws for these rounds), and
        each round's row of them; round i has context values[index[i]]."""
        lo = int(index.min())
        return (self.pc.actions_many(values[lo:int(index.max()) + 1]),
                index - lo)

    def _centers(self, vs: VersionSpace, values, index) -> np.ndarray:
        """Survivors' actions per round, shape (rounds, survivors), plus a
        trailing d on the cube."""
        actions, rows = self._actions(values, index)
        # np.take measured several times faster here than indexing with rows
        return np.take(actions[:, vs.indices], rows, axis=0)

    def propensity(self, state: EpochState, centers: np.ndarray, a):
        """(q, dens) at one action per row of survivor centres.

        dens[i, j] is survivor j's kernel density at a[i]; q[i] is the
        mixture density mu + (1 - mu) * sum_j Q_j dens[i, j].
        """
        dens = RectKernel(self.pc.space, state.h_m).densities(centers, a)
        return state.mu_m + (1.0 - state.mu_m) * dens @ state.Q, dens

    def _draw(self, state: EpochState, n: int, picked_centers,
              rng: np.random.Generator) -> np.ndarray:
        """n mixed-exploration actions: uniform with probability mu_m, else
        uniform (under nu) on the h_m-ball of a survivor drawn from Q.

        ``picked_centers(pick)`` gives each round's centre of survivor
        pick[i], so callers need not hold every survivor's centre at once.
        Survivors are picked by ``draw_indices``: ``rng.choice``'s picks
        from the same draws.
        """
        space = self.pc.space
        explore = rng.random(n) < state.mu_m
        pick = draw_indices(state.Q, n, rng)
        uniform = space.sample_uniform(rng, size=n)
        ball = space.sample_ball(picked_centers(pick), state.h_m, rng)
        if ball.ndim > 1:
            explore = explore[:, None]
        np.copyto(ball, uniform, where=explore)
        return ball

    def act(self, state: EpochState, centers: np.ndarray,
            rng: np.random.Generator):
        """One mixed-exploration draw per row of survivor centres.

        Returns (actions, propensities, densities) as in ``propensity``.
        """
        n = len(centers)
        a = self._draw(state, n, lambda pick: centers[np.arange(n), pick],
                       rng)
        q, dens = self.propensity(state, centers, a)
        return a, q, dens

    def _cells(self, state: EpochState, values):
        """(locate, W) for the cells of an epoch with one finite context:
        ``union_geometry``'s, the exploration program's own.  Every action
        in a cell has the same survivor densities and propensity, so W[cell]
        = dens / q there.  ``locate`` gives each round's cell, or -1 for a
        round that takes its own row: one in no kept piece or within EDGE of
        its piece's ends on some axis, and every round where no cells are
        formed (sampled or several contexts).
        """
        if (not isinstance(self.env.contexts, FiniteContexts)
                or len(values) != 1):
            return lambda a: np.full(len(a), -1), np.zeros((0, len(state.vs)))
        centers = self.pc.actions_many(values)[:, state.vs.indices]
        dens, _, _, pieces = union_geometry(self.pc.space, centers,
                                            state.h_m)[0]
        W = dens[0].T.copy()  # (cells x survivors)
        W /= (state.mu_m + (1.0 - state.mu_m) * W @ state.Q)[:, None]
        axes = [(lo[0], hi[0], guide_search(lo[0])) for lo, hi in pieces]
        shape = [len(lo) for lo, _, _ in axes]

        def locate(a):
            pos, inside = [], None
            for (lo, hi, search), u in zip(axes, a.reshape(len(a), -1).T):
                # the last kept piece starting at or before u; a u before
                # the first has -1, and fails the test as lo[-1] > u
                p = search(u) - 1
                ok = (u - lo[p] > EDGE) & (hi[p] - u > EDGE)
                pos.append(p)
                inside = ok if inside is None else inside & ok
            cell = pos[0] if len(pos) == 1 else np.ravel_multi_index(
                pos, shape, mode="wrap")  # a -1 wraps, and is masked
            return np.where(inside, cell, -1)
        return locate, W

    def _score(self, state: EpochState, values, index, a,
               loss: np.ndarray) -> np.ndarray:
        """(survivors x delta_T) batch means of the IW estimates
        dens[i, j] * loss[i] / q[i] over batches of tilde_n_m rounds.

        A round in a cell adds its loss to S[batch, cell], and the cells'
        share of the batch sums is S @ W; a round without one adds its own
        row of W times its loss.  Rounds are keyed CHUNK at a time.
        """
        tilde_n = state.tilde_n_m
        locate, W = self._cells(state, values)
        cells = len(W)
        S = np.zeros((self.delta_T, cells))
        sums = np.zeros((self.delta_T, len(state.vs)))
        for start in range(0, len(a), CHUNK):
            b = slice(start, min(start + CHUNK, len(a)))
            batch = np.arange(b.start, b.stop) // tilde_n
            cell = locate(a[b])
            first, n_b = batch[0], batch[-1] - batch[0] + 1
            at = cell >= 0
            S[first:first + n_b] += np.bincount(
                (batch[at] - first) * cells + cell[at], weights=loss[b][at],
                minlength=n_b * cells).reshape(n_b, cells)
            own = ~at
            if own.any():
                q, rows = self.propensity(
                    state, self._centers(state.vs, values, index[b][own]),
                    a[b][own])
                rows /= q[:, None]  # in place: no second (rows x k) array
                rows *= loss[b][own][:, None]
                # one sum per batch over its consecutive rows
                starts = np.flatnonzero(np.diff(batch[own], prepend=-1))
                sums[batch[own][starts]] += np.add.reduceat(rows, starts,
                                                            axis=0)
        return (S @ W + sums).T / tilde_n

    def end_epoch(self, state: EpochState, means: np.ndarray) -> VersionSpace:
        """Median-of-means scores from the (survivors x delta_T) batch
        means, threshold pruning, next version space."""
        if np.shape(means) != (len(state.vs), self.delta_T):
            raise ValueError("end_epoch needs delta_T batch means per "
                             "survivor")
        # delta_T batches of one mean each: the lower median of the means
        return self._prune(state,
                           np.sort(means, axis=1)[:, (self.delta_T - 1) // 2])

    def _prune(self, state: EpochState, scores: np.ndarray) -> VersionSpace:
        thresh = scores.min() + 3.0 * state.r_m
        new_mask = np.zeros(self.pc.size, dtype=bool)
        new_mask[state.vs.indices[scores <= thresh]] = True
        return VersionSpace(self.pc, new_mask)

    def _play_epoch(self, state: EpochState, n: int,
                    rng: np.random.Generator, rng_env: np.random.Generator):
        """Play n rounds; returns (actions, losses, mean losses, means).

        Contexts, draws and losses are drawn whole, in that order.  Picked
        centres are one flat take per block of rounds: a finite set (few
        context rows) plays as one block, a sampler CHUNK rounds at a time.
        An epoch that plays its whole budget (n = n_m) is scored: means is
        ``_score``'s (survivors x delta_T) batch means, batch b's mean
        estimate of each survivor's smoothed loss.  Any other n forms
        nothing per survivor and means is None.
        """
        values, index = self.env.contexts.sample_many(rng_env, n)
        step = n if isinstance(self.env.contexts, FiniteContexts) else CHUNK
        blocks = [slice(s, min(s + step, n)) for s in range(0, n, step)]
        survivors = state.vs.indices

        def picked_centers(pick):
            parts = []
            for b in blocks:
                actions, flat = self._actions(values, index[b])
                flat *= actions.shape[1]  # row * |Pi| + survivor
                flat += survivors.take(pick[b])
                parts.append(actions.reshape((-1,) + actions.shape[2:])
                             .take(flat, axis=0))
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        a = self._draw(state, n, picked_centers, rng)
        loss, mean = self.env.realize_many(values, index, a, rng_env)
        if n != state.n_m:
            return a, loss, mean, None
        return a, loss, mean, self._score(state, values, index, a, loss)

    # -- full run ----------------------------------------------------------

    def check_cells(self, contexts) -> None:
        """The cell cap of ``segment_cuts`` for the class's actions at these
        contexts, at every h_m the horizon can reach (n_m >= delta_T)."""
        c = self.pc.actions_many(contexts)
        last = min(self.max_epochs, -(-self.config.T // self.delta_T))
        for h in sorted({self.schedule(m)[0] for m in range(1, last + 1)}):
            segment_cuts(self.pc.space, c, h)

    def run(self, rng: np.random.Generator,
            rng_env: Optional[np.random.Generator] = None) -> dict:
        """Full horizon: epoch m plays min(n_m, T - t) rounds, and the last,
        ceil(log2 T), every round left.  ``rng_env`` (defaults to ``rng``)
        drives contexts and loss noise so the environment stream is
        reproducible on its own.
        """
        T = self.config.T
        rng_env = rng_env or rng
        panel = self.env.context_panel(rng=rng)
        vs = VersionSpace(self.pc)
        if self.pc.space.d > 1:
            self.check_cells(panel[0])
        actions: List[np.ndarray] = []
        losses: List[np.ndarray] = []
        mean_losses: List[np.ndarray] = []
        epoch_rows = []
        t = 0
        for m in range(1, self.max_epochs + 1):
            state = self.start_epoch(m, vs, panel)
            n_play = T - t if m == self.max_epochs else min(state.n_m, T - t)
            a_arr, loss_arr, mean_arr, means = self._play_epoch(
                state, n_play, rng, rng_env)
            actions.append(a_arr)
            losses.append(loss_arr)
            mean_losses.append(mean_arr)
            epoch_rows.append({
                "m": state.m, "h_m": state.h_m, "r_m": state.r_m,
                "V_m": state.V_m, "survivors": len(state.vs),
                "n_m": state.n_m, "played": n_play,
                "solver_value": state.solver_value,
                "solver_iters": state.solver_iters,
                "eliminated": means is not None,
            })
            if means is not None:
                vs = self.end_epoch(state, means)
            t += n_play
            if t == T:
                break
        return {
            "actions": np.concatenate(actions),
            "losses": np.concatenate(losses),
            "mean_losses": np.concatenate(mean_losses),
            "epochs": epoch_rows,
            "final_version_space": vs,
        }
