"""Exponential-weights learning over smoothing-kernel policy classes.

The learner maintains weights over the finite class of stochastic policies
Xi = {K_h(pi(x)) : h in H, pi in Pi}: every base policy of the class composed
with the rectangular smoothing kernel of every bandwidth in H.  Each round it
samples a member from the weight distribution, samples an action from that
member's ball, and updates every member's weight with the importance-weighted
loss estimate built from the mixture propensity.

A restart-based stable variant tolerates externally importance-weighted
losses (as fed by a corralling master): whenever the revealing probability
drops below the current range guess, the guess doubles and the learner
restarts with a re-tuned learning rate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .kernels import RectKernel
from .policies import PolicyClass


class Exp4State:
    """Mutable exponential-weights state over a stochastic policy class.

    Xi is the bandwidths ``hs`` times the policy class, bandwidth-major:
    member j = i * |Pi| + p plays the kernel of hs[i] centered at
    pc.act(p, x).
    """

    def __init__(self, pc: PolicyClass, hs: Sequence[float], T: int):
        if T < 1:
            raise ValueError("horizon must be >= 1")
        if len(hs) == 0:
            raise ValueError("the bandwidth list must be nonempty")
        self.pc = pc
        self.kernels = [RectKernel(pc.space, h) for h in hs]
        self.T = T
        self.n = len(self.kernels) * pc.size
        self.kappa = max(k.kappa() for k in self.kernels)
        self.eta = self.tuned_eta()
        self.logw = np.zeros(self.n)
        self.t = 0
        self._pending: Optional[Tuple] = None

    def tuned_eta(self, rho: float = 1.0) -> float:
        """sqrt(2 ln|Xi| / (T kappa rho)), the rate tuned to a loss range rho
        (0 for a single member, which has nothing to learn)."""
        if self.n == 1:
            return 0.0
        return math.sqrt(2.0 * math.log(self.n) / (self.T * self.kappa * rho))

    # -- weights --------------------------------------------------------

    @property
    def logw(self) -> np.ndarray:
        return self._logw

    @logw.setter
    def logw(self, value: np.ndarray) -> None:
        # any write (``s.logw -= ...`` too) drops step's cached weights
        self._logw = value
        self._cum = None

    def density_vector(self, x, a, acts=None) -> np.ndarray:
        """xi(a|x) for every member of Xi (``acts``: pc.actions_at(x))."""
        if acts is None:
            acts = self.pc.actions_at(x)
        if len(self.kernels) == 1:
            return self.kernels[0].densities(acts, a)
        return np.concatenate([k.densities(acts, a) for k in self.kernels])

    # -- protocol ---------------------------------------------------------

    def step(self, x, rng: np.random.Generator):
        """Sample xi ~ P_t then a ~ xi(.|x); return a."""
        if self.t >= self.T:
            raise RuntimeError("horizon exhausted")
        if self._cum is None:
            # update leaves max(logw) == 0, so exp(logw) needs no shift
            w = np.exp(self.logw)
            self._P = w / w.sum()
            # bisect_left picks as searchsorted's default side="left" does
            self._cum = self._P.cumsum().tolist()
        j = min(bisect_left(self._cum, rng.random()), self.n - 1)
        i, pol = divmod(j, self.pc.size)
        acts = self.pc.actions_at(x)
        a = self.kernels[i].sample(acts[pol], rng)
        self._pending = (a, acts)
        return a

    def propensity(self, x) -> float:
        """The pending action's mixture propensity P_t . xi(a|x) under the
        weights its step drew from (a restart since does not move them),
        computed on the first call and kept with the densities."""
        if self._pending is None:
            raise RuntimeError("propensity must follow a step")
        if len(self._pending) == 2:
            a, acts = self._pending
            dens = self.density_vector(x, a, acts)
            self._pending = (a, acts, float(self._P @ dens), dens)
        p = self._pending[2]
        if p <= 0:
            raise ValueError("propensity must be positive")
        return p

    def update(self, x, a, observed_loss: float) -> np.ndarray:
        """Multiplicative update with the IW estimates; returns them.

        The action must come from the immediately preceding step (double
        updates rejected).  Zero estimates (a +-0.0 loss) leave logw, whose
        entries are +0.0 or negative, as it is: only the counter moves.
        """
        if self._pending is None or (self._pending[0] is not a and
                                     not np.array_equal(self._pending[0], a)):
            raise RuntimeError("update must follow its matching step")
        if observed_loss == 0.0:
            est = np.zeros(self.n)
        else:
            p = self.propensity(x)
            est = self._pending[3] * (observed_loss / p)
            logw = self.logw - self.eta * est
            logw -= logw.max()
            self.logw = logw
        self.t += 1
        self._pending = None
        return est

    def round(self, x, loss_eval: Callable[[object], float],
              rng: np.random.Generator):
        """One interaction, in the corralling master's protocol: step, feed
        back ``loss_eval`` at the played action; return (a, None)."""
        a = self.step(x, rng)
        self.update(x, a, loss_eval(a))
        return a, None


class StableExp4(Exp4State):
    """Exp4 under importance-weighted feeding, with doubling restarts.

    ``rho_hat`` guesses the range parameter max_t 1/p_t of the revealing
    probabilities; the rate is ``tuned_eta(rho_hat)``.  When a round's 1/p_t
    exceeds the guess, it doubles (repeatedly) and the learner restarts in
    place (uniform weights, re-tuned rate, same round counter) before
    absorbing that round.  ``stable_update`` alone writes the doubling rule.

    Run standalone, the learner absorbs every round and its counter enforces
    the horizon.  Under a corralling master it absorbs only the rounds it
    plays or restarts on, and the master's counter is the clock.
    """

    def __init__(self, pc: PolicyClass, hs: Sequence[float], T: int,
                 rho_hat: float = 1.0):
        if rho_hat < 1.0:
            raise ValueError("rho_hat must be >= 1")
        super().__init__(pc, hs, T)
        self.rho_hat = float(rho_hat)
        self.restart_count = 0
        self.eta = self.tuned_eta(self.rho_hat)

    def stable_update(self, x, a, iw_loss_value: float, p_t: float) -> None:
        """Absorb one round of the importance-weighted protocol.

        ``p_t`` is the revealing probability; ``iw_loss_value`` is the
        already importance-weighted scalar (zero on unrevealed rounds).
        ``a`` may be None when this learner took no action this round; the
        estimate is then identically zero and only the restart check runs.
        """
        if p_t <= 0 or p_t > 1:
            raise ValueError("revealing probability must lie in (0,1]")
        if 1.0 / p_t > self.rho_hat:
            while 1.0 / p_t > self.rho_hat:
                self.rho_hat *= 2.0
            self.logw = np.zeros(self.n)
            self.eta = self.tuned_eta(self.rho_hat)
            self.restart_count += 1
        if a is None:
            self.t += 1
            self._pending = None
        else:
            self.update(x, a, iw_loss_value)
