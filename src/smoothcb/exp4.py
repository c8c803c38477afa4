"""Exponential-weights learning over smoothing-kernel policy classes.

The learner maintains weights over a finite class of stochastic policies
xi = K(pi(x)): a base policy pi composed with a rectangular smoothing kernel
K.  Each round it samples a policy from the weight distribution, samples an
action from that policy's ball, and updates every policy's weight with the
importance-weighted loss estimate built from the mixture propensity.

A restart-based stable variant tolerates externally importance-weighted
losses (as fed by a corralling master): whenever the revealing probability
drops below the current range guess, the guess doubles and the learner
restarts with a re-tuned learning rate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kernels import RectKernel
from .policies import PolicyClass


class Exp4State:
    """Mutable exponential-weights state over a stochastic policy class.

    ``kernels`` and ``policy_indices`` together define Xi: member j plays
    kernels[j] centered at pc.act(policy_indices[j], x).
    """

    def __init__(self, pc: PolicyClass, kernels: Sequence[RectKernel],
                 policy_indices: Sequence[int], T: int,
                 eta: Optional[float] = None):
        if T < 1:
            raise ValueError("horizon must be >= 1")
        if len(kernels) != len(policy_indices) or len(kernels) == 0:
            raise ValueError("kernels and policy_indices must align, nonempty")
        if any(k.h == 0.0 for k in kernels):
            raise ValueError("algorithms reject the Dirac kernel h=0")
        self.pc = pc
        self.kernels = list(kernels)
        self.policy_indices = np.asarray(policy_indices, dtype=int)
        self.T = T
        self.n = len(self.kernels)
        self.kappa = max(k.kappa() for k in self.kernels)
        self.eta = self.tuned_eta() if eta is None else eta
        self.logw = np.zeros(self.n)
        self.t = 0
        self._pending: Optional[Tuple] = None
        # group members by kernel so densities vectorize per group:
        # (kernel, member indices, their policy indices)
        self._groups: List[Tuple[RectKernel, np.ndarray, np.ndarray]] = []
        seen = {}
        for j, k in enumerate(self.kernels):
            seen.setdefault((id(k.space), k.h), (k, []))[1].append(j)
        for k, idxs in seen.values():
            idxs = np.asarray(idxs, dtype=int)
            self._groups.append((k, idxs, self.policy_indices[idxs]))

    @staticmethod
    def for_kernel(kernel: RectKernel, pc: PolicyClass, T: int,
                   eta: Optional[float] = None) -> "Exp4State":
        """All base policies under a single smoothing kernel."""
        return Exp4State(pc, [kernel] * pc.size, np.arange(pc.size), T, eta)

    def tuned_eta(self, rho: float = 1.0) -> float:
        """sqrt(2 ln|Xi| / (T kappa rho)), the rate tuned to a loss range rho
        (0 for a single member, which has nothing to learn)."""
        if self.n == 1:
            return 0.0
        return math.sqrt(2.0 * math.log(self.n) / (self.T * self.kappa * rho))

    # -- weights --------------------------------------------------------

    @property
    def P(self) -> np.ndarray:
        w = np.exp(self.logw - self.logw.max())
        return w / w.sum()

    def density_vector(self, x, a, acts=None) -> np.ndarray:
        """xi(a|x) for every member of Xi (``acts``: pc.actions_at(x))."""
        if acts is None:
            acts = self.pc.actions_at(x)
        if len(self._groups) == 1:
            # one kernel: its members are all of Xi, in order
            kernel, _, pols = self._groups[0]
            return kernel.densities(acts[pols], a)
        out = np.zeros(self.n)
        for kernel, idxs, pols in self._groups:
            out[idxs] = kernel.densities(acts[pols], a)
        return out

    # -- protocol ---------------------------------------------------------

    def step(self, x, rng: np.random.Generator):
        """Sample xi ~ P_t then a ~ xi(.|x); return (a, mixture propensity)."""
        if self.t >= self.T:
            raise RuntimeError("horizon exhausted")
        # update leaves max(logw) == 0, so these are the weights P gives
        w = np.exp(self.logw)
        P = w / w.sum()
        j = min(int(P.cumsum().searchsorted(rng.random())), self.n - 1)
        acts = self.pc.actions_at(x)
        a = self.kernels[j].sample(acts[self.policy_indices[j]], rng)
        dens = self.density_vector(x, a, acts)
        p = float(P @ dens)
        self._pending = (a, p, dens)
        return a, p

    def update(self, x, a, observed_loss: float) -> np.ndarray:
        """Multiplicative update with the IW estimates; returns them.

        The action must come from the immediately preceding step (double
        updates rejected), whose propensity and densities it reuses.
        """
        if self._pending is None or (self._pending[0] is not a and
                                     not np.array_equal(self._pending[0], a)):
            raise RuntimeError("update must follow its matching step")
        _, p, dens = self._pending
        if p <= 0:
            raise ValueError("propensity must be positive")
        est = dens * (observed_loss / p)
        self.logw = self.logw - self.eta * est
        self.logw -= self.logw.max()
        self.t += 1
        self._pending = None
        return est


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

    def __init__(self, pc: PolicyClass, kernels: Sequence[RectKernel],
                 policy_indices: Sequence[int], T: int,
                 rho_hat: float = 1.0):
        if rho_hat < 1.0:
            raise ValueError("rho_hat must be >= 1")
        super().__init__(pc, kernels, policy_indices, T)
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
