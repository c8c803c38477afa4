"""Log-barrier corralling of kappa-bucketed exponential-weights learners.

Bandwidths are grouped into buckets by ceil(log2 kappa).  Each bucket gets
a restart-stable exponential-weights learner over its bandwidths times the
policy class, Xi_b = {K_h(pi(x)) : h in bucket b, pi in Pi}, and a master
runs online mirror descent with the log-barrier regularizer over the
buckets, feeding each learner its importance-weighted scalar loss with
revealing probability equal to the master weight.  Master learning rates
increase by a fixed growth factor whenever a learner's weight crosses its
threshold (the threshold then doubles).

The master's round counter is the only clock.  A learner that does not play
sees a zero loss, which leaves its weights alone, so all it can do is
restart; one vector check 1/q > rho_hat over the learners' range guesses
finds the learners that do, and only they and the one that played absorb
the round.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .kernels import BandwidthGrid, RectKernel
from .policies import PolicyClass
from .exp4 import StableExp4

UNIFORM_H = "uniform_h"
LIPSCHITZ_ADAPTIVE = "lipschitz_adaptive"

# the master's normaliser search: |f(lam)| below OMD_TOL, or OMD_MAX_ITER
# safeguarded Newton steps
OMD_TOL = 1e-13
OMD_MAX_ITER = 60


class CorralMaster:
    """Mirror-descent master over bucketed stable learners.

    ``buckets`` maps each bucket id ceil(log2 kappa) (0 for kappa = 1) to
    its bandwidths, in the order given; bucket b's learner runs over those
    bandwidths times the policy class.
    """

    def __init__(self, pc: PolicyClass, hs: Sequence[float], T: int,
                 eta: float):
        if len(hs) == 0:
            raise ValueError("the bandwidth family must be nonempty")
        self.T = T
        self.buckets: Dict[int, List[float]] = {}
        for h in hs:
            kappa = RectKernel(pc.space, h).kappa()
            b = math.ceil(math.log2(kappa)) if kappa > 1 else 0
            self.buckets.setdefault(b, []).append(h)
        self.bucket_ids = sorted(self.buckets)
        B = len(self.bucket_ids)
        self.subs = [StableExp4(pc, self.buckets[b], T, rho_hat=max(1, B))
                     for b in self.bucket_ids]
        # the learners' range guesses, refreshed when one restarts
        self.rho_hats = np.array([s.rho_hat for s in self.subs])
        self.q = np.full(B, 1.0 / B)
        self.etas = np.full(B, eta)
        self.rhos = np.full(B, 2.0 * B)
        self.growth = math.exp(1.0 / math.log(T)) if T > 2 else 2.0
        self.t = 0

    # -- master OMD -------------------------------------------------------

    def _omd_step(self, losses: np.ndarray) -> None:
        # q_new solves 1/q_new_b = inv_b - eta_b * lam with sum(q_new) = 1;
        # the normalizer lam is the root of the increasing convex function
        # f(lam) = sum 1/(inv - eta*lam) - 1.  Losses are nonnegative, so
        # f(0) <= 0 and the root lies in [0, min(inv/eta)).  Newton from 0
        # overshoots on a convex increasing f, so a step that leaves the
        # bracket is replaced by bisection.
        etas = self.etas
        inv = 1.0 / self.q + etas * losses
        lo, hi = 0.0, float((inv / etas).min())
        lam = 0.0
        for _ in range(OMD_MAX_ITER):
            r = 1.0 / (inv - etas * lam)
            val = float(r.sum()) - 1.0
            if abs(val) < OMD_TOL:
                break
            if val > 0.0:
                hi = lam
            else:
                lo = lam
            nxt = lam - val / float(etas @ (r * r))
            lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        else:  # out of iterations: r is still at the previous lam
            r = 1.0 / (inv - etas * lam)
        self.q = r / r.sum()

    # -- protocol ----------------------------------------------------------

    def round(self, x, loss_eval: Callable[[object], float],
              rng: np.random.Generator) -> Tuple[object, dict]:
        """One interaction: pick a learner, play its action, feed it.

        ``loss_eval`` evaluates the realized loss at the played action.
        With a single bucket no master randomness is consumed and the
        trajectory coincides exactly with the learner run standalone.
        Round T + 1 raises RuntimeError.
        """
        if self.t >= self.T:
            raise RuntimeError("horizon exhausted")
        B = len(self.subs)
        q = self.q
        if B == 1:
            b_t = 0
        else:
            b_t = min(int(q.cumsum().searchsorted(rng.random())), B - 1)
        q_bt = float(q[b_t])
        played = self.subs[b_t]
        a = played.step(x, rng)
        loss = float(loss_eval(a))
        tilde = np.zeros(B)
        tilde[b_t] = loss / q_bt
        # stable_update's restart check, for every learner at once
        restart = (1.0 / q > self.rho_hats).nonzero()[0]
        played.stable_update(x, a, loss / q_bt, q_bt)
        for b in restart:
            if b != b_t:
                # fed a zero loss, so the restart is all the round does
                self.subs[b].stable_update(x, None, 0.0, float(q[b]))
            self.rho_hats[b] = self.subs[b].rho_hat
        if B > 1:
            self._omd_step(tilde)
            crossed = (1.0 / self.q > self.rhos).nonzero()[0]
            if len(crossed):
                self.rhos[crossed] = 2.0 / self.q[crossed]
                self.etas[crossed] *= self.growth
        self.t += 1
        record = {
            "b": self.bucket_ids[b_t], "q_b": q_bt, "loss": loss,
            "restarts": [s.restart_count for s in self.subs],
        }
        return a, record


def build(pc: PolicyClass, T: int, beta: float = 1.0,
          mode: str = UNIFORM_H) -> CorralMaster:
    """Assemble a corralling master.

    Modes:

    * uniform_h: the bandwidth grid's snaps of 2^(-j/d) down to T^(-1/d),
      bucketed by kappa (on the ring, bucket 0 holds h = 1/2 and h = 1);
      eta = T^(-1/(1+beta)) * ln(|Pi| d T)^(-beta/(1+beta)).
    * lipschitz_adaptive: geometric bandwidth grid tied to the master rate;
      eta = T^(-(1+d beta)/(1+(d+1) beta)) * ln(|Pi| d T)^(-beta/(1+(d+1)beta)).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0,1]")
    d = pc.space.d
    if mode == UNIFORM_H:
        grid = BandwidthGrid(d, T)
        eta = (T ** (-1.0 / (1.0 + beta))
               * math.log(pc.size * d * T) ** (-beta / (1.0 + beta)))
        hs = set()
        j = 0
        floor_h = T ** (-1.0 / d)
        while True:
            h = 2.0 ** (-j / d)
            if h < floor_h:
                break
            hs.add(grid.snap(h))
            j += 1
    elif mode == LIPSCHITZ_ADAPTIVE:
        eta = (T ** (-(1.0 + d * beta) / (1.0 + (d + 1.0) * beta))
               * math.log(pc.size * d * T)
               ** (-beta / (1.0 + (d + 1.0) * beta)))
        base = (eta * math.log(pc.size * math.log2(T))) ** (beta / (d * beta + 1.0))
        hs = set()
        for i in range(1, math.ceil(math.log2(T)) + 1):
            h = base * 2.0 ** (-i / (d * beta + 1.0))
            if 0.0 < h <= 1.0:
                hs.add(h)
        if not hs:
            hs = {0.5}
    else:
        raise ValueError(f"unknown corral mode: {mode!r}")
    return CorralMaster(pc, sorted(hs), T, eta=eta)
