"""The exponential-weights learner with eager rounds, the reference for the
one that caches its weights: every step computes exp(logw), its normaliser
and cumsum, the density vector and the mixture propensity, and every update
applies the multiplicative arithmetic, a zero loss included."""

import numpy as np

from smoothcb.exp4 import Exp4State, StableExp4


def mixture_weights(learner) -> np.ndarray:
    """The learner's weight distribution P_t, exp(logw) normalised from the
    shift that makes its largest entry 0."""
    w = np.exp(learner.logw - learner.logw.max())
    return w / w.sum()


class EagerRounds:
    """step, propensity, update and round as one eager computation each."""

    def step(self, x, rng):
        if self.t >= self.T:
            raise RuntimeError("horizon exhausted")
        w = np.exp(self.logw)
        P = w / w.sum()
        j = min(int(P.cumsum().searchsorted(rng.random())), self.n - 1)
        i, pol = divmod(j, self.pc.size)
        acts = self.pc.actions_many([x])[0]
        a = self.kernels[i].sample(acts[pol], rng)
        dens = self.density_vector(x, a, acts)
        self._pending = (a, float(P @ dens), dens)
        return a

    def propensity(self, x):
        return self._pending[1]

    def update(self, x, a, observed_loss):
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

    def round(self, x, loss_eval, rng):
        a = self.step(x, rng)
        self.update(x, a, loss_eval(a))
        return a, None


class EagerExp4(EagerRounds, Exp4State):
    pass


class EagerStableExp4(EagerRounds, StableExp4):
    pass


def eager(learner):
    """Switch a fresh learner, in place, to the eager rounds of its class
    (as for the learners a corralling master builds)."""
    learner.__class__ = {Exp4State: EagerExp4,
                         StableExp4: EagerStableExp4}[type(learner)]
    return learner
