import copy
import math
from bisect import bisect_left

import numpy as np
import pytest
from exp4_reference import (EagerExp4, EagerStableExp4, eager,
                            mixture_weights)

from smoothcb import corral
from smoothcb.environments import (FiniteContexts, StochasticEnv,
                                   make_named_instance)
from smoothcb.exp4 import Exp4State, StableExp4
from smoothcb.harness import default_policy_class
from smoothcb.kernels import RectKernel
from smoothcb.losses import PiecewiseConstantLoss
from smoothcb.policies import PolicyClass
from smoothcb.spaces import ActionSpace


def _state(actions, h=0.1, T=100, eta=None):
    space = ActionSpace.ring()
    pc = PolicyClass.constant(space, actions)
    s = Exp4State(pc, [h], T)
    if eta is not None:
        s.eta = eta
    return s


def _replay(state, x, a, observed_loss, propensity):
    """Absorb a logged action with a given propensity against the current
    weights: update's estimate with that propensity and the densities at a."""
    state._pending = (a, None, propensity, state.density_vector(x, a))
    return state.update(x, a, observed_loss)


class TestLearningRate:
    def test_default_formula(self):
        s = _state(np.linspace(0, 0.99, 100), h=0.1, T=10000)
        assert s.eta == pytest.approx(
            math.sqrt(2 * math.log(100) / (10000 * 5.0)), abs=1e-9)
        assert s.eta == pytest.approx(0.013572, abs=1e-6)

    def test_singleton_class_rate_zero(self):
        s = _state([0.5])
        assert s.eta == 0.0

    def test_explicit_rate_kept(self):
        s = _state([0.1, 0.9], eta=0.01)
        assert s.eta == 0.01

    def test_dirac_kernel_rejected(self):
        space = ActionSpace.ring()
        pc = PolicyClass.constant(space, [0.5])
        with pytest.raises(ValueError):
            Exp4State(pc, [0.0], 10)


class TestPropensity:
    def test_singleton_equals_kernel_density(self):
        s = _state([0.5])
        rng = np.random.default_rng(0)
        a = s.step(None, rng)
        p = s.propensity(None)
        assert p == pytest.approx(RectKernel(s.pc.space, 0.1).density(0.5, a))

    def test_duplicate_members_match_single(self):
        s2 = _state([0.5, 0.5])
        rng = np.random.default_rng(1)
        a = s2.step(None, rng)
        p = s2.propensity(None)
        assert p == pytest.approx(
            RectKernel(s2.pc.space, 0.1).density(0.5, a))

    def test_two_ball_mixture(self):
        s = _state([0.2, 0.6])
        dens = s.density_vector(None, 0.25)
        assert np.allclose(dens, [5.0, 0.0])
        assert float(np.dot(mixture_weights(s), dens)) == pytest.approx(2.5)


def _policy_case(kind):
    """(policy class, context draw) for one space kind and representation."""
    rng = np.random.default_rng(11)
    if kind == "ring-constant":
        pc = PolicyClass.constant(ActionSpace.ring(), [0.05, 0.4, 0.41, 0.97])
        return pc, lambda r: None
    if kind == "cube1-tabular":
        pc = PolicyClass.tabular(ActionSpace.cube(1), rng.random((3, 5)))
        return pc, lambda r: int(r.integers(3))
    if kind == "cube1-linear":
        ws = rng.standard_normal((6, 2))
        ws /= np.linalg.norm(ws, axis=1, keepdims=True)
        pc = PolicyClass.linear_sphere(ActionSpace.cube(1), ws)

        def draw(r):
            v = r.standard_normal(2)
            return v / np.linalg.norm(v)
        return pc, draw
    if kind == "cube2-constant":
        pc = PolicyClass.constant(ActionSpace.cube(2), rng.random((4, 2)))
        return pc, lambda r: None
    if kind == "cube2-tabular":
        pc = PolicyClass.tabular(ActionSpace.cube(2), rng.random((3, 4, 2)))
        return pc, lambda r: int(r.integers(3))


class TestPropensityEverySpace:
    """step's propensity is sum_j P_j * kernel_j.density(pi_j(x), a),
    computed member by member."""

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("kind", ["ring-constant", "cube1-tabular",
                                      "cube1-linear", "cube2-constant",
                                      "cube2-tabular"])
    def test_matches_member_sum(self, kind, mixed):
        pc, draw = _policy_case(kind)
        hs = (0.15, 0.4) if mixed else (0.15,)
        kernels = [RectKernel(pc.space, h) for h in hs for _ in range(pc.size)]
        idxs = np.tile(np.arange(pc.size), len(hs))
        s = Exp4State(pc, hs, T=40)
        s.eta = 0.5
        rng = np.random.default_rng(12)
        for _ in range(40):
            x = draw(rng)
            P = mixture_weights(s).copy()
            a = s.step(x, rng)
            p = s.propensity(x)
            want = sum(P[j] * k.density(pc.act(int(i), x), a)
                       for j, (k, i) in enumerate(zip(kernels, idxs)))
            assert p > 0.0
            assert p == pytest.approx(want, rel=1e-12)
            s.update(x, a, float(rng.random()))


class TestUpdate:
    def test_zero_loss_no_change(self):
        s = _state([0.2, 0.6])
        rng = np.random.default_rng(2)
        a = s.step(None, rng)
        before = mixture_weights(s).copy()
        s.update(None, a, 0.0)
        assert np.allclose(mixture_weights(s), before)

    def test_unsupported_members_keep_relative_weight(self):
        s = _state([0.2, 0.6, 0.62])
        a = 0.22  # inside member 0's ball only
        est = _replay(s, None, a, 0.5, 1.0)
        assert est[1] == est[2] == 0.0
        P = mixture_weights(s)
        assert P[1] == pytest.approx(P[2], abs=1e-12)
        assert P[0] < P[1]

    def test_double_update_rejected(self):
        s = _state([0.2, 0.6])
        rng = np.random.default_rng(4)
        a = s.step(None, rng)
        s.update(None, a, 0.5)
        with pytest.raises(RuntimeError):
            s.update(None, a, 0.5)

    def test_horizon_enforced(self):
        s = _state([0.2, 0.6], T=1)
        rng = np.random.default_rng(5)
        a = s.step(None, rng)
        s.update(None, a, 0.5)
        with pytest.raises(RuntimeError):
            s.step(None, rng)

    def test_expected_estimate_equals_loss(self):
        # mixture cancellation: sum_xi P(xi) estimate(xi) = observed loss
        s = _state(np.linspace(0, 0.9, 10))
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = s.step(None, rng)
            P = mixture_weights(s).copy()
            loss = float(rng.random())
            est = s.update(None, a, loss)
            assert float(np.dot(P, est)) == pytest.approx(loss, abs=1e-10)

    def test_shift_invariance(self):
        # adding a constant to every member's estimate in a round leaves
        # the next weight distribution unchanged
        s1 = _state([0.2, 0.4, 0.6], eta=0.05)
        s2 = _state([0.2, 0.4, 0.6], eta=0.05)
        est = np.array([1.0, 0.3, 0.0])
        s1.logw -= s1.eta * est
        s2.logw -= s2.eta * (est + 7.0)
        w1 = np.exp(s1.logw - s1.logw.max())
        w2 = np.exp(s2.logw - s2.logw.max())
        assert np.allclose(w1 / w1.sum(), w2 / w2.sum())


class TestStepInvariants:
    """step draws from exp(logw) / sum, which is P because every update
    leaves max(logw) == 0."""

    @staticmethod
    def _step_checked(learner, rng):
        P = mixture_weights(learner)
        u = copy.deepcopy(rng).random()
        a = learner.step(None, rng)
        p = learner.propensity(None)
        # well separated balls, so the action names the member drawn; it
        # is P's draw, and the mixture propensity is P's too
        centers = learner.pc.actions_at(None)
        j = int(np.argmin(learner.pc.space.distances(centers, a)))
        assert j == min(int(np.searchsorted(np.cumsum(P), u)), learner.n - 1)
        assert p == float(P @ learner._pending[3])
        return a

    def test_plain_learner(self):
        s = _state([0.1, 0.3, 0.5, 0.7, 0.9], h=0.05, T=400, eta=0.3)
        rng = np.random.default_rng(12)
        for _ in range(400):
            a = self._step_checked(s, rng)
            s.update(None, a, a)
            assert s.logw.max() == 0.0

    def test_stable_learner_across_restarts(self):
        space = ActionSpace.ring()
        pc = PolicyClass.constant(space, [0.1, 0.3, 0.5, 0.7, 0.9])
        st = StableExp4(pc, [0.05], 400)
        rng = np.random.default_rng(13)
        for t in range(200):
            a = self._step_checked(st, rng)
            p_t = 1.0 / (t + 1)
            st.stable_update(None, a, a / p_t, p_t)
            assert st.logw.max() == 0.0
        assert st.restart_count >= 5


class TestMemberPick:
    def test_bisect_equals_searchsorted(self):
        # step picks with bisect_left on the cumulative weights as a list:
        # searchsorted's default side="left" on the array, ties and
        # zero-weight members included
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            w = rng.random(n) * (rng.random(n) < 0.7)
            w[rng.integers(n)] = 1.0
            cum = (w / w.sum()).cumsum()
            us = np.concatenate([rng.random(50), cum, np.nextafter(cum, 0.0),
                                 np.nextafter(cum, 2.0), [0.0]])
            lst = cum.tolist()
            for u in us.tolist():
                assert bisect_left(lst, u) == int(cum.searchsorted(u))


class TestHedgeInequality:
    def test_recorded_trajectories(self):
        # cumulative expected estimate minus the best member's total is
        # bounded by (eta/2) sum E[est^2] + ln|Xi| / eta, per trajectory
        env = make_named_instance("absolute")
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            s = _state(np.linspace(0, 0.95, 20), T=200)
            lhs_mix = 0.0
            sq_term = 0.0
            totals = np.zeros(s.n)
            for _ in range(200):
                x = env.contexts.sample(rng)
                a = s.step(x, rng)
                loss, _ = env.realize_at(x, a, rng)
                P = mixture_weights(s).copy()
                est = s.update(x, a, loss)
                lhs_mix += float(np.dot(P, est))
                sq_term += float(np.dot(P, est ** 2))
                totals += est
            lhs = lhs_mix - totals.min()
            rhs = s.eta / 2.0 * sq_term + math.log(s.n) / s.eta
            assert lhs <= rhs + 1e-9


class TestStableVariant:
    def _stable(self, rho=1.0, T=100):
        space = ActionSpace.ring()
        pc = PolicyClass.constant(space, [0.2, 0.6])
        return StableExp4(pc, [0.1], T, rho_hat=rho)

    def test_full_reveal_never_restarts(self):
        st = self._stable()
        plain = _state([0.2, 0.6], eta=st.eta)
        rng1, rng2 = (np.random.default_rng(7) for _ in range(2))
        for _ in range(50):
            a1 = st.step(None, rng1)
            a2 = plain.step(None, rng2)
            assert a1 == a2
            loss = 0.3
            st.stable_update(None, a1, loss, 1.0)
            plain.update(None, a2, loss)
        assert st.restart_count == 0
        assert np.allclose(st.logw, plain.logw)

    def test_doubling_to_power_of_two(self):
        st = self._stable(rho=1.0)
        rng = np.random.default_rng(8)
        a = st.step(None, rng)
        st.stable_update(None, a, 0.5, 0.1)
        assert st.rho_hat == 16.0
        assert st.restart_count == 1

    def test_restart_retunes_rate(self):
        st = self._stable(rho=1.0, T=100)
        eta0 = st.eta
        rng = np.random.default_rng(9)
        a = st.step(None, rng)
        st.stable_update(None, a, 0.5, 0.1)
        assert st.eta == pytest.approx(eta0 / 4.0)

    def test_unrevealed_round_no_weight_change(self):
        st = self._stable(rho=4.0)
        rng = np.random.default_rng(10)
        st.step(None, rng)
        before = st.logw.copy()
        st.stable_update(None, None, 0.0, 0.5)
        assert np.allclose(st.logw, before)
        assert st.t == 1


class TestRestartInPlace:
    """The in-place restart against the restart as a fresh learner: a new
    Exp4State at the doubled range's rate that carries the round counter
    and absorbs the round as a replay with the step's propensity."""

    def test_matches_fresh_learner_restart(self):
        space = ActionSpace.ring()
        pc = PolicyClass.constant(space, [0.1, 0.3, 0.5, 0.7, 0.9])
        T, rho = 400, 2.0
        kappa = RectKernel(space, 0.05).kappa()

        def fresh(t):
            eta = math.sqrt(2.0 * math.log(5) / (T * kappa * rho))
            ref = Exp4State(pc, [0.05], T)
            ref.eta = eta
            ref.t = t
            return ref

        st = StableExp4(pc, [0.05], T, rho_hat=rho)
        ref = fresh(0)
        rng_s, rng_r = (np.random.default_rng(21) for _ in range(2))
        restarts = {True: 0, False: 0}
        for t in range(T):
            # p_t = 1/(t+1) restarts at t = 2, 4, 8, ...; plays alternate
            # with idle rounds over those doubling stretches
            p_t = 1.0 / (t + 1)
            play = t.bit_length() % 2 == 0
            restart = 1.0 / p_t > rho
            if play:
                a = st.step(None, rng_s)
                p = st.propensity(None)
                a_r = ref.step(None, rng_r)
                p_r = ref.propensity(None)
                assert a == a_r and p == p_r
                st.stable_update(None, a, a / p_t, p_t)
            else:
                st.stable_update(None, None, 0.0, p_t)
            if restart:
                while 1.0 / p_t > rho:
                    rho *= 2.0
                ref = fresh(ref.t)
                restarts[play] += 1
            if play and restart:
                _replay(ref, None, a_r, a_r / p_t, p_r)
            elif play:
                ref.update(None, a_r, a_r / p_t)
            else:
                ref.t += 1
            assert _bits(st.logw) == _bits(ref.logw)
            assert st.eta == ref.eta
            assert st.t == ref.t
            assert st.rho_hat == rho
        # not vacuous: restarts on played and on idle rounds
        assert restarts[True] > 0 and restarts[False] > 0
        assert st.restart_count == restarts[True] + restarts[False]


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _zero_below_env(noise):
    # zero mean loss below 0.3: exact zeros without noise
    mean = PiecewiseConstantLoss([0.0, 0.3, 0.6, 1.0], [0.0, 0.4, 0.9])
    return StochasticEnv(ActionSpace.cube(1), FiniteContexts([None]),
                         lambda xs: mean, noise=noise)


def _sphere_case():
    env = make_named_instance("linear_sphere")
    w = np.random.default_rng(3).normal(size=(12, 2))
    return env, PolicyClass.linear_sphere(
        env.space, w / np.linalg.norm(w, axis=1)[:, None])


# (env, policy class) per space and noise model
_EAGER_CASES = {
    "ring-bernoulli": lambda: make_named_instance("discontinuous"),
    "ring-deterministic": lambda: make_named_instance(
        "absolute", noise="deterministic"),
    "cube1-contextual": _sphere_case,
    "cube1-deterministic": lambda: make_named_instance(
        "needle_L", noise="deterministic"),
    "cube2-bernoulli": lambda: make_named_instance("needle_h", d=2),
    "cube1-zeros-deterministic": lambda: _zero_below_env("deterministic"),
    "cube1-zeros-bernoulli": lambda: _zero_below_env("bernoulli"),
}


def _eager_case(kind):
    made = _EAGER_CASES[kind]()
    if isinstance(made, tuple):
        return made
    return made, default_policy_class(made, 16)


class TestAgainstEagerReference:
    """The learner that caches its weights and skips zero-loss rounds plays
    the eager learner's actions and holds its logw bytes after every round."""

    T = 300

    @pytest.mark.parametrize("hs", [(0.1,), (0.05, 0.2, 0.5)])
    @pytest.mark.parametrize("kind", sorted(_EAGER_CASES))
    def test_plain_learner(self, kind, hs):
        env, pc = _eager_case(kind)
        new, ref = Exp4State(pc, hs, self.T), EagerExp4(pc, hs, self.T)
        rngs = [(np.random.default_rng(5), np.random.default_rng(6))
                for _ in range(2)]
        zeros = 0
        for _ in range(self.T):
            out = []
            for s, (env_rng, alg_rng) in zip((new, ref), rngs):
                x = env.contexts.sample(env_rng)
                a = s.step(x, alg_rng)
                loss = env.realize_at(x, a, env_rng)[0]
                out.append((a, loss, s.update(x, a, loss)))
            (a_n, loss_n, est_n), (a_r, loss_r, est_r) = out
            assert _bits(a_n) == _bits(a_r)
            assert _bits(loss_n) == _bits(loss_r)
            assert np.array_equal(est_n, est_r)
            assert _bits(new.logw) == _bits(ref.logw)
            zeros += loss_n == 0.0
        # not vacuous: both kinds of round are played, except that the
        # deterministic ring and 1-d cube fields have no zero
        assert zeros < self.T
        assert zeros > 0 or kind in ("ring-deterministic",
                                     "cube1-deterministic")

    def test_round_matches(self):
        env, pc = _eager_case("ring-bernoulli")
        out = []
        for s in (Exp4State(pc, [0.1], self.T), EagerExp4(pc, [0.1], self.T)):
            env_rng, alg_rng = (np.random.default_rng(i) for i in (1, 2))
            acts = []
            for _ in range(self.T):
                x = env.contexts.sample(env_rng)
                a, rec = s.round(
                    x, lambda a: env.realize_at(x, a, env_rng)[0], alg_rng)
                assert rec is None
                acts.append(a)
            out.append((_bits(acts), _bits(s.logw)))
        assert out[0] == out[1]

    def test_stable_learner_across_restarts(self):
        env, pc = _eager_case("ring-bernoulli")
        T = 600
        new = StableExp4(pc, [0.1], T)
        ref = EagerStableExp4(pc, [0.1], T)
        rngs = [(np.random.default_rng(8), np.random.default_rng(9))
                for _ in range(2)]
        for t in range(T):
            # revealing probabilities that fall, on played and idle rounds
            p_t = 1.0 / (1 + t // 3)
            play = t % 3 != 2
            acts = []
            for s, (env_rng, alg_rng) in zip((new, ref), rngs):
                if play:
                    a = s.step(None, alg_rng)
                    loss = env.realize_at(None, a, env_rng)[0]
                    s.stable_update(None, a, loss / p_t, p_t)
                    acts.append(a)
                else:
                    s.stable_update(None, None, 0.0, p_t)
            if play:
                assert _bits(acts[0]) == _bits(acts[1])
            assert _bits(new.logw) == _bits(ref.logw)
            assert (new.eta, new.rho_hat, new.t) == (ref.eta, ref.rho_hat,
                                                     ref.t)
        assert new.restart_count == ref.restart_count >= 5

    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_bucket_corral(self, seed):
        env = make_named_instance("needle_h", h=1 / 32, index=1)
        pc = default_policy_class(env, 16)
        T = 1000
        new, ref = (corral.build(pc, T, mode=corral.UNIFORM_H)
                    for _ in range(2))
        for s in ref.subs:
            eager(s)
        assert len(new.subs) > 2
        rngs = [(np.random.default_rng(seed), np.random.default_rng(seed + 50))
                for _ in range(2)]
        for _ in range(T):
            out = []
            for m, (env_rng, alg_rng) in zip((new, ref), rngs):
                out.append(m.round(
                    None, lambda a: env.realize_at(None, a, env_rng)[0],
                    alg_rng))
            (a_n, rec_n), (a_r, rec_r) = out
            assert _bits(a_n) == _bits(a_r)
            assert rec_n == rec_r
            assert _bits(new.q) == _bits(ref.q)
            for s_n, s_r in zip(new.subs, ref.subs):
                assert _bits(s_n.logw) == _bits(s_r.logw)
        assert sum(rec_n["restarts"]) > 0


class TestZeroLossRound:
    """Every entry of logw is +0.0 or negative, so a +-0.0 loss leaves it,
    and the weights step caches, as they are."""

    @staticmethod
    def _signs_hold(logw):
        # +0.0 or negative: no -0.0, and the maximum is +0.0
        m = logw.max()
        return (m == 0.0 and not np.signbit(m)
                and not np.any((logw == 0.0) & np.signbit(logw)))

    def test_sign_invariant(self):
        env, pc = _eager_case("cube1-zeros-deterministic")
        for s in (Exp4State(pc, [0.05, 0.2], 500),
                  StableExp4(pc, [0.05, 0.2], 500)):
            rng = np.random.default_rng(4)
            assert self._signs_hold(s.logw)
            for t in range(500):
                x = env.contexts.sample(rng)
                a = s.step(x, rng)
                loss = env.realize_at(x, a, rng)[0]
                if isinstance(s, StableExp4):
                    s.stable_update(x, a, loss * (t + 1), 1.0 / (t + 1))
                else:
                    s.update(x, a, loss)
                assert self._signs_hold(s.logw)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_loss_touches_nothing(self, zero):
        s = _state([0.2, 0.4, 0.6], eta=0.3)
        rng = np.random.default_rng(1)
        a = s.step(None, rng)
        s.update(None, a, 0.7)  # logw is no longer uniform
        a = s.step(None, rng)
        logw, cum, P = s.logw, s._cum, s._P
        saved = _bits(logw), _bits(cum)
        est = s.update(None, a, zero)
        assert np.array_equal(est, np.zeros(3))
        assert s.logw is logw and s._cum is cum
        s.step(None, rng)
        assert s.logw is logw and s._cum is cum and s._P is P
        assert (_bits(logw), _bits(cum)) == saved
        assert s.t == 2

    def _refreshed(self, s, rng):
        # the next step draws from weights computed again from logw
        assert s._cum is None
        s.step(None, rng)
        w = np.exp(s.logw)
        assert _bits(s._cum) == _bits((w / w.sum()).cumsum())

    def test_writes_refresh_the_weights(self):
        rng = np.random.default_rng(2)
        s = _state([0.2, 0.4, 0.6], eta=0.3)
        a = s.step(None, rng)
        s.update(None, a, 0.7)
        self._refreshed(s, rng)
        s.logw = np.array([-1.0, 0.0, -2.0])
        self._refreshed(s, rng)
        s.logw -= np.array([0.0, 0.5, 0.0])
        self._refreshed(s, rng)

    def test_restart_refreshes_the_weights(self):
        space = ActionSpace.ring()
        st = StableExp4(PolicyClass.constant(space, [0.2, 0.6]), [0.1], 100)
        rng = np.random.default_rng(3)
        a = st.step(None, rng)
        st.update(None, a, 0.7)
        st.step(None, rng)
        st.stable_update(None, None, 0.0, 0.1)
        assert st.restart_count == 1
        self._refreshed(st, rng)
        assert _bits(st._cum) == _bits([0.5, 1.0])

    def test_propensity_computed_once(self):
        s = _state([0.2, 0.25, 0.6])
        rng = np.random.default_rng(4)
        with pytest.raises(RuntimeError):
            s.propensity(None)
        a = s.step(None, rng)
        p = s.propensity(None)
        dens = s._pending[3]
        assert s.propensity(None) == p and s._pending[3] is dens
        assert p == float(mixture_weights(s) @ s.density_vector(None, a))
