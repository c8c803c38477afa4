import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from bandwidth_grid import grid_contains

from smoothcb import corral
from smoothcb.environments import make_named_instance
from smoothcb.exp4 import StableExp4
from smoothcb.kernels import BandwidthGrid, RectKernel
from smoothcb.policies import PolicyClass
from smoothcb.spaces import ActionSpace


def _pc(actions=(0.2, 0.5, 0.8)):
    return PolicyClass.constant(ActionSpace.ring(), list(actions))


class TestBuckets:
    def test_partition_by_log_kappa(self):
        # kappa = 1/(2h): h values giving kappa 3, 5, 9
        hs = [1 / 6, 0.1, 1 / 18]
        master = corral.CorralMaster(_pc(), hs, 64, eta=64 ** -0.5)
        assert master.bucket_ids == [2, 3, 4]
        assert master.buckets[2] == [hs[0]]
        assert master.buckets[3] == [hs[1]]
        assert master.buckets[4] == [hs[2]]

    def test_kappa_cap_per_bucket(self):
        pc = _pc()
        master = corral.CorralMaster(pc, [0.5, 0.3, 0.2, 0.1, 0.05], 64,
                                     eta=64 ** -0.5)
        for b in master.bucket_ids:
            kappa_b = max(RectKernel(pc.space, h).kappa()
                          for h in master.buckets[b])
            assert kappa_b <= 2.0 ** b + 1e-12

    def test_every_kernel_in_exactly_one_bucket(self):
        hs = list(np.linspace(0.02, 0.5, 17))
        master = corral.CorralMaster(_pc(), hs, 64, eta=64 ** -0.5)
        seen = [h for b in master.bucket_ids for h in master.buckets[b]]
        assert sorted(seen) == sorted(hs)


class TestBuild:
    def test_uniform_h_learning_rate(self):
        pc = _pc()
        T = 2 ** 14
        master = corral.build(pc, T, beta=1.0, mode=corral.UNIFORM_H)
        expected = T ** -0.5 * math.log(pc.size * 1 * T) ** -0.5
        assert master.etas[0] == pytest.approx(expected, rel=1e-12)

    def test_uniform_h_kernels_on_grid(self):
        pc = _pc()
        T = 2 ** 10
        master = corral.build(pc, T, beta=1.0, mode=corral.UNIFORM_H)
        grid = BandwidthGrid(1, T)
        hs = [h for b in master.bucket_ids for h in master.buckets[b]]
        assert len(hs) >= 2
        for h in hs:
            assert grid_contains(grid, h)

    def test_lipschitz_adaptive_kernels_valid(self):
        pc = _pc()
        master = corral.build(pc, 2 ** 10, beta=0.5,
                              mode=corral.LIPSCHITZ_ADAPTIVE)
        for b in master.bucket_ids:
            for h in master.buckets[b]:
                assert 0.0 < h <= 1.0

    def test_validation(self):
        pc = _pc()
        with pytest.raises(ValueError):
            corral.build(pc, 100, beta=2.0, mode=corral.UNIFORM_H)
        with pytest.raises(ValueError):
            corral.CorralMaster(pc, [], 100, eta=100 ** -0.5)
        with pytest.raises(ValueError):
            corral.CorralMaster(pc, [0.1, 0.0], 100, eta=100 ** -0.5)
        with pytest.raises(ValueError):
            corral.build(pc, 100, mode="nope")


class TestSingleSubDegeneracy:
    def test_matches_standalone_learner(self):
        pc = _pc()
        T = 200
        env = make_named_instance("absolute")
        master = corral.CorralMaster(pc, [0.1], T, eta=T ** -0.5)
        standalone = StableExp4(pc, [0.1], T, rho_hat=1.0)
        rng_m = np.random.default_rng(42)
        rng_s = np.random.default_rng(42)
        env_m = np.random.default_rng(7)
        env_s = np.random.default_rng(7)
        for _ in range(T):
            a_m, rec = master.round(
                None, lambda a: env.realize_at(None, a, env_m)[0], rng_m)
            a_s = standalone.step(None, rng_s)
            loss_s, _ = env.realize_at(None, a_s, env_s)
            standalone.stable_update(None, a_s, loss_s, 1.0)
            assert a_m == a_s
            assert rec["loss"] == loss_s
            assert rec["q_b"] == 1.0
        assert master.subs[0].restart_count == 0
        assert np.allclose(master.subs[0].logw, standalone.logw)


class TestMasterDynamics:
    def _run(self, T, seed=0):
        pc = _pc()
        master = corral.CorralMaster(pc, [0.2, 0.05], T, eta=T ** -0.5)
        env = make_named_instance("discontinuous")
        rng = np.random.default_rng(seed)
        env_rng = np.random.default_rng(seed + 1)
        qs, rhos = [], []
        for _ in range(T):
            master.round(None, lambda a: env.realize_at(None, a, env_rng)[0],
                         rng)
            qs.append(master.q.copy())
            rhos.append(master.rhos.copy())
        return np.array(qs), np.array(rhos)

    def test_weights_stay_interior(self):
        qs, _ = self._run(10 ** 4)
        assert np.all(qs > 0.0)
        assert np.allclose(qs.sum(axis=1), 1.0)

    def test_thresholds_nondecreasing(self):
        _, rhos = self._run(3000, seed=3)
        assert np.all(np.diff(rhos, axis=0) >= -1e-12)

    def test_fed_losses_unbiased(self):
        # with a constant loss, every sub's importance-weighted feed
        # averages to that constant over the master's randomness
        pc = _pc()
        T = 4000
        master = corral.CorralMaster(pc, [0.2, 0.05], T, eta=T ** -0.5)
        rng = np.random.default_rng(4)
        feeds = np.zeros(len(master.subs))
        for _ in range(T):
            q_before = master.q.copy()
            _, rec = master.round(None, lambda a: 0.6, rng)
            b_played = master.bucket_ids.index(rec["b"])
            feeds[b_played] += rec["loss"] / q_before[b_played]
        assert np.allclose(feeds / T, 0.6, atol=0.05)


def reference_round(master, x, loss_eval, rng):
    """The per-learner round the vector restart check replaced: every
    learner absorbs every round, and each learner's counter is a clock."""
    B = len(master.subs)
    if B == 1:
        b_t = 0
    else:
        b_t = int(np.searchsorted(np.cumsum(master.q), rng.random()))
        b_t = min(b_t, B - 1)
    q_bt = float(master.q[b_t])
    a = master.subs[b_t].step(x, rng)
    loss = float(loss_eval(a))
    tilde = np.zeros(B)
    tilde[b_t] = loss / q_bt
    for b in range(B):
        master.subs[b].stable_update(
            x, a if b == b_t else None, float(tilde[b]), float(master.q[b]))
    if B > 1:
        master._omd_step(tilde)
        crossed = 1.0 / master.q > master.rhos
        master.rhos[crossed] = 2.0 / master.q[crossed]
        master.etas[crossed] *= master.growth
    master.t += 1
    return a, loss


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


class TestVectorRestartCheck:
    """One restart check per round changes nothing the per-learner round
    computes, bit for bit."""

    T = 2000

    def _masters(self, mode):
        env = make_named_instance("needle_h", h=1 / 32, R=10.0, index=1)
        pc = PolicyClass.constant(env.space, np.linspace(0.05, 0.95, 8))
        if mode == "generic":  # an explicit bandwidth family
            return env, [corral.CorralMaster(pc, [0.2, 0.05], self.T,
                                             eta=self.T ** -0.5)
                         for _ in range(2)]
        return env, [corral.build(pc, self.T, mode=mode) for _ in range(2)]

    @pytest.mark.parametrize("mode", ["generic", corral.UNIFORM_H])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_learner_round(self, mode, seed):
        env, (new, ref) = self._masters(mode)
        rng_n, rng_r = (np.random.default_rng(seed) for _ in range(2))
        env_n, env_r = (np.random.default_rng(seed + 100) for _ in range(2))
        after_first, idle_restarts = None, 0
        before = [0] * len(ref.subs)
        for t in range(self.T):
            a_n, rec = new.round(
                None, lambda a: env.realize_at(None, a, env_n)[0], rng_n)
            a_r, loss_r = reference_round(
                ref, None, lambda a: env.realize_at(None, a, env_r)[0], rng_r)
            assert _bits(a_n) == _bits(a_r)
            assert _bits(rec["loss"]) == _bits(loss_r)
            assert _bits(new.q) == _bits(ref.q)
            assert _bits(new.rhos) == _bits(ref.rhos)
            assert _bits(new.etas) == _bits(ref.etas)
            for s_n, s_r in zip(new.subs, ref.subs):
                assert s_n.rho_hat == s_r.rho_hat
                assert s_n.eta == s_r.eta
                assert _bits(s_n.logw) == _bits(s_r.logw)
            restarts = [s.restart_count for s in ref.subs]
            assert rec["restarts"] == restarts
            played = new.bucket_ids.index(rec["b"])
            idle_restarts += sum(n != m for b, (n, m)
                                 in enumerate(zip(restarts, before))
                                 if b != played)
            before = restarts
            if t == 0:
                after_first = sum(restarts)
        assert _bits(new.rho_hats) == _bits([s.rho_hat for s in ref.subs])
        # not vacuous: learners restart after the first round, some of
        # them on a round they did not play
        assert sum(restarts) > after_first
        assert idle_restarts > 0

    def test_round_past_horizon_raises(self):
        pc = _pc()
        master = corral.build(pc, 16, mode=corral.UNIFORM_H)
        rng = np.random.default_rng(0)
        for _ in range(16):
            master.round(None, lambda a: 0.5, rng)
        with pytest.raises(RuntimeError):
            master.round(None, lambda a: 0.5, rng)


@st.composite
def omd_inputs(draw):
    """B buckets, q on the simplex, a rate eta > 0, a one-hot IW loss."""
    B = draw(st.integers(2, 16))
    w = np.array(draw(st.lists(st.floats(1e-4, 1.0), min_size=B,
                               max_size=B)))
    q = w / w.sum()
    eta = draw(st.floats(1e-4, 10.0))
    b = draw(st.integers(0, B - 1))
    losses = np.zeros(B)
    losses[b] = draw(st.floats(0.0, 1.0)) / q[b]
    return q, eta, losses


class TestOmdStep:
    @settings(max_examples=300, deadline=None)
    @given(omd_inputs())
    def test_simplex_and_log_barrier_update(self, inputs):
        q, eta, losses = inputs
        B = len(q)
        # kappa = 2^b puts each bandwidth in its own bucket
        hs = [0.5 / 2 ** b for b in range(B)]
        master = corral.CorralMaster(_pc(), hs, T=64, eta=1.0)
        master.q, master.etas = q.copy(), np.full(B, eta)
        master._omd_step(losses)
        new = master.q
        assert np.all(new > 0.0)
        assert abs(new.sum() - 1.0) <= 1e-12
        # 1/q' = 1/q + eta * (loss - lam) with one normaliser lam
        inv = 1.0 / q + eta * losses
        lam = np.median((inv - 1.0 / new) / eta)
        assert np.max(np.abs((inv - eta * lam) * new - 1.0)) <= 1e-9


    @pytest.mark.parametrize("max_iter", [None, 1],
                             ids=["converged", "out-of-iterations"])
    @settings(max_examples=200, deadline=None)
    @given(inputs=omd_inputs())
    def test_equals_the_reference_step(self, max_iter, inputs):
        # bit for bit, when the loop breaks at its tolerance and when it
        # runs out of iterations
        q, eta, losses = inputs
        B = len(q)
        master = corral.CorralMaster(_pc(), [0.5 / 2 ** b for b in range(B)],
                                     T=64, eta=1.0)
        master.q, master.etas = q.copy(), np.full(B, eta)
        with pytest.MonkeyPatch.context() as mp:
            if max_iter is not None:
                mp.setattr(corral, "OMD_MAX_ITER", max_iter)
            expected = omd_step_reference(master.q, master.etas, losses)
            master._omd_step(losses)
        assert np.array_equal(master.q, expected)


def omd_step_reference(q, etas, losses):
    """The master's normaliser step written with the iterate recomputed
    after the loop at the final lam, whichever way the loop ended."""
    inv = 1.0 / q + etas * losses
    lo, hi = 0.0, float((inv / etas).min())
    lam = 0.0
    for _ in range(corral.OMD_MAX_ITER):
        r = 1.0 / (inv - etas * lam)
        val = float(r.sum()) - 1.0
        if abs(val) < corral.OMD_TOL:
            break
        if val > 0.0:
            hi = lam
        else:
            lo = lam
        nxt = lam - val / float(etas @ (r * r))
        lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    q = 1.0 / (inv - etas * lam)
    return q / q.sum()


def uniform_h_regret_suite(losses, env, pc, T, h_eval_list, grid=None,
                           beta=1.0):
    """Per-requested-h regret rows against snapped smoothed benchmarks.

    Each row reports the raw regret, the regret after the one-unit
    discretization credit for substituting the snapped bandwidth, and the
    theoretical bound scale T^(1/(1+beta)) * h^(-d*beta).
    """
    grid = grid or BandwidthGrid(pc.space.d, T)
    total = float(np.sum(losses))
    rows = []
    for h in h_eval_list:
        h_hat = grid.snap(h)
        bench, idx = env.smoothed_benchmark(pc, h_hat)
        raw = total - T * bench
        rows.append({
            "h": h, "h_snapped": h_hat, "benchmark": bench,
            "best_policy": idx, "regret": raw,
            "regret_after_credit": raw - 1.0,
            "bound_scale": T ** (1.0 / (1.0 + beta))
            * h ** (-pc.space.d * beta),
        })
    return rows


class TestRegretSuite:
    def test_constant_loss_zero_regret(self):
        env = make_named_instance("discontinuous", noise="deterministic")
        pc = _pc((0.5, 0.5))
        T = 64
        # constant realized losses: play the benchmark policy every round
        losses = np.full(T, 0.25 + 0.75 * 0.25)
        rows = uniform_h_regret_suite(
            losses, env, pc, T, [0.25], grid=BandwidthGrid(1, T))
        assert rows[0]["regret"] == pytest.approx(0.0, abs=1e-9)

    def test_bound_column_decreasing_in_h(self):
        env = make_named_instance("discontinuous", noise="deterministic")
        pc = _pc()
        T = 256
        losses = np.zeros(T)
        rows = uniform_h_regret_suite(
            losses, env, pc, T, [0.05, 0.1, 0.25], grid=BandwidthGrid(1, T))
        bounds = [r["bound_scale"] for r in rows]
        assert bounds == sorted(bounds, reverse=True)
