import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from bandwidth_grid import space_contains
from by_context import ByContext
from scipy import stats

from smoothcb import elimination, environments, policies
from smoothcb.elimination import (SOLVER_TOL, ElimConfig, EpochState,
                                  SmoothPolicyElimination, SolverFailure,
                                  solve_variance_program)
from smoothcb.environments import (FiniteContexts, StochasticEnv,
                                   make_named_instance)
from smoothcb.estimators import IWSample, iw_estimate
from smoothcb.harness import (RunConfig, default_policy_class,
                              run_experiment, run_one)
from smoothcb.kernels import RectKernel
from smoothcb.losses import PiecewiseConstantLoss, PiecewiseLinearLoss
from smoothcb.policies import (PolicyClass, VersionSpace, segment_cuts,
                               union_ball_volume, union_geometry)
from smoothcb.spaces import ActionSpace


def _no_play(*args, **kwargs):
    raise AssertionError("rounds were played")


def _ring_pc(actions):
    return PolicyClass.constant(ActionSpace.ring(), actions)


def _panel():
    return [None], np.array([1.0])


class TestConfig:
    def test_batch_count(self):
        cfg = ElimConfig(variant="s", T=2 ** 16, h=0.05)
        expected = 5 * math.ceil(math.log(2 ** 16 * 100 * 16))
        assert cfg.delta_T(100) == expected
        assert cfg.delta_T(100) >= 5

    def test_schedules(self):
        env = make_named_instance("absolute", noise="deterministic")
        pc = _ring_pc([0.5])
        alg_s = SmoothPolicyElimination(
            env, pc, ElimConfig(variant="s", T=64, h=0.3))
        assert alg_s.schedule(3) == (0.3, 0.125)
        alg_l = SmoothPolicyElimination(
            env, pc, ElimConfig(variant="l", T=64, L=2.0))
        assert alg_l.schedule(3) == (0.125, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ElimConfig(variant="s", T=64)
        with pytest.raises(ValueError):
            ElimConfig(variant="l", T=64, L=0.5)
        with pytest.raises(ValueError):
            ElimConfig(variant="x", T=64, h=0.1)
        # an L whose r_1 = L/2 squares to inf leaves epoch 1 no rounds:
        # start_epoch refuses it before any round is played
        alg = SmoothPolicyElimination(
            make_named_instance("absolute"), _ring_pc([0.5]),
            ElimConfig(variant="l", T=64, L=1e155))
        alg._play_epoch = _no_play
        with pytest.raises(ValueError, match=r"epoch 1 has a budget of 0 "
                           r"rounds: .*, r_m = 5e\+154"):
            alg.run(np.random.default_rng(0))


class TestVarianceProgram:
    def test_single_policy_closed_form(self):
        pc = _ring_pc([0.5])
        Q, value, _, _ = solve_variance_program(
            pc, VersionSpace(pc), h=0.1, mu=0.5, panel=_panel())
        # q = 0.5 + 0.5 * 5 inside the ball; value = 0.2 * 5 / 3 = 1/3
        assert Q == pytest.approx([1.0])
        assert value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert value <= 0.2 / 0.5

    def test_duplicate_policies_same_value(self):
        pc = _ring_pc([0.5, 0.5])
        _, value, _, _ = solve_variance_program(
            pc, VersionSpace(pc), h=0.1, mu=0.5, panel=_panel())
        assert value == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_two_disjoint_balls_small_mu(self):
        pc = _ring_pc([0.2, 0.7])
        Q, value, _, _ = solve_variance_program(
            pc, VersionSpace(pc), h=0.1, mu=0.01, panel=_panel())
        V = 0.4
        assert value <= V / 0.99 * (1 + 1e-3)
        # brute-force grid confirms uniform weights are near-optimal
        best = np.inf
        geom_kern = RectKernel(pc.space, 0.1)
        for w in np.arange(0.0, 1.0001, 0.05):
            q_in1 = 0.01 + 0.99 * w * 5.0
            q_in2 = 0.01 + 0.99 * (1 - w) * 5.0
            v = max(0.2 * 5.0 / q_in1 if w > 0 else np.inf,
                    0.2 * 5.0 / q_in2 if w < 1 else np.inf)
            best = min(best, v)
        assert value <= best * (1 + 2e-2)
        assert abs(Q[0] - 0.5) <= 0.1

    def test_certificate_never_exceeded_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(2, 12))
            pc = _ring_pc(rng.random(k))
            vs = VersionSpace(pc)
            h = float(rng.uniform(0.03, 0.2))
            mu = float(rng.uniform(0.01, 0.5))
            _, value, _, _ = solve_variance_program(
                pc, vs, h=h, mu=mu, panel=_panel())
            V = union_ball_volume(vs, None, h)
            assert value <= V / (1 - mu) * (1 + 1e-3) + 1e-12

    @pytest.mark.parametrize("s", [9, 35])
    def test_cube2_certified_against_own_panel(self, s):
        # V and the objective share one set of cells; with V measured on a
        # separate Monte Carlo panel, these classes raised SolverFailure
        rng = np.random.default_rng(s)
        k = int(rng.integers(2, 10))
        pc = PolicyClass.constant(ActionSpace.cube(2), rng.random((k, 2)))
        h, mu = rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.5)
        _, value, _, V = solve_variance_program(
            pc, VersionSpace(pc), h=h, mu=mu, panel=_panel())
        assert value <= V / (1 - mu) * (1 + SOLVER_TOL)

    def test_failure_when_iterations_exhausted(self, monkeypatch):
        monkeypatch.setattr(elimination, "SOLVER_ITER_CAP", 1)
        pc = _ring_pc(np.concatenate([np.full(29, 0.2), [0.7]]))
        with pytest.raises(SolverFailure):
            solve_variance_program(pc, VersionSpace(pc), h=0.05, mu=0.01,
                                   panel=_panel())

    def test_mu_range_enforced(self):
        pc = _ring_pc([0.5])
        with pytest.raises(ValueError):
            solve_variance_program(pc, VersionSpace(pc), h=0.1, mu=0.7,
                                   panel=_panel())


def _solve_per_context(pc, vs, h, mu, panel, monkeypatch):
    """The reference: the same solver with every panel row its own group,
    so union_geometry builds one geometry per context."""
    with monkeypatch.context() as m:
        m.setattr(elimination, "distinct_rows",
                  lambda c: (np.arange(len(c)),) * 2)
        return solve_variance_program(pc, vs, h, mu, panel)


def _tabular_mixed_widths():
    # row 1 has two pairs of equal actions, so its cuts hold zero-length
    # segments that union_geometry drops; the contexts of row 0 fill the
    # first blocks only, so padding each block to its own widest row would
    # pad row 1 differently in a per-context build and a per-row one, which
    # moves the objective's last bits once Q is not uniform (mu = 0.02)
    rng = np.random.default_rng(0)
    table = rng.random((2, 16))
    table[1, 1], table[1, 5] = table[1, 0], table[1, 4]
    pc = PolicyClass.tabular(ActionSpace.ring(), table)
    ws = rng.random(2000)
    return pc, (np.repeat([0, 1], [100, 1900]), ws / ws.sum()), 0.1


def _cube2_tabular():
    # context 1's first two policies share their first coordinate, so its
    # first axis keeps fewer pieces than context 0's and is padded
    rng = np.random.default_rng(6)
    table = rng.random((2, 5, 2))
    table[1, 1, 0] = table[1, 0, 0]
    pc = PolicyClass.tabular(ActionSpace.cube(2), table)
    return pc, (rng.integers(0, 2, 200), np.full(200, 1 / 200)), 0.15


def _sampled_panel(pc, n=500):
    env = make_named_instance("linear_sphere")
    xs, ws = env.contexts.panel(n, np.random.default_rng(1))
    return pc, (xs, ws)


def _sphere_class():
    w = np.random.default_rng(2).normal(size=(12, 2))
    return PolicyClass.linear_sphere(ActionSpace.cube(1),
                                     w / np.linalg.norm(w, axis=1)[:, None])


_GROUPED_CASES = {
    "ring-wraparound": lambda: (_ring_pc([0.02, 0.5, 0.97, 0.9, 0.93]),
                                _panel(), 0.1),
    "ring-2h-ge-1": lambda: (_ring_pc([0.1, 0.6, 0.65]), _panel(), 0.6),
    "ring-tiny-segment": lambda: (_ring_pc([0.2, 0.2 + 4e-16, 0.5, 0.7]),
                                  _panel(), 0.1),
    "cube1": lambda: (PolicyClass.constant(ActionSpace.cube(1),
                                           [0.0, 0.05, 0.93, 1.0, 0.5]),
                      _panel(), 0.1),
    "constant-sampled-panel": lambda: (*_sampled_panel(
        PolicyClass.constant(ActionSpace.cube(1), (np.arange(16) + 0.5) / 16)),
        0.1),
    "tabular-repeated-contexts": lambda: (
        PolicyClass.tabular(ActionSpace.ring(),
                            np.random.default_rng(4).random((5, 6))),
        (np.random.default_rng(5).integers(0, 5, 300), np.full(300, 1 / 300)),
        0.07),
    "tabular-mixed-widths": _tabular_mixed_widths,
    "cube2-tabular": _cube2_tabular,
    "sphere-distinct-rows": lambda: (*_sampled_panel(_sphere_class()), 0.1),
}


class TestGroupedSolver:
    """One geometry per distinct row of survivor actions gives the solver's
    per-context result bit for bit."""

    @pytest.mark.parametrize("name", sorted(_GROUPED_CASES))
    @pytest.mark.parametrize("mu", [0.5, 0.02])
    def test_equals_per_context_geometry(self, name, mu, monkeypatch):
        pc, panel, h = _GROUPED_CASES[name]()
        vs = VersionSpace(pc)
        Q, value, iters, V = solve_variance_program(pc, vs, h, mu, panel)
        Q_ref, value_ref, iters_ref, V_ref = _solve_per_context(
            pc, vs, h, mu, panel, monkeypatch)
        assert np.array_equal(Q, Q_ref)
        assert (value, iters, V) == (value_ref, iters_ref, V_ref)

    @pytest.mark.parametrize("cells", [1, 2 ** 12])
    def test_padding_does_not_depend_on_blocks(self, cells, monkeypatch):
        pc, (xs, _), h = _tabular_mixed_widths()
        c = pc.actions_many(xs)
        whole = union_geometry(pc.space, c, h)
        monkeypatch.setattr(policies, "_BLOCK_CELLS", cells)
        split = union_geometry(pc.space, c, h)
        assert len(split) > len(whole)
        for i in range(3):
            assert np.array_equal(np.concatenate([b[i] for b in whole]),
                                  np.concatenate([b[i] for b in split]))

    def test_one_geometry_per_distinct_row(self, monkeypatch):
        pc, panel, h = _GROUPED_CASES["constant-sampled-panel"]()
        calls = []

        def counting(space, centers, *args, **kwargs):
            calls.append(len(centers))
            return union_geometry(space, centers, *args, **kwargs)

        monkeypatch.setattr(elimination, "union_geometry", counting)
        solve_variance_program(pc, VersionSpace(pc), h, 0.5, panel)
        assert calls == [1]


def _make_alg(actions, h=0.1, T=1024, variant="s", L=None, env=None):
    env = env or make_named_instance("absolute", noise="deterministic")
    pc = _ring_pc(actions)
    cfg = ElimConfig(variant=variant, T=T, h=h if variant == "s" else None,
                     L=L)
    return env, pc, SmoothPolicyElimination(env, pc, cfg)


def _estimates(alg, state, centers, a, loss):
    """The per-round scorer: (q, est) with est[i, j] = dens[i, j] * loss[i]
    / q[i], survivor j's IW estimate of its smoothed loss at round i."""
    q, dens = alg.propensity(state, centers, a)
    return q, dens * (loss / q)[:, None]


def _reference_means(alg, state, values, index, a, loss):
    """median_of_means' batch means of the full (survivors x n_m) matrix
    of per-round estimates."""
    _, est = _estimates(alg, state, alg._centers(state.vs, values, index), a,
                        loss)
    return est.T.reshape(len(state.vs), alg.delta_T, -1).mean(axis=-1)


def _complex_key_locate(cuts, index, a):
    """Each round's cell over several contexts' rows of cuts, found on
    complex keys that order by context, then by action; context c's cells
    follow the (width - 1) cells of each earlier context.  -1 marks a round
    within EDGE of a cut.  The reference for the one-context locate."""
    width, flat = cuts.shape[1], cuts.ravel()
    keys = (np.arange(len(cuts))[:, None] + 1j * cuts).ravel()
    pos = np.minimum(keys.searchsorted(index + 1j * a, side="right") - 1,
                     (index + 1) * width - 2)
    inside = ((a - flat[pos] > elimination.EDGE)
              & (flat[pos + 1] - a > elimination.EDGE))
    return np.where(inside, pos - index, -1)


def _rows(alg, state, n):
    """Survivor centres for n rounds of the single context."""
    return alg._centers(state.vs, [None], np.zeros(n, dtype=int))


class TestSampling:
    def test_propensity_floor(self):
        env, pc, alg = _make_alg([0.2, 0.7])
        state = alg.start_epoch(1, VersionSpace(pc), _panel())
        _, q, _ = alg.act(state, _rows(alg, state, 300),
                          np.random.default_rng(1))
        assert np.all(q >= state.mu_m - 1e-12)

    def test_point_mass_outside_ball(self):
        env, pc, alg = _make_alg([0.2, 0.7])
        state = alg.start_epoch(1, VersionSpace(pc), _panel())
        state.Q = np.array([1.0, 0.0])
        q, _ = alg.propensity(state, _rows(alg, state, 1), np.array([0.7]))
        assert q[0] == pytest.approx(state.mu_m)

    def test_action_histogram_matches_mixture(self):
        # chi-squared test of the sampler against the exact mixture density
        env, pc, alg = _make_alg([0.2, 0.6])
        vs = VersionSpace(pc)
        state = alg.start_epoch(1, vs, _panel())
        state.Q = np.array([0.5, 0.5])
        state.mu_m = 0.3
        rng = np.random.default_rng(2)
        n = 10 ** 5
        draws = alg.act(state, _rows(alg, state, n), rng)[0]
        edges = np.linspace(0.0, 1.0, 21)  # ball edges are multiples of 0.05
        counts, _ = np.histogram(draws, bins=edges)
        mids = (edges[:-1] + edges[1:]) / 2.0
        probs = alg.propensity(state, _rows(alg, state, len(mids)),
                               mids)[0] * 0.05
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        _, pval = stats.chisquare(counts, probs * n)
        assert pval > 1e-3

    def test_action_histogram_matches_mixture_cube2(self):
        # the same test on the 2-d cube, with 0.05 x 0.05 cells
        env = make_named_instance("needle_h", h=0.125, d=2,
                                  noise="deterministic")
        pc = PolicyClass.constant(env.space, [[0.25, 0.25], [0.6, 0.7]])
        alg = SmoothPolicyElimination(
            env, pc, ElimConfig(variant="s", T=1024, h=0.15))
        state = alg.start_epoch(1, VersionSpace(pc), _panel())
        state.Q = np.array([0.4, 0.6])
        state.mu_m = 0.3
        n = 2 * 10 ** 5
        draws = alg.act(state, _rows(alg, state, n),
                        np.random.default_rng(3))[0]
        edges = np.linspace(0.0, 1.0, 21)
        counts, _, _ = np.histogram2d(draws[:, 0], draws[:, 1],
                                      bins=[edges, edges])
        mids = (edges[:-1] + edges[1:]) / 2.0
        cells = np.stack(np.meshgrid(mids, mids, indexing="ij"),
                         axis=-1).reshape(-1, 2)
        probs = alg.propensity(state, _rows(alg, state, len(cells)),
                               cells)[0] * 0.05 ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        _, pval = stats.chisquare(counts.ravel(), probs * n)
        assert pval > 1e-3


    @pytest.mark.parametrize("name", ["ring", "cube2"])
    def test_draw_in_place_equals_where(self, name):
        # _draw's in-place pick of the uniform draws (through explore[:, None]
        # on the cube in d >= 2) gives np.where's actions from
        # rng.uniform(0, 1)'s doubles, in the same draw order
        if name == "ring":
            env, pc, alg = _make_alg([0.2, 0.5, 0.9], h=0.15)
        else:
            env = make_named_instance("needle_h", h=0.125, d=2,
                                      noise="deterministic")
            pc = PolicyClass.constant(env.space,
                                      [[0.25, 0.25], [0.6, 0.7], [0.9, 0.1]])
            alg = SmoothPolicyElimination(
                env, pc, ElimConfig(variant="s", T=1024, h=0.15))
        state = alg.start_epoch(1, VersionSpace(pc), _panel())
        state.Q = np.array([0.2, 0.3, 0.5])
        state.mu_m = 0.3
        centers = pc.actions_many([None])[0]
        n = 5000
        got = alg._draw(state, n, lambda pick: centers[pick],
                        np.random.default_rng(4))
        ref = np.random.default_rng(4)
        explore = ref.random(n) < state.mu_m
        pick = ref.choice(3, size=n, p=state.Q)
        uniform = ref.uniform(0.0, 1.0, size=(n,) + centers.shape[1:])
        ball = env.space.sample_ball(centers[pick], state.h_m, ref)
        if ball.ndim > 1:
            explore = explore[:, None]
        assert explore.any() and not explore.all()
        expected = np.where(explore, uniform, ball)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestPruning:
    def _tiny_state(self, alg, pc, r_m=0.05):
        vs = VersionSpace(pc)
        h = alg.config.h
        V = union_ball_volume(vs, None, h)
        tilde_n = 2
        return EpochState(
            m=1, vs=vs, h_m=h, r_m=r_m, mu_m=min(0.5, r_m), V_m=V,
            tilde_n_m=tilde_n, n_m=tilde_n * alg.delta_T,
            Q=np.full(pc.size, 1.0 / pc.size), solver_value=0.0,
            solver_iters=0)

    def test_identical_policies_all_survive(self):
        env, pc, alg = _make_alg([0.5, 0.5, 0.5])
        state = self._tiny_state(alg, pc)
        rng = np.random.default_rng(3)
        est = alg._play_epoch(state, state.n_m, rng, rng)[3]
        nxt = alg.end_epoch(state, est)
        assert len(nxt) == 3

    def test_large_gap_policy_eliminated(self):
        # mean smoothed losses 0.05 vs 0.4; threshold min + 3 * 0.05
        env, pc, alg = _make_alg([0.5, 0.9])
        state = self._tiny_state(alg, pc, r_m=0.05)
        rng = np.random.default_rng(4)
        est = alg._play_epoch(state, state.n_m, rng, rng)[3]
        nxt = alg.end_epoch(state, est)
        assert list(nxt.indices) == [0]

    def test_empirical_minimizer_always_survives(self):
        env, pc, alg = _make_alg([0.3, 0.5, 0.8])
        state = self._tiny_state(alg, pc)
        rng = np.random.default_rng(5)
        for _ in range(20):
            scores = rng.random(3)
            nxt = alg._prune(state, scores)
            assert int(np.argmin(scores)) in set(nxt.indices)

    def test_sample_count_enforced(self):
        env, pc, alg = _make_alg([0.5, 0.9])
        state = self._tiny_state(alg, pc)
        with pytest.raises(ValueError):
            alg.end_epoch(state, [])


def _cube_contexts_instance():
    # two weighted contexts, a tabular class, no noise; h = 0.2 puts
    # ball ends an ulp apart (0.1 + h, 0.5 - h) or together (0.4 + h,
    # 0.8 - h), and clips balls at 0 and 1
    space = ActionSpace.cube(1)
    losses = [PiecewiseLinearLoss([0.0, 0.3, 1.0], [0.8, 0.1, 0.9]),
              PiecewiseLinearLoss([0.0, 0.7, 1.0], [0.9, 0.2, 0.6])]
    env = StochasticEnv(space, FiniteContexts([0, 1], [0.3, 0.7]),
                        lambda xs: ByContext(losses, xs),
                        noise="deterministic")
    table = np.array([[0.1, 0.3, 0.5, 0.7, 0.9], [0.2, 0.4, 0.6, 0.8, 1.0]])
    return env, PolicyClass.tabular(space, table), 0.2


def _sphere_instance():
    env = make_named_instance("linear_sphere")
    angles = 2.0 * np.pi * np.arange(8) / 8
    w = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return env, PolicyClass.linear_sphere(env.space, w), 0.1


def _named(name, n_policies, bandwidth, **params):
    env = make_named_instance(name, **params)
    return env, default_policy_class(env, n_policies), bandwidth


def _ring_contexts_instance():
    # three weighted contexts and a tabular class whose balls wrap past 0
    # at one context and past 1 at another
    space = ActionSpace.ring()
    losses = [PiecewiseLinearLoss([0.0, x, 1.0], [x, 0.0, 1.0 - x])
              for x in (0.2, 0.5, 0.9)]
    env = StochasticEnv(space, FiniteContexts([0, 1, 2], [0.5, 0.3, 0.2]),
                        lambda xs: ByContext(losses, xs), noise="bernoulli")
    table = np.array([[0.05, 0.2, 0.3, 0.6, 0.8],
                      [0.1, 0.45, 0.5, 0.55, 0.97],
                      [0.0, 0.35, 0.7, 0.9, 0.95]])
    return env, PolicyClass.tabular(space, table), 0.1


def _tiny_segment_instance():
    # two ball ends 4e-16 apart: union_geometry drops the segment between
    env = make_named_instance("absolute")
    return env, _ring_pc([0.2, 0.2 + 4e-16, 0.5, 0.7]), 0.1


_INSTANCES = {
    "ring": lambda: _named("absolute", 8, 0.1),
    "ring_contexts": _ring_contexts_instance,
    "ring_tiny_segment": _tiny_segment_instance,
    "ring_whole": lambda: _named("absolute", 8, 0.6),
    "cube1": lambda: _named("needle_h", 8, 0.1, h=0.125, index=1),
    "cube1_contexts": _cube_contexts_instance,
    "cube2": lambda: _named("needle_h", 9, 0.25, h=0.125, d=2, index=1),
    "sphere": _sphere_instance,
}


class TestOneEpochPath:
    """The batched epoch on every space kind and both context classes."""

    @pytest.fixture(autouse=True)
    def _small_panel(self, monkeypatch):
        monkeypatch.setattr(environments, "N_CTX", 50)

    def _alg(self, name, T=4096):
        env, pc, h = _INSTANCES[name]()
        return env, pc, SmoothPolicyElimination(
            env, pc, ElimConfig(variant="s", T=T, h=h))

    def _epoch(self, name):
        env, pc, alg = self._alg(name)
        rng = np.random.default_rng(0)
        panel = env.contexts.panel(50, rng)
        return env, pc, alg, alg.start_epoch(1, VersionSpace(pc), panel)

    @pytest.mark.parametrize("name", sorted(_INSTANCES))
    def test_estimates_and_propensities_exact(self, name):
        env, pc, alg, state = self._epoch(name)
        n = 200
        assert n != state.n_m
        a, loss, _, means = alg._play_epoch(state, n,
                                            np.random.default_rng(2),
                                            np.random.default_rng(1))
        assert means is None  # not the whole budget: not scored
        # the same epoch, step by step
        rng_env = np.random.default_rng(1)
        values, index = env.contexts.sample_many(rng_env, n)
        centers = alg._centers(state.vs, values, index)
        a2, q2, _ = alg.act(state, centers, np.random.default_rng(2))
        loss2, _ = env.realize_many(values, index, a2, rng_env)
        assert np.array_equal(a, a2) and np.array_equal(loss, loss2)
        # the scorer an epoch applies to each of its blocks of rounds
        q, est = _estimates(alg, state, centers, a, loss)
        assert np.array_equal(q, q2)
        kern = RectKernel(pc.space, state.h_m)
        support = state.vs.indices
        assert est.shape == (n, len(support)) and np.any(est > 0)
        for i in range(n):
            x = values[index[i]]
            assert space_contains(pc.space, a[i])
            dens = [kern.density(pc.act(int(pi), x), a[i]) for pi in support]
            mix = state.mu_m + (1.0 - state.mu_m) * np.dot(state.Q, dens)
            assert q[i] == pytest.approx(mix, rel=1e-12)
            s = IWSample(x, a[i], float(loss[i]), float(q[i]))
            for j, pi in enumerate(support):
                assert est[i, j] == pytest.approx(
                    iw_estimate(kern, pc, int(pi), s), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(_INSTANCES))
    def test_cell_scores_match_the_per_round_reference(self, name):
        env, pc, alg, state = self._epoch(name)
        state = dataclasses.replace(state, tilde_n_m=37,
                                    n_m=37 * alg.delta_T)
        n = state.n_m
        a, loss, _, scored = alg._play_epoch(state, n,
                                             np.random.default_rng(2),
                                             np.random.default_rng(1))
        values, index = env.contexts.sample_many(np.random.default_rng(1), n)
        # the whole budget is scored, by the scorer this test checks below
        assert np.array_equal(scored.view(np.uint64), alg._score(
            state, values, index, a, loss).view(np.uint64))
        finite = isinstance(env.contexts, FiniteContexts)
        cells = finite and len(values) == 1
        if finite:
            # on each axis every ball end and its neighbouring doubles, and 0
            # and 1 where the space holds them, in place of drawn actions'
            # coordinates; each axis takes its own rounds, so a round near a
            # cut on one axis lies inside a piece on the others
            cuts = segment_cuts(pc.space, pc.actions_many(values)[
                :, state.vs.indices], state.h_m)
            line = pc.space if pc.space.d == 1 else ActionSpace.cube(1)
            a = a.reshape(n, -1).copy()
            start = 0
            for axis in range(pc.space.d):
                ends = cuts[:, axis].ravel()
                edges = np.unique(np.concatenate(
                    [ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)]))
                edges = edges[[space_contains(line, e) for e in edges]]
                a[start:start + len(edges), axis] = edges
                start += len(edges)
            a = a.reshape(-1) if pc.space.d == 1 else a
        # rounds in cells, and rounds that take their own rows
        cell = alg._cells(state, values)[0](a)
        assert np.any(cell >= 0) == cells
        assert np.any(cell < 0)
        means = alg._score(state, values, index, a, loss)
        ref = _reference_means(alg, state, values, index, a, loss)
        assert np.any(ref > 0)
        np.testing.assert_allclose(means, ref, rtol=1e-12, atol=0.0)
        for r_m in (0.5, 0.05, 0.01, 0.001):
            at = dataclasses.replace(state, r_m=r_m)
            assert np.array_equal(alg.end_epoch(at, means).mask,
                                  alg.end_epoch(at, ref).mask)

    @pytest.mark.parametrize("name", ["ring", "ring_whole",
                                      "ring_tiny_segment", "cube1", "cube2"])
    def test_locate_matches_the_complex_key_search(self, name):
        # on each axis every cut, both its neighbouring doubles, 0 and 1, and
        # random actions (on the square, every pair of them), against the
        # search over one context's complex keys; its raw pieces map to the
        # kept ones, those over 1e-15 long, numbered in C order over the
        # axes, and a round in a dropped piece takes its own row
        env, pc, alg, state = self._epoch(name)
        values = np.asarray(env.contexts.values)
        cuts = segment_cuts(pc.space, pc.actions_many(values)[
            :, state.vs.indices], state.h_m)[0]
        if name == "ring_whole":
            assert np.array_equal(cuts, [[0.0, 1.0]])
        rng = np.random.default_rng(5)
        axes, numbers, widths, dropped = [], [], [], []
        for row in cuts:
            u = np.concatenate([row, np.nextafter(row, 0.0),
                                np.nextafter(row, 1.0), [0.0, 1.0],
                                rng.random(1000 if len(cuts) == 1 else 30)])
            raw = _complex_key_locate(row[None], np.zeros(len(u), dtype=int),
                                      u)
            kept = np.diff(row) > 1e-15
            piece = np.minimum(row.searchsorted(u, side="right") - 1,
                               len(kept) - 1)
            axes.append(u)
            numbers.append(np.where((raw >= 0) & kept[raw],
                                    np.cumsum(kept)[raw] - 1, -1))
            widths.append(int(kept.sum()))
            dropped.append(~kept[piece] & (row[piece] < u)
                           & (u < row[piece + 1]))
        grid = np.meshgrid(*axes, indexing="ij")
        a = grid[0].ravel() if len(cuts) == 1 else np.stack(
            [g.ravel() for g in grid], axis=-1)
        want, in_dropped = 0, False
        for number, width, drop in zip(
                np.meshgrid(*numbers, indexing="ij"), widths,
                np.meshgrid(*dropped, indexing="ij")):
            want = np.where((want < 0) | (number < 0), -1,
                            want * width + number)
            in_dropped = in_dropped | drop
        locate, W = alg._cells(state, values)
        assert len(W) == math.prod(widths)
        cell = locate(a)
        assert np.any(cell >= 0) and np.any(cell < 0)
        assert np.array_equal(cell, want.ravel())
        assert np.all(cell[in_dropped.ravel()] == -1)
        if name == "ring_tiny_segment":
            assert np.any(in_dropped)

    @pytest.mark.parametrize("name", ["ring", "sphere"])
    def test_chunking_changes_nothing_drawn(self, name, monkeypatch):
        # one context class each; CHUNK is one batch, a size that does not
        # divide the batch length, and the whole epoch
        env, pc, alg, state = self._epoch(name)
        tilde_n = 37
        state = dataclasses.replace(state, tilde_n_m=tilde_n,
                                    n_m=tilde_n * alg.delta_T)
        n = state.n_m
        runs = {}
        for chunk in (tilde_n, 50, n):
            monkeypatch.setattr(elimination, "CHUNK", chunk)
            runs[chunk] = alg._play_epoch(state, n, np.random.default_rng(2),
                                          np.random.default_rng(1))
        a, loss, mean, _ = runs[n]
        for run in runs.values():
            assert np.array_equal(run[0], a) and np.array_equal(run[1], loss)
            assert np.array_equal(run[2], mean)
        values, index = env.contexts.sample_many(np.random.default_rng(1), n)
        full = _reference_means(alg, state, values, index, a, loss)
        assert np.any(full > 0)
        for run in runs.values():
            np.testing.assert_allclose(run[3], full, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", sorted(_INSTANCES))
    def test_full_run_actions_in_space(self, name):
        env, pc, alg = self._alg(name, T=300)
        out = alg.run(np.random.default_rng(3))
        assert len(out["actions"]) == 300 and len(out["losses"]) == 300
        assert all(space_contains(pc.space, a) for a in out["actions"])
        assert np.all((out["losses"] >= 0.0) & (out["losses"] <= 1.0))

    def test_cube2_certificate_uses_stored_volume(self):
        _, _, alg, state = self._epoch("cube2")
        bound = state.V_m / (1.0 - state.mu_m) * (1.0 + 10.0 * SOLVER_TOL)
        assert state.solver_value <= bound


class TestSeededTrajectories:
    # sha256 of actions, losses and epoch rows of seeded runs; the pe-l run
    # on absolute finishes and scores epoch 1, then plays into epoch 2; the
    # linear_sphere run solves its exploration program over a panel of 2,000
    # sampled contexts (digest recorded before the solver grouped the panel
    # by distinct action rows)
    DIGESTS = {
        ("pe-s", "absolute", 4096): "c49797c1f64c562d7a9c1d9b0b1a1b9a"
                                    "b2a74e93095fb9af3e9061ffbd26b247",
        ("pe-l", "absolute", 2 ** 17): "e758023f66ac24df6d3bb9df6a8ecd33"
                                       "b6d6864fd498597c628d858a9af9d087",
        ("pe-s", "linear_sphere", 4096): "01d775a8f5d2aec943a3833c11fdd493"
                                         "f67e37ddb632b6a1c3089e91b4305448",
    }

    @pytest.mark.parametrize("alg,env,T", sorted(DIGESTS))
    def test_trajectory_digest(self, alg, env, T):
        extra = {"h": 0.1} if alg == "pe-s" else {"L": 1.0}
        cfg = RunConfig(alg=alg, env_name=env, T=T, seeds=[0, 1],
                        n_policies=8, **extra)
        digest = hashlib.sha256()
        for tr in run_experiment(cfg):
            digest.update(np.asarray(tr.actions, dtype=np.float64).tobytes())
            digest.update(np.asarray(tr.losses, dtype=np.float64).tobytes())
            digest.update(json.dumps(tr.epochs, sort_keys=True).encode())
        assert digest.hexdigest() == self.DIGESTS[(alg, env, T)]

    def test_benchmark_sphere_configuration(self):
        # perfbench's pe-sphere run (16 policies) over seeds 0..49: its
        # trajectories, and every seed's pseudo-regret per round inside the
        # benchmark's band [0.028, 0.068]
        cfg = RunConfig(alg="pe-s", env_name="linear_sphere", T=4096, h=0.1,
                        seeds=list(range(50)), n_policies=16)
        digest = hashlib.sha256()
        for tr in run_experiment(cfg):
            digest.update(np.asarray(tr.actions, dtype=np.float64).tobytes())
            digest.update(np.asarray(tr.losses, dtype=np.float64).tobytes())
            digest.update(json.dumps(tr.epochs, sort_keys=True).encode())
            assert 0.028 <= tr.pseudo_regret / cfg.T <= 0.068, tr.seed
        assert digest.hexdigest() == ("d898f0ab4df3ab9385929981510cadad"
                                      "c2946ff8e81ec2c12a02843799362533")


class TestFullRun:
    def test_truncated_single_epoch(self):
        env, pc, alg = _make_alg([0.3, 0.5, 0.8], h=0.1, T=256)
        out = alg.run(np.random.default_rng(6))
        assert len(out["losses"]) == 256
        assert len(out["epochs"]) == 1
        assert out["epochs"][0]["eliminated"] is False
        assert len(out["final_version_space"]) == 3

    def test_epoch_count_bounded(self):
        env, pc, alg = _make_alg([0.3, 0.5], h=0.4, T=512)
        out = alg.run(np.random.default_rng(7))
        distinct = {row["m"] for row in out["epochs"]}
        assert len(distinct) <= math.ceil(math.log2(512))

    def test_trace_consistency(self):
        env, pc, alg = _make_alg([0.3, 0.5, 0.8], h=0.1, T=200)
        out = alg.run(np.random.default_rng(8))
        assert np.all(out["losses"] >= 0.0) and np.all(out["losses"] <= 1.0)
        assert len(out["actions"]) == 200
        gap = np.abs(out["actions"] - 0.5)
        assert np.allclose(out["mean_losses"], np.minimum(gap, 1.0 - gap))

    def test_env_stream_separable(self):
        env, pc, alg = _make_alg([0.3, 0.5], h=0.2, T=128)
        out1 = alg.run(np.random.default_rng(9),
                       rng_env=np.random.default_rng(100))
        out2 = alg.run(np.random.default_rng(9),
                       rng_env=np.random.default_rng(100))
        assert np.array_equal(out1["actions"], out2["actions"])
        assert np.array_equal(out1["losses"], out2["losses"])

    def test_last_epoch_plays_out_the_horizon(self):
        # at L = 10^6 the budgets stay small, so the schedule reaches its
        # last epoch, ceil(log2 10^4) = 14, with 8,880 rounds left: one row
        # plays them all, and as that is not its budget it is not scored
        tr = run_one(RunConfig(alg="pe-l", env_name="absolute", T=10 ** 4,
                               L=1e6, n_policies=64), 0)
        rows = tr.epochs
        assert [row["m"] for row in rows] == list(range(1, 15))
        assert all(row["played"] == row["n_m"] and row["eliminated"]
                   for row in rows[:-1])
        assert (rows[-1]["played"], rows[-1]["n_m"]) == (8880, 480)
        assert rows[-1]["eliminated"] is False
        assert sum(row["played"] for row in rows) == 10 ** 4

    @pytest.mark.parametrize("T,refused", [(50, False), (10 ** 5, True)])
    def test_pe_l_cell_cap_before_the_first_round(self, monkeypatch, T,
                                                  refused):
        # 64 random constant policies on the square cut it into 4225 cells
        # at h_1 = 1/2 and 8918 at h_2 = 1/4.  Every epoch plays at least
        # delta_T rounds, 50 at T = 50, so only epoch 1 can start and the
        # run plays; at T = 10^5 an epoch at h_2 can, and the run is
        # refused before its first round.
        env = make_named_instance("needle_h", h=0.125, d=2,
                                  noise="deterministic")
        pc = PolicyClass.constant(env.space,
                                  np.random.default_rng(0).random((64, 2)))
        alg = SmoothPolicyElimination(env, pc, ElimConfig("l", T=T, L=1.0))
        assert (T <= alg.delta_T) != refused
        if not refused:
            assert len(alg.run(np.random.default_rng(0))["losses"]) == T
            return
        monkeypatch.setattr(SmoothPolicyElimination, "_play_epoch", _no_play)
        with pytest.raises(ValueError, match="the balls at h = "
                           r"\S+ cut the cube into \d+ cells per context, "
                           "more than 8192"):
            alg.run(np.random.default_rng(0))


class TestBoundedMemory:
    """A scored epoch holds O(rounds) vectors plus CHUNK x survivors
    blocks, never a (rounds x survivors) array."""

    def test_scored_epoch_peak(self):
        env = make_named_instance("absolute")
        pc = default_policy_class(env, 100)
        alg = SmoothPolicyElimination(
            env, pc, ElimConfig(variant="l", T=2 ** 18, L=1.0))
        rng = np.random.default_rng(0)
        state = alg.start_epoch(1, VersionSpace(pc),
                                env.contexts.panel(2000, rng))
        assert state.n_m == 128_000 and len(state.vs) == 100
        tracemalloc.start()
        try:
            alg._play_epoch(state, state.n_m, rng, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_full_second_epoch_rss(self):
        # epoch 2 plays 1.2M rounds at |Pi| = 100 and is scored; the whole
        # run must stay under 440 MB, the peak of the 2^18-round benchmark
        # run whose epochs were held as (rounds x survivors) arrays
        script = (
            "import resource\n"
            "from smoothcb.harness import RunConfig, run_experiment\n"
            "tr, = run_experiment(RunConfig(alg='pe-l', env_name='absolute',"
            " T=2 ** 21, L=1.0, seeds=[0], n_policies=100))\n"
            "print(tr.epochs[1]['eliminated'],"
            " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        scored, maxrss_kb = proc.stdout.split()
        assert scored == "True"
        assert int(maxrss_kb) / 1024 < 440


class TestLVariantBias:
    def test_smoothing_bias_within_radius(self):
        # on an L-Lipschitz instance the h_m-smoothed value of any policy
        # stays within L * h_m = r_m of its unsmoothed value
        env = make_named_instance("absolute", noise="deterministic")
        pc = _ring_pc(np.linspace(0.0, 0.95, 20))
        L = env.lipschitz_constant
        for m in (1, 2, 3, 4):
            h_m = 2.0 ** (-m)
            r_m = L * h_m
            v_h = env.smoothed_policy_losses(pc, h_m)
            v_0 = env.smoothed_policy_losses(pc, 0.0)
            assert np.all(np.abs(v_h - v_0) <= r_m + 1e-9)
