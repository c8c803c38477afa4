import hashlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from by_context import ByContext
from callable_loss import CallableLoss

from smoothcb import elimination
from smoothcb.environments import (FiniteContexts, StochasticEnv,
                                   _closed_pocket, draw_indices,
                                   guide_search, make_named_instance)
from smoothcb.harness import RunConfig, default_policy_class, run_experiment
from smoothcb.kernels import RectKernel
from smoothcb.losses import PiecewiseConstantLoss, PiecewiseLinearLoss
from smoothcb.policies import PolicyClass, segment_cuts
from smoothcb.spaces import ActionSpace


def _constant_env(c=0.3, noise="deterministic"):
    space = ActionSpace.ring()
    mean = PiecewiseConstantLoss.constant(c)
    return StochasticEnv(space, FiniteContexts([None]), lambda xs: mean,
                         noise=noise)


class TestNoiseModels:
    def test_deterministic_equals_mean(self):
        env = _constant_env(0.3)
        rng = np.random.default_rng(0)
        assert env.realize_at(None, 0.7, rng) == pytest.approx((0.3, 0.3))

    def test_bernoulli_mean(self):
        env = make_named_instance("absolute")
        rng = np.random.default_rng(1)
        a = 0.2
        target = 0.3  # |0.2 - 0.5|
        n = 10 ** 5
        draws = np.array([env.realize_at(None, a, rng)[0] for _ in range(n)])
        se = np.sqrt(target * (1 - target) / n)
        assert abs(draws.mean() - target) <= 3 * se
        assert set(np.unique(draws)) <= {0.0, 1.0}

    def test_single_context(self):
        env = make_named_instance("absolute")
        assert env.contexts.sample(np.random.default_rng(0)) is None


class TestBatchedRounds:
    def test_realize_many_groups_rounds_by_context(self):
        losses = [PiecewiseLinearLoss([0.0, 1.0], [0.1 * c, 0.9 - 0.2 * c])
                  for c in range(3)]
        env = StochasticEnv(ActionSpace.cube(1),
                            FiniteContexts([0, 1, 2], [0.2, 0.5, 0.3]),
                            lambda xs: ByContext(losses, xs))
        values, index = env.contexts.sample_many(np.random.default_rng(0),
                                                 500)
        assert set(index) == {0, 1, 2}
        a = np.random.default_rng(1).random(500)
        loss, mean = env.realize_many(values, index, a, None)
        expected = [env.realize_at(values[i], v, None)[1]
                    for i, v in zip(index, a)]
        assert np.array_equal(mean, expected) and np.array_equal(loss, mean)

    @pytest.mark.parametrize("noise", ["deterministic", "bernoulli"])
    def test_one_context_row_broadcasts_as_gathered(self, noise):
        # one context vector: linear_sphere's batch-first ShiftedLoss is
        # evaluated at its one row and broadcast over the rounds, with the
        # bits of the row gathered per round; the noise takes the same
        # draws from the generator
        sphere = make_named_instance("linear_sphere", d_ctx=3)
        env = StochasticEnv(sphere.space,
                            FiniteContexts([np.array([0.6, -0.48, 0.64])]),
                            sphere.mean_losses, noise=noise)
        n = 4096
        values, index = env.contexts.sample_many(None, n)
        a = np.random.default_rng(1).random(n)
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        loss, mean = env.realize_many(values, index, a, rng)
        gathered = env.mean_losses(values[index])(a)
        assert mean.dtype == loss.dtype == np.float64
        assert mean.tobytes() == gathered.tobytes()
        if noise == "bernoulli":
            expected = (ref.random(n) < gathered).astype(float)
            assert set(np.unique(loss)) == {0.0, 1.0}
        else:
            expected = gathered
        assert loss.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_finite_sample_equals_choice(self):
        # weight vectors with zeros in random places: the same context as
        # choice's pick, and the generator left in choice's state
        gen = np.random.default_rng(7)
        for trial in range(200):
            n = int(gen.integers(2, 9))
            w = gen.random(n) * (gen.random(n) < 0.7)
            w[int(gen.integers(n))] += 0.1
            ctx = FiniteContexts(list(range(n)), w / w.sum())
            rng, ref = (np.random.default_rng(trial) for _ in range(2))
            for _ in range(300):
                assert ctx.sample(rng) == ref.choice(n, p=ctx.weights)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_finite_sample_never_picks_a_zero_weight(self):
        # the weights sum to 1 - 1e-10, within the check; a draw in
        # [1 - 1e-10, 1) lies past their running sum, and a pick clamped to
        # the last index gave "z", of weight 0, where sample_many gives "b"
        class Stub:
            def random(self, size=None):
                u = 1.0 - 5e-11
                return u if size is None else np.full(size, u)

        ctx = FiniteContexts(["a", "b", "z"], [0.5, 0.5 - 1e-10, 0.0])
        assert ctx.sample(Stub()) == "b"
        values, index = ctx.sample_many(Stub(), 3)
        assert [values[i] for i in index] == ["b"] * 3

    def test_finite_sample_many_equals_choice(self):
        # weighted contexts, two of them never drawn, one of those last
        ctx = FiniteContexts(["a", "b", "c", "d", "e"],
                             [0.1, 0.0, 0.6, 0.3, 0.0])
        for n in (0, 1, 7, 5000):
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            values, index = ctx.sample_many(rng, n)
            expected = ref.choice(5, size=n, p=ctx.weights)
            assert list(values) == ctx.values
            assert index.dtype == expected.dtype
            assert np.array_equal(index, expected)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_sampler_gives_each_round_its_context(self):
        env = make_named_instance("linear_sphere")
        values, index = env.contexts.sample_many(np.random.default_rng(0), 7)
        assert len(values) == 7 and list(index) == list(range(7))
        assert all(np.isclose(np.linalg.norm(v), 1.0) for v in values)


def _skewed(k, seed=0):
    p = np.exp(-30.0 * np.random.default_rng(seed).random(k))
    return p / p.sum()


def _with_zeros(k, seed=0):
    # exact zeros in front, inside and at the end of the vector
    p = np.random.default_rng(seed).random(k)
    p[[0, k // 2, k - 2, k - 1]] = 0.0
    return p / p.sum()


class TestDrawIndices:
    """draw_indices against rng.choice, the reference it stands in for:
    equal picks and an equal generator state afterwards."""

    @staticmethod
    def _same_as_choice(p, n, seed=0):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_indices(p, n, rng)
        expected = ref.choice(len(p), size=n, p=p)
        assert got.dtype == expected.dtype and got.shape == (n,)
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == ref.bit_generator.state

    # k = 16 and k = 100 are pe-sphere's and pe-absolute's policy counts
    @pytest.mark.parametrize("n", [0, 1, 1000, 50_000, 2 ** 17])
    @pytest.mark.parametrize("shape,k", [
        *[("uniform", k) for k in (1, 2, 3, 16, 100, 300)],
        *[(shape, k) for shape in ("skewed", "zeros") for k in (16, 100, 300)],
    ])
    def test_equals_choice(self, shape, k, n):
        # uniform at k = 16: every cdf entry lies on a bucket edge j / m
        p = (np.full(k, 1.0 / k) if shape == "uniform"
             else _skewed(k) if shape == "skewed" else _with_zeros(k))
        self._same_as_choice(p, n, seed=k * 1000 + n)

    def test_random_vectors_equal_choice(self):
        rng = np.random.default_rng(19)
        for trial in range(300):
            k = int(rng.integers(1, 301))
            p = rng.random(k) ** int(rng.integers(1, 9))
            p[rng.random(k) < 0.2] = 0.0
            if p.sum() == 0.0:
                p[-1] = 1.0
            n = int(2.0 ** rng.uniform(0.0, 16.0))
            self._same_as_choice(p / p.sum(), n, seed=trial)

    def test_one_value_takes_the_whole_mass(self):
        p = np.zeros(100)
        p[37] = 1.0
        pick = draw_indices(p, 2 ** 14, np.random.default_rng(0))
        assert np.all(pick == 37)
        self._same_as_choice(p, 2 ** 14)

    @pytest.mark.parametrize("n", [1, 2 ** 14])
    def test_draw_on_a_cdf_entry(self, n):
        # the first draw lands exactly on the first cdf entry; choice's
        # search counts the entries <= u, so it picks 1
        u = np.random.default_rng(5).random()
        p = np.array([u, 1.0 - u])
        assert p.cumsum()[-1] == 1.0
        assert draw_indices(p, n, np.random.default_rng(5))[0] == 1
        self._same_as_choice(p, n, seed=5)

    @pytest.mark.parametrize("n", [1, 2 ** 14])
    def test_draw_between_raw_and_normalised_cdf(self, n):
        # the mass sums to 1 - 1e-9: the first draw lies above the raw
        # first cdf entry and below the normalised one, so choice picks 0
        u = np.random.default_rng(5).random()
        p = np.array([u * (1.0 - 1e-9) * (1.0 + 1e-12), 0.0])
        p[1] = (1.0 - 1e-9) - p[0]
        cdf = p.cumsum()
        assert cdf[0] < u < cdf[0] / cdf[-1]
        assert draw_indices(p, n, np.random.default_rng(5))[0] == 0
        self._same_as_choice(p, n, seed=5)

    @pytest.mark.parametrize("p", [
        [0.5, np.nan, 0.5],
        [0.75, -0.25, 0.5],
        [0.5, 0.5 + 1e-6],
        [0.5, 0.5 - 1e-6],
        [[0.5, 0.5]],
    ], ids=["nan", "negative", "sum-above", "sum-below", "two-dims"])
    def test_bad_probabilities_raise_as_choice_does(self, p):
        p = np.array(p)
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError) as expected:
            ref.choice(p.shape[-1], size=5, p=p)
        with pytest.raises(ValueError) as got:
            draw_indices(p, 5, rng)
        assert str(expected.value).startswith(str(got.value))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_sum_within_tolerance_is_accepted(self):
        self._same_as_choice(np.array([0.5, 0.5 + 1e-9]), 10_000)


class TestGuideSearch:
    """guide_search against row.searchsorted(u, "right"), the answer it
    gives by construction."""

    @staticmethod
    def _same_as_searchsorted(row, u):
        row, u = np.asarray(row, dtype=float), np.asarray(u, dtype=float)
        got = guide_search(row)(u)
        assert got.dtype == np.intp and got.shape == u.shape
        assert np.array_equal(got, row.searchsorted(u, "right"))

    @staticmethod
    def _around(row, seed=0):
        """Each entry of the row, its two neighbouring doubles in [0, 1],
        0.0, 1.0 and random points."""
        row = np.asarray(row, dtype=float)
        near = np.concatenate([row, np.nextafter(row, 0.0),
                               np.nextafter(row, 1.0)])
        return np.concatenate([near, [0.0, 1.0],
                               np.random.default_rng(seed).random(5000)])

    @pytest.mark.parametrize("length", [2, 5, 16, 17, 200])
    def test_cuts_on_bucket_edges(self, length):
        # every cut is some j / m, m the table's bucket count, and every
        # bucket edge is looked up
        m = 16 << (length - 1).bit_length()
        row = np.sort(np.random.default_rng(length).integers(
            0, m + 1, length)) / m
        row[0], row[-1] = 0.0, 1.0
        u = np.concatenate([self._around(row), np.arange(m + 1) / m])
        self._same_as_searchsorted(row, u)

    def test_repeated_cuts(self):
        for row in ([0.0, 0.0, 0.25, 0.25, 0.25, 0.3, 1.0, 1.0],
                    [0.0, 0.5, 0.5, 0.5, 0.5, 1.0],
                    [0.0] * 3 + [1.0] * 3):
            self._same_as_searchsorted(row, self._around(row))

    def test_whole_circle_row(self):
        # the ring's cuts when the survivors' balls cover the circle
        row = segment_cuts(ActionSpace.ring(), np.array([[0.3, 0.8]]),
                           0.5)[0, 0]
        assert list(row) == [0.0, 1.0]
        self._same_as_searchsorted(row, self._around(row))

    def test_ring_cuts_and_an_action_of_one(self):
        # a ring action x - floor(x) is 1.0 for a tiny negative x
        x = -2.0 ** -60
        assert x - math.floor(x) == 1.0
        rng = np.random.default_rng(3)
        for trial in range(50):
            centers = rng.random((1, int(rng.integers(1, 120))))
            row = segment_cuts(ActionSpace.ring(), centers,
                               float(rng.choice([0.01, 0.05, 0.1, 0.3])))[0, 0]
            self._same_as_searchsorted(row, self._around(row, seed=trial))


class TestBenchmarks:
    def test_absolute_smoothed_optimum(self):
        env = make_named_instance("absolute")
        grid = np.linspace(0.0, 0.99, 100)
        grid = np.append(grid, 0.5)
        pc = PolicyClass.constant(env.space, grid)
        val, idx = env.smoothed_benchmark(pc, 0.1)
        assert val == pytest.approx(0.05, abs=1e-9)
        assert grid[idx] == pytest.approx(0.5)

    def test_discontinuous_smoothed_optimum(self):
        env = make_named_instance("discontinuous")
        pc = PolicyClass.constant(env.space, np.linspace(0, 0.995, 200))
        val, idx = env.smoothed_benchmark(pc, 0.1)
        assert val == pytest.approx(0.325, abs=1e-9)
        assert abs(pc.actions[idx] - 0.5) <= 0.01

    def test_discontinuous_closed_form_over_h(self):
        env = make_named_instance("discontinuous")
        pc = PolicyClass.constant(env.space,
                                  np.concatenate([[0.5],
                                                  np.linspace(0, 0.99, 100)]))
        for h in (0.05, 0.1, 0.2):
            val, _ = env.smoothed_benchmark(pc, h)
            assert val == pytest.approx(0.25 + 0.75 * h, abs=1e-9)

    def test_constant_loss_everyone_ties(self):
        env = _constant_env(0.4)
        pc = PolicyClass.constant(env.space, [0.1, 0.6, 0.9])
        val, idx = env.smoothed_benchmark(pc, 0.1)
        assert val == pytest.approx(0.4, abs=1e-12)
        assert idx == 0


class TestLinearSphere:
    def test_optimal_weight_minimizes(self):
        env = make_named_instance("linear_sphere")
        wstar = env.metadata["wstar"]
        rng = np.random.default_rng(2)
        ws = rng.standard_normal((20, len(wstar)))
        ws /= np.linalg.norm(ws, axis=1, keepdims=True)
        ws = np.vstack([wstar, ws])
        pc = PolicyClass.linear_sphere(env.space, ws)
        vals = env.smoothed_policy_losses(pc, 0.0,
                                           panel=env.contexts.panel(
                                               400, np.random.default_rng(0)))
        assert np.argmin(vals) == 0

    def test_mean_loss_range_and_floor(self):
        env = make_named_instance("linear_sphere")
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = env.contexts.sample(rng)
            loss = env.mean_loss_of(x)
            grid = np.linspace(0, 1, 101)
            vals = loss(grid)
            assert np.all(vals >= 0.25 - 1e-9) and np.all(vals <= 1.0 + 1e-9)

    @pytest.mark.parametrize("L0,L", [(1.0, 4.0), (2.0, 4.0), (0.5, 4.0),
                                      (2.5, 3.0), (3.0, 3.0), (4.0, 6.0),
                                      (1.0, 1.0)])
    def test_mean_loss_is_documented_f(self, L0, L):
        # mean loss at u is f(2u - 1 - <w*,x>), f(t) = min(1, 1/4 + L0|t|
        # + (L - L0)(|t| - 1/4)_+), on a dense u-grid
        env = make_named_instance("linear_sphere", L=L, L0=L0)
        wstar = env.metadata["wstar"]
        u = np.linspace(0.0, 1.0, 4001)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = env.contexts.sample(rng)
            t = np.abs(2.0 * u - 1.0 - float(np.dot(wstar, x)))
            f = np.minimum(1.0, 0.25 + L0 * t
                           + (L - L0) * np.maximum(0.0, t - 0.25))
            assert np.max(np.abs(env.mean_loss_of(x)(u) - f)) <= 1e-12

    def test_lipschitz_metadata(self):
        env = make_named_instance("linear_sphere")
        L = env.lipschitz_constant
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = env.contexts.sample(rng)
            loss = env.mean_loss_of(x)
            pairs = rng.random((100, 2))
            v = loss(pairs[:, 0]) - loss(pairs[:, 1])
            assert np.all(np.abs(v)
                          <= L * np.abs(pairs[:, 0] - pairs[:, 1]) + 1e-9)


class TestNeedleInstances:
    def test_hidden_cell_parameters(self):
        env = make_named_instance("needle_h", h=0.125, R=10.0)
        assert env.metadata["N"] == 2
        assert env.metadata["delta"] == pytest.approx(0.005)

    def test_cells_disjoint_in_left_half(self):
        env = make_named_instance("needle_h", h=1.0 / 32.0, R=10.0)
        h = env.metadata["h"]
        cells = np.array([
            make_named_instance("needle_h", h=h, index=k).metadata["center"]
            for k in range(1, env.metadata["N"] + 1)])
        assert np.all(cells - h >= -1e-12)
        assert np.all(cells + h <= 0.5 + 1e-12)
        gaps = np.diff(np.sort(cells))
        assert np.all(gaps >= 2 * h - 1e-12)

    @pytest.mark.parametrize("name,params", [
        ("needle_L", {"L": 4.0}), ("needle_h", {"h": 1.0 / 32.0}),
        ("needle_h", {"h": 1.0 / 32.0, "d": 2}),
        ("needle_h", {"h": 1.0 / 16.0, "d": 3})])
    def test_cells_match_pocket_formula(self, name, params):
        # pocket s of N sits at width * (2s - 1), s = 1..N per axis, and
        # index k selects row k - 1 of the meshgrid of those axes
        md = make_named_instance(name, R=10.0, **params).metadata
        width = md["delta"] / md["L"] if name == "needle_L" else md["h"]
        d = params.get("d", 1)
        side = round(md["N"] ** (1.0 / d))
        axis = np.array([width * (2 * s - 1) for s in range(1, side + 1)])
        want = (axis if d == 1 else
                np.stack([m.ravel() for m in np.meshgrid(*[axis] * d)],
                         axis=1))
        assert md["center"] is None
        got = [make_named_instance(name, R=10.0, index=k,
                                   **params).metadata["center"]
               for k in range(1, md["N"] + 1)]
        assert np.array_equal(got, want)

    def test_one_pocket_built(self):
        # the selected pocket's centre comes from its formula: neither the
        # 2 * 10^8 tent centres at L = 1e8 nor a 250^3 pocket grid is built
        tracemalloc.start()
        try:
            make_named_instance("needle_L", L=1e8, index=1)
            make_named_instance("needle_h", h=1e-3, d=3, index=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_safe_half_value(self):
        env = make_named_instance("needle_h", h=0.125, R=10.0, index=1)
        delta = env.metadata["delta"]
        loss = env.mean_loss_of(None)
        for a in (0.5, 0.7, 0.99):
            assert float(loss(a)) == pytest.approx(0.5 - delta / 2.0)

    def test_smoothed_value_at_hidden_cell(self):
        # averaging the hidden-cell field over the matching ball gives
        # exactly the deep value
        env = make_named_instance("needle_h", h=0.125, R=10.0, index=2)
        h = env.metadata["h"]
        delta = env.metadata["delta"]
        c = env.metadata["center"]
        kern = RectKernel(env.space, h)
        got = kern.smoothed_loss(float(c), env.mean_loss_of(None))
        assert got == pytest.approx(0.5 - delta, abs=1e-9)

    @pytest.mark.parametrize("h", [1 / 8, 1 / 32])
    def test_pocket_closed_in_one_dimension(self, h):
        # the pocket's value holds on both ends c +- h, as in d >= 2, and
        # the doubles just outside them are not in the pocket
        N = int(1.0 / (4.0 * h))
        for index in range(1, N + 1):
            env = make_named_instance("needle_h", h=h, index=index)
            c, delta = env.metadata["center"], env.metadata["delta"]
            loss = env.mean_loss_of(None)
            assert loss(c - h) == loss(c) == loss(c + h) == 0.5 - delta
            assert loss(np.nextafter(c + h, 1.0)) > 0.5 - delta
            if c - h > 0.0:
                assert loss(np.nextafter(c - h, 0.0)) > 0.5 - delta

    @pytest.mark.parametrize("h", [1 / 4, 1 / 8, 1 / 10, 1 / 32, 0.07,
                                   1 / 64, 0.013])
    @pytest.mark.parametrize("R", [0.5, 10.0, 1000.0])
    def test_one_dimension_matches_piecewise_reference(self, h, R):
        # the 1-d field, collapsed from the separable terms, against the
        # pieces written out one by one: same breaks, values and prefix table
        N = int(math.floor(1.0 / (4.0 * h)))
        for index in range(N + 1):
            env = make_named_instance("needle_h", h=h, R=R, index=index)
            got, want = env.mean_loss_of(None), _needle_1d(env.metadata)
            assert np.array_equal(got.breaks, want.breaks)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got._F, want._F)

    def test_plain_field_flat_on_left(self):
        env = make_named_instance("needle_h", h=0.125, R=10.0, index=0)
        loss = env.mean_loss_of(None)
        for a in (0.05, 0.2, 0.45):
            assert float(loss(a)) == pytest.approx(0.5)

    def test_tent_field_lipschitz(self):
        env = make_named_instance("needle_L", L=4.0, R=10.0, index=1)
        loss = env.mean_loss_of(None)
        L = env.lipschitz_constant
        grid = np.linspace(0, 1, 2001)
        vals = loss(grid)
        slopes = np.abs(np.diff(vals)) / np.diff(grid)
        assert np.max(slopes) <= L + 1e-6

    def test_tent_depths(self):
        env = make_named_instance("needle_L", L=4.0, R=10.0, index=1)
        delta = env.metadata["delta"]
        loss = env.mean_loss_of(None)
        c0 = env.metadata["c0"]
        ci = env.metadata["center"]
        assert float(loss(c0)) == pytest.approx(0.5 - delta / 2.0)
        assert float(loss(ci)) == pytest.approx(0.5 - delta)


def _needle_1d(md):
    """needle_h's mean in d = 1 as right-open pieces, each valued by the
    rule for its left end: the closed pocket [lo, hi] as the piece
    [lo, next double above hi), then the safe half [1/2, 1]."""
    c, h, delta = md["center"], md["h"], md["delta"]
    breaks, vals = [0.0, 0.5, 1.0], [0.5, 0.5 - delta / 2.0]
    if c is not None:
        lo, hi = _closed_pocket(c, h)
        hi = float(np.nextafter(hi, 1.0))
        breaks = sorted({0.0, lo, hi, 0.5, 1.0})
        vals = []
        for b0 in breaks[:-1]:
            if lo <= b0 < hi:
                vals.append(0.5 - delta)
            elif b0 >= 0.5:
                vals.append(0.5 - delta / 2.0)
            else:
                vals.append(0.5)
    return PiecewiseConstantLoss(breaks, vals)


def _field(md, d):
    """needle_h's mean in d >= 2 written directly, as a test per point: the
    closed pocket's value overrides the safe orthant's."""
    ci, h, delta = md["center"], md["h"], md["delta"]

    def phi(a):
        a = np.asarray(a, dtype=float).reshape(-1, d)
        out = np.full(a.shape[0], 0.5)
        out[np.min(a, axis=1) >= 0.5] = 0.5 - delta / 2.0
        if ci is not None:
            out[np.max(np.abs(a - ci), axis=1) <= h] = 0.5 - delta
        return out

    return phi


class TestNeedleCube:
    """needle_h in d >= 2: its separable form against the field written
    directly, point by point, and against quadrature of that field."""

    @pytest.mark.parametrize("h,d", [
        (0.125, 2), (1 / 36, 2), (0.1, 2), (1 / 12 + 1e-17, 2),
        (1 / 16, 3), (0.125, 3)])
    def test_values_match_field_bitwise(self, h, d):
        rng = np.random.default_rng(0)
        N = int(math.floor(1.0 / (4.0 * h))) ** d
        # pocket N's corner is the one nearest (1/2, ..., 1/2)
        for index in sorted({0, 1, N // 2, N}):
            env = make_named_instance("needle_h", h=h, d=d, index=index)
            md = env.metadata
            ci = md["center"] if index else np.full(d, 0.25)
            # every combination of the pocket's faces, 1/2, the ends of
            # [0, 1] and their neighbouring doubles: faces, edges, corners
            ends = np.concatenate([ci - h, ci + h, [0.5]])
            coords = np.unique(np.concatenate([
                ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0), ci,
                [0.0, 1.0]]))
            pts = np.concatenate([
                np.stack([m.ravel() for m in np.meshgrid(*[coords] * d)],
                         axis=1),
                rng.random((500, d))])
            loss, field = env.mean_loss_of(None), _field(md, d)
            assert loss(pts).tobytes() == field(pts).tobytes()
            for a in pts[::37]:
                assert loss(a) == float(field(a)[0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_pocket_wins_at_shared_corner(self, d):
        env = make_named_instance("needle_h", h=0.125, d=d, index=2 ** d)
        md = env.metadata
        assert np.all(md["center"] + md["h"] == 0.5)
        loss, half = env.mean_loss_of(None), np.full(d, 0.5)
        assert loss(half) == 0.5 - md["delta"]
        assert loss(np.nextafter(half, 1.0)) == 0.5 - md["delta"] / 2.0
        assert loss(np.nextafter(half, 0.0)) == 0.5 - md["delta"]

    @pytest.mark.parametrize("d,n", [(2, 64), (3, 8)])
    def test_benchmark_matches_quadrature(self, d, n):
        # nquad of the field box by box, to its 1e-9 epsabs; 2^3 policies
        # keep the three-fold quadrature to seconds
        h = 0.125
        env = make_named_instance("needle_h", h=h, d=d, index=1)
        pc = default_policy_class(env, n)
        assert pc.size == n
        acts = pc.actions_many([None])[0]
        lo, hi = np.maximum(0.0, acts - h), np.minimum(1.0, acts + h)
        want = (CallableLoss(_field(env.metadata, d), d=d)
                .integrate_box(lo, hi) / np.prod(hi - lo, axis=1))
        got = env.smoothed_policy_losses(pc, h)
        assert np.max(np.abs(got - want)) <= 1e-9
        bench, idx = env.smoothed_benchmark(pc, h)
        assert abs(bench - want.min()) <= 1e-9
        assert idx == int(np.argmax(want <= want.min() + 1e-12))

    def test_benchmark_is_fast(self):
        # 64 exact box integrals; quadrature of the same boxes took 2 s
        env = make_named_instance("needle_h", h=0.125, d=2, index=1)
        pc = default_policy_class(env, 64)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            env.smoothed_benchmark(pc, 0.125)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.5

    # sha256 of actions, losses and epoch rows of seeded runs on the d = 2
    # field whose pocket corner meets the safe orthant; the pe-s digest was
    # recorded when the exploration program's geometry became exact box
    # cells (test_pe_s_is_the_monte_carlo_run_past_its_draws)
    DIGESTS = {
        ("exp4", 512): "25e1db337116916e9a04c5ec330d81a1"
                       "d2ab82e93ba804a3838c3f4345bc013b",
        ("pe-s", 2048): "8bcad5df276cae54952a2e77c240d87d"
                        "21a1f61a5ba61865d4898d3493cf6c32",
    }

    @staticmethod
    def _digest(alg, T, epochs=True):
        cfg = RunConfig(alg=alg, env_name="needle_h", T=T, h=0.125,
                        env_params={"h": 0.125, "d": 2, "index": 4},
                        seeds=[0, 1], n_policies=16)
        digest = hashlib.sha256()
        for tr in run_experiment(cfg):
            digest.update(np.asarray(tr.actions, dtype=np.float64).tobytes())
            digest.update(np.asarray(tr.losses, dtype=np.float64).tobytes())
            if epochs:
                digest.update(json.dumps(tr.epochs, sort_keys=True).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("alg,T", sorted(DIGESTS))
    def test_trajectory_digest(self, alg, T):
        assert self._digest(alg, T) == self.DIGESTS[(alg, T)]

    def test_pe_s_is_the_monte_carlo_run_past_its_draws(self, monkeypatch):
        # the exploration program once measured this union on 10^4 points
        # per context drawn from the algorithm stream.  Advanced past those
        # draws, the stream plays that run's actions and losses (sha256
        # recorded then); its epoch rows differed only in solver_value, the
        # Monte Carlo 1.088 and 1.0944 where the exact cells give 1.0
        play = elimination.SmoothPolicyElimination._play_epoch

        def past_the_draws(self, state, n, rng, rng_env):
            rng.uniform(0.0, 1.0, size=(1, 10 ** 4, 2))
            return play(self, state, n, rng, rng_env)
        monkeypatch.setattr(elimination.SmoothPolicyElimination,
                            "_play_epoch", past_the_draws)
        assert self._digest("pe-s", 2048, epochs=False) == (
            "668bdef47c9a8bed7f56df47b89e6a3d200fe3081c7e87c151e1dfca61218c14")


class TestValidation:
    def test_finite_contexts_weight_length(self):
        with pytest.raises(ValueError, match="weights"):
            FiniteContexts([0, 1, 2], [0.5, 0.5])

    def test_finite_contexts_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            FiniteContexts([])

    def test_unknown_instance(self):
        with pytest.raises(ValueError):
            make_named_instance("nope")

    def test_unknown_noise(self):
        with pytest.raises(ValueError):
            _constant_env(noise="cauchy")

    def test_finite_contexts_nan_weights(self):
        with pytest.raises(ValueError, match="weights"):
            FiniteContexts([0, 1], [np.nan, np.nan])

    def test_needle_index_bounds(self):
        with pytest.raises(ValueError):
            make_named_instance("needle_h", h=0.125, R=10.0, index=3)
