import numpy as np
import pytest
from by_context import ByContext

from smoothcb.environments import (FiniteContexts, StochasticEnv,
                                   make_named_instance)
from smoothcb.kernels import RectKernel
from smoothcb.losses import PiecewiseConstantLoss, PiecewiseLinearLoss
from smoothcb.policies import PolicyClass
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

    def test_sampler_gives_each_round_its_context(self):
        env = make_named_instance("linear_sphere")
        values, index = env.contexts.sample_many(np.random.default_rng(0), 7)
        assert len(values) == 7 and list(index) == list(range(7))
        assert all(np.isclose(np.linalg.norm(v), 1.0) for v in values)


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
        pc = PolicyClass.linear_sphere(env.space, ws, rescale=True)
        vals = env.smoothed_policy_losses(pc, 0.0, n_ctx=400)
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
        cells = env.metadata["cells"]
        h = env.metadata["h"]
        assert np.all(cells - h >= -1e-12)
        assert np.all(cells + h <= 0.5 + 1e-12)
        gaps = np.diff(np.sort(cells))
        assert np.all(gaps >= 2 * h - 1e-12)

    @pytest.mark.parametrize("name,params", [
        ("needle_L", {"L": 4.0}), ("needle_h", {"h": 1.0 / 32.0}),
        ("needle_h", {"h": 1.0 / 32.0, "d": 2})])
    def test_cells_match_pocket_formula(self, name, params):
        # pocket s of N sits at width * (2s - 1), s = 1..N per axis
        env = make_named_instance(name, R=10.0, **params)
        md = env.metadata
        width = md["delta"] / md["L"] if name == "needle_L" else md["h"]
        d = params.get("d", 1)
        side = round(md["N"] ** (1.0 / d))
        axis = np.array([width * (2 * s - 1) for s in range(1, side + 1)])
        want = (axis if d == 1 else
                np.stack([m.ravel() for m in np.meshgrid(*[axis] * d)],
                         axis=1))
        assert np.array_equal(md["cells"], want)

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
        c = env.metadata["cells"][1]
        kern = RectKernel(env.space, h)
        got = kern.smoothed_loss(float(c), env.mean_loss_of(None))
        assert got == pytest.approx(0.5 - delta, abs=1e-9)

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
        ci = env.metadata["cells"][0]
        assert float(loss(c0)) == pytest.approx(0.5 - delta / 2.0)
        assert float(loss(ci)) == pytest.approx(0.5 - delta)


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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_gaussian_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            StochasticEnv(ActionSpace.ring(), FiniteContexts([None]),
                          lambda xs: PiecewiseConstantLoss.constant(0.3),
                          noise="gaussian", sigma=sigma)

    def test_needle_index_bounds(self):
        with pytest.raises(ValueError):
            make_named_instance("needle_h", h=0.125, R=10.0, index=3)
