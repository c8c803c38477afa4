import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from bandwidth_grid import grid_contains, grid_members

from smoothcb.environments import make_named_instance
from smoothcb.harness import default_policy_class
from smoothcb.kernels import BandwidthGrid, RectKernel
from smoothcb.losses import PiecewiseConstantLoss, PiecewiseLinearLoss
from smoothcb.policies import PolicyClass
from smoothcb.spaces import ActionSpace


def _random_pw_constant(rng, n_pieces=8):
    breaks = np.unique(np.concatenate([[0.0, 1.0],
                                       rng.uniform(0, 1, n_pieces - 1)]))
    return PiecewiseConstantLoss(breaks, rng.uniform(0, 1, len(breaks) - 1))


class TestDensity:
    def test_ring_inside_support(self):
        k = RectKernel(ActionSpace.ring(), 0.1)
        assert k.density(0.5, 0.55) == pytest.approx(5.0, abs=1e-12)

    def test_ring_outside_support(self):
        k = RectKernel(ActionSpace.ring(), 0.1)
        assert k.density(0.5, 0.7) == 0.0

    def test_cube_boundary_ball(self):
        k = RectKernel(ActionSpace.cube(1), 0.1)
        assert k.density(0.0, 0.05) == pytest.approx(10.0, abs=1e-12)

    def test_dirac_density_rejected(self):
        # a kernel always has a ball: h = 0 is refused when it is built
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            RectKernel(ActionSpace.ring(), 0.0)

    def test_normalization(self):
        # integral of the density against the base measure is 1 everywhere
        rng = np.random.default_rng(0)
        flat = PiecewiseConstantLoss.constant(1.0)
        for space in (ActionSpace.ring(), ActionSpace.cube(1)):
            for _ in range(500):
                h = float(rng.uniform(0.01, 0.6))
                c = float(rng.random())
                k = RectKernel(space, h)
                total = flat.integrate_intervals(space.ball_intervals(c, h))
                assert total * k.density(c, c) == pytest.approx(1.0, abs=1e-9)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


class TestWholeRingDensities:
    @pytest.mark.parametrize("h", [0.5, 0.75, 1.0])
    def test_equal_to_distance_formula(self, h):
        # a ball at least as wide as the circle: every ring distance is at
        # most 1/2 <= h, so the distance formula gives 1 everywhere, bit for
        # bit and in its shape
        space = ActionSpace.ring()
        k = RectKernel(space, h)
        rng = np.random.default_rng(3)
        n, m = 257, 9
        a = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)],
                            rng.random(n - 3)])
        for centers, acts in ((rng.random(n), a),
                              (rng.random((n, m)), a),
                              (rng.random(m), a[7])):
            ref = np.where(space.distances(centers, acts) <= h,
                           1.0 / min(1.0, 2.0 * h), 0.0)
            out = k.densities(centers, acts)
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert _bits(out) == _bits(ref)


class TestSampleMatchesSampleBall:
    @pytest.mark.parametrize("space, h, centers", [
        (ActionSpace.ring(), 0.1, [0.0, 0.03, 0.5, 0.97]),
        (ActionSpace.ring(), 0.5, [0.0, 0.25, 0.9]),
        (ActionSpace.ring(), 0.8, [0.1, 0.6]),
        (ActionSpace.cube(1), 0.1, [0.0, 0.02, 0.5, 0.98, 1.0]),
    ])
    def test_draw_for_draw(self, space, h, centers):
        # sample is sample_ball's one-row draw: the same doubles, and the
        # generator left in the same state
        k = RectKernel(space, h)
        rng_k, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(300):
            for c in centers:
                a = k.sample(np.float64(c), rng_k)
                b = space.sample_ball(np.array([c]), h, rng_b)[0]
                assert isinstance(a, float)
                assert _bits(a) == _bits(b)
        assert rng_k.random() == rng_b.random()


class TestScalarDrawsEqualUniform:
    @pytest.mark.parametrize("space", [ActionSpace.ring(), ActionSpace.cube(1)],
                             ids=["ring", "cube1"])
    @pytest.mark.parametrize("h", [0.01, 0.1, 0.3, 0.5, 0.7, 1.0])
    def test_draw_for_draw(self, space, h):
        # sample's lo + (hi - lo) * random() are rng.uniform(lo, hi)'s
        # doubles, and the generator is left in the same state; h >= 1/2
        # takes the whole-ring draw after the offset
        k = RectKernel(space, h)
        rng, ref = np.random.default_rng(23), np.random.default_rng(23)
        centers = np.random.default_rng(5).random(500).tolist()
        for c in centers + [0.0, 0.5, float(np.nextafter(1.0, 0.0))]:
            got = k.sample(np.float64(c), rng)
            if space.kind == "ring":
                u = ref.uniform(-h, h)
                expected = (ref.uniform(0.0, 1.0) if 2.0 * h >= 1.0
                            else (c + u) % 1.0)
            else:
                expected = ref.uniform(max(0.0, c - h), min(1.0, c + h))
            assert isinstance(got, float)
            assert _bits(got) == _bits(expected)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestKappa:
    def test_ring(self):
        assert RectKernel(ActionSpace.ring(), 0.1).kappa() == pytest.approx(5.0)

    def test_cube_2d(self):
        assert RectKernel(ActionSpace.cube(2), 0.5).kappa() == pytest.approx(4.0)

    def test_ring_whole_space(self):
        assert RectKernel(ActionSpace.ring(), 0.5).kappa() == pytest.approx(1.0)


class TestSmoothedLoss:
    def test_v_shape_with_point_dip(self):
        mean = PiecewiseLinearLoss([0.0, 0.5, 1.0], [1.0, 0.25, 1.0],
                                   special_points={0.7: 0.1})
        k = RectKernel(ActionSpace.ring(), 0.1)
        assert k.smoothed_loss(0.5, mean) == pytest.approx(0.325, abs=1e-9)

    def test_constant_loss(self):
        k = RectKernel(ActionSpace.cube(1), 0.2)
        assert k.smoothed_loss(0.5, PiecewiseConstantLoss.constant(0.3)) \
            == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_linear(self):
        mean = PiecewiseLinearLoss([0.0, 1.0], [0.0, 1.0])
        k = RectKernel(ActionSpace.ring(), 0.1)
        assert k.smoothed_loss(0.5, mean) == pytest.approx(0.5, abs=1e-9)

    def test_dirac_returns_point_value(self):
        # the unsmoothed benchmark, h = 0, weighs the mean loss at each
        # policy's action over the panel, evaluated here one context and one
        # policy at a time: a ring class through the point dip at 0.7, the
        # d = 2 needle field, and linear policies over sampled contexts
        rng = np.random.default_rng(8)
        w = rng.normal(size=(30, 2))
        needle = make_named_instance("needle_h", d=2)
        cases = [
            (make_named_instance("discontinuous"),
             PolicyClass.constant(ActionSpace.ring(), np.arange(40) / 40)),
            (needle, default_policy_class(needle, 400)),
            (make_named_instance("linear_sphere"), PolicyClass.linear_sphere(
                ActionSpace.cube(1), w / np.linalg.norm(w, axis=1)[:, None]))]
        for env, pc in cases:
            xs, ws = env.contexts.panel(50, np.random.default_rng(0))
            point = [[np.asarray(env.mean_loss_of(x)(pc.act(p, x))).item()
                      for p in range(pc.size)] for x in xs]
            got = env.smoothed_policy_losses(pc, 0.0, panel=(xs, ws))
            assert _bits(got) == _bits(ws @ np.array(point))

    def test_lipschitz_gap(self):
        # |smoothed value - point value| <= L * h
        rng = np.random.default_rng(1)
        space = ActionSpace.cube(1)
        for _ in range(300):
            breaks = np.unique(np.concatenate([[0.0, 1.0],
                                               rng.uniform(0, 1, 4)]))
            vals = rng.uniform(0, 1, len(breaks))
            loss = PiecewiseLinearLoss(breaks, vals)
            L = loss.lipschitz_constant()
            h = float(rng.uniform(0.01, 0.5))
            c = float(rng.random())
            gap = abs(RectKernel(space, h).smoothed_loss(c, loss)
                      - float(loss(c)))
            assert gap <= L * h + 1e-9

    def test_snapped_bandwidth_gap(self):
        # moving to the snapped grid bandwidth costs at most 1/T in value
        rng = np.random.default_rng(2)
        space = ActionSpace.cube(1)
        for T in (16, 256):
            grid = BandwidthGrid(1, T)
            for _ in range(200):
                loss = _random_pw_constant(rng)
                a = float(rng.random())
                h = float(rng.uniform(T ** -1.0, 1.0))
                h_hat = grid.snap(h)
                v = RectKernel(space, h).smoothed_loss(a, loss)
                v_hat = RectKernel(space, h_hat).smoothed_loss(a, loss)
                assert v_hat <= v + 1.0 / T + 1e-9

    def test_interval_swap_bound(self):
        # swapping the averaging set S1 -> S2 moves the mean of a [0,1]
        # loss by at most 2 nu(S1 xor S2) / max(nu(S1), nu(S2))
        rng = np.random.default_rng(3)
        for _ in range(500):
            loss = _random_pw_constant(rng)
            l1, r1 = np.sort(rng.uniform(0, 1, 2))
            l2, r2 = np.sort(rng.uniform(0, 1, 2))
            v1, v2 = r1 - l1, r2 - l2
            if min(v1, v2) < 1e-3:
                continue
            m1 = loss.integrate(l1, r1) / v1
            m2 = loss.integrate(l2, r2) / v2
            inter = max(0.0, min(r1, r2) - max(l1, l2))
            sym = v1 + v2 - 2 * inter
            assert abs(m1 - m2) <= 2 * sym / max(v1, v2) + 1e-9


class TestBandwidthGrid:
    def test_resolution_value(self):
        grid = BandwidthGrid(1, 4)
        assert grid.D == 128

    def test_snap_floors_to_grid(self):
        grid = BandwidthGrid(1, 4)
        assert grid.snap(0.30) == pytest.approx(38.0 / 128.0, abs=1e-15)

    def test_snap_idempotent_on_members(self):
        grid = BandwidthGrid(1, 4)
        assert grid.snap(0.25) == 0.25
        assert grid.snap(grid.snap(0.3)) == grid.snap(0.3)

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(2, 3), T=st.integers(4, 4096),
           u=st.floats(0.0, 1.0))
    # h = 0.9999999999999998 lies within the floor's slack below D / D
    @example(d=2, T=10, u=0.9999999999999999)
    def test_snap_on_the_cube(self, d, T, u):
        # for h in [T^(-1/d), 1] the snap is a grid member at or below h
        # whose kappa on the cube is at most twice h's
        grid = BandwidthGrid(d, T)
        floor_h = T ** (-1.0 / d)
        h = min(1.0, floor_h + u * (1.0 - floor_h))
        h_hat = grid.snap(h)
        assert grid_contains(grid, h_hat)
        assert h_hat <= h
        cube = ActionSpace.cube(d)
        assert (RectKernel(cube, h_hat).kappa()
                <= 2.0 * RectKernel(cube, h).kappa())

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("T", [10 ** 8, 10 ** 9])
    def test_snap_is_exact_at_large_T(self, d, T):
        # h * D in floats rounds by more than one multiple of 1/D here;
        # the snap is floor(h * D) / D in exact rationals, then rounded
        grid = BandwidthGrid(d, T)
        floor_h = T ** (-1.0 / d)
        rng = np.random.default_rng(d)
        for u in rng.random(2000).tolist():
            h = floor_h + u * (1.0 - floor_h)
            want = float(Fraction(math.floor(Fraction(h) * grid.D), grid.D))
            assert grid.snap(h) == want, h
            assert grid.snap(h) <= h

    def test_members_are_grid_multiples(self):
        grid = BandwidthGrid(1, 4)
        for h in grid_members(grid):
            assert abs(h * grid.D - round(h * grid.D)) < 1e-9

    def test_nonempty_for_small_T(self):
        for T in (2, 3, 4, 100):
            assert len(BandwidthGrid(1, T)) > 0

    def test_lazy_membership_large_T(self):
        grid = BandwidthGrid(1, 2 ** 14)
        assert len(grid) > 10 ** 6
        assert grid_contains(grid, grid.min_h)
        assert grid_contains(grid, 1.0)
        assert not grid_contains(grid, grid.min_h - 1.0 / grid.D)
        assert not grid_contains(grid, 0.3 + 0.5 / grid.D)
