import numpy as np
import pytest

from smoothcb.spaces import ActionSpace


class TestDistance:
    def test_ring_wraparound(self):
        space = ActionSpace.ring()
        assert space.distance(0.9, 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_ring_identity(self):
        space = ActionSpace.ring()
        assert space.distance(0.37, 0.37) == 0.0

    def test_cube_linf(self):
        space = ActionSpace.cube(2)
        d = space.distance((0.1, 0.4), (0.3, 0.45))
        assert d == pytest.approx(0.2, abs=1e-12)

    def test_ring_diameter_half(self):
        space = ActionSpace.ring()
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.random(2)
            assert space.distance(a, b) <= 0.5 + 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(1)
        for space in (ActionSpace.ring(), ActionSpace.cube(2)):
            for _ in range(200):
                pts = rng.random((3, space.d))
                a, b, c = (p if space.d > 1 else float(p[0]) for p in pts)
                assert space.distance(a, b) == pytest.approx(
                    space.distance(b, a), abs=1e-12)
                assert (space.distance(a, c)
                        <= space.distance(a, b) + space.distance(b, c) + 1e-12)


class TestBallVolume:
    def test_ring_arc(self):
        space = ActionSpace.ring()
        assert space.ball_volume(0.3, 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_cube_boundary_clipped(self):
        space = ActionSpace.cube(1)
        assert space.ball_volume(0.0, 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_radius_one_covers_everything(self):
        for space in (ActionSpace.ring(), ActionSpace.cube(2),
                      ActionSpace.grid(7)):
            assert space.ball_volume(space.sample_uniform(
                np.random.default_rng(0)), 1.0) == pytest.approx(1.0)

    def test_cube_doubling(self):
        # nu(B(a, 2r)) <= 2^d nu(B(a, r)) everywhere on the cube
        for d in (1, 2):
            space = ActionSpace.cube(d)
            rng = np.random.default_rng(2)
            for _ in range(300):
                a = rng.random(d) if d > 1 else float(rng.random())
                r = float(rng.uniform(0.01, 0.25))
                assert (space.ball_volume(a, 2 * r)
                        <= 2 ** d * space.ball_volume(a, r) + 1e-12)

    def test_monotone_in_radius(self):
        space = ActionSpace.cube(2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.random(2)
            r1, r2 = sorted(rng.uniform(0.01, 0.6, size=2))
            assert space.ball_volume(a, r1) <= space.ball_volume(a, r2) + 1e-12


class TestUniformity:
    def test_ring_value(self):
        space = ActionSpace.ring()
        assert space.estimate_uniformity([0.1]) == pytest.approx(2.0, abs=1e-9)

    def test_cube_value(self):
        space = ActionSpace.cube(1)
        assert space.estimate_uniformity([0.1]) == pytest.approx(4.0, abs=1e-9)

    def test_grid_at_least_one(self):
        space = ActionSpace.grid(4)
        assert space.estimate_uniformity([0.3]) >= 1.0


class TestFacts:
    def test_capped_interval_ratio(self):
        # clipped-interval lengths shrink no faster than the radius ratio
        grid = np.linspace(0.0, 1.0, 41)
        for a in grid:
            for hp in (0.01, 0.05, 0.1, 0.3):
                for h in (hp, 0.2, 0.5, 1.0):
                    if h < hp:
                        continue
                    num = min(1.0, a + hp) - max(0.0, a - hp)
                    den = min(1.0, a + h) - max(0.0, a - h)
                    assert num / den >= hp / h - 1e-12

    def test_power_d_bound(self):
        for d in range(1, 6):
            for T in (1, 2, 4, 16, 256, 10 ** 4):
                lhs = (1.0 / (1.0 - 1.0 / (4.0 * d * T))) ** d
                assert lhs <= 1.0 + 1.0 / T + 1e-12


class TestGrid:
    def test_points_are_multiples(self):
        space = ActionSpace.grid(5)
        assert np.allclose(space.grid_points(),
                           np.array([1, 2, 3, 4, 5]) / 5.0)

    def test_sample_lands_on_grid(self):
        space = ActionSpace.grid(8)
        rng = np.random.default_rng(4)
        pts = set(np.round(space.grid_points(), 12))
        for _ in range(50):
            assert round(space.sample_uniform(rng), 12) in pts


class TestSampleBall:
    def test_ring_wrap_support(self):
        space = ActionSpace.ring()
        a = space.sample_ball(np.zeros(200), 0.1, np.random.default_rng(5))
        assert a.shape == (200,)
        assert np.all((a >= 0.9) | (a <= 0.1 + 1e-12))

    def test_cube_clipped_support(self):
        space = ActionSpace.cube(2)
        a = space.sample_ball(np.zeros((200, 2)), 0.1,
                              np.random.default_rng(6))
        assert a.shape == (200, 2)
        assert np.all(a >= 0.0) and np.all(a <= 0.1 + 1e-12)
