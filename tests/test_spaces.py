import tracemalloc

import numpy as np
import pytest

from smoothcb.spaces import ActionSpace


def _lattice_uniformity(space, hs, res=64):
    """The uniformity constant as a max and min over every centre of the
    lattice of res^d points."""
    if space.kind == "ring":
        centers = np.linspace(0.0, 1.0, res, endpoint=False)
    else:
        axis = np.linspace(0.0, 1.0, res)
        mesh = np.meshgrid(*([axis] * space.d))
        centers = (axis if space.d == 1
                   else np.stack([m.ravel() for m in mesh], axis=1))
    return max(float(np.max(space.ball_volumes(centers, 2.0 * h))
                     / np.min(space.ball_volumes(centers, h))) for h in hs)


class TestKinds:
    def test_ring_and_cube_only(self):
        assert repr(ActionSpace.ring()) == "ActionSpace(ring)"
        assert repr(ActionSpace.cube(3)) == "ActionSpace(cube, d=3)"
        with pytest.raises(ValueError, match="unknown action space kind"):
            ActionSpace("grid")


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

    @pytest.mark.parametrize("d", [2, 3])
    def test_cube_distances_same_bits_as_the_d_wide_max(self, d):
        # the sup taken one axis at a time against np.max over the whole
        # (..., d) difference array: one action against k centres, one
        # action per round, and _union_block's (n, k, 1, d) centres against
        # (n, 1, cells, d) cell midpoints; faces and ties included
        space = ActionSpace.cube(d)
        rng = np.random.default_rng(d)
        for cs, xs in [((9, d), (d,)), ((5, 7, d), (5, d)),
                       ((4, 6, 1, d), (4, 1, 11, d))]:
            c, x = rng.random(cs), rng.random(xs)
            rows = c.reshape(-1, d)  # a view: faces, and a zero distance
            rows[0], rows[1], rows[2] = 0.0, 1.0, x.reshape(-1, d)[0]
            lead = x.ndim - 1
            if lead and c.ndim > x.ndim:
                x_b = x.reshape(x.shape[:lead] + (1,) * (c.ndim - x.ndim)
                                + x.shape[lead:])
            else:
                x_b = x
            want = np.max(np.abs(c - x_b), axis=-1)
            got = space.distances(c, x)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBallVolume:
    def test_ring_arc(self):
        space = ActionSpace.ring()
        assert space.ball_volume(0.3, 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_cube_boundary_clipped(self):
        space = ActionSpace.cube(1)
        assert space.ball_volume(0.0, 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_radius_one_covers_everything(self):
        for space in (ActionSpace.ring(), ActionSpace.cube(2)):
            assert space.ball_volume(space.sample_uniform(
                np.random.default_rng(0), 1)[0], 1.0) == pytest.approx(1.0)

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

    @pytest.mark.parametrize("space", [
        ActionSpace.ring(), ActionSpace.cube(1), ActionSpace.cube(2),
        ActionSpace.cube(3)],
        ids=repr)
    def test_equals_the_lattice(self, space):
        rng = np.random.default_rng(7)
        hs = [1.0 / 64, 0.01, 0.05, 0.1, 1.0 / 3, 0.5, 0.7, 1.0,
              *rng.uniform(0.001, 1.0, 12 if space.d < 3 else 4)]
        for h in hs:
            assert (space.estimate_uniformity([h])
                    == _lattice_uniformity(space, [h])), h
        assert (space.estimate_uniformity(hs)
                == _lattice_uniformity(space, hs))

    def test_high_dimensional_cube_in_little_memory(self):
        # the lattice would hold 64^8 centres
        tracemalloc.start()
        try:
            alpha = ActionSpace.cube(8).estimate_uniformity([0.1, 2.0 ** -4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alpha == pytest.approx(4.0 ** 8, rel=1e-12)
        assert peak < 2 ** 20


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

    @staticmethod
    def _same_bits_and_state(space, c, r, reference, seed):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = space.sample_ball(c, r, rng_a)
        want = reference(c, r, rng_b)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("r", [1e-12, 0.05, 0.25, 0.5 - 2 ** -40])
    def test_ring_same_bits_as_np_mod(self, r):
        # centres at 0 and just below 1 send c + u below 0 and to 1
        def reference(c, r, rng):
            return np.mod(c + rng.uniform(-r, r, size=c.shape), 1.0)

        c = np.concatenate([[0.0, -0.0, 1.0 - 2 ** -53, 0.5],
                            np.full(1000, 0.0), np.full(1000, 1 - 2 ** -53),
                            np.random.default_rng(1).random(20_000)])
        self._same_bits_and_state(ActionSpace.ring(), c, r, reference, 3)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("r", [1e-12, 0.1, 0.5, 2.0])
    def test_cube_same_bits_as_rng_uniform(self, d, r):
        # centres at the faces clip the ball on one side; r = 2 on both
        def reference(c, r, rng):
            return rng.uniform(np.maximum(0.0, c - r), np.minimum(1.0, c + r))

        c = np.random.default_rng(2).random(20_000)
        c[:3] = 0.0, 1.0, 0.5
        if d > 1:
            c = c.reshape(-1, d)
        self._same_bits_and_state(ActionSpace.cube(d), c, r, reference, 4)

