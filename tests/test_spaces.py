import tracemalloc

import numpy as np
import pytest

from smoothcb.spaces import ActionSpace


def _lattice_uniformity(space, hs, res=64):
    """The uniformity constant as a max and min over every centre of the
    lattice of res^d points (the grid's own points on a grid)."""
    if space.kind == "grid":
        centers = space.grid_points()
    elif space.kind == "ring":
        centers = np.linspace(0.0, 1.0, res, endpoint=False)
    else:
        axis = np.linspace(0.0, 1.0, res)
        mesh = np.meshgrid(*([axis] * space.d))
        centers = (axis if space.d == 1
                   else np.stack([m.ravel() for m in mesh], axis=1))
    return max(float(np.max(space.ball_volumes(centers, 2.0 * h))
                     / np.min(space.ball_volumes(centers, h))) for h in hs)


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

    def test_grid_at_least_one(self):
        space = ActionSpace.grid(4)
        assert space.estimate_uniformity([0.3]) >= 1.0

    @pytest.mark.parametrize("space", [
        ActionSpace.ring(), ActionSpace.grid(4), ActionSpace.grid(37),
        ActionSpace.cube(1), ActionSpace.cube(2), ActionSpace.cube(3)],
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
            assert round(space.sample_uniform(rng, 1)[0], 12) in pts


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


def _membership(space, centres, r):
    """The grid ball as an (n, M) membership matrix: its definition."""
    return (np.abs(space.grid_points() - np.asarray(centres)[..., None])
            <= r + 1e-12)


def _grid_cases(M):
    """On-grid and off-grid centres, and radii from 0 through tiny, exact
    grid spacings (ends that fall on grid points) to beyond the grid."""
    pts = ActionSpace.grid(M).grid_points()
    centres = np.concatenate([
        pts, pts + 1e-12, pts - 1e-12, pts + 3e-13,
        (np.arange(M + 1) + 0.5) / M, [0.0, 0.3, 1 / 3, 2 / 3, 1.0 + 1 / M]])
    radii = ([0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1.0, 1.5, 2.0]
             + [j / M for j in range(1, M + 1)]
             + [(j + 0.5) / M for j in range(M)])
    return centres, radii


class TestGridBalls:
    def test_volumes_match_membership(self):
        for M in range(1, 51):
            space = ActionSpace.grid(M)
            centres, radii = _grid_cases(M)
            for r in radii:
                ref = _membership(space, centres, r)
                first, count = space._grid_balls(centres, r)
                assert np.array_equal(count, ref.sum(axis=-1)), (M, r)
                has = count > 0
                assert np.array_equal(first[has],
                                      np.argmax(ref, axis=-1)[has]), (M, r)
                vols = space.ball_volumes(centres, r)
                assert (vols.tobytes()
                        == (ref.sum(axis=-1) / M).tobytes()), (M, r)

    def test_volumes_keep_the_centres_batch_shape(self):
        space = ActionSpace.grid(7)
        centres = np.random.default_rng(0).uniform(0, 1, (5, 3))
        ref = _membership(space, centres, 0.2).sum(axis=-1) / 7
        assert space.ball_volumes(centres, 0.2).tobytes() == ref.tobytes()
        assert space.ball_volume(0.5, 0.2) == float(
            _membership(space, 0.5, 0.2).sum() / 7)

    def test_draws_match_membership(self):
        for M in range(1, 51):
            space = ActionSpace.grid(M)
            pts = space.grid_points()
            centres, radii = _grid_cases(M)
            for r in radii:
                ref = _membership(space, centres, r)
                c = centres[ref.any(axis=-1)]
                ref = ref[ref.any(axis=-1)]
                rng = np.random.default_rng(M)
                want = pts[np.argmax(ref, axis=1)
                           + np.random.default_rng(M).integers(
                               0, ref.sum(axis=1))]
                got = space.sample_ball(c, r, rng)
                assert got.tobytes() == want.tobytes(), (M, r)

    def test_memory_bounded(self):
        # one call each at sizes where an (n, M) membership matrix took
        # gigabytes: 50,000 draws and one elimination chunk of 8,192 x 20
        # centres, on a 2,000-point grid
        space = ActionSpace.grid(2000)
        rng = np.random.default_rng(0)
        draws = space.sample_uniform(rng, 50_000)
        chunk = rng.uniform(0.0, 1.0, (8192, 20))
        tracemalloc.start()
        try:
            space.sample_ball(draws, 0.05, rng)
            peak_draws = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            space.ball_volumes(chunk, 0.05)
            peak_chunk = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_draws < 8 * 2 ** 20
        assert peak_chunk < 24 * 2 ** 20
