"""Property tests of the batched smoothed-loss path.

Every check compares against a reference written here: scipy quadrature
over the ball's own intervals, the mean over the grid points of a ball, or a
closed-form box integral, never against the one-row case of the same code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from smoothcb.kernels import RectKernel
from smoothcb.losses import (CallableLoss, PiecewiseConstantLoss,
                             PiecewiseLinearLoss, SeparableProductLoss)
from smoothcb.spaces import ActionSpace

unit = st.floats(0.0, 1.0)
# centres at and next to the ends of [0, 1] as well as anywhere inside
center = st.one_of(unit, st.sampled_from([0.0, 1e-12, 0.5, 1.0 - 1e-12]))
bandwidth = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.5, 1.0]))


@st.composite
def piecewise_losses(draw, linear=None):
    inner = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=7))
    breaks = np.unique(np.concatenate([[0.0, 1.0], inner]))
    if linear is None:
        linear = draw(st.booleans())
    n = len(breaks) if linear else len(breaks) - 1
    values = draw(st.lists(unit, min_size=n, max_size=n))
    cls = PiecewiseLinearLoss if linear else PiecewiseConstantLoss
    return cls(breaks, values)


def _quad(loss, lo, hi):
    pts = [float(b) for b in loss.breaks[1:-1] if lo < b < hi]
    val, _ = integrate.quad(lambda a: float(loss(a)), lo, hi,
                            points=pts or None, limit=200,
                            epsabs=1e-13, epsrel=1e-13)
    return val


def _ball_mean(loss, space, c, h):
    intervals = space.ball_intervals(c, h)
    return (sum(_quad(loss, lo, hi) for lo, hi in intervals)
            / space.ball_volume(c, h))


class TestPrefixTableIntegral:
    @settings(max_examples=150, deadline=None)
    @given(piecewise_losses(),
           st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
    def test_matches_quadrature(self, loss, pairs):
        lo, hi = np.array(pairs).T
        got = loss.integrate(lo, hi)
        assert got.shape == lo.shape
        for g, a, b in zip(got, lo, hi):
            want = _quad(loss, a, b) if b > a else 0.0
            assert abs(g - want) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(piecewise_losses(), unit, unit)
    def test_empty_interval_is_zero(self, loss, a, b):
        lo, hi = max(a, b), min(a, b)
        assert loss.integrate(lo, hi) == 0.0


class TestSmoothedLossesAgainstReferences:
    @settings(max_examples=100, deadline=None)
    @given(piecewise_losses(), st.lists(center, min_size=1, max_size=5),
           bandwidth)
    def test_ring_including_wraparound(self, loss, centers, h):
        space = ActionSpace.ring()
        c = np.mod(centers, 1.0)
        got = RectKernel(space, h).smoothed_losses(c, loss)
        for g, ci in zip(got, c):
            assert abs(g - _ball_mean(loss, space, ci, h)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(piecewise_losses(), st.lists(center, min_size=1, max_size=5),
           bandwidth)
    def test_unit_interval_edges(self, loss, centers, h):
        space = ActionSpace.cube(1)
        got = RectKernel(space, h).smoothed_losses(np.array(centers), loss)
        for g, ci in zip(got, centers):
            assert abs(g - _ball_mean(loss, space, ci, h)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(piecewise_losses(), st.integers(1, 30), st.data())
    def test_grid_member_mean(self, loss, M, data):
        space = ActionSpace.grid(M)
        pts = space.grid_points()
        idx = data.draw(st.lists(st.integers(0, M - 1), min_size=1,
                                 max_size=5))
        # multiples of 1/M put ball edges exactly on grid points
        h = data.draw(st.one_of(st.floats(1e-3, 1.0),
                                st.integers(0, M).map(lambda k: k / M)))
        h = max(h, 1e-3)
        got = RectKernel(space, h).smoothed_losses(pts[idx], loss)
        for g, i in zip(got, idx):
            members = [p for p in pts if abs(p - pts[i]) <= h + 1e-12]
            want = np.mean([float(loss(p)) for p in members])
            assert abs(g - want) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(piecewise_losses(linear=False), piecewise_losses(linear=True),
           st.lists(st.tuples(center, center), min_size=1, max_size=3),
           st.floats(1e-2, 1.0))
    def test_separable_box_nquad(self, f1, f2, centers, h):
        loss = SeparableProductLoss([f1, f2])
        c = np.array(centers)
        got = RectKernel(ActionSpace.cube(2), h).smoothed_losses(c, loss)
        for g, ci in zip(got, c):
            lo, hi = np.maximum(0.0, ci - h), np.minimum(1.0, ci + h)
            opts = [{"points": [b for b in f.breaks[1:-1] if l < b < u],
                     "epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}
                    for f, l, u in zip((f1, f2), lo, hi)]
            val, _ = integrate.nquad(
                lambda x, y: float(f1(x)) * float(f2(y)),
                list(zip(lo, hi)), opts=opts)
            assert abs(g - val / np.prod(hi - lo)) <= 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(center, center), min_size=1, max_size=2),
           st.floats(0.05, 1.0))
    def test_callable_box_closed_form(self, centers, h):
        loss = CallableLoss(lambda a: np.prod(np.reshape(a, (-1, 2)), axis=1),
                            d=2)
        c = np.array(centers)
        got = RectKernel(ActionSpace.cube(2), h).smoothed_losses(c, loss)
        for g, ci in zip(got, c):
            lo, hi = np.maximum(0.0, ci - h), np.minimum(1.0, ci + h)
            # the mean of a0 * a1 over a box is the product of midpoints
            assert abs(g - np.prod((lo + hi) / 2.0)) <= 1e-9


class TestBallVolumeMatchesIntervals:
    @settings(max_examples=200, deadline=None)
    @given(center, st.floats(0.0, 1.0), st.booleans())
    def test_total_interval_length(self, c, r, ring):
        space = ActionSpace.ring() if ring else ActionSpace.cube(1)
        c = c % 1.0 if ring else c
        length = sum(hi - lo for lo, hi in space.ball_intervals(c, r))
        assert abs(space.ball_volume(c, r) - length) <= 1e-12
