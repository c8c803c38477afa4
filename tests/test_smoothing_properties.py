"""Property tests of the batched smoothed-loss path.

Every check compares against a reference written here: scipy quadrature
over the ball's own intervals, the mean over the grid points of a ball, or a
closed-form box integral, never against the one-row case of the same code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from callable_loss import CallableLoss
from smoothcb.elimination import (ElimConfig, EpochState,
                                  SmoothPolicyElimination)
from smoothcb.environments import make_named_instance
from smoothcb.kernels import RectKernel
from smoothcb.losses import (PiecewiseConstantLoss, PiecewiseLinearLoss,
                             SeparableProductLoss)
from smoothcb.policies import PolicyClass, VersionSpace, union_geometry
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


# (L0, L) pairs of linear_sphere: kinks inside and outside [-2, 2], the
# saturation knot below and above 1/4, and L = L0
SPHERE_SLOPES = [(1.0, 4.0), (2.0, 4.0), (0.5, 4.0), (2.5, 3.0), (3.0, 3.0),
                 (4.0, 6.0), (1.0, 1.0), (0.1, 0.2), (2.0, 50.0)]
# <w*, x> at and next to -1 and 1 as well as anywhere between
shift = st.one_of(st.floats(-1.0, 1.0),
                  st.sampled_from([-1.0, -1.0 + 1e-12, 0.0, 1.0 - 1e-12, 1.0]))
# interval ends at 0 and 1 as well as anywhere inside
end = st.one_of(unit, st.sampled_from([0.0, 1.0]))


def _sphere_loss_reference(z, L0, L):
    """Context z's linear_sphere loss as its own PiecewiseLinearLoss: the
    kinks of t -> f(t - z) mapped into u = (1 + t)/2, with f as documented."""
    def f(t):
        t = np.abs(t)
        return np.minimum(1.0, 0.25 + L0 * t
                          + (L - L0) * np.maximum(0.0, t - 0.25))

    t_sat = 0.75 / L0 if 0.75 / L0 <= 0.25 else 0.25 + (0.75 - 0.25 * L0) / L
    kinks_t = [z - t_sat, z - 0.25, z, z + 0.25, z + t_sat]
    us = sorted({0.0, 1.0, *((1.0 + t) / 2.0 for t in kinks_t
                             if -1.0 < t < 1.0)})
    return PiecewiseLinearLoss(us, f(2.0 * np.array(us) - 1.0 - z))


class TestShiftedSphereFamily:
    """linear_sphere's batch of losses against one loss built per context."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SPHERE_SLOPES),
           st.lists(shift, min_size=1, max_size=6),
           st.lists(st.tuples(end, end), min_size=1, max_size=6))
    def test_values_and_integrals(self, slopes, zs, pairs):
        L0, L = slopes
        env = make_named_instance("linear_sphere", d_ctx=1, L=L, L0=L0)
        family = env.mean_losses(np.array(zs)[:, None])
        u = np.concatenate([np.linspace(0.0, 1.0, 101), np.ravel(pairs)])
        lo, hi = np.array(pairs).T
        rows = np.broadcast_to(u, (len(zs), len(u)))
        vals = family(rows)
        ints = family.integrate(np.broadcast_to(lo, (len(zs), len(lo))),
                                np.broadcast_to(hi, (len(zs), len(hi))))
        for i, z in enumerate(zs):
            ref = _sphere_loss_reference(z, L0, L)
            assert np.max(np.abs(vals[i] - ref(u))) <= 1e-12
            assert np.max(np.abs(ints[i] - ref.integrate(lo, hi))) <= 1e-12


def _ball_end_segments(space, c, h):
    """Every context's [0, 1] cut at its balls' ends, as union_geometry
    cuts it: (lo, hi) of shape (contexts, segments)."""
    ends = np.concatenate([c - h, c + h], axis=1)
    if space.kind == "cube":
        ends = np.clip(ends, 0.0, 1.0)
    else:
        ends = np.mod(ends, 1.0) if 2.0 * h < 1.0 else ends[:, :0]
    n = len(c)
    cuts = np.sort(np.concatenate([np.zeros((n, 1)), ends, np.ones((n, 1))],
                                  axis=1), axis=1)
    return cuts[:, :-1], cuts[:, 1:]


def _expected_estimates(pc, centers, loss, h, mu, Q):
    """E_{a~q}[dens_j(a) loss(a) / q(a)] for every context and survivor,
    summed exactly over segments on which q and every density are constant.

    Also returns the integral of q over [0, 1] and the measure of the union
    of balls, both per context.
    """
    env = make_named_instance("absolute")
    alg = SmoothPolicyElimination(env, pc, ElimConfig(variant="s", T=64, h=h))
    state = EpochState(m=1, vs=VersionSpace(pc), h_m=h, r_m=mu, mu_m=mu,
                       V_m=1.0, tilde_n_m=1, n_m=1, Q=Q,
                       solver_value=0.0, solver_iters=0)
    lo, hi = _ball_end_segments(pc.space, centers, h)
    n, S = lo.shape
    mids = ((lo + hi) / 2.0).ravel()
    q, dens = alg.propensity(state, np.repeat(centers, S, axis=0), mids)
    q, dens = q.reshape(n, S), dens.reshape(n, S, -1)
    # on a segment a ~ q has the density q, and the estimate is the factor
    # dens_j / q times loss(a), whose integral there is seg_loss
    seg_loss = loss.integrate(lo, hi)
    est = np.einsum("ns,nsk,ns->nk", q, dens / q[..., None], seg_loss)
    covered = np.any(dens > 0.0, axis=2)
    return (est, np.sum(q * (hi - lo), axis=1),
            np.sum(np.where(covered, hi - lo, 0.0), axis=1))


class TestImportanceWeightingUnbiased:
    """The IW estimate's exact expectation under the epoch's own propensity
    equals each survivor's smoothed loss."""

    def _check(self, pc, centers, loss, h, mu, weights):
        Q = np.array(weights) / np.sum(weights)
        est, mass, covered = _expected_estimates(pc, centers, loss, h, mu, Q)
        want = RectKernel(pc.space, h).smoothed_losses(centers, loss)
        assert np.max(np.abs(est - want)) <= 1e-12
        assert np.max(np.abs(mass - 1.0)) <= 1e-12
        volume = np.concatenate([v for _, _, v, _ in
                                 union_geometry(pc.space, centers, h)])
        assert np.max(np.abs(covered - volume)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(piecewise_losses(), st.lists(center, min_size=1, max_size=5),
           bandwidth, st.floats(1e-3, 0.5), st.booleans(), st.data())
    def test_ring_and_interval_states(self, loss, centers, h, mu, ring,
                                      data):
        space = ActionSpace.ring() if ring else ActionSpace.cube(1)
        c = np.mod(centers, 1.0) if ring else np.array(centers)
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(c),
                                     max_size=len(c)))
        pc = PolicyClass.constant(space, c)
        self._check(pc, pc.actions_many([None]), loss, h, mu, weights)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(SPHERE_SLOPES),
           st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=4),
           st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=5),
           bandwidth, st.floats(1e-3, 0.5), st.data())
    def test_linear_sphere_rows(self, slopes, ctx_angles, pol_angles, h, mu,
                                data):
        L0, L = slopes
        env = make_named_instance("linear_sphere", L=L, L0=L0)

        def circle(angles):
            return np.stack([np.cos(angles), np.sin(angles)], axis=1)

        xs = circle(np.array(ctx_angles))
        pc = PolicyClass.linear_sphere(env.space, circle(np.array(pol_angles)))
        weights = data.draw(st.lists(st.floats(1e-3, 1.0),
                                     min_size=pc.size, max_size=pc.size))
        self._check(pc, pc.actions_many(xs), env.mean_losses(xs), h, mu,
                    weights)
