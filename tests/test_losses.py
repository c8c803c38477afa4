import struct

import numpy as np
import pytest

from callable_loss import CallableLoss
from smoothcb.losses import (PiecewiseConstantLoss, PiecewiseLinearLoss,
                             SeparableProductLoss, SeparableSumLoss)


def _random_pw_linear(rng, n_knots=6):
    breaks = np.sort(np.concatenate([[0.0, 1.0],
                                     rng.uniform(0, 1, n_knots - 2)]))
    breaks = np.unique(breaks)
    return PiecewiseLinearLoss(breaks, rng.uniform(0, 1, len(breaks)))


class TestPiecewiseConstant:
    def test_right_open_pieces(self):
        loss = PiecewiseConstantLoss([0.0, 0.5, 1.0], [0.2, 0.8])
        assert loss(0.49) == 0.2
        assert loss(0.5) == 0.8
        assert loss(1.0) == 0.8

    def test_integral_exact(self):
        loss = PiecewiseConstantLoss([0.0, 0.25, 0.75, 1.0], [0.0, 1.0, 0.5])
        assert loss.integrate(0.0, 1.0) == pytest.approx(0.625, abs=1e-12)
        assert loss.integrate(0.2, 0.3) == pytest.approx(
            0.05 * 0.0 + 0.05 * 1.0, abs=1e-12)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseConstantLoss([0.0, 1.0], [1.5])


class TestPiecewiseLinear:
    def test_interpolation(self):
        loss = PiecewiseLinearLoss([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert loss(0.25) == pytest.approx(0.5, abs=1e-12)
        assert loss(0.75) == pytest.approx(0.5, abs=1e-12)

    def test_integral_matches_trapezoid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            loss = _random_pw_linear(rng)
            lo, hi = np.sort(rng.uniform(0, 1, 2))
            grid = np.linspace(lo, hi, 20001)
            approx = np.trapezoid(loss(grid), grid)
            assert loss.integrate(lo, hi) == pytest.approx(approx, abs=1e-6)

    def test_scalar_call_is_np_interp(self):
        # a float's value, computed in float arithmetic, has np.interp's
        # bits at and beside every break, at NaN and at random points, and
        # a special point gives its value
        rng = np.random.default_rng(7)
        for k in range(100):
            base = _random_pw_linear(rng, n_knots=int(rng.integers(2, 12)))
            br, knots = base.breaks, base.knots
            special = ({float(rng.random()): float(rng.random()),
                        float(br[-2]): 0.5} if k % 2 else {})
            loss = PiecewiseLinearLoss(br, knots, special_points=special)
            xs = np.concatenate([
                br, np.nextafter(br, -np.inf), np.nextafter(br, np.inf),
                list(special), [np.nan], rng.uniform(-0.1, 1.1, 100)])
            for x in xs.tolist():
                got = loss(x)
                want = special.get(x, float(np.interp(x, br, knots)))
                assert type(got) is float
                assert struct.pack("<d", got) == struct.pack("<d", want), x

    def test_lipschitz_constant(self):
        loss = PiecewiseLinearLoss([0.0, 0.25, 1.0], [0.0, 0.75, 0.5])
        assert loss.lipschitz_constant() == pytest.approx(3.0, abs=1e-12)


class TestSpecialPoints:
    @pytest.mark.parametrize("make", [
        lambda sp: PiecewiseLinearLoss([0.0, 1.0], [0.2, 0.4],
                                       special_points=sp)],
        ids=["linear"])
    @pytest.mark.parametrize("value", [3.0, -0.5, float("nan")])
    def test_out_of_range_value_rejected(self, make, value):
        with pytest.raises(ValueError, match="must lie in"):
            make({0.5: value})

    @pytest.mark.parametrize("make", [
        lambda sp: PiecewiseLinearLoss([0.0, 1.0], [0.2, 0.4],
                                       special_points=sp)],
        ids=["linear"])
    def test_int_value_returned_as_float(self, make):
        loss = make({0.5: 1, 0.25: 0})
        for a in (0.5, 0.25, np.float64(0.5)):
            assert type(loss(a)) is float
        assert loss(0.5) == 1.0 and loss(0.25) == 0.0
        assert loss(np.array([0.5, 0.25])).tolist() == [1.0, 0.0]


class TestSeparableProduct:
    def test_pointwise_product(self):
        f1 = PiecewiseConstantLoss([0.0, 0.5, 1.0], [0.4, 0.8])
        f2 = PiecewiseLinearLoss([0.0, 1.0], [0.0, 1.0])
        loss = SeparableProductLoss([f1, f2])
        assert loss(np.array([0.2, 0.5])) == pytest.approx(0.4 * 0.5)

    def test_box_integral_factors(self):
        f1 = PiecewiseConstantLoss([0.0, 1.0], [0.6])
        f2 = PiecewiseLinearLoss([0.0, 1.0], [0.0, 1.0])
        loss = SeparableProductLoss([f1, f2])
        got = loss.integrate_box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.6 * 0.5, abs=1e-12)


class TestSeparableSum:
    def _loss(self):
        f1 = PiecewiseConstantLoss([0.0, 0.5, 1.0], [0.4, 0.8])
        f2 = PiecewiseLinearLoss([0.0, 1.0], [0.0, 1.0])
        one = PiecewiseConstantLoss.constant(1.0)
        return SeparableSumLoss([(0.5, SeparableProductLoss([f1, f2])),
                                 (0.25, SeparableProductLoss([one, one]))])

    def test_pointwise_sum(self):
        loss = self._loss()
        assert loss(np.array([0.2, 0.5])) == pytest.approx(
            0.5 * 0.4 * 0.5 + 0.25)
        got = loss(np.array([[0.2, 0.5], [0.7, 1.0]]))
        assert got == pytest.approx([0.5 * 0.4 * 0.5 + 0.25, 0.5 * 0.8 + 0.25])

    def test_box_integral_sums_terms(self):
        # over [0, 1] x [0, 1/2]: 0.5 * (0.6 * 1/8) + 0.25 * 1/2
        got = self._loss().integrate_box(np.array([0.0, 0.0]),
                                         np.array([1.0, 0.5]))
        assert got == pytest.approx(0.5 * 0.6 * 0.125 + 0.125, abs=1e-12)


class TestCallable:
    def test_quadrature_against_closed_form(self):
        loss = CallableLoss(lambda a: np.asarray(a) ** 2)
        assert loss.integrate(0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_range_contract(self):
        loss = CallableLoss(lambda a: 2.0 * np.ones_like(np.asarray(a)))
        with pytest.raises(ValueError):
            loss(0.5)
