"""Two-term exponential fitting: recovery, damping, and evaluator."""

import math

import numpy as np
import pytest

from vlcfair.expfit import (
    ExpFitCoefficients,
    eval_two_term_exp,
    fit_two_term_exp,
)

REF = ExpFitCoefficients(a=0.1018, b=0.01274, c=-0.1432, d=-19.04)


def curve_points(coeffs, rs):
    return [(r, eval_two_term_exp(coeffs, r)) for r in rs]


class TestEvaluator:
    def test_reference_point(self):
        assert eval_two_term_exp(REF, 0.0963) == pytest.approx(
            0.07903519733634813, rel=1e-12
        )

    def test_unit_ratio(self):
        assert eval_two_term_exp(REF, 1.0) == pytest.approx(
            0.10310522788165913, rel=1e-12
        )

    def test_mid_ratio(self):
        assert eval_two_term_exp(REF, 0.19553) == pytest.approx(
            0.09859361988600517, rel=1e-12
        )

    def test_zero_coefficients(self):
        zero = ExpFitCoefficients(0.0, 1.0, 0.0, -1.0)
        for r in (0.0, 0.3, 1.0, 5.0):
            assert eval_two_term_exp(zero, r) == 0.0

    def test_exchange_symmetry(self):
        swapped = ExpFitCoefficients(a=REF.c, b=REF.d, c=REF.a, d=REF.b)
        rs = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(
            eval_two_term_exp(REF, rs), eval_two_term_exp(swapped, rs), rtol=1e-15
        )

    def test_array_input(self):
        rs = np.array([0.1, 0.5])
        out = eval_two_term_exp(REF, rs)
        assert out.shape == (2,)

    def test_negative_region_below_crossing(self):
        # the reference curve dips negative for very small ratios
        assert eval_two_term_exp(REF, 0.01) == pytest.approx(
            -0.016560219087697253, rel=1e-12
        )
        assert eval_two_term_exp(REF, 0.0179098) < 0 < eval_two_term_exp(REF, 0.0179100)


class TestFit:
    def test_noiseless_recovery_function_space(self):
        rs = np.linspace(0.02, 1.0, 50)
        coeffs, report = fit_two_term_exp(curve_points(REF, rs))
        assert report.converged
        grid = np.linspace(0.02, 1.0, 1001)
        err = np.abs(eval_two_term_exp(coeffs, grid) - eval_two_term_exp(REF, grid))
        assert err.max() < 1e-6

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_two_term_exp(curve_points(REF, [0.1, 0.5, 0.9]))

    def test_duplicate_r_rejected(self):
        pts = curve_points(REF, [0.1, 0.5, 0.5, 0.9])
        with pytest.raises(ValueError, match="r values must be distinct"):
            fit_two_term_exp(pts)

    def test_signed_zeros_are_one_r_value(self):
        # 0.0 == -0.0: the same r twice, not two points
        pts = curve_points(REF, [0.0, -0.0, 0.5, 0.9])
        with pytest.raises(ValueError, match="r values must be distinct"):
            fit_two_term_exp(pts)

    @pytest.mark.parametrize("bad", [(0.5, math.inf), (0.5, math.nan), (math.inf, 0.1)])
    def test_non_finite_point_rejected(self, bad):
        pts = curve_points(REF, [0.1, 0.3, 0.7, 0.9]) + [bad]
        with pytest.raises(ValueError, match="points must be finite"):
            fit_two_term_exp(pts)

    def test_rmse_not_worse_than_init(self):
        # noisy data: the accepted-step rule can only decrease the residual,
        # so the fit is no worse than the multistart's first start
        rng = np.random.default_rng(5)
        rs = np.linspace(0.02, 1.0, 80)
        ys = eval_two_term_exp(REF, rs) + rng.normal(0.0, 2e-3, rs.shape)
        pts = list(zip(rs, ys))
        amax = float(np.abs(ys).max())
        init = ExpFitCoefficients(a=amax, b=0.0, c=-amax, d=-20.0)
        init_rmse = math.sqrt(
            float(np.mean((eval_two_term_exp(init, rs) - ys) ** 2))
        )
        _, report = fit_two_term_exp(pts)
        assert report.rmse <= init_rmse

    def test_multistart_deterministic(self):
        rng = np.random.default_rng(7)
        rs = np.linspace(0.02, 1.0, 60)
        ys = eval_two_term_exp(REF, rs) + rng.normal(0.0, 1e-3, rs.shape)
        pts = list(zip(rs, ys))
        c1, r1 = fit_two_term_exp(pts)
        c2, r2 = fit_two_term_exp(pts)
        assert c1 == c2
        assert r1 == r2
