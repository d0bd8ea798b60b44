"""Two-term exponential fitting: recovery, damping, one start, and evaluator."""

import math
from pathlib import Path

import numpy as np
import pytest

from vlcfair.allocate import dataset_pairs
from vlcfair.channel import enumerate_channels
from vlcfair.config import load_config
from vlcfair.expfit import (
    ExpFitCoefficients,
    eval_two_term_exp,
    fit_two_term_exp,
)

from oracle import exact_fair_split, multistart_sse

REF = ExpFitCoefficients(a=0.1018, b=0.01274, c=-0.1432, d=-19.04)
ROOT = Path(__file__).resolve().parents[1]


def curve_points(coeffs, rs):
    return [(r, eval_two_term_exp(coeffs, r)) for r in rs]


def noisy_points(seed, sigma, count):
    """The reference curve at count ratios in [0.02, 1], plus seeded normal noise."""
    rs = np.linspace(0.02, 1.0, count)
    ys = eval_two_term_exp(REF, rs) + np.random.default_rng(seed).normal(0.0, sigma, rs.shape)
    return list(zip(rs, ys))


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
        # so the fit is no worse than its start
        pts = noisy_points(5, 2e-3, 80)
        rs, ys = (np.array(v) for v in zip(*pts))
        amax = float(np.abs(ys).max())
        init = ExpFitCoefficients(a=amax, b=0.0, c=-amax, d=-20.0)
        init_rmse = math.sqrt(
            float(np.mean((eval_two_term_exp(init, rs) - ys) ** 2))
        )
        _, report = fit_two_term_exp(pts)
        assert report.rmse <= init_rmse

    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_converged_only_with_a_finite_sse(self, scale):
        # the reference curve in units so large that, from 1e200 on, every
        # sum of squares overflows: no step is downhill from inf, and that
        # is no convergence; no numpy warning either way
        pts = [(r, scale * y) for r, y in curve_points(REF, np.linspace(0.02, 1.0, 40))]
        coeffs, report = fit_two_term_exp(pts)
        assert report.converged == math.isfinite(report.rmse)
        assert report.converged == (scale == 1e150)
        assert all(math.isfinite(v) for v in coeffs.as_tuple())

    def test_fit_deterministic(self):
        pts = noisy_points(7, 1e-3, 60)
        c1, r1 = fit_two_term_exp(pts)
        c2, r2 = fit_two_term_exp(pts)
        assert c1 == c2
        assert r1 == r2


# derive-like datasets: h1 in units of h0, derive.above_ref, the noise
# variance and --subsample.  The full set, where the oracle's 16 descents
# take longest, only at derive's default 2h0 and at h0: there, under skip
# at 1.2e-11, one start of the grid ends 68x above the best (another ends
# 2.2x above it at h0, swap, 1.2e-11, every 64th channel)
DERIVE_LIKE = [
    (scale, above_ref, noise, subsample)
    for scale in (1, 1.5, 2, 3, 5)
    for above_ref in ("skip", "swap")
    for noise in (3e-12, 1.2e-11)
    for subsample in ((1, 8, 64) if scale in (1, 2) else (8, 64))
]


@pytest.fixture(scope="module")
def paper_channels():
    cfg = load_config(ROOT / "configs" / "paper.cfg")
    return cfg, enumerate_channels(cfg.channel_grid(), cfg.params)


def golden_points(name):
    """The (r, p1) rows of a golden derive dataset."""
    lines = (ROOT / "tests" / "golden" / name).read_text().splitlines()
    return [tuple(map(float, s.split(","))) for s in lines if s[:1].isdigit()]


class TestOneStart:
    """The fit's one descent ends as low as the best of the 16-start
    grid it replaced (oracle.multistart_sse): the largest gap seen on
    these sets is 1.5e-13 relative."""

    @staticmethod
    def assert_as_good_as_multistart(points):
        _, report = fit_two_term_exp(points)
        assert report.converged
        assert report.rmse**2 * len(points) <= multistart_sse(points) * (1 + 1e-12)

    @pytest.mark.parametrize("scale, above_ref, noise, subsample", DERIVE_LIKE)
    def test_exact_fair_split(self, paper_channels, scale, above_ref, noise, subsample):
        cfg, channels = paper_channels
        pairs = dataset_pairs(scale * channels.mean_gain, channels, above_ref, subsample)
        self.assert_as_good_as_multistart(sorted(
            (weak / strong, float(exact_fair_split(strong, weak, cfg.p_max, noise)))
            for _, strong, weak in pairs
        ))

    @pytest.mark.parametrize("name", ["derive_dataset.csv", "derive_flags_dataset.csv"])
    def test_golden_dataset(self, name):
        self.assert_as_good_as_multistart(golden_points(name))

    def test_noisy_curve(self):
        self.assert_as_good_as_multistart(noisy_points(5, 2e-3, 80))
