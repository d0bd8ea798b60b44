"""The two-user rate kernel, orthogonal access, and the fairness index."""

import math
import random

import numpy as np
import pytest

from vlcfair.rates import (
    AllocationVector,
    NoiseModel,
    UserLink,
    evaluate,
    jain_index,
    jain_vec,
    noma_rates_vec,
    paper_repro_models,
    rate_oma,
)

B = 30e6
NOISE = NoiseModel(3e-12)
H1 = 9.5493e-5
H2 = 9.1924e-6


def two_links(h1=H1, h2=H2):
    return (UserLink(h1, B), UserLink(h2, B))


def alloc(p1, p2):
    return AllocationVector(powers=(p1, p2), total=p1 + p2)


def rates(model, p1, p2, h1=H1, h2=H2):
    """(strong, weak) rates of the kernel at the reference noise."""
    return noma_rates_vec(h1, h2, p1, p2, B, NOISE.variance, model)


class TestRateNoma:
    def test_strong_user_shannon(self):
        r = rates("shannon", 0.0790, 22.421)[0]
        assert r == pytest.approx(237410267.46139064, rel=1e-12)

    def test_weak_user_interference_dominant(self):
        r = rates("paper-repro", 0.0790, 22.421)[1]
        assert r == pytest.approx(244615698.98443976, rel=1e-12)

    def test_weak_user_full_shannon(self):
        # including the noise term costs the weak user about 7 percent
        r = rates("shannon", 0.0790, 22.421)[1]
        assert r == pytest.approx(228620163.30204195, rel=1e-12)

    def test_lower_bound(self):
        r = rates("lower-bound", 0.1031, 22.3969, h1=1.58288e-4, h2=7.9144e-5)[0]
        assert r == pytest.approx(114943727.23866242, rel=1e-12)

    def test_ascending_gains_rejected(self):
        links = (UserLink(1e-6, B), UserLink(2e-6, B))
        with pytest.raises(ValueError):
            evaluate(links, alloc(1.0, 21.5), NOISE, "shannon")

    def test_lower_bound_below_shannon(self):
        rng = random.Random(11)
        for _ in range(100):
            h1 = rng.uniform(1e-6, 1e-3)
            h2 = h1 * rng.uniform(0.05, 0.999)
            p1 = rng.uniform(0.0, 11.25)
            lb = rates("lower-bound", p1, 22.5 - p1, h1, h2)
            sh = rates("shannon", p1, 22.5 - p1, h1, h2)
            for k in (0, 1):
                assert lb[k] <= sh[k]

    def test_interference_dominant_above_shannon_for_weak_user(self):
        rng = random.Random(17)
        for _ in range(100):
            h1 = rng.uniform(1e-6, 1e-3)
            h2 = h1 * rng.uniform(0.05, 0.999)
            p1 = rng.uniform(1e-6, 11.25)
            dom = rates("paper-repro", p1, 22.5 - p1, h1, h2)[1]
            sh = rates("shannon", p1, 22.5 - p1, h1, h2)[1]
            assert dom > sh  # strict: noise variance is positive

    def test_interference_dominant_zero_interference_is_infinite(self):
        assert math.isinf(rates("paper-repro", 0.0, 22.5)[1])

    def test_strongest_user_rate_increasing_in_own_power(self):
        prev = -1.0
        for p1 in (0.01, 0.1, 1.0, 5.0, 11.0):
            r = rates("shannon", p1, 22.5 - p1)[0]
            assert r > prev
            prev = r

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            rates("magic", 1.0, 21.5)


class TestRateOma:
    def test_reference_value(self):
        r = rate_oma(UserLink(H1, B), 22.5, 2, NOISE)
        assert r == pytest.approx(240923367.6564033, rel=1e-12)

    def test_zero_power(self):
        assert rate_oma(UserLink(H1, B), 0.0, 2, NOISE) == 0.0

    def test_single_user_matches_shannon(self):
        # one slot at full power is the interference-free strong user
        oma = rate_oma(UserLink(H1, B), 22.5, 1, NOISE)
        assert oma == pytest.approx(rates("shannon", 22.5, 0.0)[0], rel=1e-12)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -1.0])
    def test_power_must_be_finite(self, power):
        with pytest.raises(ValueError, match="power must be finite and >= 0"):
            rate_oma(UserLink(H1, B), power, 2, NOISE)


class TestValueObjects:
    @pytest.mark.parametrize(
        "build, args, message",
        [
            (UserLink, (math.inf, B), "gain must be finite and > 0, got inf"),
            (UserLink, (math.nan, B), "gain must be finite and > 0, got nan"),
            (UserLink, (0.0, B), "gain must be finite and > 0, got 0.0"),
            (UserLink, (H1, math.inf), "bandwidth must be finite and > 0, got inf"),
            (UserLink, (H1, math.nan), "bandwidth must be finite and > 0, got nan"),
            (UserLink, (H1, -B), "bandwidth must be finite and > 0"),
            (NoiseModel, (math.inf,), "variance must be finite and > 0, got inf"),
            (NoiseModel, (math.nan,), "variance must be finite and > 0, got nan"),
            (NoiseModel, (0.0,), "variance must be finite and > 0, got 0.0"),
        ],
        ids=[
            "gain-inf", "gain-nan", "gain-zero", "bandwidth-inf", "bandwidth-nan",
            "bandwidth-negative", "noise-inf", "noise-nan", "noise-zero",
        ],
    )  # fmt: skip
    def test_rejected(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)


class TestJainIndex:
    def test_equal_rates(self):
        assert jain_index((100.0, 100.0)) == pytest.approx(1.0, rel=1e-12)

    def test_monopoly(self):
        assert jain_index((1.0, 0.0)) == pytest.approx(0.5, rel=1e-12)

    def test_reference_pair(self):
        assert jain_index((237.42, 244.61)) == pytest.approx(
            0.9997775599268751, rel=1e-12
        )

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_index((0.0, 0.0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            jain_index((0.0, math.nan))

    def test_bounds_and_scale_invariance(self):
        rng = random.Random(23)
        for _ in range(300):
            rates = [rng.uniform(0, 100) for _ in range(2)]
            if sum(rates) == 0:
                continue
            f = jain_index(rates)
            assert 0.5 - 1e-12 <= f <= 1.0 + 1e-12
            c = rng.uniform(0.01, 50)
            assert jain_index([c * r for r in rates]) == pytest.approx(f, rel=1e-9)

    @pytest.mark.parametrize("rates", [(), (1.0,), (1.0, 2.0, 3.0)])
    def test_two_rates_only(self, rates):
        with pytest.raises(ValueError, match="need two rates >= 0"):
            jain_index(rates)

    def test_infinite_rate_limit(self):
        assert jain_index((1.0, math.inf)) == 0.5
        assert jain_index((math.inf, math.inf)) == 1.0

    @pytest.mark.parametrize(
        "pair, expected",
        [((0.0, 3.4e-204), 0.5), ((1.6e-162, 1.6e-162), 1.0), ((5e-324, 0.0), 0.5)],
    )
    def test_underflowing_squares_rescaled(self, pair, expected):
        # the squares underflow (to zero, or to a subnormal that has lost
        # its digits); both copies score the pair as if rescaled
        assert jain_index(pair) == expected
        assert jain_vec(*pair) == expected
        assert jain_vec(np.array(pair[:1]), np.array(pair[1:]))[0] == expected


    @pytest.mark.parametrize(
        "pair, expected",
        [((1e200, 1.0), 0.5), ((1e308, 1e308), 1.0), ((3.0 * 2.0**1000, 2.0**1000), 0.8)],
    )
    def test_overflowing_squares_rescaled(self, pair, expected):
        # the squares (and for 1e308 the sum) overflow; rescaled by a power
        # of two, (3k, k) scores exactly what (3, 1) scores: 16/20
        assert jain_index(pair) == expected
        assert jain_vec(*pair) == expected
        assert jain_vec(np.array(pair[:1]), np.array(pair[1:]))[0] == expected


class TestEvaluate:
    def test_reference_preset(self):
        report = evaluate(
            two_links(),
            alloc(0.0790, 22.421),
            NOISE,
            paper_repro_models(2),
        )
        assert report.per_user_rates[0] == pytest.approx(237410267.46, rel=1e-9)
        assert report.per_user_rates[1] == pytest.approx(244615698.98, rel=1e-9)
        assert report.fairness == pytest.approx(0.99978, abs=1e-5)
        assert report.sum_rate == pytest.approx(sum(report.per_user_rates), rel=1e-12)

    def test_equal_gains_equal_powers_unfair(self):
        # weak user is interference-limited near 1 bit/s/Hz
        links = (UserLink(1e-4, B), UserLink(1e-4 * (1 - 1e-13), B))
        report = evaluate(links, alloc(11.25, 11.25), NOISE, "shannon")
        assert report.per_user_rates[1] == pytest.approx(B, rel=0.01)
        assert report.fairness < 0.6

    def test_two_users_on_one_band_only(self):
        with pytest.raises(ValueError):
            evaluate(
                (UserLink(H1, B),),
                AllocationVector(powers=(22.5,), total=22.5),
                NOISE,
                "shannon",
            )
        links = (UserLink(H1, B), UserLink(H2, 2 * B))
        with pytest.raises(ValueError):
            evaluate(links, alloc(1.0, 21.5), NOISE, "shannon")

    def test_power_conservation(self):
        a = alloc(0.0790, 22.421)
        evaluate(two_links(), a, NOISE, "shannon")
        assert sum(a.powers) == pytest.approx(a.total, rel=1e-9)


class TestAllocationVector:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AllocationVector(powers=(1.0, 2.0), total=22.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AllocationVector(powers=(-0.1, 22.6), total=22.5)

    @pytest.mark.parametrize(
        "powers, total",
        [((math.nan, 1.0), 1.0), ((math.nan, math.nan), math.nan),
         ((math.inf, 1.0), math.inf), ((1.0, 2.0), math.inf), ((1.0, 2.0), math.nan)],
    )  # fmt: skip
    def test_not_finite_rejected(self, powers, total):
        with pytest.raises(ValueError, match="must be finite|expected total"):
            AllocationVector(powers=powers, total=total)
