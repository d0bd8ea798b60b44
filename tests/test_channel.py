"""Channel model: closed-form gains, geometry, and grid enumeration."""

import math
import random
import re

import pytest

from vlcfair.channel import (
    ChannelGrid,
    ChannelSet,
    Position,
    VlcParams,
    channel_gain,
    enumerate_channels,
    geometry_from_positions,
)

TABLE_PARAMS = VlcParams(
    pd_area=1e-4,
    refractive_index=1.5,
    filter_gain=1.0,
    fov=math.radians(60.0),
    semi_angle=math.radians(60.0),
)

# order-1 emitter, no concentrator gain (n = 1, FoV = 90 degrees): the
# gain at d = 1 is pd_area * R(phi) * cos(psi)
UNIT_PARAMS = VlcParams(1e-4, 1.0, 1.0, math.pi / 2, math.radians(60))

TX = Position(3.0, 3.0, 3.0)


def paper_grid(dedup=1.5e-9):
    distances = [0.25 * i for i in range(1, 21)] + [3.0 * math.sqrt(3.0)]
    angles = [math.radians(5.0 * i) for i in range(1, 13)]
    return ChannelGrid(distances=distances, angles=angles, dedup_resolution=dedup)


def with_semi_angle(degrees):
    return VlcParams(1e-4, 1.5, 1.0, math.pi / 2, math.radians(degrees))


def emission_ratio(params, phi, d=1.7):
    """gain(d, phi, 0) / gain(d, 0, 0), which is cos(phi) ** k_l."""
    return channel_gain(d, phi, 0.0, params) / channel_gain(d, 0.0, 0.0, params)


class TestLambertianOrder:
    def test_sixty_degrees_is_order_one(self):
        params = with_semi_angle(60)
        for phi in (0.1, 0.5, 1.0, 1.4):
            expected = math.cos(phi)
            assert emission_ratio(params, phi) == pytest.approx(expected, rel=1e-12)

    def test_thirty_degrees(self):
        params = with_semi_angle(30)
        for phi in (0.1, 0.5, 1.0, 1.4):
            expected = math.cos(phi) ** 4.81884167930642
            assert emission_ratio(params, phi) == pytest.approx(expected, rel=1e-12)

    def test_extreme_angles_finite(self):
        # wide emitters have small orders, narrow emitters large ones;
        # both extremes stay positive and finite in double precision
        wide_params, narrow_params = with_semi_angle(89.9), with_semi_angle(0.1)
        wide = channel_gain(1.0, 0.0, 0.0, wide_params)
        narrow = channel_gain(1.0, 0.0, 0.0, narrow_params)
        assert math.isfinite(wide) and wide > 0.0
        assert math.isfinite(narrow) and narrow > 0.0
        # order below 1, and above 1e5
        assert emission_ratio(wide_params, 1.0) > math.cos(1.0)
        assert emission_ratio(narrow_params, 0.01) < math.cos(0.01) ** 1e5

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2, -0.1, 2.0])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            VlcParams(1e-4, 1.5, 1.0, math.pi / 2, bad)


class TestConcentratorGain:
    def test_table_value(self):
        # n^2 / sin^2(FoV) = 1.5^2 / 0.75 = 3 at the table's 60 degree FoV
        expected = TABLE_PARAMS.pd_area * (1 / math.pi) * TABLE_PARAMS.filter_gain * 3.0
        assert channel_gain(1.0, 0.0, 0.0, TABLE_PARAMS) == pytest.approx(
            expected, rel=1e-12
        )

    def test_outside_fov_is_zero(self):
        assert channel_gain(1.0, 0.0, math.radians(70), TABLE_PARAMS) == 0.0

    def test_unit_gain(self):
        # inside the FoV the concentrator contributes exactly 1 at any angle
        gain = channel_gain(1.0, 0.0, math.radians(60), UNIT_PARAMS)
        expected = UNIT_PARAMS.pd_area / math.pi * math.cos(math.radians(60))
        assert gain == pytest.approx(expected, rel=1e-12)


class TestRadiantIntensity:
    def test_boresight(self):
        assert channel_gain(1.0, 0.0, 0.0, UNIT_PARAMS) == pytest.approx(
            UNIT_PARAMS.pd_area / math.pi, rel=1e-12
        )

    def test_sixty_degrees(self):
        boresight = channel_gain(1.0, 0.0, 0.0, UNIT_PARAMS)
        gain = channel_gain(1.0, math.radians(60), 0.0, UNIT_PARAMS)
        assert gain == pytest.approx(boresight / 2, rel=1e-12)

    def test_grazing_is_zero(self):
        assert channel_gain(1.0, math.pi / 2, 0.0, UNIT_PARAMS) == pytest.approx(
            0.0, abs=1e-20
        )
        assert channel_gain(1.0, 0.0, math.pi / 2, UNIT_PARAMS) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_maximal_at_zero(self):
        params = with_semi_angle(30)
        peak = channel_gain(1.0, 0.0, 0.0, params)
        for a in (0.2, 0.7, 1.2):
            assert channel_gain(1.0, a, 0.0, params) < peak


# gains of the three labeled receiver points, 4 significant figures
WALK_GAINS = {
    (2.5, 1.5, 1.7): 9.1924e-6,
    (2.0, 2.5, 1.7): 1.8671e-5,
    (4.5, 4.0, 1.7): 6.6131e-6,
}


class TestChannelGain:
    @pytest.mark.parametrize("rx,expected", sorted(WALK_GAINS.items()))
    def test_reference_points(self, rx, expected):
        geom = geometry_from_positions(TX, Position(*rx))
        assert channel_gain(*geom, TABLE_PARAMS) == pytest.approx(expected, rel=5e-5)

    def test_zero_outside_fov(self):
        assert channel_gain(2.0, 0.3, TABLE_PARAMS.fov + 0.01, TABLE_PARAMS) == 0.0

    def test_monotone_decreasing_each_argument(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.uniform(0.3, 5.0)
            phi = rng.uniform(0.01, 1.0)
            psi = rng.uniform(0.01, 1.0)
            base = channel_gain(d, phi, psi, TABLE_PARAMS)
            assert channel_gain(d * 1.3, phi, psi, TABLE_PARAMS) < base
            assert channel_gain(d, phi + 0.04, psi, TABLE_PARAMS) < base
            assert channel_gain(d, phi, psi + 0.04, TABLE_PARAMS) < base

    def test_angle_symmetry_at_order_one(self):
        # cos * cos commutes when the emission order is 1 (60 degree semi-angle)
        rng = random.Random(13)
        for _ in range(100):
            d = rng.uniform(0.3, 5.0)
            a = rng.uniform(0.01, TABLE_PARAMS.fov)
            b = rng.uniform(0.01, TABLE_PARAMS.fov)
            g1 = channel_gain(d, a, b, TABLE_PARAMS)
            g2 = channel_gain(d, b, a, TABLE_PARAMS)
            assert g1 == pytest.approx(g2, rel=1e-12)


class TestGeometryFromPositions:
    def test_vertical_link(self):
        d, phi, psi = geometry_from_positions(TX, Position(3.0, 3.0, 1.0))
        assert d == pytest.approx(2.0, rel=1e-12)
        assert phi == 0.0
        assert psi == 0.0

    def test_oblique_link(self):
        d, phi, psi = geometry_from_positions(TX, Position(2.5, 1.5, 1.7))
        expected = math.sqrt(0.5**2 + 1.5**2 + (3.0 - 1.7) ** 2)
        assert d == pytest.approx(expected, rel=1e-15)
        assert d == pytest.approx(2.0469, abs=1e-4)
        assert math.degrees(phi) == pytest.approx(50.57, abs=0.01)
        assert psi == phi

    def test_coincident_points_error(self):
        with pytest.raises(ValueError):
            geometry_from_positions(TX, TX)

    def test_receiver_above_transmitter_error(self):
        with pytest.raises(ValueError):
            geometry_from_positions(TX, Position(3.0, 3.0, 3.5))


class TestEnumerateChannels:
    def test_paper_grid_statistics(self):
        cs = enumerate_channels(paper_grid(), TABLE_PARAMS)
        assert cs.combo_count == 3024
        # achieved statistics of this build, frozen for regression
        assert len(cs) == 1538
        assert cs.mean_gain == pytest.approx(7.89581785e-05, rel=1e-8)

    def test_toy_grid(self):
        grid = ChannelGrid(
            distances=(1.0, 2.0),
            angles=(math.radians(30), math.radians(60)),
            dedup_resolution=1.5e-9,
        )
        cs = enumerate_channels(grid, TABLE_PARAMS)
        assert cs.combo_count == 8
        assert len(cs) == 6

    def test_single_triple(self):
        grid = ChannelGrid(distances=(2.0,), angles=(math.radians(30),))
        cs = enumerate_channels(grid, TABLE_PARAMS)
        assert cs.combo_count == 1
        assert len(cs) == 1
        expected = channel_gain(2.0, math.radians(30), math.radians(30), TABLE_PARAMS)
        assert cs.gains[0] == pytest.approx(expected, rel=1e-12)
        assert cs.mean_gain == pytest.approx(expected, rel=1e-12)

    def test_gains_strictly_ascending_and_mean_consistent(self):
        cs = enumerate_channels(paper_grid(), TABLE_PARAMS)
        assert all(b > a for a, b in zip(cs.gains, cs.gains[1:]))
        recomputed = sum(cs.gains) / len(cs.gains)
        assert cs.mean_gain == pytest.approx(recomputed, rel=1e-12)

    def test_exact_dedup_keeps_more(self):
        exact = enumerate_channels(paper_grid(dedup=0.0), TABLE_PARAMS)
        toleranced = enumerate_channels(paper_grid(), TABLE_PARAMS)
        assert len(exact) > len(toleranced)

    def test_exact_dedup_keeps_every_distinct_gain(self):
        grid = paper_grid(dedup=0.0)
        gains = {
            channel_gain(d, phi, psi, TABLE_PARAMS)
            for d in grid.distances
            for phi in grid.angles
            for psi in grid.angles
        }
        assert enumerate_channels(grid, TABLE_PARAMS).gains == tuple(sorted(gains))

    def test_angles_beyond_fov_rejected(self):
        grid = ChannelGrid(distances=(1.0,), angles=(math.radians(80),))
        with pytest.raises(ValueError):
            enumerate_channels(grid, TABLE_PARAMS)


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            VlcParams(-1e-4, 1.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            VlcParams(1e-4, 0.9, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            VlcParams(1e-4, 1.5, 1.0, 0.0, 1.0)

    def test_bad_geometry(self):
        for geom in ((0.0, 0.1, 0.1), (1.0, -0.1, 0.1), (1.0, 0.1, -0.1)):
            with pytest.raises(ValueError):
                channel_gain(*geom, TABLE_PARAMS)
        # beyond pi/2, cos(phi) ** k_l would be a silent Python complex
        with pytest.raises(ValueError):
            channel_gain(1.0, math.pi / 2 + 0.1, 0.1, with_semi_angle(30))

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            ChannelGrid(distances=(), angles=(0.1,))
        with pytest.raises(ValueError):
            ChannelGrid(distances=(1.0,), angles=(0.1,), dedup_resolution=-1.0)

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (VlcParams, (math.inf, 1.5, 1.0, 1.0, 1.0), "pd_area must be finite and > 0"),
            (VlcParams, (1e-4, math.inf, 1.0, 1.0, 1.0), "refractive_index must be finite and >= 1"),
            (VlcParams, (1e-4, 1.5, math.inf, 1.0, 1.0), "filter_gain must be finite and > 0"),
            # an infinite distance would drop its links while combo_count counts them
            (ChannelGrid, ((1.0, math.inf), (0.1,)), "distances must be finite and > 0"),
            (ChannelGrid, ((1.0, math.nan), (0.1,)), "distances must be finite and > 0"),
            # an infinite bin holds every gain, a nan one fails the order check
            (paper_grid, (math.inf,), "dedup_resolution must be finite and >= 0, got inf"),
            (paper_grid, (math.nan,), "dedup_resolution must be finite and >= 0, got nan"),
            (ChannelSet, ((1e-5, math.inf), 2, 1e-5), "channel gains must be finite and > 0"),
            (ChannelSet, ((1e-5, math.nan), 2, 1e-5), "channel gains must be finite and > 0"),
            (channel_gain, (math.inf, 0.1, 0.1, TABLE_PARAMS), "need a finite distance > 0"),
            (channel_gain, (math.nan, 0.1, 0.1, TABLE_PARAMS), "need a finite distance > 0"),
        ],
        ids=[
            "pd-area-inf", "refractive-index-inf", "filter-gain-inf", "distance-inf",
            "distance-nan", "dedup-inf", "dedup-nan", "gain-inf", "gain-nan",
            "gain-distance-inf", "gain-distance-nan",
        ],
    )  # fmt: skip
    def test_not_finite_rejected(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)

    @pytest.mark.parametrize(
        "build, args, message",
        [
            # squares of the gain formula beyond the float range
            (channel_gain, (1e-170, 0.1, 0.1, TABLE_PARAMS),
             "distance 1e-170: its square underflows to 0"),
            (channel_gain, (1e200, 0.1, 0.1, TABLE_PARAMS), "distance 1e+200: its square overflows"),
            (channel_gain, (1.0, 0.1, 0.1, VlcParams(1e-4, 1e200, 1.0, 1.0, 1.0)),
             "refractive_index 1e+200: its square overflows"),
            (channel_gain, (1.0, 0.0, 0.0, VlcParams(1e-4, 1.5, 1.0, 1e-170, 1.0)),
             "the sine of fov 1e-170: its square underflows to 0"),
            # cos rounds to 1, so the Lambertian order would divide by log(1) = 0
            (VlcParams, (1e-4, 1.5, 1.0, 1.0, 1e-9), "semi_angle must have a cosine < 1, got 1e-09"),
            # a bin so narrow that gain / resolution overflows: every such
            # key would be inf, one bin for all of them
            (lambda res: enumerate_channels(paper_grid(res), TABLE_PARAMS), (5e-324,),
             "dedup_resolution 5e-324 cannot bin the largest gain 0.00151628"),
            (lambda res: enumerate_channels(paper_grid(res), TABLE_PARAMS), (1e-313,),
             "dedup_resolution 1e-313 cannot bin the largest gain 0.00151628"),
        ],
        ids=["distance-square-underflows", "distance-square-overflows",
             "refractive-index-square-overflows", "fov-sine-square-underflows",
             "semi-angle-cosine-one",
             "dedup-keys-overflow", "dedup-keys-partly-overflow"],
    )  # fmt: skip
    def test_float_range_rejected(self, build, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*args)
