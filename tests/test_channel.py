"""Channel model: closed-form gains, geometry, and grid enumeration."""

import math
import random

import pytest

from vlcfair.channel import (
    ChannelGrid,
    LinkGeometry,
    Position,
    VlcParams,
    channel_gain,
    concentrator_gain,
    enumerate_channels,
    geometry_from_positions,
    lambertian_order,
    radiant_intensity,
)

TABLE_PARAMS = VlcParams(
    pd_area=1e-4,
    refractive_index=1.5,
    filter_gain=1.0,
    fov=math.radians(60.0),
    semi_angle=math.radians(60.0),
)

TX = Position(3.0, 3.0, 3.0)


def paper_grid(dedup=1.5e-9):
    distances = [0.25 * i for i in range(1, 21)] + [3.0 * math.sqrt(3.0)]
    angles = [math.radians(5.0 * i) for i in range(1, 13)]
    return ChannelGrid(distances=distances, angles=angles, dedup_resolution=dedup)


class TestLambertianOrder:
    def test_sixty_degrees_is_order_one(self):
        assert lambertian_order(math.radians(60)) == pytest.approx(1.0, rel=1e-12)

    def test_thirty_degrees(self):
        assert lambertian_order(math.radians(30)) == pytest.approx(
            4.81884167930642, rel=1e-12
        )

    def test_extreme_angles_finite(self):
        # wide emitters have small orders, narrow emitters large ones;
        # both extremes stay positive and finite in double precision
        wide = lambertian_order(math.radians(89.9))
        assert 0.0 < wide < 1.0
        narrow = lambertian_order(math.radians(0.1))
        assert narrow > 1e5
        assert math.isfinite(wide) and math.isfinite(narrow)

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2, -0.1, 2.0])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            lambertian_order(bad)


class TestConcentratorGain:
    def test_table_value(self):
        assert concentrator_gain(math.radians(30), TABLE_PARAMS) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_outside_fov_is_zero(self):
        assert concentrator_gain(math.radians(70), TABLE_PARAMS) == 0.0

    def test_unit_gain(self):
        p = VlcParams(1e-4, 1.0, 1.0, math.pi / 2, math.radians(60))
        assert concentrator_gain(math.radians(60), p) == pytest.approx(1.0, rel=1e-12)


class TestRadiantIntensity:
    def test_boresight(self):
        assert radiant_intensity(0.0, 1.0) == pytest.approx(1 / math.pi, rel=1e-12)

    def test_sixty_degrees(self):
        assert radiant_intensity(math.radians(60), 1.0) == pytest.approx(
            0.15915494309189537, rel=1e-12
        )

    def test_grazing_is_zero(self):
        assert radiant_intensity(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-16)

    def test_maximal_at_zero(self):
        peak = radiant_intensity(0.0, 3.2)
        for a in (0.2, 0.7, 1.2):
            assert radiant_intensity(a, 3.2) < peak


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
        assert channel_gain(geom, TABLE_PARAMS) == pytest.approx(expected, rel=5e-5)

    def test_zero_outside_fov(self):
        geom = LinkGeometry(2.0, 0.3, TABLE_PARAMS.fov + 0.01)
        assert channel_gain(geom, TABLE_PARAMS) == 0.0

    def test_monotone_decreasing_each_argument(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.uniform(0.3, 5.0)
            phi = rng.uniform(0.01, 1.0)
            psi = rng.uniform(0.01, 1.0)
            base = channel_gain(LinkGeometry(d, phi, psi), TABLE_PARAMS)
            assert channel_gain(LinkGeometry(d * 1.3, phi, psi), TABLE_PARAMS) < base
            assert channel_gain(LinkGeometry(d, phi + 0.04, psi), TABLE_PARAMS) < base
            assert channel_gain(LinkGeometry(d, phi, psi + 0.04), TABLE_PARAMS) < base

    def test_angle_symmetry_at_order_one(self):
        # cos * cos commutes when the emission order is 1 (60 degree semi-angle)
        rng = random.Random(13)
        for _ in range(100):
            d = rng.uniform(0.3, 5.0)
            a = rng.uniform(0.01, TABLE_PARAMS.fov)
            b = rng.uniform(0.01, TABLE_PARAMS.fov)
            g1 = channel_gain(LinkGeometry(d, a, b), TABLE_PARAMS)
            g2 = channel_gain(LinkGeometry(d, b, a), TABLE_PARAMS)
            assert g1 == pytest.approx(g2, rel=1e-12)


class TestGeometryFromPositions:
    def test_vertical_link(self):
        geom = geometry_from_positions(TX, Position(3.0, 3.0, 1.0))
        assert geom.distance == pytest.approx(2.0, rel=1e-12)
        assert geom.irradiance_angle == 0.0
        assert geom.incidence_angle == 0.0

    def test_oblique_link(self):
        geom = geometry_from_positions(TX, Position(2.5, 1.5, 1.7))
        expected = math.sqrt(0.5**2 + 1.5**2 + (3.0 - 1.7) ** 2)
        assert geom.distance == pytest.approx(expected, rel=1e-15)
        assert geom.distance == pytest.approx(2.0469, abs=1e-4)
        assert math.degrees(geom.irradiance_angle) == pytest.approx(50.57, abs=0.01)
        assert geom.incidence_angle == geom.irradiance_angle

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
        expected = channel_gain(
            LinkGeometry(2.0, math.radians(30), math.radians(30)), TABLE_PARAMS
        )
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
            channel_gain(LinkGeometry(d, phi, psi), TABLE_PARAMS)
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
        with pytest.raises(ValueError):
            LinkGeometry(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            LinkGeometry(1.0, -0.1, 0.1)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            ChannelGrid(distances=(), angles=(0.1,))
        with pytest.raises(ValueError):
            ChannelGrid(distances=(1.0,), angles=(0.1,), dedup_resolution=-1.0)
