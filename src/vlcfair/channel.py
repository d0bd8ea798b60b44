"""Lambertian line-of-sight channel model for indoor optical wireless links.

The gain between an LED transmitter and a photo-detector is

    h = A * R(phi) / d^2 * T_s * g(psi) * cos(psi),   0 <= psi <= FoV

where ``A`` is the detector area, ``d`` the link distance, ``phi`` the
irradiance angle at the emitter, ``psi`` the incidence angle at the
detector, ``T_s`` the optical filter gain, and

    R(phi) = (k_l + 1) / (2*pi) * cos(phi)**k_l     (radiant intensity)
    g(psi) = n^2 / sin^2(FoV)                       (concentrator gain)
    k_l    = -ln(2) / ln(cos(semi_angle))           (Lambertian order)

Beyond the field of view the concentrator gain is zero, so h = 0.
These formulas live in ``channel_gain`` alone.  A distance, refractive
index or sine of the FoV whose square overflows, or underflows to 0, is
a ValueError there that names the value, and VlcParams refuses a semi-angle whose cosine
rounds to 1, where ln(cos) would be 0.  Value ranges are checked with
``rules.check``.

All angles are radians internally; configuration files use degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rules import at_least, check

__all__ = [
    "VlcParams",
    "Position",
    "ChannelGrid",
    "ChannelSet",
    "channel_gain",
    "geometry_from_positions",
    "enumerate_channels",
]

# Uniqueness is decided on a fixed quantization grid of the gain axis:
# two gains are the same channel when they round to the same multiple of
# the resolution.  The default reproduces the reference enumeration
# statistics for the standard office grid (see README).
DEFAULT_DEDUP_RESOLUTION = 1.5e-9


@dataclass(frozen=True)
class VlcParams:
    """Optical front-end constants of one emitter/detector pair.

    pd_area          detector area in m^2
    refractive_index concentrator refractive index (>= 1)
    filter_gain      optical filter gain T_s
    fov              detector field-of-view half-angle, radians
    semi_angle       LED half-power semi-angle, radians
    """

    pd_area: float
    refractive_index: float
    filter_gain: float
    fov: float
    semi_angle: float

    def __post_init__(self):
        check("pd_area", self.pd_area)
        check("refractive_index", self.refractive_index, at_least(1))
        check("filter_gain", self.filter_gain)
        if not 0 < self.fov <= math.pi / 2:
            raise ValueError(f"fov must lie in (0, pi/2], got {self.fov}")
        if not 0 < self.semi_angle < math.pi / 2:
            raise ValueError(
                f"semi_angle must lie in (0, pi/2), got {self.semi_angle}"
            )
        if not math.cos(self.semi_angle) < 1:  # the Lambertian order divides by log(cos)
            raise ValueError(f"semi_angle must have a cosine < 1, got {self.semi_angle}")


@dataclass(frozen=True)
class Position:
    """Cartesian point in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"position components must be finite: {self}")


@dataclass(frozen=True)
class ChannelGrid:
    """Enumeration grid: distances plus one shared angle axis for phi and psi.

    dedup_resolution is the absolute gain quantization step used for
    uniqueness (0 means exact floating-point uniqueness).
    """

    distances: tuple
    angles: tuple
    dedup_resolution: float = DEFAULT_DEDUP_RESOLUTION

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(float(d) for d in self.distances))
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if not self.distances or not self.angles:
            raise ValueError("grid needs at least one distance and one angle")
        if not all(0 < d < math.inf for d in self.distances):
            raise ValueError("all grid distances must be finite and > 0")
        if any(not 0 < a <= math.pi / 2 for a in self.angles):
            raise ValueError("all grid angles must lie in (0, pi/2]")
        check("dedup_resolution", self.dedup_resolution, at_least(0))

    @property
    def combo_count(self) -> int:
        return len(self.distances) * len(self.angles) ** 2


@dataclass(frozen=True)
class ChannelSet:
    """Deduplicated gains of an enumeration, ascending, with their mean."""

    gains: tuple
    combo_count: int
    mean_gain: float
    dedup_resolution: float = 0.0

    def __post_init__(self):
        if not all(0 < g < math.inf for g in self.gains):
            raise ValueError("channel gains must be finite and > 0")
        if any(b <= a for a, b in zip(self.gains, self.gains[1:])):
            raise ValueError("channel gains must be strictly ascending")

    def __len__(self) -> int:
        return len(self.gains)


def channel_gain(
    distance: float, irradiance_angle: float, incidence_angle: float, params: VlcParams
) -> float:
    """Line-of-sight gain of one link; zero outside the field of view."""
    if not (
        0 < distance < math.inf
        and 0 <= irradiance_angle <= math.pi / 2
        and 0 <= incidence_angle <= math.pi / 2
    ):
        raise ValueError(
            "need a finite distance > 0 and both angles in [0, pi/2], got "
            f"{distance}, {irradiance_angle}, {incidence_angle}"
        )
    if incidence_angle > params.fov:
        return 0.0
    k_l = -math.log(2.0) / math.log(math.cos(params.semi_angle))
    intensity = (k_l + 1.0) / (2.0 * math.pi) * math.cos(irradiance_angle) ** k_l
    sin_fov_sq = _square("the sine of fov", math.sin(params.fov))
    concentrator = _square("refractive_index", params.refractive_index) / sin_fov_sq
    gain = params.pd_area * intensity / _square("distance", distance) * params.filter_gain
    return gain * concentrator * math.cos(incidence_angle)


def _square(name: str, value: float) -> float:
    """value**2 for channel_gain; a square that overflows, or underflows
    to 0, is a ValueError naming the value."""
    try:
        square = value**2
    except OverflowError:
        raise ValueError(f"{name} {value}: its square overflows") from None
    if not square:
        raise ValueError(f"{name} {value}: its square underflows to 0")
    return square


def geometry_from_positions(tx: Position, rx: Position) -> tuple:
    """(distance, irradiance angle, incidence angle) of a ceiling emitter
    facing down and a receiver facing up.

    Both normals are vertical, so the two angles coincide:
    arccos((tx.z - rx.z) / distance).
    """
    dx, dy, dz = tx.x - rx.x, tx.y - rx.y, tx.z - rx.z
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d == 0.0:
        raise ValueError("transmitter and receiver coincide")
    if dz <= 0:
        raise ValueError("transmitter must be above the receiver")
    angle = math.acos(min(1.0, dz / d))
    return d, angle, angle


def enumerate_channels(grid: ChannelGrid, params: VlcParams) -> ChannelSet:
    """Evaluate the gain on every (d, phi, psi) triple and deduplicate.

    Every angle pair is applied to every distance; zero gains (outside
    the field of view) are excluded from the unique set, and a grid with
    no gain > 0 is an error.  Uniqueness is decided by quantizing the
    gain axis at ``grid.dedup_resolution``; the smallest member of each
    occupied bin is kept, so the returned values are true gains of the
    model, strictly ascending.  The mean is taken over the deduplicated
    set.  A resolution under which the largest gain's bin number
    (gain / resolution) is not finite is a ValueError: every such gain
    would share the one bin of inf.
    """
    if any(a > params.fov for a in grid.angles):
        raise ValueError("grid angles must not exceed the receiver FoV")
    gains = []
    for d in grid.distances:
        for phi in grid.angles:
            for psi in grid.angles:
                h = channel_gain(d, phi, psi, params)
                if h > 0.0:
                    gains.append(h)
    if not gains:  # angles lie in the FoV, so cos(phi)^k_l underflowed on every link
        raise ValueError(f"no link of the grid's {grid.combo_count} combinations has a gain > 0")
    values = np.sort(np.asarray(gains, dtype=float))
    # keep the first gain of each run of equal keys; resolution 0 keys on
    # the gain itself, which is exact dedup
    res = grid.dedup_resolution
    if res and not math.isfinite(float(values[-1]) / res):  # one key of inf would bin them all
        message = f"dedup_resolution {res} cannot bin the largest gain {values[-1]}"
        raise ValueError(f"{message}: gain / resolution is not finite")
    keys = np.round(values / res) if res else values
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    values = values[keep]
    return ChannelSet(
        gains=tuple(float(v) for v in values),
        combo_count=grid.combo_count,
        mean_gain=float(values.mean()),
        dedup_resolution=grid.dedup_resolution,
    )
