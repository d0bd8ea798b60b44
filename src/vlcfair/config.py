"""Flat ``key = value`` run configuration: parsing and validation.

read_key_values is the one ``key = value`` reader: config files and
model files (``modelio.load_model``) both go through it, so both reject
a malformed line or a repeated key with its file and line.

Angles are given in degrees, powers in Watts, bandwidth in Hz,
distances in meters.  Unknown keys, malformed lines, and physically
invalid values are reported with the file name, line number, and field.
Every float, walk-point coordinates included, passes one rule: a finite
number, > 0 for the keys in _POSITIVE, and within its range for the
keys in _RANGES, whose angles must also stay > 0 in radians.
axis samples the grid's two axes and the sweep's ratios; MAX_POINTS
bounds both and the grid's combinations.  decode_text decodes config,
model and channels files alike: bytes that are not UTF-8 are an error
at their file:line.
Defaults are read from the code that uses them (AbcConfig,
``channel.DEFAULT_DEDUP_RESOLUTION``, ``allocate.ABOVE_REF``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .allocate import ABOVE_REF
from .channel import DEFAULT_DEDUP_RESOLUTION, ChannelGrid, Position, VlcParams
from .optimize import AbcConfig
from .rates import RATE_MODELS

__all__ = ["ConfigError", "RunConfig", "axis", "load_config", "parse_config_text"]


class ConfigError(ValueError):
    """Configuration file problem, carrying file/line/field context."""


_POSITIVE = {
    "room.width",
    "room.depth",
    "room.height",
    "optics.pd_area_m2",
    "optics.filter_gain",
    "noma.p_max_w",
    "noma.bandwidth_hz",
    "noma.noise_variance_w",
    "grid.d_start",
    "grid.d_stop",
    "grid.d_step",
    "grid.angle_start_deg",
    "grid.angle_stop_deg",
    "grid.angle_step_deg",
    "grid.d_append",
    "derive.noise_variance_w",
    "walk.h1",
}
_RANGES = {  # key -> (test, range): the ranges of VlcParams and ChannelGrid, in file units
    "optics.refractive_index": (lambda v: v >= 1, ">= 1"),
    "optics.fov_deg": (lambda v: 0 < v <= 90, "in (0, 90] degrees"),
    "optics.semi_angle_deg": (lambda v: 0 < v < 90, "in (0, 90) degrees"),
    "grid.dedup_resolution": (lambda v: v >= 0, ">= 0"),
}
_FLOAT_KEYS = _POSITIVE | _RANGES.keys() | {
    "room.tx_x",
    "room.tx_y",
    "room.tx_z",
}
_INT_KEYS = {"abc.food_count", "abc.max_evaluations", "abc.limit", "seed"}
_STR_KEYS = {"noma.rate_model", "derive.above_ref"}
_WALK_POINT = "walk.point."
# The most steps one sampled axis may take and the most combinations one
# channel grid may hold: 33x the paper grid's 3024 combinations and 1000x
# the sweep's 100 ratios, so no real axis meets it and a runaway one stops.
MAX_POINTS = 10**5


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; see configs/paper.cfg for the documented keys."""

    tx: Position
    params: VlcParams
    p_max: float
    bandwidth: float
    noise_variance: float
    rate_model: str
    distances: tuple
    angles_deg: tuple
    dedup_resolution: float
    abc_food_count: int
    abc_max_evaluations: int
    abc_limit: Optional[int]
    seed: int
    derive_noise_variance: float
    derive_above_ref: str
    walk_h1: Optional[float]
    walk_points: tuple  # ((label, Position), ...) in file order
    digest: str = ""

    def channel_grid(self) -> ChannelGrid:
        return ChannelGrid(
            distances=self.distances,
            angles=tuple(math.radians(a) for a in self.angles_deg),
            dedup_resolution=self.dedup_resolution,
        )


def _err(path, lineno, msg) -> ConfigError:
    where = f"{path}:{lineno}: " if lineno else f"{path}: "
    return ConfigError(where + msg)


def read_key_values(text: str, path: str) -> Dict[str, Tuple[str, int]]:
    """key -> (value, line number) of every ``key = value`` line, in file order.

    Blank lines and ``#`` comments are skipped.  A line without ``=`` and
    a key given twice are errors naming ``file:line``.
    """
    entries: Dict[str, Tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _err(path, lineno, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in entries:
            raise _err(path, lineno, f"duplicate key {key!r}")
        entries[key] = (value.strip(), lineno)
    return entries


def decode_text(data: bytes, path) -> str:
    """data as UTF-8; bytes that are not UTF-8 are an error at their file:line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise _err(path, lineno, f"not UTF-8: byte 0x{data[exc.start]:02x}") from None


def axis(start: float, stop: float, step: float) -> list:
    """start, start + step, ... up to stop, counted first: the one sampling
    rule of the channel grid's axes and the sweep's ratio axis.

    There are floor((stop - start) / step + 1e-9) + 1 points, point k is
    start + k * step, and a last point above stop is stop itself.  A step
    that is not > 0 or that takes more than MAX_POINTS steps raises a
    ValueError worded to follow the step's name.
    """
    if not step > 0:
        raise ValueError(f"must be > 0, got {step}")
    steps = (stop - start) / step
    if not steps <= MAX_POINTS:  # inf and nan too
        raise ValueError(f"{steps:.6g} steps from {start} to {stop}, more than {MAX_POINTS}")
    return [min(start + k * step, stop) for k in range(math.floor(steps + 1e-9) + 1)]


def parse_config_text(text: str, path: str = "<config>") -> "RunConfig":
    """Parse and validate one configuration document."""
    entries = read_key_values(text, path)

    def line(key: str) -> int:
        return entries.get(key, ("", 0))[1]

    def number(key: str, value: str, lineno: int) -> float:
        """The rule of every float: finite, > 0 in _POSITIVE, in range in _RANGES."""
        try:
            v = float(value)
        except ValueError:
            raise _err(path, lineno, f"{key}: not a number: {value!r}")
        if key in _POSITIVE and not v > 0:
            raise _err(path, lineno, f"{key}: must be > 0, got {v}")
        if not math.isfinite(v):
            raise _err(path, lineno, f"{key}: must be finite, got {v}")
        if key in _RANGES and not _RANGES[key][0](v):
            raise _err(path, lineno, f"{key}: must be {_RANGES[key][1]}, got {v}")
        if key in _RANGES and key.endswith("_deg") and not math.radians(v) > 0:
            # VlcParams takes radians, where the least degrees round to 0
            raise _err(path, lineno, f"{key}: must be > 0 in radians, got {v} degrees")
        return v

    def get_float(key: str, default=None) -> float:
        if key not in entries:
            if default is None:
                raise _err(path, 0, f"missing required key {key!r}")
            return default
        return number(key, *entries[key])

    walk_points: List[Tuple[str, Position]] = []
    for key, (value, lineno) in entries.items():
        if key.startswith(_WALK_POINT):
            parts = value.split(",")
            if len(parts) != 3:
                raise _err(path, lineno, f"{key}: expected 'x, y, z', got {value!r}")
            coords = (number(key, p.strip(), lineno) for p in parts)
            walk_points.append((key[len(_WALK_POINT):], Position(*coords)))
        elif key not in _FLOAT_KEYS | _INT_KEYS | _STR_KEYS:
            raise _err(path, lineno, f"unknown key {key!r}")

    def get_int(key: str, default, minimum=None):
        value, lineno = entries.get(key, (default, 0))
        if value is None:
            return None
        try:
            v = int(value)
        except ValueError:
            raise _err(path, lineno, f"{key}: not an integer: {value!r}")
        if minimum is not None and v < minimum:
            raise _err(path, lineno, f"{key}: must be >= {minimum}")
        return v

    room = (get_float("room.width"), get_float("room.depth"), get_float("room.height"))
    tx = Position(get_float("room.tx_x"), get_float("room.tx_y"), get_float("room.tx_z"))
    if not (0 <= tx.x <= room[0] and 0 <= tx.y <= room[1] and 0 <= tx.z <= room[2]):
        raise _err(path, line("room.tx_x"), "transmitter lies outside the room")
    for label, pos in walk_points:
        if not pos.z < tx.z:
            key = _WALK_POINT + label
            message = f"{key}: must lie below the transmitter (z < {tx.z}), got {pos.z}"
            raise _err(path, line(key), message)

    fov_deg = get_float("optics.fov_deg")
    semi_deg = get_float("optics.semi_angle_deg")
    params = VlcParams(
        pd_area=get_float("optics.pd_area_m2"),
        refractive_index=get_float("optics.refractive_index"),
        filter_gain=get_float("optics.filter_gain"),
        fov=math.radians(fov_deg),
        semi_angle=math.radians(semi_deg),
    )

    def grid_axis(name: str, unit: str = "") -> list:
        """The axis of keys grid.<name>_start<unit>, _stop<unit> and _step<unit>."""
        start, stop, step = (f"grid.{name}_{e}{unit}" for e in ("start", "stop", "step"))
        first, last, size = get_float(start), get_float(stop), get_float(step)
        if last < first:
            raise _err(path, line(stop), f"{stop}: must be >= {start}")
        try:
            return axis(first, last, size)
        except ValueError as exc:
            raise _err(path, line(step), f"{step}: {exc}") from None

    distances = grid_axis("d")
    if "grid.d_append" in entries:
        distances.append(get_float("grid.d_append"))
    angles_deg = grid_axis("angle", "_deg")
    combos = len(distances) * len(angles_deg) ** 2
    if combos > MAX_POINTS:
        grid = f"{len(distances)} distances x {len(angles_deg)}^2 angles = {combos}"
        message = f"grid.angle_step_deg: {grid} combinations, more than {MAX_POINTS}"
        raise _err(path, line("grid.angle_step_deg"), message)
    if any(a > fov_deg for a in angles_deg):
        raise _err(
            path,
            line("grid.angle_stop_deg"),
            "grid angles must not exceed optics.fov_deg",
        )

    dedup = get_float("grid.dedup_resolution", default=DEFAULT_DEDUP_RESOLUTION)

    rate_model, lineno = entries.get("noma.rate_model", ("paper-repro", 0))
    if rate_model not in RATE_MODELS:
        raise _err(path, lineno, f"noma.rate_model: unknown model {rate_model!r}")
    above_ref, lineno = entries.get("derive.above_ref", (ABOVE_REF[0], 0))
    if above_ref not in ABOVE_REF:
        choices = " or ".join(map(repr, ABOVE_REF))
        message = f"derive.above_ref: expected {choices}, got {above_ref!r}"
        raise _err(path, lineno, message)

    noise = get_float("noma.noise_variance_w")
    food = get_int("abc.food_count", AbcConfig.food_count, minimum=2)
    return RunConfig(
        tx=tx,
        params=params,
        p_max=get_float("noma.p_max_w"),
        bandwidth=get_float("noma.bandwidth_hz"),
        noise_variance=noise,
        rate_model=rate_model,
        distances=tuple(distances),
        angles_deg=tuple(angles_deg),
        dedup_resolution=dedup,
        abc_food_count=food,
        abc_max_evaluations=get_int(
            "abc.max_evaluations", AbcConfig.max_evaluations, minimum=food
        ),
        abc_limit=get_int("abc.limit", AbcConfig.limit, minimum=1),
        seed=get_int("seed", 0),
        derive_noise_variance=get_float("derive.noise_variance_w", default=noise),
        derive_above_ref=above_ref,
        walk_h1=get_float("walk.h1", default=0.0) or None,
        walk_points=tuple(walk_points),
    )


def load_config(path) -> RunConfig:
    """Read, parse, and digest one configuration file."""
    import hashlib
    from dataclasses import replace

    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read config: {exc}")
    cfg = parse_config_text(decode_text(data, p), path=str(p))
    return replace(cfg, digest=hashlib.sha256(data).hexdigest())
