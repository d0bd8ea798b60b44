"""Flat ``key = value`` run configuration: parsing and validation.

Angles are given in degrees, powers in Watts, bandwidth in Hz,
distances in meters.  Unknown keys, malformed lines, and physically
invalid values are reported with the file name, line number, and field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .channel import ChannelGrid, Position, VlcParams
from .rates import RATE_MODELS

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config_text"]


class ConfigError(ValueError):
    """Configuration file problem, carrying file/line/field context."""


_FLOAT_KEYS = {
    "room.width",
    "room.depth",
    "room.height",
    "room.tx_x",
    "room.tx_y",
    "room.tx_z",
    "optics.pd_area_m2",
    "optics.refractive_index",
    "optics.filter_gain",
    "optics.fov_deg",
    "optics.semi_angle_deg",
    "noma.p_max_w",
    "noma.bandwidth_hz",
    "noma.noise_variance_w",
    "grid.d_start",
    "grid.d_stop",
    "grid.d_step",
    "grid.d_append",
    "grid.angle_start_deg",
    "grid.angle_stop_deg",
    "grid.angle_step_deg",
    "grid.dedup_resolution",
    "derive.noise_variance_w",
    "walk.h1",
}
_INT_KEYS = {"abc.food_count", "abc.max_evaluations", "abc.limit", "seed"}
_STR_KEYS = {"noma.rate_model", "derive.above_ref"}
_POSITIVE = {
    "room.width",
    "room.depth",
    "room.height",
    "optics.pd_area_m2",
    "optics.refractive_index",
    "optics.filter_gain",
    "optics.fov_deg",
    "optics.semi_angle_deg",
    "noma.p_max_w",
    "noma.bandwidth_hz",
    "noma.noise_variance_w",
    "grid.d_start",
    "grid.d_stop",
    "grid.d_step",
    "grid.angle_start_deg",
    "grid.angle_stop_deg",
    "grid.angle_step_deg",
    "derive.noise_variance_w",
    "walk.h1",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; see configs/paper.cfg for the documented keys."""

    room: Tuple[float, float, float]
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


def parse_config_text(text: str, path: str = "<config>") -> "RunConfig":
    """Parse and validate one configuration document."""
    raw: Dict[str, str] = {}
    walk_points: List[Tuple[str, Position]] = []
    lines: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _err(path, lineno, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("walk.point."):
            label = key[len("walk.point."):]
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 3:
                raise _err(path, lineno, f"{key}: expected 'x, y, z', got {value!r}")
            try:
                coords = [float(p) for p in parts]
            except ValueError:
                raise _err(path, lineno, f"{key}: non-numeric coordinate in {value!r}")
            walk_points.append((label, Position(*coords)))
            continue
        if key not in _FLOAT_KEYS | _INT_KEYS | _STR_KEYS:
            raise _err(path, lineno, f"unknown key {key!r}")
        if key in raw:
            raise _err(path, lineno, f"duplicate key {key!r}")
        raw[key] = value
        lines[key] = lineno

    def need(key: str) -> str:
        if key not in raw:
            raise _err(path, 0, f"missing required key {key!r}")
        return raw[key]

    def get_float(key: str, default=None) -> float:
        if key not in raw:
            if default is None:
                need(key)
            return default
        try:
            v = float(raw[key])
        except ValueError:
            raise _err(path, lines[key], f"{key}: not a number: {raw[key]!r}")
        if key in _POSITIVE and not v > 0:
            raise _err(path, lines[key], f"{key}: must be > 0, got {v}")
        if not math.isfinite(v):
            raise _err(path, lines[key], f"{key}: must be finite, got {v}")
        return v

    def get_int(key: str, default=None):
        if key not in raw:
            return default
        try:
            return int(raw[key])
        except ValueError:
            raise _err(path, lines[key], f"{key}: not an integer: {raw[key]!r}")

    room = (get_float("room.width"), get_float("room.depth"), get_float("room.height"))
    tx = Position(get_float("room.tx_x"), get_float("room.tx_y"), get_float("room.tx_z"))
    if not (0 <= tx.x <= room[0] and 0 <= tx.y <= room[1] and 0 <= tx.z <= room[2]):
        raise _err(path, lines.get("room.tx_x", 0), "transmitter lies outside the room")

    fov_deg = get_float("optics.fov_deg")
    semi_deg = get_float("optics.semi_angle_deg")
    try:
        params = VlcParams(
            pd_area=get_float("optics.pd_area_m2"),
            refractive_index=get_float("optics.refractive_index"),
            filter_gain=get_float("optics.filter_gain"),
            fov=math.radians(fov_deg),
            semi_angle=math.radians(semi_deg),
        )
    except ValueError as exc:
        raise _err(path, lines.get("optics.fov_deg", 0), f"optics: {exc}")

    d_start = get_float("grid.d_start")
    d_stop = get_float("grid.d_stop")
    d_step = get_float("grid.d_step")
    if d_stop < d_start:
        raise _err(path, lines["grid.d_stop"], "grid.d_stop: must be >= grid.d_start")
    distances = []
    k = 0
    while True:
        d = d_start + k * d_step
        if d > d_stop * (1 + 1e-12):
            break
        distances.append(d)
        k += 1
    d_append = get_float("grid.d_append", default=0.0)
    if d_append > 0.0:
        distances.append(d_append)

    a_start = get_float("grid.angle_start_deg")
    a_stop = get_float("grid.angle_stop_deg")
    a_step = get_float("grid.angle_step_deg")
    if a_stop < a_start:
        raise _err(
            path, lines["grid.angle_stop_deg"], "grid.angle_stop_deg: must be >= start"
        )
    angles_deg = []
    k = 0
    while True:
        a = a_start + k * a_step
        if a > a_stop * (1 + 1e-12):
            break
        angles_deg.append(a)
        k += 1
    if any(a > fov_deg for a in angles_deg):
        raise _err(
            path,
            lines["grid.angle_stop_deg"],
            "grid angles must not exceed optics.fov_deg",
        )

    dedup = get_float("grid.dedup_resolution", default=1.5e-9)
    if dedup < 0:
        raise _err(path, lines.get("grid.dedup_resolution", 0), "dedup must be >= 0")

    rate_model = raw.get("noma.rate_model", "paper-repro")
    if rate_model not in RATE_MODELS:
        raise _err(
            path,
            lines.get("noma.rate_model", 0),
            f"noma.rate_model: unknown model {rate_model!r}",
        )
    above_ref = raw.get("derive.above_ref", "skip")
    if above_ref not in ("skip", "swap"):
        raise _err(
            path,
            lines.get("derive.above_ref", 0),
            f"derive.above_ref: expected 'skip' or 'swap', got {above_ref!r}",
        )

    noise = get_float("noma.noise_variance_w")
    food = get_int("abc.food_count", 10)
    maxfe = get_int("abc.max_evaluations", 4000)
    limit = get_int("abc.limit", None)
    if food < 2:
        raise _err(path, lines.get("abc.food_count", 0), "abc.food_count: must be >= 2")
    if maxfe < food:
        raise _err(
            path,
            lines.get("abc.max_evaluations", 0),
            "abc.max_evaluations: must be >= abc.food_count",
        )

    return RunConfig(
        room=room,
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
        abc_max_evaluations=maxfe,
        abc_limit=limit,
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
    cfg = parse_config_text(data.decode("utf-8"), path=str(p))
    return replace(cfg, digest=hashlib.sha256(data).hexdigest())
