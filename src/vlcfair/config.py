"""Flat ``key = value`` run configuration: parsing and validation.

A file format declares its keys once, as a table of ``key -> (type,
rule, default)``: _KEYS for config files, ``modelio._MODEL_KEYS`` for
model files.  ``rule`` is (test, text) or None; ``default`` is REQUIRED
or the value of a key left out.  read_key_values reads a file,
check_entries checks it against its table (unknown keys, then each key,
a missing REQUIRED key too), and check_value checks one value of a
config, model or channels file: its type, a float finite, then its rule,
with errors at ``file:line`` naming the key.  The rules that tie keys
together follow the table: transmitter inside the room, walk points
below it, grid stop >= start, the combination bound, grid angles <=
optics.fov_deg, optics angles > 0 in radians, and abc.max_evaluations
>= abc.food_count.  Angles are in degrees, powers in Watts, bandwidth
in Hz, distances in meters.  axis samples the grid's two axes and the
sweep's ratios; MAX_POINTS bounds both and the grid's combinations.
decode_text reports bytes that are not UTF-8 at their file:line.
Defaults are read from the code that uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from .allocate import ABOVE_REF
from .channel import DEFAULT_DEDUP_RESOLUTION, ChannelGrid, Position, VlcParams
from .optimize import AbcConfig
from .rates import RATE_MODELS

__all__ = ["ConfigError", "RunConfig", "axis", "load_config", "parse_config_text"]


class ConfigError(ValueError):
    """Configuration file problem, carrying file/line/field context."""


REQUIRED = object()  # the default of a key that a file must give
POSITIVE = (lambda v: v > 0, "> 0")


def at_least(bound) -> tuple:
    """The rule of a key whose value must be >= bound."""
    return (lambda v: v >= bound, f">= {bound}")


def one_of(choices) -> tuple:
    """The rule of a key whose value must be one of ``choices``."""
    return (choices.__contains__, "one of " + ", ".join(map(repr, choices)))


# key -> (type, rule, default) of every config key: the ranges of VlcParams,
# ChannelGrid and AbcConfig, in file units
_KEYS = {
    "room.width": (float, POSITIVE, REQUIRED),
    "room.depth": (float, POSITIVE, REQUIRED),
    "room.height": (float, POSITIVE, REQUIRED),
    "room.tx_x": (float, None, REQUIRED),
    "room.tx_y": (float, None, REQUIRED),
    "room.tx_z": (float, None, REQUIRED),
    "optics.pd_area_m2": (float, POSITIVE, REQUIRED),
    "optics.refractive_index": (float, at_least(1), REQUIRED),
    "optics.filter_gain": (float, POSITIVE, REQUIRED),
    "optics.fov_deg": (float, (lambda v: 0 < v <= 90, "in (0, 90] degrees"), REQUIRED),
    "optics.semi_angle_deg": (float, (lambda v: 0 < v < 90, "in (0, 90) degrees"), REQUIRED),
    "noma.p_max_w": (float, POSITIVE, REQUIRED),
    "noma.bandwidth_hz": (float, POSITIVE, REQUIRED),
    "noma.noise_variance_w": (float, POSITIVE, REQUIRED),
    "noma.rate_model": (str, one_of(RATE_MODELS), "paper-repro"),
    "grid.d_start": (float, POSITIVE, REQUIRED),
    "grid.d_stop": (float, POSITIVE, REQUIRED),
    "grid.d_step": (float, POSITIVE, REQUIRED),
    "grid.d_append": (float, POSITIVE, None),  # None: no distance appended
    "grid.angle_start_deg": (float, POSITIVE, REQUIRED),
    "grid.angle_stop_deg": (float, POSITIVE, REQUIRED),
    "grid.angle_step_deg": (float, POSITIVE, REQUIRED),
    "grid.dedup_resolution": (float, at_least(0), DEFAULT_DEDUP_RESOLUTION),
    "abc.food_count": (int, at_least(2), AbcConfig.food_count),
    "abc.max_evaluations": (int, None, AbcConfig.max_evaluations),  # >= abc.food_count
    "abc.limit": (int, at_least(1), AbcConfig.limit),  # None: food_count
    "seed": (int, at_least(0), 0),  # random.Random seeds with |seed|: -3 would draw 3's stream
    "derive.noise_variance_w": (float, POSITIVE, None),  # None: noma.noise_variance_w
    "derive.above_ref": (str, one_of(ABOVE_REF), ABOVE_REF[0]),
    "walk.h1": (float, POSITIVE, None),  # None: walk refuses to run
}
_WALK_POINT = "walk.point."  # walk.point.<label> = x, y, z: floats, below the transmitter
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


def check_value(key: str, text: str, kind, rule, path, lineno: int):
    """text as ``kind`` (float, int or str), checked: the one check of every
    value of a config, model or channels file.  A float must be finite,
    and any value must pass ``rule``, a (test, text) pair or None; each
    error names ``file:line`` and the key."""
    try:
        v = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _err(path, lineno, f"{key}: not {noun}: {text!r}") from None
    if kind is float and not math.isfinite(v):
        raise _err(path, lineno, f"{key}: must be finite, got {v}")
    if rule and not rule[0](v):
        raise _err(path, lineno, f"{key}: must be {rule[1]}, got {v!r}")
    return v


def check_entries(entries: dict, table: dict, path, what: str = "key") -> dict:
    """key -> value for every key of ``table`` (key -> (type, rule,
    default)): the file's value through check_value, or the default when
    the file leaves the key out.  A key the table lacks is an error
    first, then a REQUIRED key left out; ``what`` names a key in both."""
    for key, (_, lineno) in entries.items():
        if key not in table:
            raise _err(path, lineno, f"unknown {what} {key!r}")
    values = {}
    for key, (kind, rule, default) in table.items():
        if key in entries:
            text, lineno = entries[key]
            values[key] = check_value(key, text, kind, rule, path, lineno)
        elif default is REQUIRED:
            raise _err(path, 0, f"missing required {what} {key!r}")
        else:
            values[key] = default
    return values


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
    """Parse and validate one configuration document: every key through
    _KEYS, then the rules that tie keys together."""
    entries = read_key_values(text, path)
    v = check_entries({k: e for k, e in entries.items() if not k.startswith(_WALK_POINT)},
                      _KEYS, path)

    def line(key: str) -> int:
        return entries.get(key, ("", 0))[1]

    tx = Position(v["room.tx_x"], v["room.tx_y"], v["room.tx_z"])
    room = (v["room.width"], v["room.depth"], v["room.height"])
    if not (0 <= tx.x <= room[0] and 0 <= tx.y <= room[1] and 0 <= tx.z <= room[2]):
        raise _err(path, line("room.tx_x"), "transmitter lies outside the room")
    walk_points = []  # (label, Position) in file order
    for key, (value, lineno) in entries.items():
        if key.startswith(_WALK_POINT):
            parts = value.split(",")
            if len(parts) != 3:
                raise _err(path, lineno, f"{key}: expected 'x, y, z', got {value!r}")
            pos = Position(*(check_value(key, p.strip(), float, None, path, lineno)
                             for p in parts))
            if not pos.z < tx.z:
                message = f"{key}: must lie below the transmitter (z < {tx.z}), got {pos.z}"
                raise _err(path, lineno, message)
            walk_points.append((key[len(_WALK_POINT):], pos))

    for key in ("optics.fov_deg", "optics.semi_angle_deg"):
        if not math.radians(v[key]) > 0:  # VlcParams takes radians: the least degrees round to 0
            raise _err(path, line(key), f"{key}: must be > 0 in radians, got {v[key]} degrees")

    def grid_axis(name: str, unit: str = "") -> list:
        """The axis of keys grid.<name>_start<unit>, _stop<unit> and _step<unit>."""
        start, stop, step = (f"grid.{name}_{e}{unit}" for e in ("start", "stop", "step"))
        if v[stop] < v[start]:
            raise _err(path, line(stop), f"{stop}: must be >= {start}")
        try:
            return axis(v[start], v[stop], v[step])
        except ValueError as exc:
            raise _err(path, line(step), f"{step}: {exc}") from None

    distances = grid_axis("d")
    if v["grid.d_append"] is not None:
        distances.append(v["grid.d_append"])
    angles_deg = grid_axis("angle", "_deg")
    combos = len(distances) * len(angles_deg) ** 2
    if combos > MAX_POINTS:
        grid = f"{len(distances)} distances x {len(angles_deg)}^2 angles = {combos}"
        message = f"grid.angle_step_deg: {grid} combinations, more than {MAX_POINTS}"
        raise _err(path, line("grid.angle_step_deg"), message)
    if any(a > v["optics.fov_deg"] for a in angles_deg):
        message = "grid angles must not exceed optics.fov_deg"
        raise _err(path, line("grid.angle_stop_deg"), message)

    food, budget = v["abc.food_count"], v["abc.max_evaluations"]
    if budget < food:
        message = f"abc.max_evaluations: must be >= abc.food_count ({food}), got {budget}"
        raise _err(path, line("abc.max_evaluations"), message)

    noise = v["noma.noise_variance_w"]
    return RunConfig(
        tx=tx,
        params=VlcParams(
            pd_area=v["optics.pd_area_m2"],
            refractive_index=v["optics.refractive_index"],
            filter_gain=v["optics.filter_gain"],
            fov=math.radians(v["optics.fov_deg"]),
            semi_angle=math.radians(v["optics.semi_angle_deg"]),
        ),
        p_max=v["noma.p_max_w"],
        bandwidth=v["noma.bandwidth_hz"],
        noise_variance=noise,
        rate_model=v["noma.rate_model"],
        distances=tuple(distances),
        angles_deg=tuple(angles_deg),
        dedup_resolution=v["grid.dedup_resolution"],
        abc_food_count=food,
        abc_max_evaluations=budget,
        abc_limit=v["abc.limit"],
        seed=v["seed"],
        derive_noise_variance=v["derive.noise_variance_w"] or noise,
        derive_above_ref=v["derive.above_ref"],
        walk_h1=v["walk.h1"],
        walk_points=tuple(walk_points),
    )


def load_config(path) -> RunConfig:
    """Read, parse, and digest one configuration file.

    The digest is the hex SHA-256 of the file's bytes, taken with the
    interpreter's builtin module (``_sha256`` to 3.11, ``_sha2`` from
    3.12), as random.py does: hashlib would load OpenSSL's libcrypto for
    the same digest, 3.3 MB resident and ~4 ms on x86-64 Linux.  hashlib
    serves only an interpreter built without its builtin hashes.
    """
    from dataclasses import replace

    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256

    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read config: {exc}")
    cfg = parse_config_text(decode_text(data, p), path=str(p))
    return replace(cfg, digest=sha256(data).hexdigest())
