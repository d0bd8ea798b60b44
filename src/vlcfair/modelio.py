"""Flat-text persistence for allocation models and tabular outputs.

Model files hold one ``key = value`` per line plus ``#``-prefixed
provenance comments.  They are read by ``config.read_key_values``, the
reader config files use, so a repeated key is rejected the same way;
an unknown key or a missing one is rejected here, and EfopaModel
rejects values out of range.  Tabular outputs are comma-separated UTF-8
with a mandatory header row; every float is written in scientific
notation with nine significant digits so files are byte-stable across
runs and platforms.  Writes go through a temporary file and an atomic
rename.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from .allocate import EfopaModel, MuMode
from .config import read_key_values
from .expfit import ExpFitCoefficients

__all__ = [
    "format_float",
    "provenance_lines",
    "atomic_write_text",
    "save_model",
    "load_model",
]

_MODEL_KEYS = ("a", "b", "c", "d", "h_ref", "p_ref", "h0", "mu_mode", "clamp_floor")


def format_float(x: float) -> str:
    """Scientific notation, nine significant digits, locale-free; the
    format spells infinities ``inf`` and ``-inf``."""
    return f"{float(x):.8e}"


def provenance_lines(
    tool_version: str, config_digest: str, seed, extra: Optional[Dict] = None
) -> list:
    """Header comments embedded in every output file."""
    lines = [
        f"# tool_version = {tool_version}",
        f"# config_digest = {config_digest}",
        f"# seed = {seed}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"# {key} = {value}")
    return lines


def atomic_write_text(path, text: str):
    """Write the full document, then rename into place."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(path, model: EfopaModel, provenance: Optional[Dict] = None):
    """Persist a model as flat text with optional provenance comments."""
    lines = []
    for key, value in (provenance or {}).items():
        lines.append(f"# {key} = {value}")
    co = model.coefficients
    values = {
        "a": format_float(co.a),
        "b": format_float(co.b),
        "c": format_float(co.c),
        "d": format_float(co.d),
        "h_ref": format_float(model.h_ref),
        "p_ref": format_float(model.p_ref),
        "h0": format_float(model.h0),
        "mu_mode": model.mu_mode.value,
        "clamp_floor": format_float(model.clamp_floor),
    }
    for key in _MODEL_KEYS:
        lines.append(f"{key} = {values[key]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path) -> EfopaModel:
    """Read a model file written by save_model: each key of _MODEL_KEYS
    exactly once and no other key."""
    entries = read_key_values(Path(path).read_text(encoding="utf-8"), str(path))
    for key, (_, lineno) in entries.items():
        if key not in _MODEL_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown model field {key!r}")
    missing = [k for k in _MODEL_KEYS if k not in entries]
    if missing:
        raise ValueError(f"{path}: missing model fields {missing}")
    value = {key: v for key, (v, _) in entries.items()}
    try:
        mu_mode = MuMode(value["mu_mode"])
    except ValueError:
        raise ValueError(f"{path}: unknown mu_mode {value['mu_mode']!r}")
    try:
        return EfopaModel(
            coefficients=ExpFitCoefficients(*(float(value[k]) for k in "abcd")),
            h_ref=float(value["h_ref"]),
            p_ref=float(value["p_ref"]),
            h0=float(value["h0"]),
            mu_mode=mu_mode,
            clamp_floor=float(value["clamp_floor"]),
        )
    except ValueError as exc:  # a field that is not a number or out of range
        raise ValueError(f"{path}: {exc}") from None
