"""Flat-text persistence for allocation models and tabular outputs.

Model files hold one ``key = value`` per line plus ``#``-prefixed
provenance comments.  key_value_lines builds every such line (model
files, provenance headers, the ``pairs-stats`` report).  _MODEL_KEYS
declares a model file's nine keys in the config's table form, so
``config.read_key_values`` and ``config.check_entries`` reject a
repeated, unknown or missing key and a bad value at ``file:line`` as in
a config file.  Tabular outputs are comma-separated UTF-8 with a
mandatory header row; every float is written in scientific notation
with nine significant digits so files are byte-stable across runs and
platforms.  Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from .allocate import EfopaModel, MuMode
from .config import (POSITIVE, REQUIRED, at_least, check_entries, decode_text, one_of,
                     read_key_values)
from .expfit import ExpFitCoefficients

__all__ = [
    "format_float",
    "key_value_lines",
    "provenance_lines",
    "atomic_write_text",
    "save_model",
    "load_model",
]

# key -> (type, rule, default) of every model key, in file order
_MODEL_KEYS = {
    **dict.fromkeys("abcd", (float, None, REQUIRED)),
    **dict.fromkeys(("h_ref", "p_ref", "h0"), (float, POSITIVE, REQUIRED)),
    "mu_mode": (str, one_of(tuple(m.value for m in MuMode)), REQUIRED),
    "clamp_floor": (float, at_least(0), REQUIRED),
}


def format_float(x: float) -> str:
    """Scientific notation, nine significant digits, locale-free; the
    format spells infinities ``inf`` and ``-inf``."""
    return f"{float(x):.8e}"


def key_value_lines(values: Dict, prefix: str = "") -> list:
    """One ``key = value`` line per item, floats through format_float and
    everything else as str; ``prefix`` ``"# "`` makes comment lines."""
    return [
        f"{prefix}{key} = {format_float(v) if isinstance(v, float) else v}"
        for key, v in values.items()
    ]


def provenance_lines(
    tool_version: str, config_digest: str, seed, extra: Optional[Dict] = None
) -> list:
    """Header comments embedded in every output file."""
    head = {"tool_version": tool_version, "config_digest": config_digest, "seed": seed}
    return key_value_lines(head, "# ") + key_value_lines(extra or {}, "# ")


def atomic_write_text(path, text: str):
    """Write the full document, then rename into place, with the mode
    open() gives a new file under the process's umask: mkstemp's 0600
    would leave every output readable by its owner alone."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)  # the one way to read it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(path, model: EfopaModel, provenance: Optional[Dict] = None):
    """Persist a model as flat text with optional provenance comments."""
    co = model.coefficients
    numbers = (*co.as_tuple(), model.h_ref, model.p_ref, model.h0)
    values = dict(zip(_MODEL_KEYS, map(float, numbers)))
    values.update(mu_mode=model.mu_mode.value, clamp_floor=float(model.clamp_floor))
    lines = key_value_lines(provenance or {}, "# ") + key_value_lines(values)
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path) -> EfopaModel:
    """Read a model file written by save_model: each key of _MODEL_KEYS
    exactly once and no other key."""
    entries = read_key_values(decode_text(Path(path).read_bytes(), path), str(path))
    value = check_entries(entries, _MODEL_KEYS, path, what="model field")
    return EfopaModel(
        coefficients=ExpFitCoefficients(*(value[k] for k in "abcd")),
        h_ref=value["h_ref"],
        p_ref=value["p_ref"],
        h0=value["h0"],
        mu_mode=MuMode(value["mu_mode"]),
        clamp_floor=value["clamp_floor"],
    )
