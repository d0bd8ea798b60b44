"""Value rules: the one range check of every number the program takes.

A rule is a (test, text) pair: POSITIVE, at_least(bound) or
one_of(choices).  Config and model files name a rule per key
(``config._KEYS``, ``modelio._MODEL_KEYS``) and ``config.check_value``
applies it at ``file:line``; the value objects, the scalar allocators
and the CLI's own flags apply it through check.  This module imports
nothing of the package, so every other module may import it.
"""

from __future__ import annotations

import math

__all__ = ["REQUIRED", "POSITIVE", "at_least", "one_of", "check"]

REQUIRED = object()  # the default of a key that a file must give
POSITIVE = (lambda v: v > 0, "> 0")


def at_least(bound) -> tuple:
    """The rule of a value that must be >= bound."""
    return (lambda v: v >= bound, f">= {bound}")


def one_of(choices) -> tuple:
    """The rule of a value that must be one of ``choices``."""
    return (choices.__contains__, "one of " + ", ".join(map(repr, choices)))


def check(name: str, value: float, rule: tuple = POSITIVE) -> float:
    """value, if it is finite and passes ``rule``; else a ValueError
    naming ``name``, the rule and the value."""
    if not (math.isfinite(value) and rule[0](value)):
        raise ValueError(f"{name} must be finite and {rule[1]}, got {value}")
    return value
