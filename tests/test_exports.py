"""Every name a vlcfair submodule exports in ``__all__`` exists.

Callers such as ``perfbench/workloads.py`` reach the program through these
exports, so a deleted function must take its ``__all__`` entry with it.
"""

import importlib
import pkgutil

import pytest

import vlcfair

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(vlcfair.__path__, prefix="vlcfair.")
)


def test_submodules_found():
    assert "vlcfair.channel" in SUBMODULES and "vlcfair.stats" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
