"""Every name a module lists in ``__all__`` resolves.

A stale entry breaks only ``from module import *`` at a user's site, so
nothing else in the suite would notice one.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names() -> list[str]:
    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__,
                                                    "repro."))


@pytest.mark.parametrize("name", _module_names())
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
