"""Every name a bondlab module exports in ``__all__`` resolves on it.

``bondlab.cli`` declares no ``__all__``, so it has nothing to check.
"""

import importlib
import pkgutil

import pytest

import bondlab

MODULES = ["bondlab"] + [f"bondlab.{info.name}" for info in pkgutil.iter_modules(bondlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], name
