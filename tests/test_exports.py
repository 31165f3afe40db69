"""Every name a bondlab module exports in ``__all__`` resolves on it, and
every public name of ``conftest.py`` is used by some test module.

``bondlab.cli`` declares no ``__all__``, so it has nothing to check.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bondlab

MODULES = ["bondlab"] + [f"bondlab.{info.name}" for info in pkgutil.iter_modules(bondlab.__path__)]
TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], name


def test_every_public_conftest_name_is_used():
    # A helper only conftest.py itself reads is private; pytest's hooks are
    # called by pytest.
    public = set()
    for node in ast.parse((TESTS / "conftest.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            public.update(t.id for t in targets if isinstance(t, ast.Name))
    public = {name for name in public if not name.startswith(("_", "pytest_"))}
    used = set()
    for path in TESTS.glob("test_*.py"):
        used.update(node.id for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Name))
    assert sorted(public - used) == []
