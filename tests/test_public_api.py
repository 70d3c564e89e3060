"""Every exported name resolves, so a deleted function cannot linger in an export list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hotlanes

# __main__ runs the CLI on import, and cli defines no __all__.
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(hotlanes.__path__) if m.name not in ("__main__", "cli")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hotlanes.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"hotlanes.{name}.__all__ names undefined {missing}"


def test_package_star_import():
    namespace = {}
    exec("from hotlanes import *", namespace)
    assert {"run", "preset", "ScenarioConfig", "HotGridlockError"} <= set(namespace)


def test_no_module_imports_inside_a_function():
    """Imports sit at module level, so an import cycle cannot hide in a function body."""
    found = []
    for path in sorted(Path(hotlanes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside a function at {found}"
