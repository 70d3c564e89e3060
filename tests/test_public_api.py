"""Every exported name resolves, so a deleted function cannot linger in an export list."""

import importlib
import pkgutil

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
