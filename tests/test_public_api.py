"""Every exported name resolves, so a deleted function cannot linger in an export list.

The package exports each module's ``__all__`` and nothing keeps a second list.
"""

import ast
import importlib
import pickle
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest

import hotlanes

ROOT = Path(__file__).parents[1]
# __main__ runs the CLI on import, and cli defines no __all__.
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(hotlanes.__path__) if m.name not in ("__main__", "cli")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hotlanes.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"hotlanes.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_each_module_all(name):
    module = importlib.import_module(f"hotlanes.{name}")
    differ = [attr for attr in module.__all__
              if getattr(hotlanes, attr, None) is not getattr(module, attr)]
    assert not differ, f"hotlanes does not export hotlanes.{name}'s {differ}"


def test_package_star_import():
    namespace = {}
    exec("from hotlanes import *", namespace)
    assert {"run", "apply_overrides", "csv_rows", "ScenarioConfig", "HotGridlockError"} <= set(namespace)
    # apply_overrides is the one config loader and csv_rows the one record writer
    assert not {"preset", "write_csv"} & set(namespace)
    assert not hasattr(hotlanes, "preset") and not hasattr(hotlanes, "write_csv")


def test_no_module_imports_inside_a_function():
    """Imports sit at module level, so an import cycle cannot hide in a function body."""
    found = []
    for path in sorted(Path(hotlanes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside a function at {found}"


def test_names_the_benchmark_calls_resolve():
    """Every hotlanes attribute the benchmark's workloads read exists, so a deletion fails here."""
    path = ROOT / "benchmark" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "hotlanes"
               for alias in node.names}
    assert {"scenario", "bathtub", "presets", "cli"} <= set(modules)
    read = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = sorted(f"{module}.{attr}" for module, attr in read
                     if not hasattr(importlib.import_module(f"hotlanes.{module}"), attr))
    assert read and not missing, f"benchmark/workloads.py reads undefined {missing}"
    assert callable(hotlanes.ScenarioConfig.a1_warnings)


SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tools").rglob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_sources_parse_under_the_oldest_supported_python(path):
    """pyproject.toml declares requires-python >= 3.10, so no module may use newer syntax."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# Results that check nothing are NamedTuples, like SimulationRecord; a type that checks its
# fields is a dataclass.
RESULT_FIELDS = {
    "EquilibriumPrediction": ("p0", "omega0", "omega1", "delta2_rate", "regime"),
    "MaxOutflowAnalysis": ("rho_tot", "g_c", "max_outflow", "argmax_lo", "argmax_hi",
                           "feasible_lo", "feasible_hi", "a1_applicable"),
    "LaneMetrics": ("total_delay", "served", "initiated", "mean_travel_time"),
    "Metrics": ("hot", "gp", "max_omega", "revenue", "records"),
    "ComparisonResult": ("hov", "hot"),
}
# the repr of compare_hov_hot(apply_overrides(None, "constant", [])), as the frozen dataclasses printed it
CONSTANT_COMPARISON_REPR = (
    "ComparisonResult(hov=Metrics(hot=LaneMetrics(total_delay=49.49985983761024,"
    " served=989.9944444461912, initiated=999.9944444461896,"
    " mean_travel_time=0.05000013900613428), gp=LaneMetrics(total_delay=6092.035797803164,"
    " served=1864.9266468749247, initiated=4299.976111115581,"
    " mean_travel_time=3.2666356116534914), max_omega=1.2944907844146376, revenue=0.0,"
    " records=18001), hot=Metrics(hot=LaneMetrics(total_delay=103.17113356568292,"
    " served=2045.2382117695188, initiated=2069.0051681204322,"
    " mean_travel_time=0.0504445560287182), gp=LaneMetrics(total_delay=3899.486901821477,"
    " served=1864.9162765045544, initiated=3230.9653874327773,"
    " mean_travel_time=2.09097156314725), max_omega=0.7215881856338551,"
    " revenue=154444.73890629777, records=18001))"
)


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_results_are_named_tuples(name):
    cls = getattr(hotlanes, name)
    assert issubclass(cls, tuple) and cls._fields == RESULT_FIELDS[name]


def _short(name):
    return replace(hotlanes.apply_overrides(None, name, []), horizon_h=0.05)


def _stats():
    stats = hotlanes.SaturationStats()
    hotlanes.run(_short("constant"), stats)
    return stats


# Each public result, built from fixed inputs.  EquilibriumPrediction comes from the constant
# preset: on triangular-gridlock its gap lines are NaN, and NaN compares unequal to itself.
VALUES = {
    "Metrics": lambda: hotlanes.metrics(hotlanes.run(_short("constant")), 5.0),
    "ComparisonResult": lambda: hotlanes.compare_hov_hot(_short("constant")),
    "EquilibriumPrediction": lambda: hotlanes.constant_equilibrium(
        hotlanes.apply_overrides(None, "constant", [])),
    "LinearizedSystem": lambda: hotlanes.loop_matrix(
        hotlanes.apply_overrides(None, "constant", []), 0.0, 0.0, 0.5),
    "MaxOutflowAnalysis": lambda: hotlanes.max_outflow_cases(
        hotlanes.apply_overrides(None, "triangular-gridlock", []), 60.0),
    "SimulationRecord": lambda: hotlanes.run(_short("constant-logit"))[-1],
    "SaturationStats": _stats,
    "ScenarioConfig": lambda: hotlanes.apply_overrides(None, "trapezoid", []),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_results_are_values(name):
    """Two calls with the same inputs give equal results, and a result survives a pickle."""
    first, second = VALUES[name](), VALUES[name]()
    assert type(first) is getattr(hotlanes, name)
    assert first == second
    assert pickle.loads(pickle.dumps(first)) == first


def test_comparison_repr_is_unchanged():
    result = hotlanes.compare_hov_hot(hotlanes.apply_overrides(None, "constant", []))
    assert repr(result) == CONSTANT_COMPARISON_REPR
