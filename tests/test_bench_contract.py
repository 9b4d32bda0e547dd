"""The names the benchmark under ``bench/`` reads from the package.

The benchmark is kept apart from the package, so a rename in ``src/`` shows
only when the benchmark runs.  ``bench/run.py`` indexes the tracer's summary
by ``<layer>.<function>.calls`` and ``<layer>.<function>.self_s`` and stops
with a ``KeyError`` once such a function is gone or private.  These tests
read the names from the benchmark's source and look each one up here.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import thermalops
import thermalops.cli  # noqa: F401  (imports every layer, as bench/run.py does)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_function(filename: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((BENCH / filename).read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_every_traced_function_is_a_public_function_of_its_layer():
    tracer = bench_module("tracer")
    names = set(re.findall(r"(\w+)\.(\w+)\.(?:calls|self_s)", (BENCH / "run.py").read_text()))
    assert len(names) >= 17, names  # the summary keys were found
    for layer, function in sorted(names):
        assert layer in tracer.LAYERS, layer
        module = importlib.import_module(f"thermalops.{layer}")
        assert function in tracer.public_functions(module), f"{layer}.{function}"


def test_the_quickstart_and_the_closed_form_check_call_existing_names():
    quickstart = bench_function("workloads.py", "run_quickstart")
    names = {
        n.attr
        for n in ast.walk(quickstart)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "to"
    }
    assert {"OttoConfig", "work_moments", "intercycle_pcc"} <= names
    for name in sorted(names):
        assert hasattr(thermalops, name), name

    check = bench_function("checks.py", "_otto_closed_form_work")
    imports = [
        (n.module, alias.name)
        for n in ast.walk(check)
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
    ]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
