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
import sys
from pathlib import Path

import thermalops
import thermalops.cli  # noqa: F401  (imports every layer, as bench/run.py does)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
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


def test_the_quickstart_reads_existing_attributes_of_what_it_gets_back(monkeypatch):
    # ``tmap.quantum`` and the like: an attribute that the quickstart reads
    # off an object a package call returned, which the name checks above miss
    quickstart = bench_function("workloads.py", "run_quickstart")
    made_by = {  # variable -> the package call whose result it holds
        target.id: node.value.func.attr
        for node in ast.walk(quickstart)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and isinstance(node.value.func.value, ast.Name)
        and node.value.func.value.id == "to"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    reads = {
        (n.value.id, n.attr)
        for n in ast.walk(quickstart)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in made_by
    }
    expected = {("tmap", "quantum"), ("report", "W"), ("stats", "mean"), ("stats", "variance")}
    assert expected | {("dist", "mean"), ("dist", "variance")} <= reads

    returned = {}

    def recording(name):
        call = getattr(thermalops, name)

        def recorded(*args, **kwargs):
            out = call(*args, **kwargs)
            returned.setdefault(name, []).append(out)
            return out

        return recorded

    for name in {made_by[var] for var, _ in reads}:
        monkeypatch.setattr(thermalops, name, recording(name))
    workloads = bench_module("workloads")
    for engine, config in [
        (workloads.OTTO, (1.0, 0.7, 1.0, 0.5, 1.0, 1.0)),
        (workloads.THREE_STROKE, (0.3, 1.0, 0.5, 1.0, 1.0)),
    ]:
        workloads.run_quickstart(workloads.Quickstart(engine, config, 3))
    for var, attr in sorted(reads):
        assert returned[made_by[var]], made_by[var]
        for obj in returned[made_by[var]]:
            assert hasattr(obj, attr), f"{var}.{attr}"
