"""The names the benchmark reads from aqcc still exist where it looks for them.

The tracer finds each target through ``__dict__`` at install time and
raises on a missing one, so deleting or renaming a traced function would
break every benchmark run.  This test loads the tracer by path, without
importing the benchmark package, and repeats that lookup.  The workloads
call aqcc, aqcc.selftest and aqcc.errors by attribute; their source is
read, not imported, and every such attribute is resolved.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from aqcc.gf import FiniteField

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve_through_dict():
    tracer = load_tracer()
    tracer.aqcc_modules()  # imports every aqcc module, as installing does
    missing = []
    for name, (modname, path, _) in tracer.SPAN_TARGETS.items():
        owner = sys.modules[modname]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(name)
    assert missing == []


def test_scalar_methods_are_defined_on_the_field():
    tracer = load_tracer()
    assert [m for m in tracer.SCALAR_METHODS if m not in FiniteField.__dict__] == []


def workload_attributes():
    """(module, attribute) for every name.attr in workloads.py whose name
    the file binds to an aqcc module by ``import aqcc`` or ``from aqcc
    import ...``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name == "aqcc"})
        elif isinstance(node, ast.ImportFrom) and node.module == "aqcc":
            modules.update({a.asname or a.name: f"aqcc.{a.name}" for a in node.names})
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


def test_workload_attributes_resolve():
    found = workload_attributes()
    assert {mod for mod, _ in found} == {"aqcc", "aqcc.selftest", "aqcc.errors"}
    missing = [f"{mod}.{attr}" for mod, attr in found
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
