"""The names perfbench/tracer.py patches still exist where it looks for them.

The tracer finds each target through ``__dict__`` at install time and
raises on a missing one, so deleting or renaming a traced function would
break every benchmark run.  This test loads the tracer by path, without
importing the benchmark package, and repeats that lookup.
"""

import importlib.util
import sys
from pathlib import Path

from aqcc.gf import FiniteField

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
