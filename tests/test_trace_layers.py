"""The benchmark's tracer wraps package functions by name; a rename or a
deletion there should fail the package's own tests, not only a traced run."""

import importlib
import pkgutil
import sys
from pathlib import Path

import gaudin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans.LAYERS


def test_every_traced_layer_resolves_in_the_package():
    missing = []
    for layer, targets in _layers().items():
        for modname, attr in targets:
            obj = importlib.import_module(f"gaudin.{modname}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}: gaudin.{modname}.{attr}")
    assert not missing, missing


def test_traced_functions_are_bound_under_their_traced_names():
    """The tracer replaces a function only where a module binds it under the
    traced name: an aliased import, such as `series_by_contour as
    series_at_infinity`, would call the unwrapped function and its time
    would silently drop out of the layer."""
    traced = {}
    for targets in _layers().values():
        for modname, attr in targets:
            if "." not in attr:
                fn = getattr(importlib.import_module(f"gaudin.{modname}"), attr)
                traced[id(fn)] = attr
    modules = [gaudin] + [importlib.import_module(f"gaudin.{info.name}")
                          for info in pkgutil.iter_modules(gaudin.__path__)
                          if info.name != "__main__"]
    aliased = [f"{mod.__name__}.{name} is {traced[id(obj)]}"
               for mod in modules for name, obj in vars(mod).items()
               if id(obj) in traced and name != traced[id(obj)]]
    assert not aliased, aliased
