"""The benchmark's tracer wraps package functions by name; a rename or a
deletion there should fail the package's own tests, not only a traced run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves_in_the_package():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = []
    for layer, targets in spans.LAYERS.items():
        for modname, attr in targets:
            obj = importlib.import_module(f"gaudin.{modname}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}: gaudin.{modname}.{attr}")
    assert not missing, missing
