"""The benchmark's tracer wraps package functions by name; a rename or a
deletion there should fail the package's own tests, not only a traced run."""

import importlib
import pkgutil
import sys
from pathlib import Path

import gaudin
from conftest import _clear_shared_caches

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


# layers that `run_pipeline` does not call: problems are loaded before it,
# and the family's values are read by Horner passes of their own
NOT_CALLED_BY_THE_PIPELINE = {"harness_cli.load", "bethe_algebra.eval",
                              "diffop_ring.rf_eval"}
FLOATING_PROBLEM = {"N": 1, "partitions": [[1, 0], [2, 0], [1, 0]],
                    "l": [2], "z": [0.0, [1.5, 0.5], -2.25],
                    "solver": {"seed": 0}}


def test_every_other_traced_layer_is_called_by_the_pipeline():
    """A layer the pipeline stops calling reads 0 s in every traced run, and
    its time moves silently to its parent: a universal operator that went
    round `row_determinant` would zero `row_determinant_s`.  Exact and
    floating sites both go through every layer but three."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    from gaudin import harness_cli
    loaded = [harness_cli.load_problem(p)
              for p in (harness_cli.SELFTEST_PROBLEM, FLOATING_PROBLEM)]
    # an earlier run of these shapes would leave their determinants and
    # subspaces shared, and the traced runs would not take them
    _clear_shared_caches()
    with spans.Tracer() as tracer:
        for problem, config, options in loaded:
            # looked up here, where the tracer has wrapped it
            harness_cli.run_pipeline(problem, config, **options)
    uncalled = [layer for layer, (calls, _, _) in tracer.layer_totals().items()
                if not calls and layer not in NOT_CALLED_BY_THE_PIPELINE]
    assert not uncalled, uncalled
