"""Spans around the layer functions that `run_pipeline` calls.

The tracer replaces each layer function, wherever a `gaudin` module or class
binds it, with a wrapper that records a span: name, start, end, parent span
and instance id.  The package source is not edited; `restore()` puts every
original back.  Spans stay in memory until `dump()` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# metric prefix -> (module, attribute) of every function timed under it.
# A dotted attribute names a method, which is wrapped on its class.
LAYERS = {
    "harness_cli.load": [("harness_cli", "load_problem")],
    "harness_cli.pipeline": [("harness_cli", "run_pipeline")],
    "repr_core.build": [("harness_cli", "build_modules")],
    "repr_core.singular": [("repr_core", "weight_and_singular_subspace")],
    "bethe_algebra.universal_operator": [("bethe_algebra", "universal_operator")],
    "bethe_algebra.restrict": [("bethe_algebra", "restrict_family")],
    "bethe_algebra.selfcheck": [("bethe_algebra", "algebra_selfcheck")],
    "bethe_algebra.eval": [("bethe_algebra", "BetheOperatorFamily.eval")],
    "diffop_ring.row_determinant": [("diffop_ring", "row_determinant")],
    "diffop_ring.rf_eval": [("diffop_ring", "RFMatrix.eval")],
    "master.orbit_search": [("master", "find_critical_orbits")],
    "kernels.newton": [("kernels", "newton_single"),
                       ("kernels", "newton_longdouble")],
    "master.scalar": [("master", name) for name in (
        "master_operator_at", "master_coefficients", "series_by_contour",
        "scalar_coefficient_values", "factored_pole_data",
        "hessian_determinant", "try_rationalize_orbit", "group_polynomials")],
    "weight_function.bethe_vector": [("weight_function", "bethe_vector")],
    "wronski_schubert.kernel": [("wronski_schubert", "solve_h_tuple"),
                                ("wronski_schubert", "kernel_residuals")],
    "wronski_schubert.identity": [("wronski_schubert",
                                   "verify_wronskian_identities"),
                                  ("wronski_schubert", "schubert_incidence")],
}

# `run_pipeline`'s self time is the work done in its own body: the
# eigenvalue-equation loops and the Gram check.
METRIC_STEM = {"harness_cli.pipeline": "harness_cli.pipeline_self"}


def timed_metric_names():
    """Per-layer metric names for every timed layer: self time, calls, errors."""
    names = []
    for layer in LAYERS:
        stem = METRIC_STEM.get(layer, layer)
        names += [f"{stem}_s", f"{layer}_calls", f"{layer}_errors"]
    return names


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or -1, instance, raised]
        self.spans = []
        self.counters = Counter()
        self.instance = None
        self._stack = []
        self._saved = []
        self._default_tol = None
        self._tol_residual = None

    # ------------------------------------------------------------ patching

    def install(self):
        """Wrap every layer function in every `gaudin` binding of it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from gaudin.master import SolverConfig
        self._default_tol = SolverConfig().tol_residual
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "gaudin" or name.startswith("gaudin."))
                   and m is not None]
        try:
            for layer, targets in LAYERS.items():
                for modname, attr in targets:
                    mod = importlib.import_module(f"gaudin.{modname}")
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[meth]
                        self._replace(cls, meth, orig, layer)
                        continue
                    orig = getattr(mod, attr)
                    for m in modules:
                        if m.__dict__.get(attr) is orig:
                            self._replace(m, attr, orig, layer)
        except BaseException:
            self.restore()
            raise

    def _replace(self, owner, attr, orig, layer):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(layer, orig))

    def restore(self):
        """Put back every original; safe to call more than once."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # --------------------------------------------------------------- spans

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.instance, False]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            if layer == "master.orbit_search":
                tracer._note_solver(args, kwargs)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            tracer._count(layer, args, kwargs, out)
            return out

        return functools.wraps(fn)(wrapper)

    def _note_solver(self, args, kwargs):
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        self._tol_residual = (config.tol_residual if config is not None
                              else self._default_tol)

    def _count(self, layer, args, kwargs, out):
        if layer == "kernels.newton":
            # a start counts as converged when find_critical_orbits would
            # accept its residual
            if self._tol_residual is not None and out[2] <= self._tol_residual:
                self.counters["kernels.newton_converged"] += 1
        elif layer == "master.orbit_search":
            expected = kwargs.get("expected", args[2] if len(args) > 2 else None)
            self.counters["master.orbits_found"] += len(out)
            self.counters["master.orbits_expected"] += expected or 0

    # ---------------------------------------------------------- aggregates

    def layer_totals(self, scales=None):
        """{layer: (calls, errors, self seconds)} over every recorded span.

        With `scales`, a span's self time is multiplied by the factor of its
        instance id (1 for ids not in it).
        """
        scales = scales or {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        errors = Counter()
        self_s = defaultdict(float)
        for k, (name, start, end, _, inst, raised) in enumerate(self.spans):
            calls[name] += 1
            errors[name] += raised
            self_s[name] += ((end - start) - child[k]) * scales.get(inst, 1.0)
        return {layer: (calls[layer], errors[layer], self_s[layer])
                for layer in LAYERS}

    def root_seconds(self, layer):
        """Summed duration of the top-level spans of one layer."""
        return sum(end - start for name, start, end, parent, _, _ in self.spans
                   if parent < 0 and name == layer)

    def dump(self, path):
        """Write the spans, one JSON array per line, with times relative to
        the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent",
                                 "instance", "raised"]) + "\n")
            for name, start, end, parent, inst, raised in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent, inst,
                                     raised]) + "\n")
