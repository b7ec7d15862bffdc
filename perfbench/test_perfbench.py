"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

hc, kernels = run.import_package()


def _cheap_instances():
    """The first two search instances: four-site chains, well under 1 s."""
    return [hc.load_problem(p) for p in workloads.generate("search", 0)[:2]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_loadable(name):
    a = workloads.generate(name, 7)
    assert a == workloads.generate(name, 7)
    assert a != workloads.generate(name, 8)
    for p in a:
        problem, _, _ = hc.load_problem(json.loads(json.dumps(p)))
        mu = oracle.infinity_weight(p["partitions"], p["l"])
        assert tuple(problem.infinity_weight) == mu
        assert oracle.dimensions(p["partitions"], mu)[2] > 0


def test_oracle_dimensions():
    # four spin-1/2 sites, weight (2,2): C(4,2) = 6 states, and
    # C(4,2) - C(4,1) = 2 copies of the irreducible
    assert oracle.dimensions([[1, 0]] * 4, (2, 2)) == (16, 6, 2)
    # the adjoint [2,1,0] of gl(3) appears twice in its own square
    assert oracle.dimensions([[2, 1, 0]] * 2, (3, 2, 1)) == (64, 6, 2)


def test_tail_percentile():
    assert run.tail_of([3.0, 1.0, 2.0]) == (3.0, "max")
    samples = list(range(40))
    assert run.tail_of(samples) == (29, "p75")


def test_traced_pass_counters_self_times_and_digests():
    loaded = _cheap_instances()
    plain = run.Pass(hc, loaded)
    tracer = spans.Tracer()
    with tracer:
        traced = run.Pass(hc, loaded, tracer)
    assert traced.digests() == plain.digests()
    assert None not in plain.digests()

    totals = tracer.layer_totals()
    c = tracer.counters
    calls = totals["kernels.newton"][0]
    assert 0 < c["kernels.newton_converged"] <= calls
    assert c["master.orbits_found"] <= c["kernels.newton_converged"]
    assert totals["harness_cli.pipeline"][0] == len(loaded)

    # self times add up to the traced wall time of the instances, and the
    # benchmark's own work between the spans is small
    self_sum = sum(s for _, _, s in totals.values())
    root = tracer.root_seconds("harness_cli.pipeline")
    assert self_sum == pytest.approx(root, rel=1e-9)
    wall = sum(traced.raw)
    assert root <= wall < root + 0.01 * len(loaded)


def _bindings():
    """Every gaudin module or class attribute that holds a function."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gaudin" or name.startswith("gaudin."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        out[(name, attr, meth)] = fn
    return out


def test_restore_after_an_instance_raises():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(AttributeError):
        with tracer:
            assert hc.run_pipeline is not before[("gaudin.harness_cli",
                                                  "run_pipeline")]
            hc.run_pipeline(None)
    assert _bindings() == before
    assert tracer.layer_totals()["harness_cli.pipeline"][:2] == (1, 1)
    # the package still works after the tracer is gone
    assert run.Pass(hc, _cheap_instances()[:1]).errors == [None]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
