import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import oracles
from gaudin import bethe_algebra, harness_cli, repr_core, wronski_schubert
from gaudin.bethe_algebra import restrict_family, universal_operator
from gaudin.errors import NotInvariant, SchemaError
from gaudin.linalg import SparseMatrix
from gaudin.harness_cli import (EIG_TOL, REPORT_SCHEMA, SELFTEST_PROBLEM,
                                default_j_max, emit_report, load_problem,
                                main, run_pipeline)
from gaudin.master import (CriticalOrbit, GaudinProblem, SolverConfig,
                           expected_orbit_count, factored_pole_data,
                           find_critical_orbits, master_coefficients,
                           master_operator_at, scalar_coefficient_values,
                           series_by_contour)
from gaudin.diffop_ring import Poly, RFMatrix
from gaudin.scalars import QI, format_scalar
from gaudin.weight_function import singular_residual

ANCHOR_JSON = {
    "N": 1,
    "partitions": [[1, 0], [1, 0]],
    "l": [1],
    "z": ["0", "1"],
    "solver": {"seed": 1},
}


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_problem_parses_site_forms():
    prob, config, options = load_problem({
        "N": 1, "partitions": [[1, 0], [1, 0]], "l": [1],
        "z": ["1/2", 3], "solver": {"seed": 9}, "j_max": 6,
    })
    assert prob.z == (Fraction(1, 2), Fraction(3))
    assert prob.mode == "exact"
    assert config.seed == 9
    assert options == {"j_max": 6}
    prob2, _, _ = load_problem({
        "N": 1, "partitions": [[1, 0], [1, 0]], "l": [1],
        "z": [[0.1, 0.2], 1.5],
    })
    assert prob2.mode == "numeric"
    assert prob2.z[0] == complex(0.1, 0.2)


def test_load_problem_rejects_malformed():
    with pytest.raises(SchemaError):
        load_problem({"N": 1, "partitions": [[1, 0]], "l": [1]})  # no z
    with pytest.raises(SchemaError):
        load_problem({"N": 1, "partitions": [[1, 0], [1, 0]], "l": [1],
                      "z": ["0", "1"], "surprise": True})
    with pytest.raises(SchemaError):
        load_problem({"N": 1, "partitions": [[1, 0], [1, 0]], "l": [1],
                      "z": [True, "1"]})
    with pytest.raises(SchemaError):   # repeated sites
        load_problem({"N": 1, "partitions": [[1, 0], [1, 0]], "l": [1],
                      "z": ["1", "1"]})
    with pytest.raises(SchemaError):   # not a partition
        load_problem({"N": 1, "partitions": [[0, 1], [1, 0]], "l": [1],
                      "z": ["0", "1"]})
    with pytest.raises(SchemaError):
        load_problem("/nonexistent/path.json")


# ROADMAP defect 9: one double critical point at t = (1 + i)/3
DEFECT9_JSON = {
    "N": 1, "partitions": [[1, 0], [2, 0], [3, 0]], "l": [1],
    "z": ["0", "1", ["0", "4/3"]],
}


def test_load_problem_reads_gaussian_rational_sites():
    prob, config, _ = load_problem(dict(DEFECT9_JSON))
    assert prob.mode == "exact"
    assert prob.z == (Fraction(0), Fraction(1), QI(0, Fraction(4, 3)))
    report = run_pipeline(prob, config, stage="solve")
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["problem"]["z"] == ["0", "1", ["0", "4/3"]]


def test_gaussian_rational_sites_verify_the_algebra_exactly():
    """A Gaussian-rational site keeps QI entries in B_i(u), which have no
    integer form; they pass through the integer-scaled algebra checks
    unscaled and the checks stay exact."""
    report = run_pipeline(*load_problem(dict(DEFECT9_JSON))[:2],
                          stage="verify")
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("algebra_commutativity", "algebra_gl_invariance",
                 "algebra_form_symmetry", "coefficient_triangularity"):
        assert checks[name]["status"] == "PASS", checks[name]


@pytest.mark.parametrize("N, partitions, l", [
    (1, [[1, 0], [1, 0]], [1]),              # critical point t = 0
    (2, [[2, 1, 0], [1, 0, 0]], [1, 1]),     # critical point (-i/2, i/4)
])
def test_critical_point_at_gaussian_rational_sites_verifies(N, partitions, l):
    """Sites i and -i: the Hessian squares Gaussian-rational differences,
    which once raised TypeError, and the kernel is found exactly over Q(i)."""
    report = run_pipeline(*load_problem({
        "N": N, "partitions": partitions, "l": l,
        "z": [["0", "1"], ["0", "-1"]]})[:2], stage="verify")
    assert report["summary"]["checks"] == 18
    assert report["summary"]["all_pass"], report["checks"]
    for check in report["checks"]:
        if check["name"].endswith(("kernel_residual", "wronskian_identities")):
            assert check["residual"] == 0.0, check


@pytest.mark.parametrize("N, partitions, l, point", [
    (1, [[1, 0], [1, 0]], [1], [(Fraction(0),)]),
    (2, [[2, 1, 0], [1, 0, 0]], [1, 1],
     [(QI(0, Fraction(-1, 2)),), (QI(0, Fraction(1, 4)),)]),
])
def test_spectra_at_gaussian_rational_sites_are_the_pencil_expansion(
        N, partitions, l, point):
    """The report renders the expansion of the exact pencil over Q(i), where
    a QI and a Fraction print differently, and the complex series composed
    over the same poles agrees with it to rounding."""
    problem, config, _ = load_problem({
        "N": N, "partitions": partitions, "l": l,
        "z": [["0", "1"], ["0", "-1"]]})
    report = run_pipeline(problem, config, stage="verify")
    j_max = report["derived"]["j_max"]
    _, want = master_coefficients(master_operator_at(problem, point), j_max)
    got = series_by_contour(factored_pole_data(problem, point), j_max)
    assert sorted(got) == sorted(want)
    for i in want:
        for g, w in zip(got[i], want[i], strict=True):
            assert abs(g - complex(w)) <= 1e-12 * max(1.0, abs(complex(w)))
    rendered = {str(i): [format_scalar(c) for c in want[i]] for i in want}
    assert [s["eigenvalues"] for s in report["spectra"]] == [rendered]
    assert report["spectra"][0]["exact_point"]


@pytest.mark.parametrize("site", [["0", 1.5], [0.5, "1"], ["1"],
                                  ["0", "1", "2"]])
def test_load_problem_rejects_malformed_site_pairs(site):
    with pytest.raises(SchemaError, match="does not match the schema"):
        load_problem(dict(DEFECT9_JSON, z=["0", "1", site]))


BAD_REPORTS = [
    {},
    {"format": "gaudin-report/0", "problem": {}, "backend": "numpy",
     "checks": [], "summary": {}},
    {"format": "gaudin-report/1", "problem": {}, "backend": 3,
     "checks": [{"name": "x", "status": "MAYBE"}], "summary": {}},
    {"format": "gaudin-report/1", "problem": {}, "backend": "numpy",
     "checks": [{"name": "x", "status": "PASS", "residual": "0"}],
     "summary": {"checks": 1}},
]


@pytest.mark.parametrize("report", BAD_REPORTS)
def test_checker_rejects_the_bad_reports_jsonschema_rejects(report):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, REPORT_SCHEMA)
    assert harness_cli._mismatch(REPORT_SCHEMA, report).startswith("$")


def _workload_problems():
    """The problems of seeds 0-2 of every benchmark workload."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    return [p for name in sorted(workloads.WORKLOADS) for seed in range(3)
            for p in workloads.generate(name, seed)]


# no integral float among them: the checker rejects 1.0 as an "integer",
# which jsonschema admits (test_float_valued_integers_are_the_one_divergence)
WRONG_VALUES = ["7", "", True, False, None, -1, 0, -2.5, 2.5, [], {}, [0.5],
                ["1"], [[1, 0]]]
BAD_SITES = [["1"], [0.5], ["0", "1", "2"], ["0", 1.5], [True, 1.0], [], {}]


def _paths(x, path=()):
    """The path of every value inside x, as tuples of keys and indices."""
    yield path
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(doc, rng):
    """A deep copy of a problem or report with one seeded change: a value
    of a wrong type, sign or size, a key left out or added, an array
    emptied, a `precision` or a site pair that is not in the schema."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_paths(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.choice(["value", "value", "drop", "extra", "empty",
                       "precision", "site"])
    if kind == "value":
        parent[path[-1]] = rng.choice(WRONG_VALUES)
    elif kind == "drop":
        del parent[path[-1]]
    elif kind == "extra":
        (parent if isinstance(parent, dict) else doc)["surprise"] = 1
    elif kind == "empty":
        parent[path[-1]] = [] if isinstance(parent[path[-1]], list) else {}
    elif kind == "precision":
        doc.setdefault("solver", {})["precision"] = rng.choice(
            ["quad", "", None, 1, "double", "longdouble"])
    elif isinstance(doc.get("z"), list) and doc["z"]:
        doc["z"][rng.randrange(len(doc["z"]))] = rng.choice(BAD_SITES)
    return doc


def _jsonschema_accepts(schema, doc):
    """The decision of `jsonschema.validate(doc, schema)`, from a validator
    whose schema is checked against the metaschema once, not per doc."""
    key = json.dumps(schema, sort_keys=True)
    if key not in _JSONSCHEMA_VALIDATORS:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        _JSONSCHEMA_VALIDATORS[key] = cls(schema)
    return _JSONSCHEMA_VALIDATORS[key].is_valid(doc)


_JSONSCHEMA_VALIDATORS = {}


def _decisions(schema, docs):
    """(#accepted, #rejected) by jsonschema, after asserting that the
    checker makes the same decision on every document."""
    accepted = 0
    for doc in docs:
        want = _jsonschema_accepts(schema, doc)
        why = harness_cli._mismatch(schema, doc)
        assert want == (why is None), (doc, why)
        accepted += want
    return accepted, len(docs) - accepted


# solver options at and around their bounds
SOLVER_EDGES = [("tol_residual", 0), ("tol_residual", 1e-300),
                ("tol_dedup", -0.0), ("tol_degenerate", float("nan")),
                ("tol_degenerate", float("inf")), ("pole_margin", 0),
                ("pole_margin", -1e-12), ("early_stop", 1),
                ("early_stop", False), ("precision", "longdouble"),
                ("starts", 0), ("max_iter", 0)]


def test_checker_decides_problems_as_jsonschema_does():
    """The benchmark problems of seeds 0-2 and five seeded mutations of
    each: the checker accepts and rejects the documents that jsonschema
    accepts and rejects."""
    rng = random.Random(0)
    problems = _workload_problems()
    docs = problems + [_mutated(p, rng) for p in problems for _ in range(5)]
    docs += [None, [], "problem", dict(ANCHOR_JSON, z=[]),
             dict(ANCHOR_JSON, partitions=[])]
    docs += [dict(ANCHOR_JSON, solver={key: value})
             for key, value in SOLVER_EDGES]
    accepted, rejected = _decisions(harness_cli.PROBLEM_SCHEMA, docs)
    assert accepted > len(problems) and rejected > 3 * len(problems)


def test_checker_decides_reports_as_jsonschema_does():
    """The reports of ANCHOR_JSON and DEFECT9_JSON, 50 seeded mutations of
    each and BAD_REPORTS."""
    rng = random.Random(1)
    reports = [json.loads(json.dumps(run_pipeline(*load_problem(doc)[:2])))
               for doc in (dict(ANCHOR_JSON), dict(DEFECT9_JSON))]
    docs = reports + BAD_REPORTS \
        + [_mutated(r, rng) for r in reports for _ in range(50)] \
        + [dict(reports[0], format=f) for f in ("gaudin-report/2", None,
                                                 ["gaudin-report/1"])]
    accepted, rejected = _decisions(REPORT_SCHEMA, docs)
    assert accepted > 2 and rejected > len(BAD_REPORTS) + 10


# each integer field of the problem schema at a float of integral value
FLOAT_INTEGERS = {
    "N": lambda d: d.update(N=1.0),
    "l[0]": lambda d: d["l"].__setitem__(0, 1.0),
    "partitions[0][0]": lambda d: d["partitions"][0].__setitem__(0, 1.0),
    "j_max": lambda d: d.update(j_max=3.0),
    "d_cap": lambda d: d.update(d_cap=5.0),
    "max_terms": lambda d: d.update(max_terms=100.0),
    "solver.seed": lambda d: d["solver"].update(seed=1.0),
    "solver.starts": lambda d: d["solver"].update(starts=40.0),
    "solver.max_iter": lambda d: d["solver"].update(max_iter=50.0),
}


def _float_integer_problem(field):
    doc = json.loads(json.dumps(ANCHOR_JSON))
    FLOAT_INTEGERS[field](doc)
    return doc


@pytest.mark.parametrize("field", sorted(FLOAT_INTEGERS))
def test_main_rejects_float_valued_integers(tmp_path, capsys, field):
    """A float of integral value in an integer field once passed the schema
    and ran `gaudin verify` to a TypeError traceback, exit 1 as if a check
    had failed (`l[0]` ran as an int); it is malformed input."""
    rc = main(["verify", "--problem",
               write_problem(tmp_path, _float_integer_problem(field))])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error" in captured.err and "is not of type integer" \
        in captured.err
    assert captured.out == ""


def test_float_valued_integers_are_the_one_divergence_from_jsonschema():
    """JSON Schema's "integer" admits 1.0; the checker's does not."""
    for field in FLOAT_INTEGERS:
        doc = _float_integer_problem(field)
        assert _jsonschema_accepts(harness_cli.PROBLEM_SCHEMA, doc), field
        assert "is not of type integer" in \
            harness_cli._mismatch(harness_cli.PROBLEM_SCHEMA, doc), field


@pytest.mark.parametrize("schema, error", [
    ({"type": "object", "patternProperties": {}}, "patternProperties"),
    ({"items": {"type": "array", "uniqueItems": True}}, "uniqueItems"),
    ({"anyOf": [{"type": "decimal"}]}, "decimal"),
    ({"properties": {"a": {"additionalProperties": {}}}},
     "additionalProperties"),
])
def test_a_schema_rule_the_checker_lacks_raises(schema, error):
    with pytest.raises(ValueError, match=error):
        harness_cli._check_schema(schema)


def test_run_pipeline_rejects_a_report_that_breaks_the_schema(
        tmp_path, capsys, monkeypatch):
    """A report that breaks its schema is a fault of the program: a
    RuntimeError with the path and the rule, which `gaudin verify` does not
    turn into an exit 2 input error."""
    monkeypatch.setattr(harness_cli.kernels, "backend_name", lambda: 3)
    prob, config, _ = load_problem(dict(ANCHOR_JSON))
    message = r"\$\.backend: 3 is not of type string"
    with pytest.raises(RuntimeError, match=message):
        run_pipeline(prob, config)
    with pytest.raises(RuntimeError, match=message):
        main(["verify", "--problem", write_problem(tmp_path, ANCHOR_JSON)])
    assert "input error" not in capsys.readouterr().err


def test_default_j_max():
    prob, _, _ = load_problem(dict(ANCHOR_JSON))
    assert default_j_max(prob) == 4


@pytest.mark.parametrize("j_max", [0, -2])
def test_run_pipeline_rejects_j_max_below_one(j_max):
    """0 once read as "unset" and ran with `default_j_max` instead."""
    prob, config, _ = load_problem(dict(ANCHOR_JSON))
    with pytest.raises(SchemaError):
        run_pipeline(prob, config, j_max=j_max, stage="solve")


def test_run_pipeline_report_is_valid_and_passes():
    prob, config, _ = load_problem(dict(ANCHOR_JSON))
    report = run_pipeline(prob, config)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["format"] == "gaudin-report/1"
    assert report["summary"]["all_pass"]
    assert report["summary"]["failed"] == 0
    names = [c["name"] for c in report["checks"]]
    for expected in ("algebra_commutativity", "first_coefficient",
                     "orbit_count", "orbit0.eigenvalue_equations",
                     "orbit0.norm_formula", "orbit0.wronskian_identities",
                     "orbit0.schubert_incidence", "gram_rank",
                     "completeness"):
        assert expected in names
    assert len(report["orbits"]) == 1
    assert report["derived"]["singular_dimension"] == 1
    assert report["derived"]["exponents"] == [2, 1]


def test_run_pipeline_longdouble_passes_every_check():
    prob, config, _ = load_problem(dict(SELFTEST_PROBLEM))
    config.precision = "longdouble"
    report = run_pipeline(prob, config)
    failing = [c["name"] for c in report["checks"] if c["status"] != "PASS"]
    assert failing == []
    assert len(report["orbits"]) == 1


def test_run_pipeline_deterministic_bytes():
    prob, config, _ = load_problem(dict(ANCHOR_JSON))
    r1 = run_pipeline(prob, config)
    prob2, config2, _ = load_problem(dict(ANCHOR_JSON))
    r2 = run_pipeline(prob2, config2)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_pipeline_deterministic_bytes_numeric():
    """Float sites: the orbit stays floating, so the series are composed in
    floating point and the eigenvalue equations use float evaluations."""
    payload = {"N": 1, "partitions": [[1, 0], [1, 0], [1, 0]], "l": [1],
               "z": [[0.0, 0.0], [1.25, 0.4], [-2.5, 0.0]],
               "solver": {"seed": 3}}
    reports = [run_pipeline(*load_problem(dict(payload))[:2])
               for _ in range(2)]
    assert reports[0]["problem"]["mode"] == "numeric"
    assert reports[0]["spectra"] and all(
        not s["exact_point"] for s in reports[0]["spectra"])
    assert reports[0]["summary"]["all_pass"]
    assert json.dumps(reports[0], sort_keys=True) == \
        json.dumps(reports[1], sort_keys=True)


def test_solve_stage_reports_orbits_only():
    prob, config, _ = load_problem(dict(ANCHOR_JSON))
    report = run_pipeline(prob, config, stage="solve")
    assert [c["name"] for c in report["checks"]] == ["orbit_count"]
    assert report["summary"]["all_pass"]


def test_orbit_count_fails_when_a_degenerate_orbit_makes_up_the_number(
        monkeypatch):
    """The 4-site spin-1/2 chain has dim Sing 2; one genuine orbit and one
    degenerate pseudo-orbit next to a site are not two critical points."""
    prob = GaudinProblem(1, [[1, 0]] * 4, [2], [Fraction(k) for k in range(4)])
    config = SolverConfig(seed=0)
    genuine = find_critical_orbits(prob, config, expected=2)[0]
    pseudo = CriticalOrbit(groups=((1e-4 + 0j, 1.5 + 0j),), residual=1e-11,
                           hessian_determinant=0j, degenerate=True, index=1)
    monkeypatch.setattr(harness_cli, "find_critical_orbits",
                        lambda *args, **kwargs: [genuine, pseudo])
    for stage in ("solve", "verify"):
        report = run_pipeline(prob, config, stage=stage)
        check = next(c for c in report["checks"] if c["name"] == "orbit_count")
        assert check["status"] == "FAIL"
        assert check["detail"] == "found 2, expected 2, 1 degenerate"


def test_emit_report_text(capsys):
    prob, config, _ = load_problem(dict(ANCHOR_JSON))
    report = run_pipeline(prob, config)
    emit_report(report, "text")
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# gaudin-report/1 backend=")
    assert any(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("# ") and "passed" in lines[-1]


def test_main_selftest_json(capsys):
    rc = main(["selftest", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["summary"]["all_pass"]


def test_main_verify_and_out_file(tmp_path, capsys):
    path = write_problem(tmp_path, ANCHOR_JSON)
    out = tmp_path / "report.json"
    rc = main(["verify", "--problem", path, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    saved = json.loads(out.read_text())
    jsonschema.validate(saved, REPORT_SCHEMA)
    assert saved["summary"]["all_pass"]


def test_main_solve_failure_exit_code(tmp_path, capsys):
    # two variables make the cleared critical system genuinely nonlinear,
    # so a single Newton iteration cannot reach the residual tolerance
    payload = {"N": 1, "partitions": [[2, 0], [2, 0]], "l": [2],
               "z": ["0", "1"], "solver": {"seed": 1, "max_iter": 1}}
    path = write_problem(tmp_path, payload)
    rc = main(["solve", "--problem", path])
    capsys.readouterr()
    assert rc == 1


def test_main_malformed_exit_code(tmp_path, capsys):
    path = write_problem(tmp_path, {"N": 1, "partitions": [[1, 0], [1, 0]],
                                    "l": [1], "z": ["1", "1"]})
    rc = main(["verify", "--problem", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "input error" in err


# JSON text of the sites, or a list of them that load_problem gets in a dict
NON_FINITE_SITES = {
    "nan": '["0", NaN]',
    "infinity": '["0", Infinity]',
    "minus_infinity": '[-Infinity, "1"]',
    "nan_imaginary_part": '["0", [1.5, NaN]]',
    "infinite_real_part": '["0", [Infinity, 0.5]]',
    "nan_in_a_dict": ["0", float("nan")],
}


def _non_finite_problem(tmp_path, z):
    """A problem file with the sites z as JSON text, or a dict with the list
    z."""
    if not isinstance(z, str):
        return {"N": 1, "partitions": [[1, 0], [1, 0]], "l": [1], "z": z}
    path = tmp_path / "problem.json"
    path.write_text('{"N": 1, "partitions": [[1, 0], [1, 0]], "l": [1], '
                    f'"z": {z}}}')
    return str(path)


@pytest.mark.parametrize("name", sorted(NON_FINITE_SITES))
def test_load_problem_rejects_non_finite_sites(tmp_path, name):
    """Python's json reads NaN and the infinities, and the schema's
    "number" admits them: a site there is malformed input.  Once NaN made
    the sample-point search loop forever and Infinity crashed the
    operator."""
    with pytest.raises(SchemaError, match="not finite"):
        load_problem(_non_finite_problem(tmp_path, NON_FINITE_SITES[name]))


@pytest.mark.parametrize("name", ["nan", "infinity"])
def test_main_non_finite_site_exit_code(tmp_path, capsys, name):
    rc = main(["verify", "--problem",
               _non_finite_problem(tmp_path, NON_FINITE_SITES[name])])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error" in captured.err and "not finite" in captured.err
    assert captured.out == ""


# the four sites of test_bethe's FLOAT_RESTRICTION_SITES["complex_site"]
FAR_OUT_SITES = [0, 1, 3 + 0.2j, -2]


def _far_out_problem(scale):
    z = [complex(x) * scale for x in FAR_OUT_SITES]
    return {"N": 1, "partitions": [[1, 0]] * 4, "l": [2],
            "z": [[x.real, x.imag] for x in z]}


def test_sites_that_overflow_the_site_polynomial_are_rejected(tmp_path,
                                                              capsys):
    """1e120 times the four sites overflow prod_s (u - z_s): its coefficient
    of u is about 6e360.  The pipeline once accepted them and computed on
    NaN.  GaudinProblem raises ValueError, load_problem SchemaError, and
    `gaudin verify` exits 2.  At 1e60 the polynomial is finite and the
    problem loads."""
    payload = _far_out_problem(1e120)
    z = [complex(*x) for x in payload["z"]]
    with pytest.raises(ValueError, match="site polynomial is not finite"):
        GaudinProblem(1, payload["partitions"], [2], z)
    with pytest.raises(SchemaError, match="site polynomial is not finite"):
        load_problem(payload)
    rc = main(["verify", "--problem", write_problem(tmp_path, payload)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error" in captured.err
    assert "site polynomial is not finite" in captured.err
    assert captured.out == ""
    problem, _, _ = load_problem(_far_out_problem(1e60))
    assert problem.mode == "numeric"


@pytest.mark.parametrize("flags", [
    ["--jmax", "-2"], ["--jmax", "0"], ["--starts", "-5"],
    ["--max-terms", "0"], ["--seed", "-1"], ["--tol-residual", "-1"],
    ["--tol-dedup", "-1"]])
def test_main_overrides_meet_the_schema_bounds(tmp_path, capsys, flags):
    """A command-line override below the schema's minimum is malformed
    input, like the same value in the problem file: once `--jmax -2`
    verified zero expansion coefficients and `--starts -5` made no starts."""
    path = write_problem(tmp_path, ANCHOR_JSON)
    rc = main(["verify", "--problem", path] + flags)
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error" in captured.err
    assert captured.out == ""


def test_main_overrides_reach_the_pipeline(tmp_path, capsys):
    path = write_problem(tmp_path, ANCHOR_JSON)
    rc = main(["verify", "--problem", path, "--format", "json", "--jmax", "3",
               "--starts", "0", "--seed", "4"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["seed"] == 4
    assert report["derived"]["j_max"] == 3
    assert all(len(v) == 3 for s in report["spectra"]
               for v in s["eigenvalues"].values())


def test_main_spectrum(tmp_path, capsys):
    path = write_problem(tmp_path, ANCHOR_JSON)
    rc = main(["spectrum", "--problem", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "orbit 0" in out
    assert "coefficient 1:" in out
    assert "coefficient 2:" in out


def test_main_weightfn(tmp_path, capsys):
    path = write_problem(tmp_path, ANCHOR_JSON)
    rc = main(["weightfn", "--problem", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "summand count: 2" in out
    assert "orbit 0: 2 nonzero coordinates" in out


def test_main_weightfn_prints_the_vector_the_pipeline_verified(tmp_path,
                                                               capsys):
    """The selftest orbit rationalizes, so the vector is the exact (-2, 2)
    with norm 8 that the norm_formula check compared, not its float
    evaluation at the floating orbit."""
    path = write_problem(tmp_path, dict(SELFTEST_PROBLEM))
    rc = main(["weightfn", "--problem", path])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1:] == ["orbit 0: 2 nonzero coordinates, norm^2 = 8",
                       "  [1] weight (1, 1): -2",
                       "  [2] weight (1, 1): 2"]


def test_main_seed_override(tmp_path, capsys):
    path = write_problem(tmp_path, ANCHOR_JSON)
    rc = main(["solve", "--problem", path, "--seed", "77", "--format",
               "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["seed"] == 77


def _run_from_src(*args):
    """`python *args` with only the checkout's src on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_console_script_selftest():
    # the installed `gaudin` script and `python -m gaudin` share one entry
    # point; running the module also works in a checkout with no install
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'gaudin = "gaudin.harness_cli:main"' in scripts.splitlines()
    proc = _run_from_src("-m", "gaudin", "selftest", "--format", "json")
    report = json.loads(proc.stdout)
    assert report["summary"]["all_pass"]


@pytest.mark.parametrize("args", [
    ["-c", "import gaudin; print(gaudin.__file__)"],
    ["-m", "gaudin", "selftest"]], ids=["import", "selftest"])
def test_jsonschema_is_not_imported(args):
    """Problems and reports are checked without jsonschema, whose import
    took about 60 ms of every start: `-X importtime` lists every module the
    process imports, gaudin's own ones from src among them."""
    proc = _run_from_src("-X", "importtime", *args)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()}
    assert "gaudin.harness_cli" in imported
    assert not any(name.split(".")[0] == "jsonschema" for name in imported)
    if args[0] == "-c":
        src = Path(__file__).resolve().parents[1] / "src"
        assert Path(proc.stdout.strip()).parent.parent == src


def test_rank2_pipeline_passes():
    prob = GaudinProblem(2, [[1, 0, 0], [1, 1, 0]], [1, 1],
                         [Fraction(0), Fraction(1)])
    report = run_pipeline(prob, SolverConfig(seed=3))
    assert report["summary"]["all_pass"]
    assert report["derived"]["singular_dimension"] == 1
    spec = report["spectra"][0]
    assert spec["exact_point"]
    # first coefficient expands to -(|lam_1| + |lam_2|)/u + O(1/u^2)
    lead = spec["eigenvalues"]["1"][0]
    assert lead == "-3"


# Floating sites right next to an integer.  The algebra self-check once
# sampled u = 2 beside the site 1.999 and u = 4 on the site 4.0, and
# run_pipeline raised PoleEvaluation instead of returning a report.  The
# eigenvalue equations, when they were sampled, once took u = 2 there too
# and failed (4e-7); they now compare coefficients of the series at
# infinity, which take no sample point.
POLE_CRASH_PROBLEMS = {
    "site_next_to_2": {
        "N": 2, "partitions": [[2, 0, 0], [2, 1, 0]], "l": [2, 1],
        "z": [[-2.732, 0.0], [1.999, 0.0]], "solver": {"seed": 0}},
    # a spin chain of the perfbench `numeric` workload, seed 14
    "site_on_4": {
        "N": 1, "partitions": [[1, 0], [1, 0], [1, 0], [1, 0]], "l": [2],
        "z": [[-2.948, 0.0], [-1.353, 0.0], [1.238, 0.0], [4.0, 0.0]],
        "solver": {"seed": 1923916562, "starts": 80, "early_stop": True}},
}


@pytest.mark.parametrize("name", sorted(POLE_CRASH_PROBLEMS))
def test_float_site_at_integer_returns_report(name):
    prob, config, _ = load_problem(POLE_CRASH_PROBLEMS[name])
    report = run_pipeline(prob, config)
    jsonschema.validate(report, REPORT_SCHEMA)
    status = {c["name"]: c["status"] for c in report["checks"]}
    for check in ("algebra_commutativity", "algebra_gl_invariance",
                  "algebra_form_symmetry", "first_coefficient",
                  "orbit0.eigenvalue_equations"):
        assert status[check] == "PASS", check


def test_complex_sites_pass_every_check():
    """Sites off the real line: with per-entry float denominators the algebra
    checks and both eigenvalue equations failed here (residuals 1e-5..1e-3)."""
    prob, config, _ = load_problem({
        "N": 1, "partitions": [[1, 0]] * 4, "l": [2],
        "z": [[0, 0], [1, 0.3], [2, -0.1], [3.5, 0]], "solver": {"seed": 0}})
    report = run_pipeline(prob, config)
    failing = [c["name"] for c in report["checks"] if c["status"] != "PASS"]
    assert failing == []
    assert report["summary"]["checks"] == 27


@pytest.mark.parametrize("seed", range(5))
def test_four_site_chain_passes_for_every_seed(seed):
    """Seed 0 once accepted t = (-1e-8, 1e-8), two variables collapsed onto
    the site 0 just outside the pole margin, as a third orbit."""
    prob = GaudinProblem(1, [[1, 0]] * 4, [2],
                         [Fraction(k) for k in range(4)])
    report = run_pipeline(prob, SolverConfig(seed=seed))
    failing = [c["name"] for c in report["checks"] if c["status"] != "PASS"]
    assert failing == []
    assert len(report["orbits"]) == report["derived"]["expected_orbits"] == 2


@pytest.mark.parametrize("sites, partitions, exact", [
    ([-2, 0, 3], [[2, 0], [1, 0], [1, 0]], True),
    ([0, 1, 3], [[1, 0], [1, 0], [1, 0]], False),
], ids=["exact_orbits", "floating_orbits"])
def test_exact_spectra_are_read_from_the_pencil(monkeypatch, sites,
                                                partitions, exact):
    """Both instances have two orbits.  At an exact orbit the spectrum is
    the expansion of the pencil that the kernel reads: one
    master_coefficients call per orbit, and no pole data or complex series
    is made.  Irrational orbits take the complex series instead, which is
    complex, like the jet values, also where the poles are exact."""
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("master_coefficients", "series_by_contour",
                 "factored_pole_data"):
        counted(harness_cli, name)
    counted(wronski_schubert, "factored_pole_data")
    prob = GaudinProblem(1, partitions, [1], [Fraction(x) for x in sites])
    report = run_pipeline(prob, SolverConfig(seed=0))
    assert report["summary"]["all_pass"], report["checks"]
    assert [s["exact_point"] for s in report["spectra"]] == [exact] * 2
    if exact:
        assert calls == ["master_coefficients"] * 2
    else:
        assert sorted(set(calls)) == ["factored_pole_data",
                                      "series_by_contour"]
        assert calls.count("series_by_contour") == 2

    point = [(Fraction(1, 2),)]
    pole_data = factored_pole_data(prob, point)
    assert all(type(x) is complex for c in
               series_by_contour(pole_data, 4).values() for x in c)
    assert all(type(x) is complex for x in
               scalar_coefficient_values(pole_data, Fraction(7)))


def _eigen_statuses(report):
    """{check name: status} of the eigenvalue equations, and the set of the
    statuses of every other check."""
    eigen = {c["name"]: c["status"] for c in report["checks"]
             if c["name"].endswith("eigenvalue_equations")}
    rest = {c["status"] for c in report["checks"] if c["name"] not in eigen}
    return eigen, rest


@pytest.mark.parametrize("i, j", [(1, 0), (2, -1)])
def test_a_perturbed_floating_spectrum_fails_the_eigenvalue_equations(
        monkeypatch, i, j):
    """The eigenvalue equations check the spectrum the report prints: a
    relative 1e-6 on one of its coefficients, the first or the last printed
    one, of the complex series fails them at both floating orbits.  The
    kernel reads the same series, which has no polynomial kernel then, so
    kernel_shape fails too, and nothing else."""
    series_by_contour = harness_cli.series_by_contour
    prob = GaudinProblem(1, [[1, 0]] * 3, [1],
                         [Fraction(0), Fraction(1), Fraction(3)])
    printed = range(default_j_max(prob))

    def perturbed(pole_data, n_terms):
        series = series_by_contour(pole_data, n_terms)
        series[i][printed[j]] *= 1 + 1e-6
        return series

    monkeypatch.setattr(harness_cli, "series_by_contour", perturbed)
    report = run_pipeline(prob, SolverConfig(seed=0))
    assert not any(s["exact_point"] for s in report["spectra"])
    eigen, _ = _eigen_statuses(report)
    assert list(eigen.values()) == ["FAIL"] * 2
    failed = [c["name"] for c in report["checks"] if c["status"] != "PASS"]
    assert failed == [f"orbit{k}.{name}" for k in range(2) for name in
                      ("eigenvalue_equations", "kernel_shape")]


def test_a_perturbed_exact_spectrum_fails_the_eigenvalue_equations(
        monkeypatch):
    """At an exact point only an exact zero passes: 1e-12 added to one
    coefficient of the pencil's expansion fails both exact orbits."""
    master_coefficients = harness_cli.master_coefficients

    def perturbed(pencil, j_max):
        funcs, series = master_coefficients(pencil, j_max)
        series[1][0] += Fraction(1, 10 ** 12)
        return funcs, series

    monkeypatch.setattr(harness_cli, "master_coefficients", perturbed)
    prob = GaudinProblem(1, [[2, 0], [1, 0], [1, 0]], [1],
                         [Fraction(-2), Fraction(0), Fraction(3)])
    report = run_pipeline(prob, SolverConfig(seed=0))
    assert all(s["exact_point"] for s in report["spectra"])
    eigen, rest = _eigen_statuses(report)
    assert list(eigen.values()) == ["FAIL"] * 2
    assert rest == {"PASS"}


def test_eigenvalue_equations_are_judged_relative_to_the_vectors(
        monkeypatch):
    """`search` seed 5, instance 6: coefficient j of the series grows like
    |z|^j, and at sites 2, 4, 5, 6 the coefficient-wise residual of the
    full-module equations B v = g v reaches 0.46 of EIG_TOL times
    max(1, |v|).  The report checks R x = g x on the Sing coordinates x
    instead, each coefficient judged relative to the vectors it compares,
    and gives the largest such ratio, recomputed here from the Sing family
    and the coordinates."""
    seen = {}

    def spy(name):
        fn = getattr(harness_cli, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.setdefault(name, []).append(out)
            return out
        monkeypatch.setattr(harness_cli, name, wrapper)

    for name in ("restrict_family", "series_by_contour", "bethe_vector"):
        spy(name)
    prob, config, _ = load_problem({
        "N": 1, "partitions": [[1, 0]] * 4, "l": [2],
        "z": ["2", "4", "5", "6"],
        "solver": {"seed": 1144093041, "starts": 40, "early_stop": False}})
    report = run_pipeline(prob, config)
    assert report["summary"]["all_pass"]
    whole, sing = seen["restrict_family"]
    assert whole.subspace is None and sing.subspace is not None
    assert whole.j_max == prob.N
    # the family on Sing M is 6 x 6: dim Sing M[(2, 2)] = 2, [(3, 1)] = 3
    # and [(4, 0)] = 1
    assert whole.B_u[1].nrows == 6 and sing.B_u[1].nrows == 2
    j_max = report["derived"]["j_max"]
    full = oracles.full_module_family(harness_cli.build_modules(prob)[0],
                                      prob.z, j_max)
    absolute = []
    for series, (vec, info), spec in zip(seen["series_by_contour"],
                                         seen["bethe_vector"],
                                         report["spectra"], strict=True):
        x = sing.coordinates(vec)
        xmax = max(map(abs, x.values()))
        relative = 0.0
        for i in (1, 2):
            printed = series[i][:j_max]
            for B, P, g in zip(full.B_coeffs[i], sing.B_coeffs[i], printed,
                               strict=True):
                lhs = B.coeffs[0].apply(vec) if B.num else {}
                absolute.append(max(abs(lhs.get(k, 0) - g * vec.get(k, 0))
                                    for k in lhs.keys() | vec.keys())
                                / max(1.0, info["coeff_max"]))
                lhs = {k: v / P.d for k, v in P.num[0].apply(x).items()} \
                    if P.num else {}
                res = max(abs(lhs.get(k, 0) - g * x.get(k, 0))
                          for k in lhs.keys() | x.keys())
                top = max(map(abs, lhs.values()), default=0.0)
                relative = max(relative,
                               res / max(1.0, xmax, top, abs(g) * xmax))
        check = next(c for c in report["checks"] if c["name"]
                     == f"orbit{spec['index']}.eigenvalue_equations")
        assert check["residual"] == pytest.approx(relative, rel=1e-6)
    assert max(absolute) > 0.4 * EIG_TOL


def test_floating_orbits_read_the_int_series_over_its_d(monkeypatch):
    """At sites 0, 1/2, 5/3, 3 the series coefficients of the Sing family
    are int numerators over d > 1, and both orbits are irrational: their
    eigenvalue equations apply the int numerators to the complex Sing
    coordinates, divide by d and pass at roundoff (a copy that dropped d
    read residuals of 1.0)."""
    seen = []
    restrict = harness_cli.restrict_family

    def spy(*args):
        seen.append(restrict(*args))
        return seen[-1]

    monkeypatch.setattr(harness_cli, "restrict_family", spy)
    prob, config, _ = load_problem({
        "N": 1, "partitions": [[1, 0]] * 4, "l": [2],
        "z": ["0", "1/2", "5/3", "3"], "solver": {"seed": 0}})
    report = run_pipeline(prob, config)
    _, family = seen
    assert family.subspace is not None
    assert max(P.d for mats in family.B_coeffs.values() for P in mats) > 1
    assert [s["exact_point"] for s in report["spectra"]] == [False, False]
    eigen = [c for c in report["checks"]
             if c["name"].endswith("eigenvalue_equations")]
    assert len(eigen) == 2
    assert all(c["status"] == "PASS" and c["residual"] < 1e-14
               for c in eigen)


@pytest.mark.parametrize("sites, partitions, exact", [
    ([-2, 0, 3], [[2, 0], [1, 0], [1, 0]], True),
    ([0, 1, 3], [[1, 0], [1, 0], [1, 0]], False),
], ids=["exact_orbits", "floating_orbits"])
def test_a_perturbed_sing_family_fails_the_eigenvalue_equations(
        monkeypatch, sites, partitions, exact):
    """The eigenvalue equations read the family restricted to Sing: one int
    numerator of its u^-1 coefficient of B_1, a multiple of the identity,
    changed by 1 fails them at both orbits, exact or floating, and nothing
    else; the full-module family is left as it is."""
    restrict = harness_cli.restrict_family

    def perturbed(pencil, subspace, j_max):
        family = restrict(pencil, subspace, j_max)
        if subspace is not None:
            P = family.B_coeffs[1][0]
            assert type(P.num[0][0, 0]) is int
            P.num[0].data[0, 0] += 1
        return family

    monkeypatch.setattr(harness_cli, "restrict_family", perturbed)
    prob = GaudinProblem(1, partitions, [1], [Fraction(x) for x in sites])
    report = run_pipeline(prob, SolverConfig(seed=0))
    assert [s["exact_point"] for s in report["spectra"]] == [exact] * 2
    eigen, rest = _eigen_statuses(report)
    assert list(eigen.values()) == ["FAIL"] * 2
    assert rest == {"PASS"}


# the checks read from the family on Sing M
SING_CHECKS = ("algebra_commutativity", "coefficient_triangularity",
               "first_coefficient")


def test_a_failed_sing_restriction_fails_each_orbits_eigenvalue_equations(
        tmp_path, capsys, monkeypatch):
    """A NotInvariant from the restriction to Sing M is a FAIL of the
    algebra checks read on Sing M and of every orbit's eigenvalue
    equations, with its text as the detail, and not an input error:
    `gaudin verify` exits 1, not 2."""
    message = "coefficient 2 maps basis vector 0 outside the subspace"

    def failing(*key):
        raise NotInvariant(message)

    monkeypatch.setattr(harness_cli, "shared_singular_poles", failing)
    prob = GaudinProblem(1, [[1, 0]] * 4, [2],
                         [Fraction(k) for k in range(4)])
    report = run_pipeline(prob, SolverConfig(seed=0))
    failed = [c for c in report["checks"]
              if c["name"].endswith("eigenvalue_equations")
              or c["name"] in SING_CHECKS]
    assert len(failed) == len(report["orbits"]) + 3 == 5
    assert all(c["status"] == "FAIL" and c["detail"] == message
               and c["residual"] is None for c in failed)
    assert {c["status"] for c in report["checks"] if c not in failed} \
        == {"PASS"}
    path = write_problem(tmp_path, ANCHOR_JSON)
    assert main(["verify", "--problem", path]) == 1
    out, err = capsys.readouterr()
    assert "input error" not in err
    for name in SING_CHECKS + ("orbit0.eigenvalue_equations",):
        assert f"FAIL    {name} {message}" in out


def test_eigen_residual_counts_a_coordinate_that_is_not_finite():
    """A nan coordinate of R x - g x reads inf in either entry order: a max
    over the moduli once dropped it and read 0.0, a PASS at a floating
    orbit.  Far-out floating sites give such entries: the Sing series of
    the 4-site chain at 1e90 times the sites 0, 1, 3 + 0.2i, -2 holds
    entries that are not finite."""
    nan, inf = float("nan"), float("inf")
    x = {0: 1.0, 1: 1.0}
    for entries in ({(0, 0): 0.5, (1, 1): nan}, {(1, 1): nan, (0, 0): 0.5}):
        P = RFMatrix(2, 2, [SparseMatrix(2, 2, entries)])
        assert harness_cli._eigen_residual(P, x, 0.5, False, 1.0) == inf
    parts = ((1, 0),) * 4
    M, _ = repr_core.shared_module(parts, 1)
    _, S = repr_core.shared_singular_subspace(parts, 1, (2, 2))
    poles = bethe_algebra.restrict_poles(bethe_algebra.pole_operator(M), S)
    z = [complex(s) * 1e90 for s in (0, 1, 3 + 0.2j, -2)]
    family = restrict_family(universal_operator(M, z, poles=poles), S, 6)
    overflowed = [P for mats in family.B_coeffs.values() for P in mats
                  if P.num and not all(map(math.isfinite, map(
                      abs, P.num[0].data.values())))]
    assert overflowed
    for P in overflowed:
        assert harness_cli._eigen_residual(P, x, 0.0, False, 1.0) == inf


def test_a_zero_singular_space_keeps_its_report():
    """Weight dimension 2 and Sing dimension 0: the restriction to a basis
    of no columns raises nothing, no orbit is found, and the nine checks of
    an empty singular space pass."""
    prob, config, _ = load_problem({"N": 2, "partitions": [[2, 1, 0]],
                                    "l": [1, 1], "z": ["0"]})
    report = run_pipeline(prob, config)
    assert report["derived"] == {
        "infinity_weight": [1, 1, 1], "module_dimension": 8,
        "weight_dimension": 2, "singular_dimension": 0,
        "expected_orbits": 0, "exponents": [3, 2, 1],
        "dual_partition": [1, 1, 1], "d_cap": 5, "j_max": 5,
        "term_count": 2}
    assert report["orbits"] == report["spectra"] == []
    empty = "no Bethe vector for singular dimension 0"
    assert [(c["name"], c["status"], c["residual"], c["detail"])
            for c in report["checks"]] == [
        ("algebra_commutativity", "PASS", 0.0, ""),
        ("algebra_gl_invariance", "PASS", 0.0, ""),
        ("algebra_form_symmetry", "PASS", 0.0, ""),
        ("coefficient_triangularity", "PASS", 0.0, ""),
        ("first_coefficient", "PASS", None, ""),
        ("orbit_count", "PASS", None, "found 0, expected 0"),
        ("gram_rank", "PASS", None, empty),
        ("pairwise_orthogonality", "PASS", None, empty),
        ("completeness", "PASS", None, empty)]
    assert report["summary"] == {"checks": 9, "passed": 9, "failed": 0,
                                 "skipped": 0, "all_pass": True}


@pytest.mark.parametrize("source", [
    {"N": 2, "partitions": [[2, 1, 0], [2, 0, 0]], "l": [2, 1],
     "z": [[0.0, 0.0], [1.3, 0.4]], "solver": {"seed": 0}},
    str(Path(__file__).resolve().parents[1] / "tools" / "problems"
        / "defect9.json"),
], ids=["adjoint_sym2_off_line", "defect9"])
def test_sing_restriction_holds_off_the_real_line(monkeypatch, source):
    """At sites off the real line, floating or Gaussian-rational, the
    restriction to Sing raises nothing and every eigenvalue equation on the
    Sing coordinates passes.  On the adjoint times Sym^2 of gl3 a numerator
    matrix of B_3 is roundoff at these sites."""
    families = []
    restrict = harness_cli.restrict_family

    def spy(pencil, subspace, j_max):
        families.append(restrict(pencil, subspace, j_max))
        return families[-1]

    monkeypatch.setattr(harness_cli, "restrict_family", spy)
    report = run_pipeline(*load_problem(source)[:2])
    full, sing = families
    k = report["derived"]["singular_dimension"]
    assert sing.B_u[1].nrows == len(sing.unit_rows) == k > 0
    eigen, _ = _eigen_statuses(report)
    assert list(eigen.values()) == ["PASS"] * k


def _spy(monkeypatch, names):
    """Wrap every `gaudin` module's binding of each name; returns the list
    of (name, result) of every call, in order."""
    calls = []
    for name in names:
        fn = getattr(sys.modules["gaudin.master"], name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            calls.append((_name, out))
            return out
        for modname, module in list(sys.modules.items()):
            if (modname.split(".")[0] == "gaudin"
                    and getattr(module, name, None) is fn):
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("sites", [
    [Fraction(0), Fraction(1), Fraction(3)],
    [0j, complex(1, 0.3), 3.5 + 0j],
], ids=["rational_sites", "complex_sites"])
def test_one_series_per_floating_orbit(monkeypatch, sites):
    """A floating orbit composes its operator once, as series at infinity:
    one pole layout and one series, which the spectrum, the eigenvalue
    equations, the kernel and its residuals all read; no value at a point
    is composed.  The report prints the series' first j_max terms."""
    calls = _spy(monkeypatch, ("factored_pole_data", "series_by_contour",
                               "scalar_coefficient_values"))
    prob = GaudinProblem(1, [[1, 0]] * 3, [1], sites)
    report = run_pipeline(prob, SolverConfig(seed=0))
    assert report["summary"]["all_pass"], report["checks"]
    spectra = report["spectra"]
    assert len(spectra) == 2 and not any(s["exact_point"] for s in spectra)
    assert [name for name, _ in calls] == [
        "factored_pole_data", "series_by_contour"] * 2
    j_max = report["derived"]["j_max"]
    for (_, series), spec in zip(calls[1::2], spectra):
        assert len(series[1]) > j_max
        printed = {str(i): [format_scalar(c) for c in c_i[:j_max]]
                   for i, c_i in series.items()}
        assert json.dumps(spec["eigenvalues"]) == json.dumps(printed)


def test_a_perturbed_kernel_polynomial_fails_kernel_residual(monkeypatch):
    """A relative 1e-6 on one coefficient of one kernel polynomial shows in
    the Laurent coefficients of the operator applied to it, at both
    floating orbits."""
    solve = harness_cli.solve_h_tuple

    def perturbed(*args, **kwargs):
        ht = solve(*args, **kwargs)
        coeffs = list(ht.polys[0].coeffs)
        k = max(range(len(coeffs) - 1), key=lambda k: abs(coeffs[k]))
        coeffs[k] *= 1 + 1e-6
        ht.polys = (Poly(coeffs),) + ht.polys[1:]
        return ht

    monkeypatch.setattr(harness_cli, "solve_h_tuple", perturbed)
    prob = GaudinProblem(1, [[1, 0]] * 3, [1],
                         [Fraction(0), Fraction(1), Fraction(3)])
    report = run_pipeline(prob, SolverConfig(seed=0))
    assert not any(s["exact_point"] for s in report["spectra"])
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert [status[f"orbit{k}.kernel_residual"] for k in range(2)] == [
        "FAIL"] * 2


EXACT_ORBITS = GaudinProblem(1, [[2, 0], [1, 0], [1, 0]], [1],
                             [Fraction(-2), Fraction(0), Fraction(3)])


def _perturb_vector(monkeypatch):
    """Add an exact 10^-12 to one coordinate of the first Bethe vector, and
    recompute the info that depends on it."""
    bethe_vector = harness_cli.bethe_vector
    made = []

    def perturbed(problem, M, point, form=None, **kwargs):
        vec, info = bethe_vector(problem, M, point, form=form, **kwargs)
        if not made:
            k = min(vec)
            vec = dict(vec)
            vec[k] += Fraction(1, 10 ** 12)
            info = dict(info, singular_residual=singular_residual(M, vec),
                        norm_square=form.norm_square(vec))
        made.append(vec)
        return vec, info

    monkeypatch.setattr(harness_cli, "bethe_vector", perturbed)
    return ["orbit0.singular_membership", "pairwise_orthogonality"]


def _perturb_kernel(h):
    def install(monkeypatch):
        """Add an exact 10^-12 to the constant coefficient of kernel
        polynomial h at every orbit."""
        solve = harness_cli.solve_h_tuple

        def perturbed(*args, **kwargs):
            ht = solve(*args, **kwargs)
            polys = list(ht.polys)
            coeffs = list(polys[h].coeffs)
            coeffs[0] += Fraction(1, 10 ** 12)
            polys[h] = Poly(coeffs)
            ht.polys = tuple(polys)
            return ht

        monkeypatch.setattr(harness_cli, "solve_h_tuple", perturbed)
        checks = ["wronskian_identities"] if h == 0 else \
            ["last_kernel_is_group_polynomial", "wronskian_identities"]
        return [f"orbit{k}.{name}" for k in range(2) for name in checks]
    return install


@pytest.mark.parametrize("perturb", [_perturb_vector, _perturb_kernel(0),
                                     _perturb_kernel(-1)],
                         ids=["vector", "first_kernel", "last_kernel"])
def test_exact_checks_admit_only_an_exact_zero(monkeypatch, perturb):
    """At exact points the membership in Sing, the kernel identities and
    the orthogonality of exact vectors pass on an exact zero only: an exact
    10^-12 added to a vector or to a kernel polynomial fails them."""
    failing = perturb(monkeypatch)
    report = run_pipeline(EXACT_ORBITS, SolverConfig(seed=0))
    assert all(s["exact_point"] for s in report["spectra"])
    checks = {c["name"]: c for c in report["checks"]}
    for name in failing:
        assert checks[name]["status"] == "FAIL", name
        assert 0.0 < checks[name]["residual"] < 1e-8, name


def test_main_weightfn_prints_the_pipeline_vectors(tmp_path, capsys,
                                                   monkeypatch):
    """`weightfn` prints the vectors that `run_pipeline` verified: one
    `bethe_vector` call per nondegenerate orbit."""
    calls = []
    bethe_vector = harness_cli.bethe_vector

    def counted(*args, **kwargs):
        calls.append(args[2])
        return bethe_vector(*args, **kwargs)

    monkeypatch.setattr(harness_cli, "bethe_vector", counted)
    path = write_problem(tmp_path, {
        "N": 1, "partitions": [[2, 0], [1, 0], [1, 0]], "l": [1],
        "z": ["-2", "0", "3"], "solver": {"seed": 0}})
    rc = main(["weightfn", "--problem", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(calls) == 2
    assert "orbit 0:" in out and "orbit 1:" in out


def test_algebra_checks_scale_with_the_compared_products():
    """Numeric algebra checks are judged relative to the products they
    compare.  Sites -3.657 and -0.002 (numeric seed 11 instance 36):
    form-symmetry products at a sample point reached 8.4e4, and a residual
    of 1.75e-10 (2e-15 relative) was a FAIL against an absolute 1e-10.
    Sites 1.727 and 3.244 (numeric seed 15 instance 36) failed for the same
    reason.  Form symmetry and gl-invariance are now checked once per
    module on the site-free int coefficients, so at these floating sites
    both residuals are exact zeros.  Commutativity is read on Sing M, which
    is multiplicity-free here (four weights, one singular vector each), so
    its 1 x 1 blocks commute exactly too; where they do not, it stays
    relative (next test)."""
    far_apart = {"N": 2, "partitions": [[2, 0, 0], [2, 1, 0]], "l": [2, 1],
                 "z": [[-3.657, 0.0], [-0.002, 0.0]],
                 "solver": {"seed": 242795849, "starts": 40}}
    above = {"N": 2, "partitions": [[2, 1, 0], [2, 0, 0]], "l": [2, 1],
             "z": [[1.727, 0.0], [3.244, 0.0]],
             "solver": {"seed": 937887068, "starts": 40}}
    for payload in (far_apart, above):
        report = run_pipeline(*load_problem(payload)[:2])
        failing = [c["name"] for c in report["checks"]
                   if c["status"] != "PASS"]
        assert failing == [], payload["z"]
        checks = {c["name"]: c for c in report["checks"]}
        for name in ("algebra_gl_invariance", "algebra_form_symmetry",
                     "algebra_commutativity"):
            assert checks[name]["residual"] == 0.0, (payload["z"], name)


@pytest.mark.parametrize("scale, status", [(1e4, "PASS"), (0.0, "FAIL")])
def test_numeric_commutativity_is_judged_relative_to_its_products(
        monkeypatch, scale, status):
    """A floating commutativity residual of 1e-9, above the absolute
    ALGEBRA_TOL = 1e-10, PASSes when the compared products reach 1e4
    (1e-13 relative) and FAILs when they stay below 1."""
    selfcheck = harness_cli.algebra_selfcheck

    def with_residual(*args):
        out = selfcheck(*args)
        assert not out["exact"]
        out["commutator_pairs"] = 1e-9
        out["scales"]["commutator_pairs"] = scale
        return out

    monkeypatch.setattr(harness_cli, "algebra_selfcheck", with_residual)
    report = run_pipeline(*_shape_problem(SHARED_SHAPE_SITES["floating"]))
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["algebra_commutativity"]["residual"] == 1e-9
    assert checks["algebra_commutativity"]["status"] == status


def test_no_orbit_fails_every_joint_check():
    """40 starts find no orbit here; the joint checks were left out."""
    prob, config, _ = load_problem({
        "N": 2, "partitions": [[2, 1, 0], [2, 0, 0]], "l": [2, 1],
        "z": ["-3/2", "5/2"], "solver": {"seed": 1107703036, "starts": 40}})
    report = run_pipeline(prob, config)
    assert report["orbits"] == []
    status = {c["name"]: c["status"] for c in report["checks"]}
    for name in ("orbit_count", "gram_rank", "pairwise_orthogonality",
                 "completeness"):
        assert status[name] == "FAIL", name
    assert report["summary"]["failed"] == 4


# One module shape, (N, partitions) = (2, [[2,1,0],[1,0,0]]), at exact,
# Gaussian-rational and floating sites.
SHARED_SHAPE = {"N": 2, "partitions": [[2, 1, 0], [1, 0, 0]], "l": [1, 1],
                "solver": {"seed": 2}}
SHARED_SHAPE_SITES = {
    "exact": ["-1", "3/2"],
    "gaussian": [["0", "1"], ["2", "-1/2"]],
    "floating": [[0.25, 0.0], [1.5, 0.75]],
}


def _shape_problem(z, reverse=False):
    payload = dict(SHARED_SHAPE, z=z)
    if reverse:
        payload["partitions"] = payload["partitions"][::-1]
        payload["z"] = z[::-1]
    return load_problem(payload)[:2]


@pytest.mark.parametrize("kind", sorted(SHARED_SHAPE_SITES))
def test_shared_modules_give_the_reports_of_fresh_builds(fresh_modules, kind):
    """A module built for other sites of the same shape gives the report,
    byte for byte, of a module built afresh for this problem."""
    run_pipeline(*_shape_problem(["0", "1"]))
    prob, config = _shape_problem(SHARED_SHAPE_SITES[kind])
    assert harness_cli.build_modules(prob) is harness_cli.build_modules(prob)
    cached = run_pipeline(prob, config)
    repr_core.shared_irreducible.cache_clear()
    repr_core.shared_module.cache_clear()
    fresh = run_pipeline(prob, config)
    assert cached["summary"]["all_pass"]
    assert json.dumps(cached, sort_keys=True) == \
        json.dumps(fresh, sort_keys=True)


def test_run_pipeline_verifies_each_module_shape_once(fresh_modules,
                                                      monkeypatch):
    """Two irreducibles and their tensor product are checked once however
    many problems share them; the other factor order is one more tensor
    product, and `expected_orbit_count` builds nothing."""
    calls = []
    verify = repr_core.verify_commutation

    def counted(M):
        calls.append(M.dim)
        verify(M)

    monkeypatch.setattr(repr_core, "verify_commutation", counted)
    for z in SHARED_SHAPE_SITES.values():
        run_pipeline(*_shape_problem(z))
    assert sorted(calls) == [3, 8, 24]
    prob, config = _shape_problem(SHARED_SHAPE_SITES["exact"], reverse=True)
    run_pipeline(prob, config)
    run_pipeline(*_shape_problem(SHARED_SHAPE_SITES["floating"],
                                 reverse=True))
    assert sorted(calls) == [3, 8, 24, 24]
    assert expected_orbit_count(prob) == 1
    assert len(calls) == 4


def _module_entries(M, form):
    return ({(s, key): dict(f.gen_action[key].data)
             for s, f in enumerate(M.factors) for key in f.gen_action},
            {key: dict(mat.data) for key, mat in M.gen_action.items()},
            dict(form.gram.data))


def test_run_pipeline_leaves_the_shared_module_unchanged(fresh_modules):
    """The module, its form and the weight and singular subspaces are
    shared by every run of the shape, and no run changes them."""
    prob, _ = _shape_problem(SHARED_SHAPE_SITES["exact"])
    M, form = harness_cli.build_modules(prob)
    before = _module_entries(M, form)
    key = (prob.partitions, prob.N, prob.infinity_weight)
    W, S = repr_core.shared_singular_subspace(*key)
    bases = (dict(W.data), dict(S.data))
    for z in SHARED_SHAPE_SITES.values():
        prob, config = _shape_problem(z)
        run_pipeline(prob, config)
        assert harness_cli.build_modules(prob) == (M, form)
        assert repr_core.shared_singular_subspace(*key) == (W, S)
    assert _module_entries(M, form) == before
    assert (W.data, S.data) == bases


def test_main_weightfn_builds_each_irreducible_once(tmp_path, capsys,
                                                   fresh_modules, monkeypatch):
    """`weightfn` prints the vectors of the pipeline's own module; it built
    every irreducible a second time."""
    build = repr_core.build_irreducible
    calls = []

    def counted(lam, N):
        calls.append(tuple(lam))
        return build(lam, N)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "gaudin"
                and getattr(module, "build_irreducible", None) is build):
            monkeypatch.setattr(module, "build_irreducible", counted)
    path = write_problem(tmp_path, dict(SHARED_SHAPE,
                                        z=SHARED_SHAPE_SITES["exact"]))
    rc = main(["weightfn", "--problem", path])
    assert rc == 0
    assert "orbit 0:" in capsys.readouterr().out
    assert sorted(calls) == [(1, 0, 0), (2, 1, 0)]
