"""End-to-end verification pipeline and command-line interface.

Subcommands:
    solve     find critical orbits and report them
    verify    run every check (algebra, eigenvectors, norms, kernel geometry)
    spectrum  eigenvalue tables of the commuting coefficients per orbit
    weightfn  weight-function vectors at the critical orbits
    selftest  run `verify` on a built-in instance

Problem files are JSON: {"N": 2, "partitions": [[1,0,0], [1,1,0]],
"l": [1, 1], "z": ["0", "1"], "solver": {"seed": 0}}.  Site entries may be
rational strings/integers or pairs of rational strings such as ["0", "4/3"]
(Gaussian rationals; both exact mode), or numbers and [re, im] pairs of
numbers (numeric mode).
Reports are deterministic for a fixed seed; exit status is 0 when
every check passes, 1 on any failure, 2 on malformed input.

Every problem is checked against PROBLEM_SCHEMA and every report against
REPORT_SCHEMA by `_mismatch`, a checker of the JSON Schema keywords the two
schemas use, which names the JSON path and the rule that failed.  An
"integer" is an int that is not a bool (1.0 is none), a "number" an int or
float that is not a bool, NaN and the infinities included.  At import each
schema is checked to use no other keyword, so an edit to a schema cannot be
silently ignored.  A problem that breaks its schema is an input error
(SchemaError, exit 2); a report that breaks its schema is a fault of the
program (RuntimeError).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import kernels
from .bethe_algebra import (algebra_selfcheck, first_coefficient_identity,
                            restrict_family, shared_pole_operator,
                            shared_singular_poles, universal_operator)
from .errors import GaudinError, NotInvariant, SchemaError, ZeroVector
from .linalg import SparseMatrix, rank
from .master import (GaudinProblem, SolverConfig, factored_pole_data,
                     find_critical_orbits, group_polynomials,
                     hessian_determinant, master_coefficients,
                     master_operator_at, series_by_contour,
                     try_rationalize_orbit)
from .repr_core import shared_module, shared_singular_subspace
from .scalars import (QI, format_scalar, is_exact, parse_rational,
                      scalar_abs, to_complex)
from .weight_function import bethe_vector, term_count
from .wronski_schubert import (exponent_data, kernel_residuals,
                               schubert_incidence, series_terms,
                               solve_h_tuple, verify_wronskian_identities)

REPORT_FORMAT = "gaudin-report/1"
ALGEBRA_TOL = 1e-10
EIG_TOL = 1e-8
NORM_TOL = 1e-8
SING_TOL = 1e-8

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["N", "partitions", "l", "z"],
    "additionalProperties": False,
    "properties": {
        "N": {"type": "integer", "minimum": 1},
        "partitions": {
            "type": "array", "minItems": 1,
            "items": {"type": "array",
                      "items": {"type": "integer", "minimum": 0}},
        },
        "l": {"type": "array",
              "items": {"type": "integer", "minimum": 0}},
        "z": {
            "type": "array", "minItems": 1,
            "items": {"anyOf": [
                {"type": "string"},
                {"type": "integer"},
                {"type": "number"},
                {"type": "array", "items": {"type": "number"},
                 "minItems": 2, "maxItems": 2},
                {"type": "array", "items": {"type": "string"},
                 "minItems": 2, "maxItems": 2},
            ]},
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "starts": {"type": "integer", "minimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
                "tol_residual": {"type": "number", "exclusiveMinimum": 0},
                "tol_dedup": {"type": "number", "exclusiveMinimum": 0},
                "tol_degenerate": {"type": "number", "exclusiveMinimum": 0},
                "pole_margin": {"type": "number", "minimum": 0},
                "precision": {"enum": ["double", "longdouble"]},
                "early_stop": {"type": "boolean"},
            },
        },
        "j_max": {"type": "integer", "minimum": 1},
        "d_cap": {"type": "integer", "minimum": 1},
        "max_terms": {"type": "integer", "minimum": 1},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["format", "problem", "backend", "checks", "summary"],
    "properties": {
        "format": {"const": REPORT_FORMAT},
        "problem": {"type": "object"},
        "backend": {"type": "string"},
        "derived": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status"],
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["PASS", "FAIL", "SKIPPED"]},
                    "residual": {"type": ["number", "null"]},
                    "detail": {"type": "string"},
                },
            },
        },
        "orbits": {"type": "array"},
        "summary": {
            "type": "object",
            "required": ["checks", "passed", "failed", "skipped", "all_pass"],
        },
    },
}


# the keywords `_mismatch` implements, and the type predicates of JSON
# Schema's type names: a bool is neither an "integer" nor a "number", and a
# float is no "integer" even where it is integral
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: (isinstance(x, (int, float))
                         and not isinstance(x, bool)),
}
_KEYWORDS = {"type", "const", "enum", "anyOf", "minimum", "exclusiveMinimum",
             "minItems", "maxItems", "items", "required", "properties",
             "additionalProperties"}


def _check_schema(schema):
    """Raise ValueError where `schema` uses a keyword, a type name or an
    `additionalProperties` other than false that `_mismatch` does not
    implement, so that no rule of a schema is silently ignored."""
    unknown = set(schema) - _KEYWORDS
    types = schema.get("type", [])
    unknown |= set([types] if isinstance(types, str) else types) - set(_TYPES)
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise ValueError(f"schema rules not implemented: {sorted(unknown)}")
    for sub in ([schema["items"]] if "items" in schema else []) \
            + schema.get("anyOf", []) \
            + list(schema.get("properties", {}).values()):
        _check_schema(sub)


def _same(x, v):
    """JSON equality of a value and a const or enum entry: true is not 1."""
    return x == v and isinstance(x, bool) == isinstance(v, bool)


def _mismatch(schema, x, path="$"):
    """The first rule of `schema` that `x` breaks, as "path: reason", or
    None where `x` matches."""
    if "type" in schema:
        types = schema["type"]
        types = [types] if isinstance(types, str) else types
        if not any(_TYPES[t](x) for t in types):
            return f"{path}: {x!r} is not of type {' or '.join(types)}"
    if "const" in schema and not _same(x, schema["const"]):
        return f"{path}: {x!r} is not {schema['const']!r}"
    if "enum" in schema and not any(_same(x, v) for v in schema["enum"]):
        return f"{path}: {x!r} is not one of {schema['enum']!r}"
    if "anyOf" in schema and all(_mismatch(s, x, path)
                                 for s in schema["anyOf"]):
        return f"{path}: {x!r} matches no alternative of anyOf"
    if _TYPES["number"](x):
        if "minimum" in schema and x < schema["minimum"]:
            return f"{path}: {x!r} is less than {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]:
            return (f"{path}: {x!r} is not greater than "
                    f"{schema['exclusiveMinimum']!r}")
    if isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            return f"{path}: fewer than {schema['minItems']} items"
        if len(x) > schema.get("maxItems", len(x)):
            return f"{path}: more than {schema['maxItems']} items"
        for k, item in enumerate(x if "items" in schema else ()):
            if why := _mismatch(schema["items"], item, f"{path}[{k}]"):
                return why
    if isinstance(x, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in x:
                return f"{path}: {key!r} is a required property"
        for key, value in x.items():
            if key in props:
                if why := _mismatch(props[key], value, f"{path}.{key}"):
                    return why
            elif schema.get("additionalProperties", True) is False:
                return f"{path}: unexpected property {key!r}"
    return None


_check_schema(PROBLEM_SCHEMA)
_check_schema(REPORT_SCHEMA)


def _finite(x):
    """float(x); SchemaError for NaN and the infinities, which Python's json
    reads and the schema's "number" admits."""
    x = float(x)
    if not math.isfinite(x):
        raise SchemaError(f"site position {x!r} is not finite")
    return x


def _parse_site(x):
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, bool):
        raise SchemaError("boolean site position")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return complex(_finite(x), 0.0)
    if isinstance(x, (list, tuple)):
        if all(isinstance(c, str) for c in x):
            return QI(parse_rational(x[0]), parse_rational(x[1]))
        return complex(_finite(x[0]), _finite(x[1]))
    raise SchemaError(f"unreadable site position {x!r}")


def _read_problem(source):
    """The problem document of a path; a dict is returned as it is."""
    if isinstance(source, (str, bytes)):
        try:
            with open(source) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise SchemaError(f"cannot read problem file: {e}") from e
    return source


def load_problem(source):
    """dict or path -> (GaudinProblem, SolverConfig, options dict)."""
    source = _read_problem(source)
    if why := _mismatch(PROBLEM_SCHEMA, source):
        raise SchemaError(f"problem does not match the schema: {why}")
    try:
        z = [_parse_site(x) for x in source["z"]]
        problem = GaudinProblem(source["N"], source["partitions"],
                                source["l"], z)
    except (GaudinError, ValueError) as e:
        raise SchemaError(str(e)) from e
    config = SolverConfig(**source.get("solver", {}))
    options = {k: source[k] for k in ("j_max", "d_cap", "max_terms")
               if k in source}
    return problem, config, options


def default_j_max(problem):
    return problem.n_sites * max(max(p) for p in problem.partitions) \
        + problem.N + 1


def _fmt_complex(x):
    c = to_complex(x)
    return [c.real, c.imag]


def _eigen_residual(P, x, g, exact, xmax):
    """Largest coordinate of R x - g x, for a series coefficient
    R = num[0] / d as the family stores it and a sparse dict vector x with
    xmax = max|x|: as it is at an exact orbit, else relative to
    max(1, max|x|, max|R x|, |g| max|x|).  A coordinate that is not
    finite, as far-out floating sites overflow the series, gives inf: a max
    would drop a nan."""
    lhs = P.num[0].apply(x) if P.num else {}
    if P.d != 1:
        lhs = {k: v / P.d for k, v in lhs.items()}
    diff = dict(lhs)
    for idx, v in x.items():
        diff[idx] = diff.get(idx, 0) - g * v
    sizes = [scalar_abs(v) for v in diff.values()]
    if not all(map(math.isfinite, sizes)):
        return math.inf
    res = max(sizes, default=0.0)
    if exact:
        return res
    top = max(map(scalar_abs, lhs.values()), default=0.0)
    return res / max(1.0, xmax, top, abs(g) * xmax)


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, residual=None, detail=""):
        self.items.append({
            "name": name,
            "status": "PASS" if ok else "FAIL",
            "residual": None if residual is None else float(residual),
            "detail": detail,
        })

    def skip(self, name, detail):
        self.items.append({"name": name, "status": "SKIPPED",
                           "residual": None, "detail": detail})

    def summary(self):
        n = len(self.items)
        p = sum(1 for c in self.items if c["status"] == "PASS")
        f = sum(1 for c in self.items if c["status"] == "FAIL")
        s = n - p - f
        return {"checks": n, "passed": p, "failed": f, "skipped": s,
                "all_pass": f == 0}


def build_modules(problem):
    """(module, form) of the problem's tensor product, shared within the
    process for its (N, partitions): do not mutate it."""
    return shared_module(problem.partitions, problem.N)


def _passes(residual, tol, exact):
    """An exact check admits an exact zero only, a floating one `tol`."""
    return residual == 0.0 if exact else residual < tol


def run_pipeline(problem: GaudinProblem, config: SolverConfig = None,
                 j_max=None, d_cap=None, max_terms=10 ** 7,
                 stage="verify"):
    """Full machine verification; returns the report dict."""
    return _verify(problem, config, j_max, d_cap, max_terms, stage)[0]


def _verify(problem, config, j_max, d_cap, max_terms, stage):
    """(report, per orbit the (vector, info) the report verified, or None
    for a degenerate orbit or a vanishing vector; [] at the solve stage)."""
    config = config or SolverConfig()
    if j_max is None:
        j_max = default_j_max(problem)
    elif j_max < 1:
        raise SchemaError(f"j_max must be at least 1, got {j_max}")
    checks = Checks()
    report = {
        "format": REPORT_FORMAT,
        "backend": kernels.backend_name(),
        "seed": config.seed,
        "problem": {
            "N": problem.N,
            "partitions": [list(p) for p in problem.partitions],
            "l": list(problem.l),
            "z": [format_scalar(x) for x in problem.z],
            "mode": problem.mode,
        },
        "orbits": [],
    }

    M, form = build_modules(problem)
    mu = problem.infinity_weight
    W, S = shared_singular_subspace(problem.partitions, problem.N, mu)
    expected = S.ncols
    data = exponent_data(problem, d_cap)
    report["derived"] = {
        "infinity_weight": list(mu),
        "module_dimension": M.dim,
        "weight_dimension": W.ncols,
        "singular_dimension": expected,
        "expected_orbits": expected,
        "exponents": list(data.exponents),
        "dual_partition": list(data.dual_partition),
        "d_cap": data.d_cap,
        "j_max": j_max,
        "term_count": term_count(problem.l, problem.n_sites),
    }

    orbits = find_critical_orbits(problem, config, expected=expected)
    for orb in orbits:
        report["orbits"].append({
            "index": orb.index,
            "groups": [[_fmt_complex(x) for x in grp] for grp in orb.groups],
            "residual": float(orb.residual),
            "hessian_determinant": _fmt_complex(orb.hessian_determinant),
            "degenerate": bool(orb.degenerate),
        })
    # degenerate orbits get no Bethe vector below, so they cannot make up
    # dim Sing
    degenerate = sum(orb.degenerate for orb in orbits)
    count_ok = len(orbits) == expected and not degenerate
    count_detail = f"found {len(orbits)}, expected {expected}" \
        + (f", {degenerate} degenerate" if degenerate else "")
    if stage == "solve":
        checks.add("orbit_count", count_ok, detail=count_detail)
        report["checks"] = checks.items
        report["summary"] = checks.summary()
        return report, []

    # --- algebra-level checks
    # gl-invariance and form symmetry hold for every set of sites once they
    # hold for the site-free coefficients C_m, checked once per
    # (N, partitions).  Then every B_i(u) acts on M = sum_mu L_mu x Sing M[mu]
    # as the sum of Id x B_i(u)|Sing M[mu], so commutativity, the vanishing
    # lower coefficients and B_1 = scalar Id hold on M exactly when they
    # hold on Sing M: the sites go once into the shared restriction of the
    # C_m to Sing M, whose series is needed only to u^-N (j < i <= N + 1).
    # A restriction that fails fails these checks and each orbit's
    # eigenvalue equations, with its reason.
    _, module_check = shared_pole_operator(problem.partitions, problem.N)
    try:
        sing_poles = shared_singular_poles(problem.partitions, problem.N)
        whole, block = sing_poles.split(
            universal_operator(M, problem.z, poles=sing_poles.poles), mu)
        sing_error = None
    except NotInvariant as e:
        sing_error = str(e)

    sing_checks = {}
    if sing_error is None:
        sc = algebra_selfcheck(restrict_family(whole, None, problem.N),
                               problem.z)

        def algebra_ok(residual, scale=0.0):
            # numeric residuals are judged relative to the entries of the
            # compared products
            return _passes(residual, ALGEBRA_TOL * max(1.0, scale),
                           sc["exact"])

        sing_checks = {
            "algebra_commutativity": (
                algebra_ok(sc["commutator_pairs"],
                           sc["scales"]["commutator_pairs"]),
                sc["commutator_pairs"]),
            "coefficient_triangularity": (
                algebra_ok(sc["lower_coefficients"]),
                sc["lower_coefficients"]),
            "first_coefficient": (first_coefficient_identity(
                whole, problem.sizes, problem.z), None),
        }

    def add_sing_check(name):
        ok, residual = sing_checks.get(name, (False, None))
        checks.add(name, ok, residual=residual, detail=sing_error or "")

    add_sing_check("algebra_commutativity")
    # exact at every kind of site: the site-free coefficients are ints
    for name, key in (("algebra_gl_invariance", "commutator_with_gl"),
                      ("algebra_form_symmetry", "form_symmetry")):
        checks.add(name, module_check[key] == 0.0,
                   residual=module_check[key])
    add_sing_check("coefficient_triangularity")
    add_sing_check("first_coefficient")
    checks.add("orbit_count", count_ok, detail=count_detail)

    # the eigenvalue equations read block mu of the family on Sing M,
    # applied to the Sing coordinates x of each Bethe vector v = S x: S has
    # full column rank and singular_membership checks v in Sing, so
    # B v - g v = S (R x - g x) vanishes exactly when R x - g x does
    sing = None if sing_error else restrict_family(block, S, j_max)

    # --- per-orbit checks
    bethe = []
    spectra = []
    for orb in orbits:
        tag = f"orbit{orb.index}"
        if orb.degenerate:
            checks.skip(tag, "degenerate critical point (multiplicity > 1) "
                             "out of scope")
            bethe.append(None)
            spectra.append(None)
            continue
        point = try_rationalize_orbit(problem, orb) or orb.groups
        exact_pt = all(is_exact(x) for grp in point for x in grp)
        # one operator gives the spectrum, the eigenvalue equations and the
        # kernel: the pencil at an exact point, else the series at infinity
        exact = exact_pt and problem.exact
        if exact:
            operator = master_operator_at(problem, point)
            _, series = master_coefficients(operator, j_max)
        else:
            operator = series_by_contour(
                factored_pole_data(problem, point),
                max(j_max, series_terms(problem, point)))
            series = {i: c[:j_max] for i, c in operator.items()}
        spectra.append({"index": orb.index, "exact_point": exact_pt,
                        "eigenvalues": {str(i): list(map(format_scalar, s))
                                        for i, s in sorted(series.items())}})
        try:
            vec, info = bethe_vector(problem, M, point, form=form,
                                     max_terms=max_terms)
        except ZeroVector:
            checks.add(f"{tag}.nonvanishing", False,
                       detail="weight function vanished at the critical point")
            bethe.append(None)
            continue
        bethe.append((vec, info))
        checks.add(f"{tag}.nonvanishing", True, residual=0.0)
        checks.add(f"{tag}.singular_membership",
                   _passes(info["singular_residual"],
                           SING_TOL * max(1.0, info["coeff_max"]), exact),
                   residual=info["singular_residual"])

        # eigenvalue equations R_{i,j} x == g_{i,j} x on Sing, one for each
        # coefficient of the series at infinity the spectrum reports: an
        # exact zero at an exact point, else relative to the vectors compared
        if sing is None:
            checks.add(f"{tag}.eigenvalue_equations", False,
                       detail=sing_error)
        else:
            x = sing.coordinates(vec)
            xmax = max(map(scalar_abs, x.values()), default=0.0)
            worst = max(
                (_eigen_residual(P, x, g, exact, xmax)
                 for i in range(1, problem.N + 2)
                 for P, g in zip(sing.B_coeffs[i], series[i], strict=True)),
                default=0.0)
            checks.add(f"{tag}.eigenvalue_equations",
                       _passes(worst, EIG_TOL, exact), residual=worst)

        # norm formula against the Hessian determinant
        det = hessian_determinant(problem, point)
        norm = info.get("norm_square")
        if is_exact(det) and is_exact(norm):
            ok = det == norm
            res = 0.0 if ok else float(abs(to_complex(norm) - to_complex(det)))
        else:
            dv, nv = to_complex(det), to_complex(norm)
            res = abs(dv - nv) / max(1.0, abs(dv))
            ok = res < NORM_TOL
        checks.add(f"{tag}.norm_formula", ok, residual=res,
                   detail=f"form {format_scalar(norm)} vs determinant "
                          f"{format_scalar(det)}")

        # kernel polynomials and their certificates
        try:
            ht = solve_h_tuple(problem, point, pencil=operator, data=data)
        except GaudinError as e:
            checks.add(f"{tag}.kernel_shape", False, detail=str(e))
            continue
        checks.add(f"{tag}.kernel_shape", True,
                   detail=f"degrees {[p.degree for p in ht.polys]}")
        res_k = max(kernel_residuals(problem, point, ht, pencil=operator))
        checks.add(f"{tag}.kernel_residual", res_k < 1e-8, residual=res_k)
        yN = group_polynomials(problem, point)[-1]
        diff = ht.polys[-1] - yN
        res_y = 0.0 if diff.is_zero() else \
            diff.max_abs() / max(yN.max_abs(), 1.0)
        checks.add(f"{tag}.last_kernel_is_group_polynomial",
                   _passes(res_y, 1e-8, exact), residual=res_y)
        wr = verify_wronskian_identities(problem, point, ht)
        res_w = max(wr.values()) if wr else 0.0
        checks.add(f"{tag}.wronskian_identities", _passes(res_w, 1e-8, exact),
                   residual=res_w)
        inc = schubert_incidence(problem, ht, data)
        checks.add(f"{tag}.schubert_incidence", inc["ok"],
                   detail=json.dumps({"sites": [s["ok"] for s in inc["sites"]],
                                      "infinity": inc["infinity"]["ok"]}))

    # --- joint checks over all nondegenerate vectors
    live = [(k, b[0]) for k, b in enumerate(bethe) if b is not None]
    if not live:
        # nothing to pair: a failure unless the singular subspace is zero
        for name in ("gram_rank", "pairwise_orthogonality", "completeness"):
            checks.add(name, expected == 0,
                       detail=f"no Bethe vector for singular dimension "
                              f"{expected}")
    else:
        gram = SparseMatrix(len(live), len(live))
        worst_off = 0.0
        for a, (_, va) in enumerate(live):
            for b, (_, vb) in enumerate(live):
                val = form.pairing(va, vb)
                gram[a, b] = val
                if a != b:
                    worst_off = max(worst_off, scalar_abs(val))
        g_rank = rank(gram)
        checks.add("gram_rank", g_rank == len(live),
                   detail=f"rank {g_rank} of {len(live)} vectors")
        diag_scale = max(scalar_abs(gram[a, a]) for a in range(len(live)))
        checks.add("pairwise_orthogonality",
                   _passes(worst_off, 1e-8 * max(1.0, diag_scale),
                           all(b[1]["exact"] for b in bethe if b)),
                   residual=worst_off)
        checks.add("completeness",
                   len(live) == expected and len(orbits) == expected,
                   detail=f"{len(live)} independent vectors for singular "
                          f"dimension {expected}")

    report["spectra"] = [s for s in spectra if s is not None]
    report["checks"] = checks.items
    report["summary"] = checks.summary()
    # a report that breaks its schema is a fault of the program, not of the
    # input: RuntimeError, which `main` does not report as an input error
    if why := _mismatch(REPORT_SCHEMA, report):
        raise RuntimeError(f"report does not match the schema: {why}")
    return report, bethe


def emit_report(report, fmt="text", stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True, indent=2))
        stream.write("\n")
        return
    p = report["problem"]
    stream.write(f"# {REPORT_FORMAT} backend={report['backend']} "
                 f"mode={p['mode']} seed={report.get('seed')}\n")
    d = report.get("derived", {})
    if d:
        stream.write(f"# module dim {d['module_dimension']}, singular dim "
                     f"{d['singular_dimension']}, exponents {d['exponents']}\n")
    for orb in report.get("orbits", []):
        stream.write(f"# orbit {orb['index']}: residual {orb['residual']:.2e}"
                     f"{' DEGENERATE' if orb['degenerate'] else ''}\n")
    for c in report.get("checks", []):
        res = "" if c.get("residual") is None else f" residual={c['residual']:.3e}"
        det = f" {c['detail']}" if c.get("detail") else ""
        stream.write(f"{c['status']:7s} {c['name']}{res}{det}\n")
    s = report["summary"]
    stream.write(f"# {s['passed']} passed, {s['failed']} failed, "
                 f"{s['skipped']} skipped\n")


SELFTEST_PROBLEM = {
    "N": 1,
    "partitions": [[1, 0], [1, 0]],
    "l": [1],
    "z": ["0", "1"],
    "solver": {"seed": 1},
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gaudin",
        description="Verification workbench for the rational Gaudin model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("solve", "find critical orbits"),
            ("verify", "run all checks"),
            ("spectrum", "eigenvalue tables per orbit"),
            ("weightfn", "weight-function vectors per orbit"),
            ("selftest", "verify a built-in instance")]:
        sp = sub.add_parser(name, help=helptext)
        if name != "selftest":
            sp.add_argument("--problem", required=True)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["json", "text"], default="text")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--starts", type=int)
        sp.add_argument("--tol-residual", type=float)
        sp.add_argument("--tol-dedup", type=float)
        sp.add_argument("--jmax", dest="j_max", type=int)
        sp.add_argument("--precision", choices=["double", "longdouble"])
        sp.add_argument("--max-terms", type=int)
    args = parser.parse_args(argv)

    try:
        source = SELFTEST_PROBLEM if args.command == "selftest" \
            else _read_problem(args.problem)
        problem, config, options = load_problem(_with_overrides(source, args))
    except SchemaError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2

    stage = {"solve": "solve", "verify": "verify", "selftest": "verify",
             "spectrum": "verify", "weightfn": "verify"}[args.command]
    try:
        report, bethe = _verify(problem, config, options.get("j_max"),
                                options.get("d_cap"),
                                options.get("max_terms", 10 ** 7), stage)
    except GaudinError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2

    if args.command == "spectrum":
        _print_spectra(report)
    elif args.command == "weightfn":
        _print_weightfn(problem, report, bethe)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            emit_report(report, "json" if out.endswith(".json")
                        else args.format, fh)
    if args.command not in ("spectrum", "weightfn") or args.format == "json":
        emit_report(report, args.format)
    return 0 if report["summary"]["all_pass"] else 1


def _with_overrides(source, args):
    """The problem document with the command-line overrides written into it,
    so that the schema bounds them like values read from the file."""
    if not (isinstance(source, dict)
            and isinstance(source.get("solver", {}), dict)):
        return source                   # malformed: the schema says why
    given = {k: v for k, v in vars(args).items() if v is not None}
    out = dict(source, **{k: given[k] for k in ("j_max", "max_terms")
                          if k in given})
    out["solver"] = dict(source.get("solver", {}), **{
        k: given[k] for k in ("seed", "starts", "tol_residual", "tol_dedup",
                              "precision") if k in given})
    return out


def _print_spectra(report):
    for spec in report.get("spectra", []):
        print(f"orbit {spec['index']} (exact point: {spec['exact_point']})")
        for i, coeffs in spec["eigenvalues"].items():
            print(f"  coefficient {i}: {coeffs}")


def _print_weightfn(problem, report, bethe):
    """The vectors the pipeline verified, one entry of `bethe` per orbit."""
    M, _ = build_modules(problem)
    print(f"summand count: {term_count(problem.l, problem.n_sites)}")
    for orb, entry in zip(report["orbits"], bethe, strict=True):
        if orb["degenerate"]:
            print(f"orbit {orb['index']}: degenerate, skipped")
            continue
        if entry is None:
            print(f"orbit {orb['index']}: zero vector")
            continue
        vec, info = entry
        print(f"orbit {orb['index']}: {len(vec)} nonzero coordinates, "
              f"norm^2 = {format_scalar(info['norm_square'])}")
        for idx in sorted(vec):
            print(f"  [{idx}] weight {M.basis_weights[idx]}: "
                  f"{format_scalar(vec[idx])}")


if __name__ == "__main__":
    sys.exit(main())
