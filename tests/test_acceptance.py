"""Acceptance gate: the nine headline checks, one printed line each.

Exact-mode identities are asserted identically zero; floating residuals are
held to 1e-8 and finite-difference comparisons to relative 1e-6.  Every
criterion also enforces its wall-clock budget, printed alongside the result.
"""

import functools
import random
import time
from collections import namedtuple
from fractions import Fraction

import numpy as np

import oracles
import test_weightfn
from gaudin.bethe_algebra import (algebra_selfcheck,
                                  first_coefficient_identity,
                                  module_selfcheck, pole_operator,
                                  restrict_family, universal_operator)
from gaudin.harness_cli import build_modules, default_j_max
from gaudin.master import (GaudinProblem, SolverConfig, factored_pole_data,
                           find_critical_orbits, gradient_log_master,
                           hessian_determinant, hessian_log_master,
                           master_coefficients, master_operator_at,
                           scalar_coefficient_values, try_rationalize_orbit)
from gaudin.repr_core import weight_and_singular_subspace
from gaudin.scalars import is_exact, scalar_abs, to_complex
from gaudin.weight_function import bethe_vector
from gaudin.wronski_schubert import (exponent_data, kernel_residuals,
                                     schubert_incidence, solve_h_tuple,
                                     verify_wronskian_identities)

RESIDUAL_TOL = 1e-8
FD_TOL = 1e-6

# Orbit-level suite: both valid fillings of the two- and three-site
# fundamental tensors for N = 1 (any larger l makes the weight at infinity
# non-dominant, leaving no singular vectors to find), plus the rank-2
# mixed-partition instance.  The second entry is the hand-checked anchor.
SUITE_DEFS = (
    (1, ((1, 0), (1, 0)), (0,), (0, 1)),
    (1, ((1, 0), (1, 0)), (1,), (0, 1)),
    (1, ((1, 0), (1, 0), (1, 0)), (0,), (0, 1, 3)),
    (1, ((1, 0), (1, 0), (1, 0)), (1,), (0, 1, 3)),
    (2, ((1, 0, 0), (1, 1, 0)), (1, 1), (0, 1)),
)
ANCHOR_INDEX = 1

# Module-level suite for the exact algebra checks: rank <= 2, up to three
# sites, module dimension up to 200, rational sites.
ALGEBRA_DEFS = (
    (1, ((1, 0), (1, 0)), (0, 1)),
    (1, ((2, 0), (3, 0)), (0, 1)),
    (1, ((1, 0), (1, 0), (1, 0)), (0, 1, 3)),
    (1, ((2, 1), (2, 0)), (0, 1)),
    (2, ((1, 0, 0), (1, 1, 0)), (0, 1)),
    (2, ((2, 1, 0), (1, 0, 0)), (0, 1)),
    (2, ((1, 0, 0), (1, 0, 0), (1, 1, 0)), (0, 1, 3)),
    (2, ((2, 2, 0), (1, 1, 0)), (0, 1)),
    (2, ((2, 1, 0), (2, 1, 0)), (0, 1)),
    (2, ((3, 1, 0), (2, 1, 0)), (0, 1)),
)

Instance = namedtuple("Instance", "problem M form pencil family j_max orbits")
OrbitData = namedtuple("OrbitData", "orb point vec info")


class Criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, num, label, limit):
        self.num = num
        self.label = label
        self.limit = limit
        self.note = ""

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        ok = exc_type is None and elapsed < self.limit
        note = f" [{self.note}]" if self.note else ""
        print(f"[acceptance {self.num}/9] {self.label}: "
              f"{'PASS' if ok else 'FAIL'}{note} "
              f"({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.num} over budget: {elapsed:.2f}s"
        return False


@functools.lru_cache(maxsize=None)
def suite():
    out = []
    for N, parts, l, z in SUITE_DEFS:
        problem = GaudinProblem(N, [list(p) for p in parts], list(l),
                                [Fraction(x) for x in z])
        M, form = build_modules(problem)
        pencil = universal_operator(M, problem.z)
        j_max = default_j_max(problem)
        family = restrict_family(pencil, None, j_max)
        entries = []
        for orb in find_critical_orbits(problem, SolverConfig(seed=11)):
            if orb.degenerate:
                continue
            point = try_rationalize_orbit(problem, orb) or orb.groups
            vec, info = bethe_vector(problem, M, point, form=form)
            entries.append(OrbitData(orb, point, vec, info))
        out.append(Instance(problem, M, form, pencil, family, j_max,
                            tuple(entries)))
    return tuple(out)


def _sup(vec):
    return max(scalar_abs(v) for v in vec.values())


def _sample_points(problem, point, count):
    avoid = [to_complex(zv) for zv in problem.z]
    avoid += [to_complex(t) for grp in point for t in grp]
    out = []
    k = 2
    while len(out) < count:
        cand = Fraction(k)
        k += 1
        if any(abs(complex(cand) - a) < 1e-6 for a in avoid):
            continue
        out.append(cand)
    return out


def _point_is_exact(point):
    return all(is_exact(x) for grp in point for x in grp)


def test_c1_weight_function_fidelity():
    with Criterion(1, "weight function reproduces both closed-form "
                      "examples at 10 rational draws", 1.0):
        test_weightfn.test_two_color_closed_form_example()
        test_weightfn.test_one_color_closed_form_example()


def test_c2_commuting_algebra_exact():
    with Criterion(2, "commutativity, gl-commutation, form symmetry "
                      "exactly zero on the module suite", 120.0) as c:
        max_dim = 0
        for N, parts, z in ALGEBRA_DEFS:
            problem = GaudinProblem(N, [list(p) for p in parts], [0] * N,
                                    [Fraction(x) for x in z])
            M, form = build_modules(problem)
            assert M.dim <= 200
            max_dim = max(max_dim, M.dim)
            poles = pole_operator(M)
            pencil = universal_operator(M, problem.z, poles=poles)
            family = restrict_family(pencil, None, default_j_max(problem))
            sc = algebra_selfcheck(family, problem.z)
            assert sc["exact"], (parts, z)
            assert sc["commutator_pairs"] == 0.0, (parts, z)
            assert sc["lower_coefficients"] == 0.0, (parts, z)
            module = module_selfcheck(poles, M, form)
            assert module["commutator_with_gl"] == 0.0, (parts, z)
            assert module["form_symmetry"] == 0.0, (parts, z)
        c.note = f"{len(ALGEBRA_DEFS)} modules, max dim {max_dim}"


def test_c3_eigenvalue_equations():
    with Criterion(3, "eigenvalue equations on every nondegenerate orbit",
                   120.0) as c:
        worst = 0.0
        checked = exact_checked = 0
        for inst in suite():
            problem = inst.problem
            order = problem.N + 1
            for ent in inst.orbits:
                # g_i(u0) from the exact pencil at an exact point, else from
                # the factors composed over jets
                exact = _point_is_exact(ent.point) and problem.exact
                if exact:
                    scalar_pencil = master_operator_at(problem, ent.point)
                else:
                    pole_data = factored_pole_data(problem, ent.point)
                norm = _sup(ent.vec)
                assert norm > 0
                for u0 in _sample_points(problem, ent.point, 20):
                    if exact:
                        gvals = [scalar_pencil.coeffs[order - i].eval(u0)[0, 0]
                                 for i in range(1, order + 1)]
                    else:
                        gvals = scalar_coefficient_values(pole_data, u0)
                    for i in range(1, order + 1):
                        lhs = inst.family.eval(i, u0).apply(ent.vec)
                        g = gvals[i - 1]
                        diff = dict(lhs)
                        for idx, v in ent.vec.items():
                            s = diff.get(idx, 0) - g * v
                            if s:
                                diff[idx] = s
                            else:
                                diff.pop(idx, None)
                        checked += 1
                        if exact:
                            assert not diff, (problem.partitions, i, u0)
                            exact_checked += 1
                        elif diff:
                            worst = max(worst, max(scalar_abs(x)
                                                   for x in diff.values())
                                        / norm)
                        assert worst < RESIDUAL_TOL, (problem.partitions,
                                                      i, u0)
        assert checked >= len(SUITE_DEFS) * 20 * 2
        assert exact_checked > 0
        c.note = (f"{exact_checked} exact samples zero; worst floating "
                  f"residual {worst:.1e} over {checked - exact_checked}")


def test_c4_norm_formula():
    with Criterion(4, "Shapovalov norm square equals the Hessian "
                      "determinant", 120.0) as c:
        worst = 0.0
        anchor_done = False
        for k, inst in enumerate(suite()):
            for ent in inst.orbits:
                det = hessian_determinant(inst.problem, ent.point)
                norm = ent.info["norm_square"]
                if is_exact(det) and is_exact(norm):
                    assert det == norm, inst.problem.partitions
                else:
                    dv, nv = to_complex(det), to_complex(norm)
                    rel = abs(dv - nv) / max(abs(dv), 1e-300)
                    worst = max(worst, rel)
                    assert rel < RESIDUAL_TOL, inst.problem.partitions
                if k == ANCHOR_INDEX:
                    # the hand-derived value 8, re-derived here three
                    # independent ways: the from-scratch closed forms, the
                    # raw coefficient arithmetic, and the package's form
                    assert det == Fraction(8) and norm == Fraction(8)
                    assert oracles.anchor_norm_square() == 8
                    assert oracles.anchor_hessian() == 8
                    assert sorted(ent.vec.values()) == [Fraction(-2),
                                                        Fraction(2)]
                    for idx in ent.vec:
                        assert inst.form.gram[idx, idx] == 1
                    assert sum(v * v for v in ent.vec.values()) == 8
                    assert inst.form.pairing(ent.vec, ent.vec) == 8
                    anchor_done = True
        assert anchor_done
        c.note = f"anchor both sides 8; worst numeric rel {worst:.1e}"


def test_c5_singularity_and_nonvanishing():
    with Criterion(5, "vectors are nonzero and killed by all raising "
                      "generators", 120.0) as c:
        worst = 0.0
        for inst in suite():
            for ent in inst.orbits:
                norm = _sup(ent.vec)
                assert norm > 0
                for i in range(1, inst.M.rank + 1):
                    for j in range(i + 1, inst.M.rank + 1):
                        image = inst.M.e(i, j).apply(ent.vec)
                        res = (max(scalar_abs(v) for v in image.values())
                               / norm) if image else 0.0
                        worst = max(worst, res)
                        assert res < RESIDUAL_TOL, (inst.problem.partitions,
                                                    i, j)
        c.note = f"worst raising residual {worst:.1e}"


def test_c6_linear_independence_and_completeness():
    with Criterion(6, "Gram matrices have full rank and orbit counts "
                      "match the singular dimension", 120.0) as c:
        worst_ratio = 1.0
        for inst in suite():
            expected = oracles.singular_dimension(
                tuple(tuple(p) for p in inst.problem.partitions),
                inst.problem.infinity_weight)
            _, S = weight_and_singular_subspace(
                inst.M, inst.problem.infinity_weight)
            assert S.ncols == expected
            assert len(inst.orbits) == expected, inst.problem.partitions
            vecs = [ent.vec for ent in inst.orbits]
            G = np.zeros((len(vecs), len(vecs)), dtype=np.complex128)
            for a, va in enumerate(vecs):
                for b, vb in enumerate(vecs):
                    G[a, b] = to_complex(inst.form.pairing(va, vb))
            sv = np.linalg.svd(G, compute_uv=False)
            assert sv[-1] > RESIDUAL_TOL * sv[0], inst.problem.partitions
            worst_ratio = min(worst_ratio, float(sv[-1] / sv[0]))
        c.note = f"smallest conditioning ratio {worst_ratio:.1e}"


def test_c7_kernel_polynomials_and_incidence():
    with Criterion(7, "kernel tuples in exponent shape, product "
                      "identities, incidence at all sites and infinity",
                   120.0) as c:
        worst = 0.0
        anchor_done = False
        for k, inst in enumerate(suite()):
            data = exponent_data(inst.problem)
            for ent in inst.orbits:
                ht = solve_h_tuple(inst.problem, ent.point, data=data)
                assert tuple(h.degree for h in ht.polys) == data.exponents
                exact = _point_is_exact(ent.point) and inst.problem.exact
                res_k = kernel_residuals(inst.problem, ent.point, ht)
                wr = verify_wronskian_identities(inst.problem, ent.point, ht)
                assert set(wr) == set(range(1, inst.problem.N + 1))
                if exact:
                    assert res_k == [0.0] * (inst.problem.N + 1)
                    assert all(v == 0.0 for v in wr.values())
                else:
                    assert max(res_k) < RESIDUAL_TOL
                    assert max(wr.values()) < RESIDUAL_TOL
                    worst = max(worst, max(res_k), max(wr.values()))
                inc = schubert_incidence(inst.problem, ht, data)
                assert inc["ok"], inst.problem.partitions
                if k == ANCHOR_INDEX:
                    h1, h2 = ht.polys
                    assert h1.coeffs == (Fraction(0), Fraction(0),
                                         Fraction(1))
                    assert h2.coeffs == (Fraction(-1, 2), Fraction(1))
                    for h in ht.polys:
                        assert all(v == 0 for v in
                                   oracles.anchor_ode_apply(h.coeffs))
                    assert any(v != 0 for v in
                               oracles.anchor_ode_apply((0, 1)))
                    anchor_done = True
        assert anchor_done
        c.note = f"anchor tuple exact; worst numeric residual {worst:.1e}"


def test_c8_first_coefficient_telescoping():
    with Criterion(8, "first coefficient equals the telescoped single "
                      "sum over sites", 120.0) as c:
        for inst in suite():
            problem = inst.problem
            assert first_coefficient_identity(inst.pencil, problem.sizes,
                                              problem.z)
            for ent in inst.orbits:
                exact = _point_is_exact(ent.point) and problem.exact
                if exact:
                    scalar_pencil = master_operator_at(problem, ent.point)
                    first = scalar_pencil.coeffs[scalar_pencil.order - 1]
                else:
                    pole_data = factored_pole_data(problem, ent.point)
                for u0 in _sample_points(problem, ent.point, 5):
                    want = oracles.telescoped_first_coefficient_value(
                        problem.sizes, problem.z, u0)
                    if exact:
                        got = first.eval(u0)[0, 0]
                        assert got == want, (problem.partitions, u0)
                    else:
                        got = scalar_coefficient_values(pole_data, u0)[0]
                        assert abs(to_complex(got) - complex(want)) \
                            < 1e-12 * max(1.0, abs(complex(want)))
                if exact:
                    _, series = master_coefficients(scalar_pencil,
                                                    inst.j_max)
                    assert series[1] == \
                        oracles.telescoped_first_coefficient_series(
                            problem.sizes, problem.z, inst.j_max)
        c.note = "exact equality on all exact instances"


def test_c9_gradient_and_hessian_match_finite_differences():
    with Criterion(9, "closed-form gradient and Hessian match finite "
                      "differences at 20 random points per problem",
                   120.0) as c:
        rng = random.Random(97)
        worst = 0.0
        checked = 0
        for inst in suite():
            problem = inst.problem
            if problem.n_vars == 0:
                continue
            parts = [list(p) for p in problem.partitions]
            zc = [complex(x) for x in problem.z]
            for _ in range(20):
                flat = []
                groups = []
                for g, cnt in enumerate(problem.l):
                    grp = []
                    for _j in range(cnt):
                        val = complex(rng.uniform(-3, 3),
                                      rng.uniform(0.5, 3))
                        grp.append(val)
                        flat.append((val, g))
                    groups.append(tuple(grp))
                grad = [x for grp in gradient_log_master(problem, groups)
                        for x in grp]
                fd = oracles.fd_gradient(parts, list(problem.l), zc, flat)
                for a in range(len(flat)):
                    rel = abs(complex(grad[a]) - fd[a]) \
                        / max(1.0, abs(fd[a]))
                    worst = max(worst, rel)
                    assert rel < FD_TOL, problem.partitions
                    checked += 1
                H = hessian_log_master(problem, groups)
                fdh = oracles.fd_hessian(parts, list(problem.l), zc, flat)
                n = len(flat)
                for a in range(n):
                    for b in range(n):
                        rel = abs(complex(H[a][b]) - fdh[a][b]) \
                            / max(1.0, abs(fdh[a][b]))
                        worst = max(worst, rel)
                        assert rel < FD_TOL, problem.partitions
                        checked += 1
        assert checked > 0
        c.note = f"worst relative deviation {worst:.1e}"
