import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import _clear_shared_caches
from gaudin import bethe_algebra, diffop_ring, harness_cli, repr_core
from gaudin.bethe_algebra import (algebra_selfcheck, current_matrix,
                                  first_coefficient_identity,
                                  operator_coefficient, restrict_family,
                                  sample_points, universal_operator)
from gaudin.diffop_ring import (OperatorPencil, PackedPoleMatrix, PoleMatrix,
                                Poly, RFMatrix, row_determinant,
                                site_denominator)
from gaudin.errors import DimensionMismatch, NotInvariant, RepeatedSites
from gaudin.linalg import SparseMatrix, integer_scaled, rational_lcd, rref
from gaudin.master import (GaudinProblem, master_coefficients,
                           master_operator_at)
from gaudin.repr_core import (build_irreducible, shared_module, tensor_module,
                              tensor_shapovalov, weight_and_singular_subspace)
from gaudin.scalars import QI, is_exact, scalar_abs
from gaudin.weights import derive_infinity_weight

Z2 = [Fraction(0), Fraction(1)]


def _module(parts, N):
    mods = [build_irreducible(lam, N) for lam in parts]
    M = tensor_module([m for m, _ in mods])
    form = tensor_shapovalov([f for _, f in mods])
    return M, form


def test_current_matrix_residues():
    M, _ = _module([(1, 0), (1, 0)], 1)
    cur = current_matrix(M, 2, 1, Z2)
    # residue at z_s is the slot action of e_21
    for s, zs in enumerate(Z2):
        near = zs + Fraction(1, 10 ** 6)
        val = cur.eval(near)
        slot = M.slot_matrix(s, 2, 1)
        # dominant term is slot/(near - zs); remove the other pole by hand
        other = M.slot_matrix(1 - s, 2, 1)
        for (i, j), v in slot.data.items():
            expect = v / (near - zs) + other[i, j] / (near - Z2[1 - s])
            assert val[i, j] == expect


def test_site_polynomial_is_the_base_at_sites_of_one_denominator():
    """The sites 1/2 and 3/2 share their denominator: den is
    (2u - 1)(2u - 3) = 4 D, and base reads D, in a current and in a
    coefficient of the universal operator alike; coeffs over base^power
    still give the values."""
    z = [Fraction(1, 2), Fraction(3, 2)]
    M, _ = _module([(1, 0), (1, 0)], 1)
    u = Fraction(7, 3)
    for P in (current_matrix(M, 2, 1, z),
              operator_coefficient(universal_operator(M, z), 2)):
        assert P.base == Poly.from_roots(z)
        assert P.den == Poly((3, -8, 4))
        value = SparseMatrix(P.nrows, P.ncols)
        for a, mat in enumerate(P.coeffs):
            value = value + mat.scale(u ** a / P.base.eval(u) ** P.power)
        assert value.data == P.eval(u).data


def test_universal_operator_is_monic():
    M, _ = _module([(1, 0), (1, 0)], 1)
    pencil = universal_operator(M, Z2)
    assert pencil.order == 2
    top = pencil.coeffs[2]
    u = Fraction(5)
    mat = top.eval(u)
    for k in range(M.dim):
        assert mat[k, k] == Fraction(1)


def test_first_coefficient_identity_exact():
    M, _ = _module([(2, 0), (2, 0)], 1)
    pencil = universal_operator(M, Z2)
    assert first_coefficient_identity(pencil, [2, 2], Z2)


def test_first_coefficient_identity_at_floating_sites():
    """Floating sites compare the numerators over the site polynomial, to
    1e-9 of their largest entry: sites far out and off the line pass, and a
    wrong weight size fails."""
    M, _ = _module([(2, 0), (1, 0)], 1)
    z = [complex(-300.5, 0.25), complex(700, -2)]
    pencil = universal_operator(M, z)
    assert first_coefficient_identity(pencil, [2, 1], z)
    assert not first_coefficient_identity(pencil, [2, 2], z)


def test_commutativity_and_symmetry_exact_small():
    M, form = _module([(1, 0), (1, 0)], 1)
    poles = bethe_algebra.pole_operator(M)
    pencil = universal_operator(M, Z2, poles=poles)
    family = restrict_family(pencil, None, 4)
    sc = algebra_selfcheck(family, Z2)
    assert sc["exact"]
    assert sc["commutator_pairs"] == 0.0
    assert sc["lower_coefficients"] == 0.0
    assert bethe_algebra.module_selfcheck(poles, M, form) == {
        "commutator_with_gl": 0.0, "form_symmetry": 0.0}


def _sing_family(M, z, S, j_max):
    """The family on the span of S: the site-free coefficients of M
    restricted to it, with the sites z put in."""
    poles = bethe_algebra.restrict_poles(bethe_algebra.pole_operator(M), S)
    return restrict_family(universal_operator(M, z, poles=poles), S, j_max)


def test_restriction_to_singular_subspace():
    """The family on Sing is k x k; restrict_family restricts nothing, and
    refuses the full operator with a subspace."""
    parts = [(1, 0), (1, 0)]
    M, form = _module(parts, 1)
    W, S = weight_and_singular_subspace(M, (1, 1))
    family = _sing_family(M, Z2, S, 4)
    assert family.B_u[1].nrows == 1
    # restriction of B_2 to the 1-dim singular space: eigenvalue function
    mat = family.eval(2, Fraction(3))
    assert mat.nrows == 1 and mat.ncols == 1
    with pytest.raises(DimensionMismatch):
        restrict_family(universal_operator(M, Z2), S, 4)
    # a zero singular space keeps the order of the operator
    _, S = weight_and_singular_subspace(M, (0, 2))
    family = _sing_family(M, Z2, S, 4)
    assert S.ncols == 0 and family.N == 1
    assert [family.B_u[i].nrows for i in (1, 2)] == [0, 0]


def test_restriction_rejects_noninvariant_subspace():
    """The site-free coefficients are restricted exactly, with no site: a
    column mixing two weights, or one basis vector of a weight space that
    is not an eigenvector of B_2, raises NotInvariant, and the whole weight
    space restricts."""
    M, form = _module([(1, 0), (1, 0)], 1)
    # a random non-invariant column: mix of different weights
    S = SparseMatrix(M.dim, 1)
    S[0, 0] = Fraction(1)
    S[1, 0] = Fraction(1)
    with pytest.raises(NotInvariant):
        bethe_algebra.restrict_poles(bethe_algebra.pole_operator(M), S)
    M, _ = _module([(1, 0)] * 4, 1)
    poles = bethe_algebra.pole_operator(M)
    W, _ = weight_and_singular_subspace(M, (2, 2))
    column = SparseMatrix(M.dim, 1, {(next(iter(W.data))[0], 0): 1})
    with pytest.raises(NotInvariant, match="coefficient 2 maps basis "
                                           "vector 0 outside"):
        bethe_algebra.restrict_poles(poles, column)
    assert [c.nrows for c in bethe_algebra.restrict_poles(poles, W)] == [6, 6]


def _exact_site(x):
    return QI(Fraction(x.real), Fraction(x.imag)) if x.imag else Fraction(x.real)


FLOAT_RESTRICTION_SITES = {
    "complex_site": [0, 1, 3 + 0.2j, -2],
    "off_grid": [0.1, 1.3, 2.7 + 0.2j, -1.9],
}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("name", sorted(FLOAT_RESTRICTION_SITES))
def test_restriction_at_float_sites_matches_exact_sites(name, scale):
    """The exact restriction of the site-free coefficients, put at floating
    sites, matches it put at the same sites read exactly, and keeps small
    coordinates."""
    M, _ = _module([(1, 0)] * 4, 1)
    _, S = weight_and_singular_subspace(M, (2, 2))
    z = [complex(x) * scale for x in FLOAT_RESTRICTION_SITES[name]]
    got = _sing_family(M, z, S, 4)
    want = _sing_family(M, [_exact_site(x) for x in z], S, 4)
    assert got.B_u[1].nrows == want.B_u[1].nrows == 2
    for i in (1, 2):
        for u in (complex(0.5, 0.7) * scale, complex(-1.3, 0.2) * scale):
            a = got.eval(i, u)
            b = want.eval(i, _exact_site(u))
            keys = set(a.data) | set(b.data)
            size = max(scalar_abs(b[k]) for k in keys)
            err = max(abs(complex(a[k]) - complex(b[k])) for k in keys)
            assert err <= 1e-9 * size, (i, u, err, size)


# (N, partitions, l) of the module shapes of the benchmark workloads; each is
# tested in both factor orders
WORKLOAD_SHAPES = [
    (1, [(1, 0)] * 4, [2]),
    (2, [(2, 1, 0), (2, 1, 0)], [1, 1]),
    (2, [(2, 1, 0), (1, 0, 0)], [1, 1]),
    (2, [(2, 1, 0), (2, 0, 0)], [2, 1]),
    (2, [(2, 1, 0), (1, 1, 0)], [1, 1]),
    (2, [(2, 0, 0), (1, 1, 0)], [1, 1]),
    (3, [(1, 0, 0, 0), (1, 1, 0, 0)], [1, 1, 0]),
    (3, [(2, 1, 0, 0), (1, 0, 0, 0)], [1, 1, 0]),
]


def _values(P: RFMatrix) -> SparseMatrix:
    """A series coefficient as the SparseMatrix of its values: Fractions in
    the integral form, where num[0] holds ints over d."""
    return P.coeffs[0] if P.num else SparseMatrix(P.nrows, P.ncols)


def _has_unit_rows(S):
    """Every column m is 1 at some row where every other column is 0."""
    rows = {}
    for (r, c), v in S.data.items():
        rows.setdefault(r, {})[c] = v
    return all(any(row == {m: 1} for row in rows.values())
               for m in range(S.ncols))


def _singular_basis(parts, N, l):
    M, _ = shared_module(tuple(parts), N)
    return M, weight_and_singular_subspace(
        M, derive_infinity_weight(parts, l, N))[1]


def test_singular_bases_have_unit_rows(fresh_modules):
    """restrict_family reads coordinates at unit rows: the singular bases of
    every workload shape and of the 8-site chain have them, also where the
    columns are not integral."""
    shapes = [(N, order, l) for N, parts, l in WORKLOAD_SHAPES
              for order in (parts, parts[::-1])]
    lcds = set()
    for N, parts, l in shapes + [(1, [(1, 0)] * 8, [4])]:
        _, S = _singular_basis(parts, N, l)
        assert S.ncols and _has_unit_rows(S), parts
        lcds |= {rational_lcd(v for (_, c), v in S.data.items() if c == m)
                 for m in range(S.ncols)}
    assert lcds == {1, 2, 3, 6}


def test_restriction_needs_unit_rows():
    """A basis without unit rows raises ValueError, in the restriction and
    in the family that reads coordinates at them.  rref of its columns
    spans the same space with unit rows, and restricts to the same traces."""
    M, _ = _module([(1, 0)] * 4, 1)
    poles = bethe_algebra.pole_operator(M)
    _, S = weight_and_singular_subspace(M, (2, 2))
    z = [Fraction(k) for k in range(4)]
    mix = SparseMatrix(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -1})
    T = S @ mix
    assert not _has_unit_rows(T)
    with pytest.raises(ValueError, match="unit row"):
        bethe_algebra.restrict_poles(poles, T)
    sing = universal_operator(M, z,
                              poles=bethe_algebra.restrict_poles(poles, S))
    with pytest.raises(ValueError, match="unit row"):
        restrict_family(sing, T, 0)
    cols = [{r: v for (r, c), v in T.data.items() if c == m} for m in range(2)]
    rows, _ = rref(cols)
    U = SparseMatrix(M.dim, 2, {(r, m): v for m, row in enumerate(rows)
                                for r, v in row.items()})
    assert _has_unit_rows(U)
    u = Fraction(37, 7)
    for i in (1, 2):
        a = _sing_family(M, z, U, 0).eval(i, u)
        b = _sing_family(M, z, S, 0).eval(i, u)
        assert a[0, 0] + a[1, 1] == b[0, 0] + b[1, 1]
    # a Gaussian-rational entry off the unit rows
    key = next(k for k, v in S.data.items() if v != 1)
    G = SparseMatrix(S.nrows, S.ncols, S.data)
    G[key] = QI(0, 1)
    with pytest.raises(ValueError, match="rational"):
        bethe_algebra.restrict_poles(poles, G)


# (N, partitions, l, sites, a): at the floating sites numerator matrix a
# of B_3 on the adjoint times Sym^2 of gl3, zero at exact sites, is
# roundoff in the determinant of the currents expanded over the site
# polynomial
RESTRICTION_SHAPES = {
    "chain6": (1, [(1, 0)] * 6, [3], None, None),
    "wide21": (2, [(2, 1, 0), (2, 1, 0)], [1, 1], None, None),
    "adjoint_sym2_off_line": (2, [(2, 1, 0), (2, 0, 0)], [2, 1],
                              [0j, 1.3 + 0.4j], 0),
    "adjoint_sym2_real": (2, [(2, 0, 0), (2, 1, 0)], [2, 1],
                          [-1.524 + 0j, 0.762 + 0j], 1),
}


@pytest.mark.parametrize("name", sorted(RESTRICTION_SHAPES))
def test_restricted_family_commutes_with_the_singular_basis(name):
    """B(u) S == S B_Sing(u), with B(u) the value of the full family and
    B_Sing that of the site-free restriction to Sing put at the sites:
    exactly at rational sites, and to 1e-12 of the largest entry at
    floating ones.  The pole operator has an exact zero where the
    determinant of the currents leaves roundoff, and no roundoff reaches
    the restriction, which is taken before any site is put in."""
    N, parts, l, z, a = RESTRICTION_SHAPES[name]
    M, S = _singular_basis(parts, N, l)
    points = (2.5 + 0.5j, -1.7 + 0j)
    if z is None:
        z = [Fraction(3 * k - 1, 2) for k in range(len(parts))]
        points = (Fraction(37, 7), Fraction(-5, 3))
    else:
        assert not operator_coefficient(universal_operator(M, z),
                                        3).num[a].data
        roundoff = operator_coefficient(_current_determinant(M, z), 3).num[a]
        assert 0 < max(map(abs, roundoff.data.values())) < 1e-13
    full = restrict_family(universal_operator(M, z), None, 0)
    sing = _sing_family(M, z, S, 0)
    assert sing.B_u[1].nrows == S.ncols
    # dim Sing is 1 on the adjoint times Sym^2, more on the exact shapes
    assert S.ncols > 1 or a is not None
    for i in range(1, N + 2):
        for u in points:
            value = sing.eval(i, u)
            assert not value.is_zero()
            left, right = full.eval(i, u) @ S, S @ value
            if is_exact(u):
                assert left == right
                continue
            size = max(map(abs, left.data.values()))
            assert all(abs(left[k] - right[k]) <= 1e-12 * size
                       for k in left.data.keys() | right.data.keys())


@pytest.mark.parametrize("parts", [[(2, 1, 0), (2, 1, 0)],
                                   [(1, 1, 0), (2, 0, 0)]],
                         ids=["lcd2", "lcd6"])
def test_integral_pencil_restricts_to_an_integral_family(parts):
    """The site-free restriction, put at rational sites, has int numerators
    over the full operator's denominator, with the lcd L of the basis folded
    into d; its Fraction view restricts each coefficient matrix of P."""
    M, S = _singular_basis(parts, 2, [1, 1])
    (_,), L = integer_scaled([S])
    assert L > 1
    z = [Fraction(-3, 2), Fraction(5, 3)]
    pencil = universal_operator(M, z)
    family = _sing_family(M, z, S, 4)
    k = S.ncols
    for i in range(1, 4):
        big, B = operator_coefficient(pencil, i), family.B_u[i]
        assert big.integral and B.integral and B.d == big.d * L
        assert all(type(v) is int for m in B.num for v in m.data.values())
        assert (B.base, B.power) == (big.base, big.power)
        for a, P in enumerate(big.coeffs):
            R = B.coeffs[a] if a < len(B.coeffs) else SparseMatrix(k, k)
            assert P @ S == S @ R


def test_floating_residuals_count_an_overflowed_value():
    """With the "complex_site" sites 1e60 times farther out, the values of
    B_2 at the sample points overflow to nan.  The self-check reports an
    infinite residual for them, as the residual of a matrix does for an
    entry that is not finite.  A max over the residuals once dropped the
    nan and read 0."""
    M, _ = _module([(1, 0)] * 4, 1)
    z = [complex(x) * 1e60 for x in FLOAT_RESTRICTION_SITES["complex_site"]]
    family = restrict_family(universal_operator(M, z), None, 3)
    with np.errstate(invalid="ignore"):
        sc = algebra_selfcheck(family, z)
    assert sc["commutator_pairs"] == sc["max_residual"] == float("inf")
    mat = SparseMatrix(1, 2, {(0, 0): 1.0, (0, 1): complex("nan")})
    assert bethe_algebra._matrix_residual(mat) == float("inf")


def _current_determinant(M, z):
    """The row determinant of delta_ij d - e_ji(u) over pencils of
    current_matrix entries: every current expanded over the site
    polynomial before any product is taken."""
    r = M.rank
    ident = RFMatrix.identity(M.dim)
    return row_determinant([
        [OperatorPencil([-current_matrix(M, j, i, z)]
                        + ([ident] if i == j else []))
         for j in range(1, r + 1)] for i in range(1, r + 1)])


# (partitions, N) per rank, with one to three sites
ORACLE_MODULES = [
    ([(1, 0)], 1), ([(2, 0), (1, 0)], 1), ([(1, 0), (2, 0), (1, 0)], 1),
    ([(2, 1, 0)], 2), ([(2, 1, 0), (1, 0, 0)], 2), ([(1, 0, 0)] * 3, 2),
    ([(1, 1, 0, 0)], 3), ([(1, 0, 0, 0), (1, 1, 0, 0)], 3),
    ([(1, 0, 0, 0)] * 3, 3),
]
ORACLE_SITES = {
    "rational": [Fraction(-13, 7), Fraction(5, 11), Fraction(17, 3)],
    "gaussian": [QI(0, Fraction(4, 3)), Fraction(1, 2), QI(-1, Fraction(2, 5))],
    "real": [-1.524 + 0j, 0.762 + 0j, 2.25 + 0j],
    "off_line": [0j, 1.3 + 0.4j, -0.7 - 2.1j],
}


def _oracle_cases():
    for parts, N in ORACLE_MODULES:
        for name in sorted(ORACLE_SITES):
            yield pytest.param(parts, N, ORACLE_SITES[name][:len(parts)],
                               id=f"{name}-{N + 1}x{len(parts)}")
    problem, _, _ = harness_cli.load_problem(str(
        Path(__file__).resolve().parents[1] / "tools" / "problems"
        / "defect9.json"))
    yield pytest.param(problem.partitions, problem.N, problem.z, id="defect9")


@pytest.mark.parametrize("parts, N, z", _oracle_cases())
def test_universal_operator_is_the_determinant_of_the_currents(parts, N, z):
    """The determinant over the pole symbols, put at the sites, is the row
    determinant of the currents expanded over the site polynomial: exactly
    at rational and Gaussian-rational sites, and at floating ones, on the
    real line and off it, to 1e-12 of the largest numerator entry of each
    coefficient, or 1e-12 where that is below 1.  There a coefficient that
    is zero at exact sites may be roundoff in the expanded determinant and
    an exact zero over the pole symbols."""
    M, _ = _module(parts, N)
    got, want = universal_operator(M, z), _current_determinant(M, z)
    assert got.order == want.order == N + 1
    assert got.coeffs[-1].is_unit() and want.coeffs[-1].is_unit()
    exact = all(map(is_exact, z))
    for a, b in zip(got.coeffs[:-1], want.coeffs[:-1], strict=True):
        if exact:
            assert (a - b).is_zero()
            assert a.is_zero() or a.is_exact()
            continue
        assert a.is_zero() or (a.power, a.is_exact()) == (b.power, False)
        x, y = ([mat.scale(1 / c.d) for mat in c.num] for c in (a, b))
        tol = 1e-12 * max([1.0] + [abs(v) for mat in y
                                   for v in mat.data.values()])
        for p, q in itertools.zip_longest(x, y, fillvalue=SparseMatrix(0, 0)):
            for key in p.data.keys() | q.data.keys():
                assert abs(p[key] - q[key]) <= tol


def test_operator_coefficient_indexing():
    M, _ = _module([(1, 0), (1, 0)], 1)
    pencil = universal_operator(M, Z2)
    c1 = operator_coefficient(pencil, 1)
    c2 = operator_coefficient(pencil, 2)
    assert c1 is pencil.coeffs[1]
    assert c2 is pencil.coeffs[0]


def test_sample_points_avoid_sites():
    pts = sample_points([Fraction(2), Fraction(4)], 5)
    assert len(pts) == 5
    assert Fraction(2) not in pts and Fraction(4) not in pts
    assert len(set(pts)) == 5


def test_repeated_sites_rejected():
    M, _ = _module([(1, 0), (1, 0)], 1)
    with pytest.raises(RepeatedSites):
        universal_operator(M, [Fraction(1), Fraction(1)])


def test_sample_points_keep_distance_from_float_sites():
    pts = sample_points([1.9 + 0j, 4.0 + 0j], 3)
    assert pts == [Fraction(3), Fraction(5), Fraction(6)]


@pytest.mark.parametrize("z, want", [
    ([Fraction(5, 2), Fraction(4)], [5, 6, 7]),
    ([QI(3, Fraction(1, 2)), QI(6, -2)], [2, 4, 5]),
    ([2.5 + 0.9j, 5 + 0j], [2, 3, 4, 6]),
    ([Fraction(3), QI(7, Fraction(1, 3)), 4.5 - 0.2j], [2, 6, 8, 9]),
], ids=["fraction", "qi", "complex", "mixed"])
def test_sample_points_are_pinned_for_fraction_qi_and_complex_sites(z, want):
    """The int k is tested against the sites, and Fraction(k) returned."""
    pts = sample_points(z, len(want))
    assert pts == want
    assert all(type(u) is Fraction for u in pts)


def test_float_sites_match_exact_sites():
    """At floating real sites every coefficient of the universal operator
    agrees with the one at the same sites as exact rationals.  With unreduced
    per-entry float denominators the third coefficient was off by half its
    size at u = 3 - i/4."""
    M, _ = _module([(2, 1, 0), (2, 1, 0)], 2)
    z_exact = [Fraction("-2.235"), Fraction("1.835")]
    exact = universal_operator(M, z_exact)
    floating = universal_operator(M, [complex(x) for x in z_exact])
    for u in (QI(Fraction(1, 2), 1), QI(3, Fraction(-1, 4)), QI(-4, 2)):
        for i in range(1, 4):
            want = operator_coefficient(exact, i).eval(u)
            got = operator_coefficient(floating, i).eval(complex(u))
            scale = max(scalar_abs(v) for v in want.data.values())
            err = max(scalar_abs(complex(want[k]) - got[k])
                      for k in set(want.data) | set(got.data))
            assert err < 1e-12 * scale, (u, i, err, scale)


# numeric seed 11 instance 36 (commuted products reach 1e4 and more) and the
# complex-site chain of test_complex_sites_pass_every_check
NUMERIC_SELFCHECK_CASES = {
    "far_apart_sites": ([(2, 0, 0), (2, 1, 0)], 2,
                        [complex(-3.657, 0.0), complex(-0.002, 0.0)], 7),
    "complex_sites": ([(1, 0)] * 4, 1,
                      [0j, complex(1, 0.3), complex(2, -0.1), 3.5 + 0j], 6),
}

# the per-instance residuals of the self-check, each judged against its
# scale, or against 1 where it has none
SELFCHECK_RESIDUALS = ("commutator_pairs", "lower_coefficients")


def _sparse_reference(family, z):
    """The numeric self-check's residuals and scale: the commutators from
    SparseMatrix products of complex B_i(u), and the lower coefficients from
    their values."""
    order = family.N + 1
    pts = sample_points(z, 6)
    B = {u: [family.eval(i, u) for i in range(1, order + 1)] for u in pts}
    res = scale = 0.0
    for u, v in zip(pts, pts[1:]):
        for i, a in enumerate(B[u]):
            for b in B[v][i:]:
                left, right = a @ b, b @ a
                keys = set(left.data) | set(right.data)
                res = max([res] + [abs(complex(left[k]) - complex(right[k]))
                                   for k in keys])
                scale = max([scale] + [abs(complex(x)) for x in
                                       (*left.data.values(),
                                        *right.data.values())])
    lower = max((abs(complex(x)) for i in range(1, order + 1)
                 for P in family.B_coeffs[i][:i - 1]
                 for x in _values(P).data.values()), default=0.0)
    return {"commutator_pairs": res, "lower_coefficients": lower,
            "scales": {"commutator_pairs": scale}}


def _passes(sc, check):
    scale = sc["scales"].get(check, 0.0)
    return sc[check] < harness_cli.ALGEBRA_TOL * max(1.0, scale)


@pytest.mark.parametrize("name", sorted(NUMERIC_SELFCHECK_CASES))
def test_numeric_selfcheck_matches_a_sparse_reference(name):
    """The ndarray products give the residual and scale of the sparse
    products to 1e-12 of the scale, the lower coefficients their largest
    value, and the same verdicts."""
    parts, N, z, j_max = NUMERIC_SELFCHECK_CASES[name]
    M, _ = _module(parts, N)
    family = restrict_family(universal_operator(M, z), None, j_max)
    got = algebra_selfcheck(family, z)
    assert not got["exact"]
    want = _sparse_reference(family, z)
    scale = want["scales"]["commutator_pairs"]
    assert abs(got["scales"]["commutator_pairs"] - scale) <= 1e-12 * scale
    for check in SELFCHECK_RESIDUALS:
        assert abs(got[check] - want[check]) <= 1e-12 * max(1.0, scale), check
        assert _passes(got, check) == _passes(want, check), check


def _corrupt_lower_coefficient(family, i, j, delta):
    """Add delta at (0, 1) of the u^-j coefficient of B_i, j < i, which
    vanishes, in the form the family stores it in: ints over d for an
    integral family, else its values over d = 1."""
    P = family.B_coeffs[i][j - 1]
    coeff = _values(P) if P.integral else bethe_algebra._numerator(P)
    coeff = SparseMatrix(P.nrows, P.ncols, dict(coeff.data))
    coeff[0, 1] = coeff[0, 1] + delta
    family.B_coeffs[i][j - 1] = RFMatrix(P.nrows, P.ncols, [coeff]) \
        if P.integral else P._like([coeff], 0, 1, integral=False)


def test_numeric_selfcheck_fails_on_a_corrupted_coefficient():
    """One corrupted coefficient of B_2, and one corrupted lower coefficient
    of B_3's series, changed in the one form the family stores them in,
    fail the checks they enter, at floating sites as in exact mode."""
    parts, N, z, j_max = NUMERIC_SELFCHECK_CASES["far_apart_sites"]
    M, _ = _module(parts, N)
    family = restrict_family(universal_operator(M, z), None, j_max)
    B2 = family.B_u[2]
    coeffs = [SparseMatrix(m.nrows, m.ncols, m.data) for m in B2.coeffs]
    bad = coeffs[0]
    key = next(k for k in bad.data if k[0] != k[1])
    bad[key] = bad[key] + 1 / 7
    family.B_u[2] = RFMatrix(B2.nrows, B2.ncols, coeffs, B2.base, B2.power)
    assert not family.B_coeffs[3][1].integral
    _corrupt_lower_coefficient(family, 3, 2, -2 / 9)
    got = algebra_selfcheck(family, z)
    assert not got["exact"]
    for check in SELFCHECK_RESIDUALS:
        assert not _passes(got, check), check


def _count_products(monkeypatch, cls=SparseMatrix, name="__matmul__"):
    """A list that gets one item per product of cls from now on."""
    calls = []
    product = getattr(cls, name)

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_numeric_selfcheck_makes_no_sparse_products(monkeypatch):
    """Numeric mode multiplies ndarrays only, and so does exact mode while
    its products are within the 2^53 bound; with the bound at 0, exact mode
    multiplies SparseMatrix products, which the counter sees."""
    parts, N, z, j_max = NUMERIC_SELFCHECK_CASES["complex_sites"]
    M, _ = _module(parts, N)
    numeric = restrict_family(universal_operator(M, z), None, j_max)
    z_exact = [Fraction(0), Fraction(1), Fraction(2), Fraction(7, 2)]
    exact = restrict_family(universal_operator(M, z_exact), None, j_max)
    calls = _count_products(monkeypatch)
    assert not algebra_selfcheck(numeric, z)["exact"]
    assert not calls
    assert algebra_selfcheck(exact, z_exact)["exact"]
    assert not calls
    monkeypatch.setattr(bethe_algebra, "_EXACT_BOUND", 0)
    assert algebra_selfcheck(exact, z_exact)["exact"]
    assert calls


@pytest.mark.parametrize("name", sorted(NUMERIC_SELFCHECK_CASES)
                         + ["rational_sites"])
def test_numeric_selfcheck_values_match_the_sparse_values(name):
    """The self-check's dense Horner over (rows, cols, values) arrays gives
    the sparse value of B_i(u) made dense, to 1e-13 of its largest entry,
    at floating sites and for the integer form."""
    if name == "rational_sites":
        parts, N, z = ([(2, 1, 0), (1, 1, 0)], 2,
                       [Fraction(-3, 2), Fraction(5, 3)])
    else:
        parts, N, z, _ = NUMERIC_SELFCHECK_CASES[name]
    M, _ = _module(parts, N)
    family = restrict_family(universal_operator(M, z), None, 0)
    for i in range(1, N + 2):
        B = family.B_u[i]
        assert B.integral == (name == "rational_sites")
        value = bethe_algebra._dense_horner(B)
        for u in sample_points(z, 6):
            want = bethe_algebra._dense(B.eval(u))
            assert np.abs(value(u) - want).max() <= 1e-13 * np.abs(want).max()


def _fraction_selfcheck(monkeypatch, family, z):
    """algebra_selfcheck with every matrix left in Fractions, and so every
    product a SparseMatrix one: the series coefficients are handed over as
    their Fraction values over d = 1, outside the integral form."""
    series = {i: [P._like([_values(P)], 0, 1, integral=False) for P in mats]
              for i, mats in family.B_coeffs.items()}
    fractions = bethe_algebra.BetheOperatorFamily(
        family.N, family.B_u, series, None, family.j_max)
    with monkeypatch.context() as m:
        m.setattr(bethe_algebra, "_EXACT_BOUND", 0)
        m.setattr(RFMatrix, "eval_scaled", lambda self, u: (self.eval(u), 1))
        return algebra_selfcheck(fractions, z)


def test_exact_selfcheck_in_integers_matches_the_fraction_arithmetic(
        monkeypatch):
    """The integer products give the Fraction products' verdicts and, after
    one coefficient of B_2 and one lower coefficient of B_3's series are
    corrupted in the one form the family stores them in, the same nonzero
    residuals bit for bit."""
    z = [Fraction(-3, 2), Fraction(5, 3)]
    M, _ = _module([(2, 1, 0), (1, 1, 0)], 2)
    family = restrict_family(universal_operator(M, z), None, 4)
    got = algebra_selfcheck(family, z)
    assert got["exact"] and got["max_residual"] == 0.0
    assert repr(got) == repr(_fraction_selfcheck(monkeypatch, family, z))

    family = restrict_family(universal_operator(M, z), None, 4)
    B2 = family.B_u[2]
    coeffs = B2.coeffs
    bad = coeffs[0]
    key = next(k for k in bad.data if k[0] != k[1])
    bad[key] = bad[key] + Fraction(1, 7)
    family.B_u[2] = RFMatrix(B2.nrows, B2.ncols, coeffs, B2.base, B2.power)
    assert family.B_coeffs[3][1].integral
    _corrupt_lower_coefficient(family, 3, 2, -Fraction(2, 9))
    # back in the integral form: int numerators over one int d
    assert family.B_coeffs[3][1].integral
    got = algebra_selfcheck(family, z)
    for name in SELFCHECK_RESIDUALS:
        assert got[name] > 0, name
    assert repr(got) == repr(_fraction_selfcheck(monkeypatch, family, z))


def test_exact_selfcheck_multiplies_past_2_53_in_integers(monkeypatch):
    """x y - y x is -1 and 1 at two entries, where x y and y x are 2^54 - 1
    and 2^54.  Their float64 products both round to 2^54, so only the integer
    products see the difference: the pair is past the 2^53 bound, and the
    self-check reports the exact residual 1.  Forced dense, it reads 0."""
    p = 2 ** 27
    x = SparseMatrix(2, 2, {(0, 1): p + 1, (1, 0): p})
    y = SparseMatrix(2, 2, {(0, 1): p, (1, 0): p - 1})
    assert (x @ y - y @ x).data == {(0, 0): -1, (1, 1): 1}
    dx, dy = bethe_algebra._dense(x, float), bethe_algebra._dense(y, float)
    assert np.array_equal(dx @ dy, dy @ dx)
    family = bethe_algebra.BetheOperatorFamily(
        1, {1: RFMatrix(2, 2, [x]), 2: RFMatrix(2, 2, [y])}, {}, None, 0)
    got = algebra_selfcheck(family, [Fraction(0)])
    assert got["exact"]
    assert got["commutator_pairs"] == got["max_residual"] == 1.0
    monkeypatch.setattr(bethe_algebra, "_EXACT_BOUND", 2 ** 200)
    got = algebra_selfcheck(family, [Fraction(0)])
    assert got["commutator_pairs"] == 0.0


def test_exact_selfcheck_divides_out_the_content(monkeypatch):
    """Entries 2^40 and 2^30 times small ints put the products past 2^53,
    but the gcd of each matrix divides out: a commuting pair is compared
    in BLAS with no SparseMatrix product, and a pair that differs gets its
    residual, 2^71, from the integer products of the undivided matrices."""
    calls = _count_products(monkeypatch)
    x = SparseMatrix(2, 2, {(0, 0): 2 ** 40, (1, 1): 2 ** 41})
    swap = SparseMatrix(2, 2, {(0, 1): 2 ** 40, (1, 0): 2 ** 40})
    y = SparseMatrix(2, 2, {(0, 0): 3 * 2 ** 30, (1, 1): 5 * 2 ** 30})
    for a, want in ((x, 0.0), (swap, 2.0 ** 71)):
        family = bethe_algebra.BetheOperatorFamily(
            1, {1: RFMatrix(2, 2, [a]), 2: RFMatrix(2, 2, [y])}, {}, None, 0)
        got = algebra_selfcheck(family, [Fraction(0)])
        assert got["commutator_pairs"] == want
        assert bool(calls) == bool(want)


def _pole_terms_reference(packed):
    """The C_m of a packed coefficient as SparseMatrix of Python ints."""
    keys = list(zip(*packed.keys.tolist()))
    return [SparseMatrix(packed.nrows, packed.ncols,
                         {keys[k]: v for k, v in zip(*entries.tolist())})
            for _, entries in packed.terms]


def _module_reference(poles, M, form):
    """module_selfcheck's residuals from SparseMatrix products of the int
    C_m with the Fraction generators and Gram matrix, as the float of the
    largest exact entry."""
    gens = [M.e(a, b) for a in range(1, M.rank + 1)
            for b in range(1, M.rank + 1)]
    G = form.gram
    res_gl = res_sym = Fraction(0)
    for packed in poles:
        for C in _pole_terms_reference(packed):
            for E in gens:
                res_gl = max([res_gl] + [abs(v) for v in
                                         (C @ E - E @ C).data.values()])
            res_sym = max([res_sym] + [abs(v) for v in
                                       (G @ C - C.transpose() @ G)
                                       .data.values()])
    return {"commutator_with_gl": float(res_gl),
            "form_symmetry": float(res_sym)}


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES,
                         ids=lambda s: "x".join(map(str, s[1])))
def test_module_selfcheck_is_exactly_zero_on_the_workload_shapes(shape):
    """Every C_m of every workload shape commutes with every e_ab and is
    symmetric for the form, exactly."""
    N, parts, _ = shape
    M, form = _module(parts, N)
    poles = bethe_algebra.pole_operator(M)
    zero = {"commutator_with_gl": 0.0, "form_symmetry": 0.0}
    assert bethe_algebra.module_selfcheck(poles, M, form) == zero
    assert _module_reference(poles, M, form) == zero


def _corrupted(poles, k, diagonal, delta):
    """A copy of the packed coefficients with delta added to the first
    diagonal, or off-diagonal, entry of a C_m of coefficient k; the shared
    arrays are left as they are."""
    packed = poles[k]
    copy = PackedPoleMatrix.__new__(PackedPoleMatrix)
    for name in PackedPoleMatrix.__slots__:
        setattr(copy, name, getattr(packed, name))
    rows, cols = packed.keys.tolist()
    terms = list(packed.terms)
    for t, (m, entries) in enumerate(terms):
        index, values = entries.tolist()
        hits = [p for p, key in enumerate(index)
                if (rows[key] == cols[key]) == diagonal]
        if hits:
            values[hits[0]] += delta
            terms[t] = (m, diffop_ring._packed([index, values]))
            break
    copy.terms = tuple(terms)
    return poles[:k] + (copy,) + poles[k + 1:]


CORRUPTED_SHAPE = ((2, 1, 0), (1, 0, 0)), 2


@pytest.mark.parametrize("delta", [1, 2 ** 70], ids=["small", "past_int64"])
def test_a_corrupted_pole_coefficient_fails_the_moved_checks(delta):
    """One entry of one C_m changed in a copy of the shared coefficients: on
    the diagonal it breaks gl-invariance, and off it form symmetry, each
    with the exact residual of the Fraction products, also past the int64
    range."""
    parts, N = CORRUPTED_SHAPE
    M, form = _module(parts, N)
    poles = bethe_algebra.pole_operator(M)
    for diagonal, check in ((True, "commutator_with_gl"),
                            (False, "form_symmetry")):
        bad = _corrupted(poles, 1, diagonal, delta)
        got = bethe_algebra.module_selfcheck(bad, M, form)
        assert got[check] > 0, check
        assert got == _module_reference(bad, M, form)
    assert bethe_algebra.module_selfcheck(poles, M, form) == {
        "commutator_with_gl": 0.0, "form_symmetry": 0.0}


@pytest.mark.parametrize("z", [["-1", "3/2"], [["0", "1"], ["2", "-1/2"]],
                               [[0.25, 0.0], [1.5, 0.75]]],
                         ids=["exact", "gaussian", "floating"])
def test_a_corrupted_pole_coefficient_fails_the_report(fresh_modules,
                                                       monkeypatch, z):
    """The report's gl-invariance and form-symmetry checks read the module
    check of the shared coefficients: with one diagonal entry of one C_m
    corrupted they FAIL with its nonzero exact residual, at every kind of
    site."""
    parts, N = CORRUPTED_SHAPE
    poles, _ = bethe_algebra.shared_pole_operator(parts, N)
    M, form = shared_module(parts, N)
    bad = _corrupted(poles, 1, True, 1)
    module = bethe_algebra.module_selfcheck(bad, M, form)
    monkeypatch.setattr(harness_cli, "shared_pole_operator",
                        lambda *key: (bad, module))
    report = _cache_shape_run(z)
    checks = {c["name"]: c for c in report["checks"]}
    gl = checks["algebra_gl_invariance"]
    assert gl["status"] == "FAIL"
    assert gl["residual"] == module["commutator_with_gl"] > 0
    assert checks["algebra_form_symmetry"]["status"] == "PASS"


@pytest.mark.parametrize("z", [["-1", "3/2"], [["0", "1"], ["2", "-1/2"]],
                               [[0.25, 0.0], [1.5, 0.75]]],
                         ids=["exact", "gaussian", "floating"])
def test_a_corrupted_pole_coefficient_fails_the_sing_restriction(
        fresh_modules, monkeypatch, z):
    """With one diagonal entry of one C_m of B_2 corrupted, the exact
    restriction of the site-free coefficients to Sing raises NotInvariant,
    and every orbit's eigenvalue equations FAIL with its text, at every
    kind of site: the report is made, with no crash."""
    parts, N = CORRUPTED_SHAPE
    poles, _ = bethe_algebra.shared_pole_operator(parts, N)
    M, form = shared_module(parts, N)
    bad = _corrupted(poles, 1, True, 1)
    module = bethe_algebra.module_selfcheck(bad, M, form)
    # the report's module check and the cached restriction to Sing read the
    # corrupted coefficients
    for target in (harness_cli, bethe_algebra):
        monkeypatch.setattr(target, "shared_pole_operator",
                            lambda *key: (bad, module))
    problem, config, options = harness_cli.load_problem(dict(CACHE_SHAPE, z=z))
    _, S = repr_core.shared_singular_subspace(parts, N,
                                              problem.infinity_weight)
    with pytest.raises(NotInvariant, match="coefficient 2 maps") as error:
        bethe_algebra.restrict_poles(bad, S)
    report = harness_cli.run_pipeline(problem, config, **options)
    eigen = [c for c in report["checks"]
             if c["name"].endswith("eigenvalue_equations")]
    assert len(eigen) == len(report["orbits"]) > 0
    assert all(c["status"] == "FAIL" and c["detail"] == str(error.value)
               and c["residual"] is None for c in eigen)


def test_integral_dense_horner_stops_at_2_53():
    """The float64 Horner pass runs only while sum_a max|num_a| |u|^a is
    below 2^53: num = 2^51 u + 1 is exact at u = 3 and refused at u = 4."""
    one = SparseMatrix(1, 1, {(0, 0): 1})
    B = RFMatrix(1, 1, [one, one.scale(2 ** 51)])
    value = bethe_algebra._dense_horner(B, scaled=True)
    assert value(Fraction(3)) == 3 * 2 ** 51 + 1
    assert value(Fraction(4)) is None
    assert B.eval_scaled(Fraction(4))[0].data == {(0, 0): 2 ** 53 + 1}


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES[1:],
                         ids=lambda s: "x".join(map(str, s[1])))
def test_integral_dense_horner_is_eval_scaled_within_the_bound(shape):
    """Wherever sum_a max|num_a| |u|^a < 2^53, the float64 Horner values of
    every nonzero B_i of an `algebra` shape at the 6 sample points are the
    ints of `eval_scaled`, over c = d D~(u)^k; their content-reduced form
    gives the same ints back."""
    N, parts, _ = shape
    M, _ = _module(parts, N)
    within = 0
    for z in ([Fraction(-3, 2), Fraction(5, 3)],
              [Fraction(-6), Fraction(17, 3)]):
        family = restrict_family(universal_operator(M, z), None, 0)
        for i in range(1, N + 2):
            B = family.B_u[i]
            if B.is_zero():
                continue
            value = bethe_algebra._dense_horner(B, scaled=True)
            for u in sample_points(z, 6):
                m = value(u)
                if m is None:
                    continue
                within += 1
                want, c = B.eval_scaled(u)
                assert c == B.d * B.den.eval(int(u)) ** B.power
                assert np.array_equal(m, bethe_algebra._dense(want, float))
                got = bethe_algebra._Scaled(c, dense=m)
                assert got.sparse().data == want.data
    assert within


# sha256 of the exact universal operator: (power, base, entries in key
# order) of every coefficient, then its series at infinity to u^-4, in the
# Gelfand-Tsetlin basis of each factor.  The pins were recorded from the
# operator expanded over the site polynomial, before the determinant was
# taken over the pole symbols, which inserts the entries in another order.
# The site denominators 7, 11 and 3 are coprime, so the integer form scales
# every base.
SITES_7_11_3 = [Fraction(-13, 7), Fraction(5, 11), Fraction(17, 3)]
OPERATOR_PINS = {
    2: ([(1, 0), (2, 0), (1, 0)], 1, SITES_7_11_3,
        "3ec1b63f78c7f394882b3b3822c344ae8e4e2ee574fc45b4654a3504d5738818"),
    3: ([(2, 1, 0), (1, 0, 0)], 2, SITES_7_11_3[:2],
        "f9e524f35a280116e057bb326e6325eca01faa5c7daf89b62af906fcb4f59ba4"),
    4: ([(1, 0, 0, 0), (1, 1, 0, 0)], 3, SITES_7_11_3[1:],
        "1ee1a6ba64573bed1a192b7e62cebc22891e2488eec15822b29be52c2db80d12"),
}


def _operator_digest(pencil, j_max):
    def entries(mat):
        return repr([(k, str(v)) for k, v in sorted(mat.data.items())]).encode()

    h = hashlib.sha256()
    for c in pencil.coeffs:
        h.update(repr((c.power, [str(x) for x in c.base.coeffs])).encode())
        for mat in c.coeffs:
            h.update(entries(mat))
        for P in c.entries_series_at_infinity(j_max):
            h.update(entries(_values(P)))
    return h.hexdigest()


@pytest.mark.parametrize("rank", sorted(OPERATOR_PINS))
def test_universal_operator_is_pinned_byte_for_byte(rank):
    parts, N, z, digest = OPERATOR_PINS[rank]
    M, _ = _module(parts, N)
    assert M.rank == rank
    assert _operator_digest(universal_operator(M, z), 4) == digest


def _entry_pair(a: RFMatrix, key):
    """Entry `key` of a as an unreduced (numerator, denominator) pair."""
    return Poly([m[key] for m in a.coeffs]), a.base ** a.power


def _exact_scalar(v):
    return type(v) in (Fraction, int, QI)


EXACT_INSTANCES = {
    # (partitions, N, l, sites, weight at infinity, a point, eval points)
    "rational": ([(2, 1, 0), (1, 1, 0)], 2, [1, 1],
                 [Fraction(-3, 2), Fraction(5, 3)], (2, 2, 1),
                 [(Fraction(1, 3),), (Fraction(5, 7),)],
                 [Fraction(7, 3), Fraction(-11, 2), 4]),
    # ROADMAP defect 9, at its double critical point t = (1 + i)/3
    "gaussian": ([(1, 0), (2, 0), (3, 0)], 1, [1],
                 [Fraction(0), Fraction(1), QI(0, Fraction(4, 3))], (5, 1),
                 [(QI(Fraction(1, 3), Fraction(1, 3)),)],
                 [Fraction(7, 3), 4, QI(1, 2)]),
}


@pytest.mark.parametrize("name", sorted(EXACT_INSTANCES))
def test_exact_mode_returns_no_float(name):
    """int / int is a float in Python: every value the exact operator and
    its restrictions hand out is a Fraction, an int or a QI, and equals the
    entrywise rational-function oracle."""
    parts, N, l, z, mu, point, points = EXACT_INSTANCES[name]
    j_max = 4
    M, _ = _module(parts, N)
    pencil = universal_operator(M, z)
    _, S = weight_and_singular_subspace(M, mu)
    assert S.ncols
    for family in (_sing_family(M, z, S, j_max),
                   restrict_family(pencil, None, j_max)):
        for i in range(1, N + 2):
            B = family.B_u[i]
            assert B.is_exact()
            pairs = {(r, c): _entry_pair(B, (r, c))
                     for r in range(B.nrows) for c in range(B.ncols)}
            for u in points:
                got = family.eval(i, u)
                assert all(map(_exact_scalar, got.data.values()))
                for key, pair in pairs.items():
                    assert got[key] == oracles.rf_eval(pair, u)
            series = [_values(P) for P in family.B_coeffs[i]]
            for mat in series:
                assert all(map(_exact_scalar, mat.data.values()))
            for key, pair in pairs.items():
                assert [m[key] for m in series] == \
                    oracles.rf_series_at_infinity(pair, j_max)
    funcs, series = master_coefficients(
        master_operator_at(GaudinProblem(N, parts, l, z), point), j_max)
    for i, coeffs in series.items():
        assert all(map(_exact_scalar, coeffs))
        assert coeffs == oracles.rf_series_at_infinity(
            _entry_pair(funcs[i], (0, 0)), j_max)


# the `chain6` rung of tools/problems/ladder: six spin-1/2 sites at 0..5
CHAIN6 = (1, [(1, 0)] * 6, [3])


def _fraction_twin(B: RFMatrix) -> RFMatrix:
    """B with Fraction numerators, outside the integral form, so that its
    series divides every entry by the Fraction d l^k as it is summed."""
    return B._like([m.scale(Fraction(1)) for m in B.num], B.power,
                   integral=False)


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES[1:] + [CHAIN6],
                         ids=lambda s: "x".join(map(str, s[1])))
def test_integral_series_is_stored_in_ints(shape):
    """Each series coefficient of an integral family is stored once, int
    numerators in num[0] over one positive int d, and its Fractions are the
    Fraction series of the same coefficient entry by entry, in key order,
    for the 7 `algebra` shapes and the 6-site chain."""
    N, parts, _ = shape
    M, _ = _module(parts, N)
    z = ([Fraction(k) for k in range(6)] if shape is CHAIN6
         else [Fraction(-3, 2), Fraction(5, 3)])
    j_max = len(parts) * max(map(max, parts)) + N + 1
    family = restrict_family(universal_operator(M, z), None, j_max)
    nonzero = 0
    for i in range(1, N + 2):
        B = family.B_u[i]
        assert B.integral
        want = _fraction_twin(B).entries_series_at_infinity(j_max)
        for P, Q in zip(family.B_coeffs[i], want, strict=True):
            assert (P.power, P.integral) == (0, True)
            assert (Q.d, Q.integral) == (1, False)
            assert type(P.d) is int and P.d > 0
            assert all(type(v) is int for m in P.num for v in m.data.values())
            assert list(_values(P).data.items()) == \
                list(_values(Q).data.items())
            nonzero += bool(P.num)
    assert nonzero


def _bits(pencil):
    """Every coefficient's power, d, flags and num dicts, values by repr
    (which shows the sign of a zero part) in key order."""
    return [(c.power, c.d, c.integral, c.exact,
             [repr(list(m.data.items())) for m in c.num])
            for c in pencil.coeffs]


COMPOSE_SITES = {
    "integral": ([(2, 1, 0), (1, 1, 0)], 2, [Fraction(-3, 2), Fraction(5, 3)]),
    # the sites of tools/problems/defect9.json
    "gaussian": ([(1, 0), (2, 0), (3, 0)], 1,
                 [Fraction(0), Fraction(1), QI(0, Fraction(4, 3))]),
    "complex": NUMERIC_SELFCHECK_CASES["complex_sites"][:3],
}


@pytest.mark.parametrize("name", sorted(COMPOSE_SITES))
def test_unit_coefficient_composes_without_a_product(monkeypatch, name):
    """The unit leading coefficient of each diagonal entry d - e_ii(u)
    contributes g^(m) itself: the universal operator has the num dicts, d
    and power of the one made with every product, from fewer products of
    its pole-symbol coefficients."""
    parts, N, z = COMPOSE_SITES[name]
    M, _ = _module(parts, N)
    assert diffop_ring._is_unit(PoleMatrix.identity(M.dim, 6))
    calls = _count_products(monkeypatch, PoleMatrix, "__mul__")
    got = _bits(universal_operator(M, z))
    short = len(calls)
    monkeypatch.setattr(diffop_ring, "_is_unit", lambda f: False)
    assert got == _bits(universal_operator(M, z))
    assert short < len(calls) - short


# other sites for each shape of COMPOSE_SITES, of the same kind
OTHER_COMPOSE_SITES = {
    "integral": [Fraction(7, 2), Fraction(-1, 3)],
    "gaussian": [QI(Fraction(1, 2), Fraction(-1)), Fraction(2), Fraction(-3)],
    "complex": [complex(-1, 0.5), 0.25 + 0j, complex(3, -2), 1.75 + 0j],
}


@pytest.mark.parametrize("name", sorted(COMPOSE_SITES))
def test_shared_pole_operator_gives_the_bits_of_a_fresh_operator(
        fresh_modules, name):
    """The site-free determinant, taken once per (N, partitions) and put at
    two sets of sites, gives the bits of the universal operator taken afresh
    at each, on a module built afresh."""
    parts, N, z = COMPOSE_SITES[name]
    M, _ = shared_module(tuple(parts), N)
    fresh, _ = _module(parts, N)
    shared = bethe_algebra.shared_pole_operator(tuple(parts), N)
    poles, _ = shared
    for sites in (OTHER_COMPOSE_SITES[name], z):
        assert bethe_algebra.shared_pole_operator(tuple(parts), N) is shared
        assert _bits(universal_operator(M, sites, poles=poles)) == \
            _bits(universal_operator(fresh, sites))
    assert bethe_algebra.shared_pole_operator.cache_info().misses == 1


CACHE_SHAPE = {"N": 2, "partitions": [[2, 1, 0], [1, 0, 0]], "l": [1, 1],
               "solver": {"seed": 2}}


def _cache_shape_run(z):
    problem, config, options = harness_cli.load_problem(dict(CACHE_SHAPE, z=z))
    return harness_cli.run_pipeline(problem, config, **options)


def test_pipeline_takes_one_determinant_per_shape(fresh_modules, monkeypatch):
    """Runs of one shape at other sites share its determinant; a universal
    operator asked for without it takes its own every time."""
    calls = []
    det = bethe_algebra.row_determinant

    def counted(entries):
        calls.append(len(entries))
        return det(entries)

    monkeypatch.setattr(bethe_algebra, "row_determinant", counted)
    _cache_shape_run(["-1", "3/2"])
    _cache_shape_run([[0.25, 0.0], [1.5, 0.75]])
    assert calls == [3]
    M, _ = shared_module(((2, 1, 0), (1, 0, 0)), 2)
    universal_operator(M, Z2)
    universal_operator(M, Z2)
    assert calls == [3, 3, 3]


def test_factor_orders_and_ranks_are_different_keys(fresh_modules):
    shared = bethe_algebra.shared_pole_operator
    keys = [(((2, 1, 0), (1, 0, 0)), 2), (((1, 0, 0), (2, 1, 0)), 2),
            (((2, 1, 0, 0), (1, 0, 0, 0)), 3)]
    pencils = []
    for parts, N in keys:
        M, _ = shared_module(parts, N)
        pencils.append(_bits(universal_operator(M, Z2,
                                                poles=shared(parts, N)[0])))
        assert pencils[-1] == _bits(universal_operator(M, Z2))
    assert shared.cache_info().misses == shared.cache_info().currsize == 3
    assert pencils[0] != pencils[1]


@pytest.mark.parametrize("z", [["-1", "3/2"], [["0", "1"], ["2", "-1/2"]],
                               [[0.25, 0.0], [1.5, 0.75]]])
def test_warm_pole_cache_gives_the_cold_report(fresh_modules, z):
    """A report made with the shape's determinant already shared, after a
    run at other sites, equals the report of a cold cache byte for byte."""
    cold = json.dumps(_cache_shape_run(z), sort_keys=True)
    bethe_algebra.shared_pole_operator.cache_clear()
    _cache_shape_run(["5/3", "-2"])
    poles, _ = bethe_algebra.shared_pole_operator(
        ((2, 1, 0), (1, 0, 0)), 2)
    before = [(m, a.tolist()) for c in poles for m, a in c.terms]
    warm = json.dumps(_cache_shape_run(z), sort_keys=True)
    assert bethe_algebra.shared_pole_operator.cache_info().hits == 2
    assert warm == cold
    # the run read the shared coefficients and left them as they were
    assert [(m, a.tolist()) for c in poles for m, a in c.terms] == before


@pytest.mark.parametrize("z", [["-1", "3/2"], [["0", "1"], ["2", "-1/2"]],
                               [[0.25, 0.0], [1.5, 0.75]]],
                         ids=["exact", "gaussian", "floating"])
def test_warm_shared_caches_give_the_cold_report(fresh_modules, z):
    """A report made with every shared cache empty equals, byte for byte,
    the report made after a run at other sites has filled them: the module,
    the determinant with its module check, the singular subspace and the
    restriction of the determinant to it."""
    cold = json.dumps(_cache_shape_run(z), sort_keys=True)
    _clear_shared_caches()
    _cache_shape_run(["5/3", "-2"])
    warm = json.dumps(_cache_shape_run(z), sort_keys=True)
    assert warm == cold
    # the cold restriction to Sing M read the determinant once more and
    # made its bases S_mu itself, so the per-weight cache holds the
    # instance's weight only
    assert bethe_algebra.shared_pole_operator.cache_info().hits == 2
    assert repr_core.shared_singular_subspace.cache_info()[:2] == (1, 1)
    assert bethe_algebra.shared_singular_poles.cache_info()[:2] == (1, 1)


def test_packed_values_past_int64_put_at_sites():
    """A value past the int64 range is packed as a Python int and put at
    the sites as exactly as a small one."""
    big = 2 ** 70 + 1
    value = PoleMatrix(1, 2, {(0, 1): SparseMatrix(1, 2, {(0, 1): big}),
                              (1, 1): SparseMatrix(1, 2, {(0, 0): -3})}, 2)
    packed = PackedPoleMatrix(value)
    assert [a.dtype for _, a in packed.terms] == [object, np.int64]
    assert not any(a.flags.writeable for _, a in packed.terms)
    assert PackedPoleMatrix(value.scale(0)).terms == ()
    z = [Fraction(1, 2), Fraction(-4, 3)]
    P = packed.at_sites(site_denominator(z))
    u = Fraction(7, 5)
    y = [1 / (2 * (u - zs)) for zs in z]
    assert P.eval(u).data == {(0, 1): big * y[0] * y[1],
                              (0, 0): -3 * y[1] ** 2}


@pytest.mark.parametrize("name", sorted(EXACT_INSTANCES))
def test_master_pencil_composes_without_a_product(monkeypatch, name):
    """master_operator_at composes its factors d - a_i through the same
    compose, and the unit shortcut leaves its pencil as it was, from fewer
    RFMatrix products."""
    parts, N, l, z, _, point, _ = EXACT_INSTANCES[name]
    problem = GaudinProblem(N, parts, l, z)
    calls = _count_products(monkeypatch, RFMatrix, "__mul__")
    got = _bits(master_operator_at(problem, point))
    fast = len(calls)
    monkeypatch.setattr(diffop_ring, "_is_unit", lambda f: False)
    assert got == _bits(master_operator_at(problem, point))
    assert fast < len(calls) - fast


# 4-site spin-1/2 chains, l = 2, where multistart reports one orbit for
# dim Sing = 2 (`search` workload seed 13, instances 0, 3 and 22); z0 is a
# site, and u0 a sample point off the sites
NON_CRITICAL_EIGENVALUES = {
    "first": (["0", "1/2", "2/3", "3/2"], "2/3", "37/7"),
    "second": (["-3/2", "1/3", "1/2", "2"], "1/3", "-11/5"),
    "third": (["-5/2", "-1/2", "-1/3", "2"], "-1/3", "9/2"),
}


@pytest.mark.parametrize("name", sorted(NON_CRITICAL_EIGENVALUES))
def test_bethe_algebra_eigenvalue_that_is_not_a_critical_point(name):
    """One eigenvalue of B_2(u0) on Sing belongs to y = (u - z0)^2, whose
    roots sit on the site z0, so it is no critical point of the master
    function: these chains have one critical point, and their orbit_count
    FAIL is right, not a missed orbit."""
    sites, z0, u0 = NON_CRITICAL_EIGENVALUES[name]
    z = [Fraction(s) for s in sites]
    z0, u0 = Fraction(z0), Fraction(u0)
    M, _ = _module([(1, 0)] * 4, 1)
    _, S = weight_and_singular_subspace(M, (2, 2))
    assert S.ncols == 2
    family = _sing_family(M, z, S, 0)
    y = Poly.from_roots([z0, z0])
    c1 = -sum(1 / (u0 - s) for s in z)
    c2 = -(y.derivative(2).eval(u0) + c1 * y.derivative().eval(u0)) / y.eval(u0)
    B1, B2 = family.eval(1, u0), family.eval(2, u0)
    assert B1 == SparseMatrix.identity(2).scale(c1)
    trace = B2[0, 0] + B2[1, 1]
    det = B2[0, 0] * B2[1, 1] - B2[0, 1] * B2[1, 0]
    assert c2 * c2 - trace * c2 + det == 0


def test_eval_scaled_is_eval_over_one_int_denominator():
    """At a rational point an integer-form matrix gives int numerators over
    one nonzero int; elsewhere eval_scaled is integer_scaled of eval."""
    M, _ = _module([(2, 1, 0), (1, 1, 0)], 2)
    rational = universal_operator(M, [Fraction(-3, 2), Fraction(5, 3)])
    gaussian = universal_operator(M, [Fraction(-3, 2), QI(0, Fraction(4, 3))])
    for i in range(1, 4):
        B = operator_coefficient(rational, i)
        assert B.integral
        for u in (Fraction(7, 2), 3, Fraction(-5, 4)):
            mat, c = B.eval_scaled(u)
            assert type(c) is int and c != 0
            assert all(type(v) is int for v in mat.data.values())
            assert {k: Fraction(v, c) for k, v in mat.data.items()} \
                == B.eval(u).data
        for A, u in ((B, QI(1, 2)),
                     (operator_coefficient(gaussian, i), Fraction(7, 2))):
            (want,), d = integer_scaled([A.eval(u)])
            assert A.eval_scaled(u) == (want, d)


@pytest.mark.parametrize("parts, N, z", _oracle_cases())
def test_sing_algebra_checks_agree_with_the_full_module(parts, N, z):
    """The commutativity, lower-coefficient and first-coefficient checks
    read on Sing M agree with the same checks on the whole module
    (`oracles.full_module_algebra_checks`): the same exact zeros at exact
    sites, and residuals within 1e-12 of their scale on both sides at
    floating ones."""
    M, _ = _module(parts, N)
    sizes = [sum(lam) for lam in parts]
    full, full_first = oracles.full_module_algebra_checks(M, z, sizes)
    sing = bethe_algebra.singular_poles(bethe_algebra.pole_operator(M), M)
    whole, _ = sing.split(universal_operator(M, z, poles=sing.poles), ())
    got = algebra_selfcheck(restrict_family(whole, None, N), z)
    assert whole.coeffs[0].nrows == sum(k for _, k, _ in sing.blocks.values())
    assert first_coefficient_identity(whole, sizes, z) == full_first is True
    assert got["exact"] == full["exact"] == is_exact(z[0])
    for key in ("commutator_pairs", "lower_coefficients"):
        if got["exact"]:
            assert got[key] == full[key] == 0.0
            continue
        for sc in (got, full):
            scale = sc["scales"]["commutator_pairs"] \
                if key == "commutator_pairs" else 1.0
            assert sc[key] <= 1e-12 * max(1.0, scale), (key, sc)


def test_a_second_algebra_pass_misses_no_shared_cache(fresh_modules):
    """A second verify pass over the `algebra` instances of seed 0 finds
    every shared module, determinant, basis and restriction in its cache."""
    import sys
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    loaded = [harness_cli.load_problem(p)
              for p in workloads.generate("algebra", 0)]
    for problem, config, options in loaded:
        harness_cli.run_pipeline(problem, config, **options)
    from conftest import shared_caches
    before = {c.__name__: c.cache_info().misses for c in shared_caches()}
    for problem, config, options in loaded:
        harness_cli.run_pipeline(problem, config, **options)
    after = {c.__name__: c.cache_info().misses for c in shared_caches()}
    assert after == before
    assert bethe_algebra.shared_singular_poles.cache_info().currsize == 11


def test_a_gl_invariant_perturbation_fails_commutativity_only(
        fresh_modules, monkeypatch):
    """The two-site Casimir Omega_12 = sum_ab e_ab^(1) e_ba^(2) added to the
    C_m of y_1 y_2 in B_2 of three spin-1/2 sites keeps every C_m
    gl-invariant and symmetric, so it preserves Sing M and the module check
    PASSes; but B_2(u) and B_2(v) no longer commute on the 2-dim Sing M[(2,1)],
    and the commutativity check read on Sing M FAILs."""
    parts, N = ((1, 0),) * 3, 1
    M, form = shared_module(parts, N)
    poles, _ = bethe_algebra.shared_pole_operator(parts, N)
    omega = None
    for a in (1, 2):
        for b in (1, 2):
            term = M.slot_matrix(0, a, b) @ M.slot_matrix(1, b, a)
            omega = term if omega is None else omega + term
    (omega,), _ = integer_scaled([omega])
    terms = dict(bethe_algebra._pole_terms(poles[0]))
    terms[(0, 1)] = terms[(0, 1)] + omega
    bad = (PackedPoleMatrix(PoleMatrix(M.dim, M.dim, terms, poles[0].e)),) \
        + poles[1:]
    module = bethe_algebra.module_selfcheck(bad, M, form)
    for target in (harness_cli, bethe_algebra):
        monkeypatch.setattr(target, "shared_pole_operator",
                            lambda *key: (bad, module))
    report = harness_cli.run_pipeline(
        GaudinProblem(1, [[1, 0]] * 3, [1],
                      [Fraction(0), Fraction(1), Fraction(3)]))
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["algebra_gl_invariance"] == "PASS"
    assert status["algebra_form_symmetry"] == "PASS"
    assert status["algebra_commutativity"] == "FAIL"
