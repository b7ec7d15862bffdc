from fractions import Fraction

import pytest

from gaudin import bethe_algebra
from gaudin.bethe_algebra import (algebra_selfcheck, current_matrix,
                                  first_coefficient_identity,
                                  operator_coefficient, restrict_family,
                                  sample_points, universal_operator)
from gaudin.errors import NotInvariant, RepeatedSites
from gaudin.linalg import SparseMatrix
from gaudin.repr_core import (build_irreducible, tensor_module,
                              tensor_shapovalov, weight_and_singular_subspace)
from gaudin.scalars import QI, scalar_abs

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


def test_commutativity_and_symmetry_exact_small():
    M, form = _module([(1, 0), (1, 0)], 1)
    pencil = universal_operator(M, Z2)
    family = restrict_family(pencil, None, 4)
    sc = algebra_selfcheck(family, form, M, Z2)
    assert sc["exact"]
    assert sc["commutator_pairs"] == 0.0
    assert sc["commutator_with_gl"] == 0.0
    assert sc["form_symmetry_at_samples"] == 0.0
    assert sc["form_symmetry_coefficients"] == 0.0
    assert sc["lower_coefficients"] == 0.0


def test_restriction_to_singular_subspace():
    parts = [(1, 0), (1, 0)]
    M, form = _module(parts, 1)
    pencil = universal_operator(M, Z2)
    W, S = weight_and_singular_subspace(M, (1, 1))
    family = restrict_family(pencil, S, 4)
    assert family.carrier_dim == 1
    # restriction of B_2 to the 1-dim singular space: eigenvalue function
    mat = family.eval(2, Fraction(3))
    assert mat.nrows == 1 and mat.ncols == 1


def test_restriction_rejects_noninvariant_subspace():
    M, form = _module([(1, 0), (1, 0)], 1)
    pencil = universal_operator(M, Z2)
    # a random non-invariant column: mix of different weights
    S = SparseMatrix(M.dim, 1)
    S[0, 0] = Fraction(1)
    S[1, 0] = Fraction(1)
    with pytest.raises(NotInvariant):
        restrict_family(pencil, S, 4)


def _exact_site(x):
    return QI(Fraction(x.real), Fraction(x.imag)) if x.imag else Fraction(x.real)


FLOAT_RESTRICTION_SITES = {
    "complex_site": [0, 1, 3 + 0.2j, -2],
    "off_grid": [0.1, 1.3, 2.7 + 0.2j, -1.9],
}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("name", sorted(FLOAT_RESTRICTION_SITES))
def test_restriction_at_float_sites_matches_exact_sites(name, scale):
    """Restricting to the singular space at floating sites needs no exact
    zero remainder and keeps small coordinates."""
    M, _ = _module([(1, 0)] * 4, 1)
    _, S = weight_and_singular_subspace(M, (2, 2))
    z = [complex(x) * scale for x in FLOAT_RESTRICTION_SITES[name]]
    got = restrict_family(universal_operator(M, z), S, 4)
    want = restrict_family(
        universal_operator(M, [_exact_site(x) for x in z]), S, 4)
    assert got.carrier_dim == want.carrier_dim == 2
    for i in (1, 2):
        for u in (complex(0.5, 0.7) * scale, complex(-1.3, 0.2) * scale):
            a = got.eval(i, u)
            b = want.eval(i, _exact_site(u))
            keys = set(a.data) | set(b.data)
            size = max(scalar_abs(b[k]) for k in keys)
            err = max(abs(complex(a[k]) - complex(b[k])) for k in keys)
            assert err <= 1e-9 * size, (i, u, err, size)


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


# numeric seed 11 instance 36 (form-symmetry products reach 8.4e4) and the
# complex-site chain of test_complex_sites_pass_every_check
NUMERIC_SELFCHECK_CASES = {
    "far_apart_sites": ([(2, 0, 0), (2, 1, 0)], 2,
                        [complex(-3.657, 0.0), complex(-0.002, 0.0)], 7),
    "complex_sites": ([(1, 0)] * 4, 1,
                      [0j, complex(1, 0.3), complex(2, -0.1), 3.5 + 0j], 6),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_SELFCHECK_CASES))
def test_numeric_selfcheck_with_complex_g_and_e_is_bit_identical(
        monkeypatch, name):
    """G and E converted to complex once give the residuals and scales of
    the Fraction matrices bit for bit."""
    parts, N, z, j_max = NUMERIC_SELFCHECK_CASES[name]
    M, form = _module(parts, N)
    family = restrict_family(universal_operator(M, z), None, j_max)
    got = algebra_selfcheck(family, form, M, z)
    monkeypatch.setattr(bethe_algebra, "_to_complex_matrix", lambda m: m)
    want = algebra_selfcheck(family, form, M, z)
    assert not got["exact"]
    assert repr(got) == repr(want)


def _fraction_selfcheck(monkeypatch, family, form, M, z):
    """algebra_selfcheck with every matrix left in Fractions."""
    with monkeypatch.context() as m:
        m.setattr(bethe_algebra, "integer_scaled",
                  lambda mats: (list(mats), 1))
        return algebra_selfcheck(family, form, M, z)


def test_exact_selfcheck_in_integers_matches_the_fraction_arithmetic(
        monkeypatch):
    """The integer products give the Fraction products' verdicts and, after
    one coefficient of the family is corrupted, the same nonzero residuals
    bit for bit."""
    z = [Fraction(-3, 2), Fraction(5, 3)]
    M, form = _module([(2, 1, 0), (1, 1, 0)], 2)
    family = restrict_family(universal_operator(M, z), None, 4)
    got = algebra_selfcheck(family, form, M, z)
    assert got["exact"] and got["max_residual"] == 0.0
    assert repr(got) == repr(_fraction_selfcheck(monkeypatch, family, form,
                                                 M, z))

    family = restrict_family(universal_operator(M, z), None, 4)
    bad = family.B_u[2].coeffs[0]
    key = next(k for k in bad.data if k[0] != k[1])
    bad[key] = bad[key] + Fraction(1, 7)
    coeff = family.B_coeffs[3][2]
    key = next(k for k in coeff.data if k[0] != k[1])
    coeff[key] = coeff[key] - Fraction(2, 9)
    got = algebra_selfcheck(family, form, M, z)
    for name in ("commutator_pairs", "commutator_with_gl",
                 "form_symmetry_at_samples", "form_symmetry_coefficients"):
        assert got[name] > 0, name
    assert repr(got) == repr(_fraction_selfcheck(monkeypatch, family, form,
                                                 M, z))
