import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gaudin import wronski_schubert
from gaudin.diffop_ring import Poly
from gaudin.errors import AmbientTooSmall, KernelDimensionMismatch
from gaudin.master import (GaudinProblem, SolverConfig, factored_pole_data,
                           find_critical_orbits, master_operator_at,
                           scalar_coefficient_values, try_rationalize_orbit)
from gaudin.wronski_schubert import (PolynomialTuple, degree_set,
                                     exponent_data, expected_orders,
                                     kernel_residuals, schubert_incidence,
                                     site_factor_polynomials, solve_h_tuple,
                                     vanishing_orders,
                                     verify_wronskian_identities, wronskian)

ANCHOR = GaudinProblem(1, [[1, 0], [1, 0]], [1], [Fraction(0), Fraction(1)])
ANCHOR_PT = [(Fraction(1, 2),)]

ASYM = GaudinProblem(2, [[1, 0, 0], [1, 1, 0]], [1, 1],
                     [Fraction(0), Fraction(1)])
ASYM_PT = [(Fraction(1, 3),), (Fraction(2, 3),)]


def _exact_coefficients(ht):
    return all(type(c) is Fraction for h in ht.polys for c in h.coeffs)


def test_exponent_data_anchor():
    data = exponent_data(ANCHOR)
    assert data.exponents == (2, 1)
    assert data.minimal_d_cap == 3
    assert data.d_cap == 3
    assert data.dual_partition == (0, 0)
    wide = exponent_data(ANCHOR, d_cap=4)
    assert wide.dual_partition == (1, 1)
    with pytest.raises(AmbientTooSmall):
        exponent_data(ANCHOR, d_cap=2)


def test_site_factor_polynomials_anchor():
    (t1,) = site_factor_polynomials(ANCHOR)
    assert t1.coeffs == (Fraction(0), Fraction(-1), Fraction(1))  # u(u-1)


def test_wronskian_hand_determinant():
    u2 = Poly((Fraction(0), Fraction(0), Fraction(1)))
    u1 = Poly((Fraction(0), Fraction(1)))
    w = wronskian([u2, u1])
    assert w.coeffs == (Fraction(0), Fraction(0), Fraction(-1))  # -u^2


def test_anchor_h_tuple_exact_and_ode_oracle():
    ht = solve_h_tuple(ANCHOR, ANCHOR_PT)
    assert _exact_coefficients(ht)
    h1, h2 = ht.polys
    assert h1.coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert h2.coeffs == (Fraction(-1, 2), Fraction(1))
    # independent check: an exact evaluation of the scalar operator,
    # written from scratch, annihilates both and rejects a non-member
    for h in (h1, h2):
        assert all(v == 0 for v in oracles.anchor_ode_apply(h.coeffs))
    assert any(v != 0 for v in oracles.anchor_ode_apply((0, 1)))
    assert kernel_residuals(ANCHOR, ANCHOR_PT, ht) == [0.0, 0.0]


def test_anchor_wronskian_identity_exact():
    ht = solve_h_tuple(ANCHOR, ANCHOR_PT)
    res = verify_wronskian_identities(ANCHOR, ANCHOR_PT, ht)
    assert res == {1: 0.0}
    # the identity itself: W(h2, h1) = u(u - 1)
    w = wronskian([ht.polys[1], ht.polys[0]])
    assert w.coeffs == (Fraction(0), Fraction(-1), Fraction(1))


def test_anchor_incidence_tables():
    ht = solve_h_tuple(ANCHOR, ANCHOR_PT)
    data = exponent_data(ANCHOR)
    rep = schubert_incidence(ANCHOR, ht, data)
    assert rep["ok"]
    for site in rep["sites"]:
        assert site["orders"] == [0, 2]
    assert rep["infinity"]["degrees"] == [1, 2]


def test_vanishing_orders_direct():
    u2 = Poly((Fraction(0), Fraction(0), Fraction(1)))
    h2 = Poly((Fraction(-1, 2), Fraction(1)))
    assert vanishing_orders([u2, h2], Fraction(0)) == [0, 2]
    # at z = 1 the span contains u^2 - 2(u - 1/2) = (u - 1)^2, so the
    # order set of the span is again {0, 2} even though neither basis
    # polynomial vanishes there to order 2
    assert vanishing_orders([u2, h2], Fraction(1)) == [0, 2]
    assert vanishing_orders([u2, h2], Fraction(3)) == [0, 1]


def test_vanishing_orders_ignores_cancellation_residue():
    # Taylor rows at z = -3/2 of a non-rationalized kernel pair (search
    # workload, four spin-1/2 sites): proportional in columns 0 and 1, so
    # elimination leaves ~1e-12 in column 1, which is not a pivot
    a = Poly((0.7174577928574362 - 1.0972681097065617e-12j,
              8.577250360317354 + 8.536921169977063e-13j, -4.5 + 0j, 1 + 0j))
    b = Poly((0.07667604603165756 - 1.0734000712363417e-14j,
              0.9166666666666381 - 1.235064612425978e-13j, 1 + 0j))
    assert vanishing_orders([a, b], 0.0) == [0, 2]


def test_expected_orders_and_degree_set():
    assert expected_orders((1, 0), 1) == [0, 2]
    assert expected_orders((2, 1, 0), 2) == [0, 2, 4]
    assert degree_set([Poly((Fraction(1),)),
                       Poly((Fraction(0), Fraction(0), Fraction(3)))]) == [0, 2]


def test_noncritical_point_has_no_full_kernel():
    with pytest.raises(KernelDimensionMismatch):
        solve_h_tuple(ANCHOR, [(Fraction(1, 3),)])


def test_rank2_exact_instance_all_identities():
    ht = solve_h_tuple(ASYM, ASYM_PT)
    assert ht.exponents == (3, 2, 1)
    assert _exact_coefficients(ht)
    assert kernel_residuals(ASYM, ASYM_PT, ht) == [0.0, 0.0, 0.0]
    res = verify_wronskian_identities(ASYM, ASYM_PT, ht)
    assert res == {1: 0.0, 2: 0.0}
    rep = schubert_incidence(ASYM, ht)
    assert rep["ok"]
    assert rep["infinity"]["degrees"] == [1, 2, 3]


def test_numeric_path_agrees_with_exact_on_anchor():
    ht = solve_h_tuple(ANCHOR, [(0.5 + 0.0j,)])
    exact = solve_h_tuple(ANCHOR, ANCHOR_PT)
    assert ht.exponents == exact.exponents
    for hnum, hex in zip(ht.polys, exact.polys):
        assert hnum.degree == hex.degree
        for k in range(hex.degree + 1):
            want = complex(hex.coeffs[k]) if k < len(hex.coeffs) else 0.0
            got = complex(hnum.coeffs[k]) if k < len(hnum.coeffs) else 0.0
            assert abs(got - want) < 1e-8
    res = verify_wronskian_identities(ANCHOR, [(0.5 + 0.0j,)], ht)
    assert res[1] < 1e-8
    assert max(kernel_residuals(ANCHOR, [(0.5 + 0.0j,)], ht)) < 1e-8


def test_numeric_rank2_instance_end_to_end():
    p = GaudinProblem(2, [[2, 1, 0], [2, 1, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    orbits = find_critical_orbits(p, SolverConfig(seed=7))
    assert len(orbits) == 2
    for orb in orbits:
        assert try_rationalize_orbit(p, orb) is None   # genuinely irrational
        ht = solve_h_tuple(p, orb.groups)
        assert ht.exponents == (5, 3, 1)
        assert max(kernel_residuals(p, orb.groups, ht)) < 1e-8
        res = verify_wronskian_identities(p, orb.groups, ht)
        assert max(res.values()) < 1e-8
        rep = schubert_incidence(p, ht)
        assert rep["ok"]


def _sampled_kernel(p, point):
    """An independent kernel, read from the operator sampled on a circle
    around the poles: d1 + (N+1) P + 5 points on
    |u| = 1.5 max(1, max|pole|), each composed on its own with the scalar
    `scalar_coefficient_values`, and an SVD of the values of L (u/R)^k."""
    data = exponent_data(p)
    d1, N = data.exponents[0], p.N
    poles = {complex(x) for x in list(p.z) + [t for g in point for t in g]}
    R = 1.5 * max([1.0] + [abs(r) for r in poles])
    n = d1 + (N + 1) * len(poles) + 5
    pole_data = factored_pole_data(p, point)
    rows = []
    for m in range(n):
        x = R * cmath.exp(1j * (0.37 + 2 * math.pi * 0.6180339887498949 * m))
        coeffs = scalar_coefficient_values(pole_data, x)[::-1] + [1]
        rows.append([sum(c * math.perm(k, a) * x ** (k - a)
                         for a, c in enumerate(coeffs) if a <= k) / R ** k
                     for k in range(d1 + 1)])
    _, sv, vh = np.linalg.svd(np.array(rows))
    null = [r for r in range(len(sv)) if sv[r] < 1e-10 * sv[0]]
    assert len(null) == N + 1
    vecs = [[vh[r, k].conjugate() / R ** k for k in range(d1 + 1)]
            for r in null]
    return wronski_schubert._shape_normalize(vecs, data)


# (problem, solver) with floating orbits: CHAIN4 at complex sites, and the
# orbits that a short search finds on the 8-site chain and the gl3 5-site
# chain at integer sites, none of which rationalize
FLOATING_KERNEL_CASES = {
    "chain4_complex_sites": (
        GaudinProblem(1, [[1, 0]] * 4, [2],
                      [0j, complex(1, 0.3), complex(2, -0.1), 3.5 + 0j]),
        SolverConfig(seed=0)),
    "chain8": (
        GaudinProblem(1, [[1, 0]] * 8, [4], [Fraction(x) for x in range(8)]),
        SolverConfig(seed=2, starts=150, early_stop=False)),
    "gl3_chain5": (
        GaudinProblem(2, [[1, 0, 0]] * 5, [3, 1],
                      [Fraction(x) for x in range(5)]),
        SolverConfig(seed=1, starts=150, early_stop=False)),
}


@pytest.mark.parametrize("name", sorted(FLOATING_KERNEL_CASES))
def test_series_kernel_matches_the_circle_sampled_kernel(name):
    """At every floating orbit the kernel read from the series at infinity
    has the degrees and, to 1e-10, the coefficients of the kernel sampled
    point by point on a circle, and both pass kernel_residuals."""
    p, config = FLOATING_KERNEL_CASES[name]
    orbits = [orb for orb in find_critical_orbits(p, config)
              if try_rationalize_orbit(p, orb) is None]
    assert len(orbits) >= 2
    for orb in orbits:
        ht = solve_h_tuple(p, orb.groups)
        want = _sampled_kernel(p, orb.groups)
        assert [h.degree for h in ht.polys] == [w.degree for w in want]
        for h, w in zip(ht.polys, want):
            assert len(h.coeffs) == len(w.coeffs)
            for a, b in zip(h.coeffs, w.coeffs):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
        assert max(kernel_residuals(p, orb.groups, ht)) < 1e-8
        sampled = PolynomialTuple(polys=tuple(want), exponents=ht.exponents)
        assert max(kernel_residuals(p, orb.groups, sampled)) < 1e-8


def test_polynomial_tuple_iterates_in_order():
    ht = PolynomialTuple(polys=(Poly((Fraction(1),)),), exponents=(0,))
    assert [h.coeffs for h in ht] == [(Fraction(1),)]


def test_pencil_passthrough_matches_autobuild():
    pencil = master_operator_at(ANCHOR, ANCHOR_PT)
    ht = solve_h_tuple(ANCHOR, ANCHOR_PT, pencil=pencil)
    assert ht.polys == solve_h_tuple(ANCHOR, ANCHOR_PT).polys
