import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gaudin import kernels
from gaudin.diffop_ring import Poly
from gaudin.errors import (DimensionMismatch, NotAPartition, PointNotInU,
                           RepeatedSites)
from gaudin.master import (GaudinProblem, PointConfig, SolverConfig,
                           expected_orbit_count,
                           factored_pole_data, find_critical_orbits,
                           gradient_log_master, group_polynomials,
                           hessian_determinant, hessian_log_master,
                           master_coefficients, master_operator_at,
                           orbit_distance, scalar_coefficient_values,
                           series_by_contour, try_rationalize_orbit)
from gaudin.scalars import QI, format_scalar

ANCHOR = (1, [[1, 0], [1, 0]], [1], [Fraction(0), Fraction(1)])


@pytest.mark.parametrize("site", [complex(math.nan, 1), complex(1, math.nan),
                                  complex(math.inf, 0), complex(-math.inf, 0)])
def test_problem_rejects_a_site_that_is_not_finite(site):
    """No sample point keeps its distance from such a site, so the pipeline
    would look for one forever."""
    with pytest.raises(ValueError, match="not finite"):
        GaudinProblem(1, [[1, 0], [1, 0]], [1], [0j, site])


def test_problem_validation():
    GaudinProblem(*ANCHOR)
    with pytest.raises(RepeatedSites):
        GaudinProblem(1, [[1, 0], [1, 0]], [1], [Fraction(1), Fraction(1)])
    with pytest.raises(NotAPartition):
        GaudinProblem(1, [[1, 2], [1, 0]], [1], [Fraction(0), Fraction(1)])
    with pytest.raises((DimensionMismatch, ValueError)):
        GaudinProblem(1, [[1, 0]], [1, 1], [Fraction(0)])
    with pytest.raises(NotAPartition):
        # infinity weight (0, 2) is not dominant
        GaudinProblem(1, [[1, 0], [1, 0]], [2], [Fraction(0), Fraction(1)])


def test_point_config_rejects_collisions():
    p = GaudinProblem(*ANCHOR)
    with pytest.raises(PointNotInU):
        PointConfig(p, [(Fraction(0),)])    # variable hits a site
    p2 = GaudinProblem(1, [[2, 0], [2, 0]], [2], [Fraction(0), Fraction(1)])
    with pytest.raises(PointNotInU):
        PointConfig(p2, [(Fraction(1, 3), Fraction(1, 3))])


def test_point_config_admits_a_variable_on_a_site_of_exponent_zero():
    # site 0 has color-1 exponent 0 and site 1 color-2 exponent 0
    p = GaudinProblem(2, [[1, 1, 0], [1, 0, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    pt = [(Fraction(0),), (Fraction(1, 3),)]
    PointConfig(p, pt)
    assert gradient_log_master(p, pt) == [(4,), (-6,)]
    assert hessian_log_master(p, pt) == [[10, -9], [-9, 18]]
    for bad in ([(Fraction(1),), (Fraction(1, 3),)],        # on site 1
                [(Fraction(1, 3),), (Fraction(1, 3),)]):    # on a partner
        with pytest.raises(PointNotInU):
            PointConfig(p, bad)


def test_gradient_matches_finite_differences():
    rng = random.Random(41)
    cases = [([[2, 0], [1, 0], [1, 0]], [2], 1),
             ([[2, 1, 0], [2, 1, 0]], [1, 1], 2)]
    for parts, l, N in cases:
        z = [Fraction(0), Fraction(1), Fraction(3)][:len(parts)]
        p = GaudinProblem(N, parts, l, z)
        for _ in range(20):
            flat = []
            groups = []
            for g in range(N):
                grp = []
                for _j in range(l[g]):
                    val = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
                    grp.append(val)
                    flat.append((val, g))
                groups.append(tuple(grp))
            grad = gradient_log_master(p, groups)
            grad_flat = [x for grp in grad for x in grp]
            fd = oracles.fd_gradient(parts, l, [complex(x) for x in z], flat)
            for a in range(len(flat)):
                scale = max(1.0, abs(fd[a]))
                assert abs(complex(grad_flat[a]) - fd[a]) / scale < 1e-6


def test_hessian_matches_finite_differences():
    rng = random.Random(43)
    parts, l, N = [[2, 1, 0], [2, 1, 0]], [1, 1], 2
    z = [Fraction(0), Fraction(1)]
    p = GaudinProblem(N, parts, l, z)
    for _ in range(5):
        flat = []
        groups = []
        for g in range(N):
            val = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            groups.append((val,))
            flat.append((val, g))
        H = hessian_log_master(p, groups)
        fd = oracles.fd_hessian(parts, l, [complex(x) for x in z], flat)
        n = len(flat)
        for a in range(n):
            for b in range(n):
                scale = max(1.0, abs(fd[a][b]))
                assert abs(complex(H[a][b]) - fd[a][b]) / scale < 1e-6


def test_anchor_orbit_exact():
    p = GaudinProblem(*ANCHOR)
    orbits = find_critical_orbits(p, SolverConfig(seed=1))
    assert len(orbits) == 1
    orb = orbits[0]
    pt = try_rationalize_orbit(p, orb)
    assert pt is not None
    assert pt[0][0] == Fraction(1, 2)
    assert hessian_determinant(p, pt) == 8
    assert not orb.degenerate


def test_orbit_count_matches_singular_dimension():
    cases = [([[1, 0], [1, 0]], [1], 1),
             ([[1, 0], [1, 0], [1, 0]], [1], 1),
             ([[1, 0, 0], [1, 1, 0]], [1, 1], 2)]
    for parts, l, N in cases:
        z = [Fraction(0), Fraction(1), Fraction(3)][:len(parts)]
        p = GaudinProblem(N, parts, l, z)
        mu = p.infinity_weight
        want = oracles.singular_dimension([tuple(q) for q in parts], mu)
        assert expected_orbit_count(p) == want
        orbits = find_critical_orbits(p, SolverConfig(seed=2), expected=want)
        assert len(orbits) == want, (parts, l)


def test_single_color_roots_against_polynomial_oracle():
    parts, l, N = [[2, 0], [1, 0], [1, 0]], [1], 1
    z = [Fraction(0), Fraction(1), Fraction(3)]
    p = GaudinProblem(N, parts, l, z)
    orbits = find_critical_orbits(p, SolverConfig(seed=5))
    got = sorted(complex(o.groups[0][0]).real for o in orbits)
    want = sorted(r.real for r in
                  oracles.single_color_critical_roots(parts, z))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-8


def test_trivial_orbit_when_no_variables():
    p = GaudinProblem(1, [[1, 0], [1, 0]], [0], [Fraction(0), Fraction(1)])
    orbits = find_critical_orbits(p, SolverConfig(seed=1))
    assert len(orbits) == 1
    assert orbits[0].groups == ((),)
    assert gradient_log_master(p, [()]) == [()]
    assert hessian_log_master(p, [()]) == []
    assert hessian_determinant(p, [()]) == 1


@pytest.mark.parametrize("N,parts,l,z", [
    (1, [[1, 0]] * 4, [2], range(4)),
    (2, [[2, 1, 0]] * 2, [1, 1], range(2)),
    (1, [[1, 0]] * 6, [3], range(6))])
def test_one_hessian_serves_the_degenerate_test_and_the_norm_formula(
        N, parts, l, z):
    """The determinant an orbit carries (its degenerate flag) is the one the
    norm formula takes at the orbit's coordinates, bit for bit."""
    p = GaudinProblem(N, parts, l, [Fraction(x) for x in z])
    orbits = find_critical_orbits(p, SolverConfig(seed=0))
    assert orbits
    for orb in orbits:
        assert orb.hessian_determinant == hessian_determinant(p, orb.groups)


@pytest.mark.parametrize("precision,name", [
    ("double", "newton_single"), ("longdouble", "newton_longdouble")])
def test_search_calls_the_per_start_kernel_once_per_start(monkeypatch,
                                                          precision, name):
    """The benchmark's `kernels.newton` span wraps the per-start entry
    points; a search that batched its starts would leave that span empty."""
    calls = []
    orig = getattr(kernels, name)

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return orig(*args, **kwargs)

    monkeypatch.setattr(kernels, name, counting)
    p = GaudinProblem(1, [[1, 0]] * 4, [2], [Fraction(k) for k in range(4)])
    config = SolverConfig(seed=0, starts=40, early_stop=False,
                          precision=precision)
    find_critical_orbits(p, config)
    assert calls == [2] * 40


def test_orbit_distance_is_permutation_invariant():
    p = GaudinProblem(1, [[2, 0], [2, 0]], [2], [Fraction(0), Fraction(1)])
    a = ((0.3 + 0j, 1.7 + 0j),)
    b = ((1.7 + 0j, 0.3 + 0j),)
    assert orbit_distance(a, b) < 1e-15
    c = ((0.3 + 0j, 1.9 + 0j),)
    assert abs(orbit_distance(a, c) - 0.2) < 1e-12


def test_solver_determinism():
    p = GaudinProblem(2, [[2, 1, 0], [2, 1, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    o1 = find_critical_orbits(p, SolverConfig(seed=3))
    o2 = find_critical_orbits(p, SolverConfig(seed=3))
    assert len(o1) == len(o2) == 2
    for a, b in zip(o1, o2):
        assert a.groups == b.groups


def test_master_operator_monic_and_first_coefficient():
    p = GaudinProblem(*ANCHOR)
    pt = [(Fraction(1, 2),)]
    pencil = master_operator_at(p, pt)
    assert pencil.order == 2
    funcs, series = master_coefficients(pencil, 4)
    # first coefficient: -|lam|/(u - z) summed over sites, here
    # -1/u - 1/(u - 1); expansion -2/u - 1/u^2 - 1/u^3 - ...
    assert series[1] == [Fraction(-2), Fraction(-1), Fraction(-1),
                         Fraction(-1)]
    # second coefficient for the anchor: G_2 = 2/(u^2 - u)
    g2 = funcs[2]
    assert g2.eval(Fraction(2))[0, 0] == Fraction(1)
    assert g2.eval(Fraction(3))[0, 0] == Fraction(1, 3)


def test_group_polynomials():
    p = GaudinProblem(*ANCHOR)
    ys = group_polynomials(p, [(Fraction(1, 2),)])
    assert ys[0].coeffs == (Fraction(-1, 2), Fraction(1))


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _qi(x):
    x = complex(x)
    return QI(Fraction(x.real), Fraction(x.imag))


def _close(got, want, rtol):
    """Complex `got` within rtol of the exact `want`, relative to max(1, |want|)."""
    want = complex(want)
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _pencil_values(pencil, u0):
    """[C_1(u0), ..., C_n(u0)], exact, from the pencil's coefficients."""
    return [pencil.coeffs[pencil.order - i].eval(u0)[0, 0]
            for i in range(1, pencil.order + 1)]


def test_jet_apply_matches_pencil():
    """The coefficient values at u0, applied to the derivatives of a
    polynomial there, give the value of the pencil applied to it, to
    rounding: the values are complex."""
    p = GaudinProblem(2, [[2, 1, 0], [2, 1, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    pt = [(Fraction(1, 3),), (Fraction(5, 7),)]
    pencil = master_operator_at(p, pt)
    pd = factored_pole_data(p, pt)
    rng = random.Random(6)
    for _ in range(5):
        poly = Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
                    + (Fraction(1),))
        u0 = Fraction(rng.randint(4, 20), rng.randint(1, 3))
        vals = scalar_coefficient_values(pd, u0)     # d^2, d^1, d^0
        got = poly.derivative(3).eval(u0) + sum(
            c * poly.derivative(2 - i).eval(u0) for i, c in enumerate(vals))
        assert _close(got, pencil.apply(poly).eval(u0)[0, 0], 1e-13), u0


def test_numeric_jets_of_monomials_match_the_fraction_path():
    """At a complex point the monomial is shifted with complex coefficients;
    the Fraction coefficients went through Fraction's numbers fallback,
    complex(c) * w, at every product.  Taylor coefficients agree bit for
    bit, and the coefficient values composed over complex jets agree to
    rounding with those of the exact pencil over the same point and poles
    converted to Gaussian rationals."""
    p = GaudinProblem(2, [[2, 1, 0], [2, 1, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    pt = [(complex(1, 3) / 7,), (5 / 7 + 0j,)]
    pd = factored_pole_data(p, pt)
    pencil = master_operator_at(p, [tuple(_qi(x) for x in g) for g in pt])
    for u0 in (2.5 + 0.3j, complex(-1.75, 4.125), 0.1 - 3.3j, 7 + 0j):
        for k in range(7):
            mono = Poly((Fraction(0),) * k + (Fraction(1),))
            want = mono.taylor_shift(u0).coeffs
            got = Poly([complex(c) for c in mono.coeffs]).taylor_shift(u0).coeffs
            assert ([_bits(complex(c)) for c in want]
                    == [_bits(c) for c in got]), (u0, k)
        got = scalar_coefficient_values(pd, u0)
        want = _pencil_values(pencil, _qi(u0))
        assert all(isinstance(w, QI) for w in want)
        for g, w in zip(got, want, strict=True):
            assert abs(g - complex(w)) < 1e-14 * max(1.0, abs(complex(w)))


def test_jet_coefficient_values_match_pencil():
    """The complex coefficient values at rational points agree with the
    exact pencil's."""
    p = GaudinProblem(2, [[2, 1, 0], [2, 1, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    pt = [(Fraction(1, 3),), (Fraction(5, 7),)]
    pencil = master_operator_at(p, pt)
    pd = factored_pole_data(p, pt)
    for u0 in (Fraction(3), Fraction(9, 2)):
        vals = scalar_coefficient_values(pd, u0)
        assert all(type(v) is complex for v in vals)
        for v, w in zip(vals, _pencil_values(pencil, u0), strict=True):
            assert _close(v, w, 1e-13), u0


def test_variable_on_a_site_of_zero_exponent_shares_one_pole():
    """A group-1 variable on a site whose color-1 exponent is 0 puts one
    pole location into factors 1 and 2: the operator's denominator takes it
    once, and the complex jet values agree with its coefficients."""
    p = GaudinProblem(2, [[2, 2, 0], [1, 0, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    assert p.site_exponent[0][0] == 0
    pt = [(Fraction(0),), (Fraction(5, 7),)]
    PointConfig(p, pt)
    pd = factored_pole_data(p, pt)
    assert sum(1 for fac in pd for _, r in fac if r == 0) == 2
    pencil = master_operator_at(p, pt)
    assert pencil.coeffs[0].base == Poly.from_roots(
        [Fraction(0), Fraction(1), Fraction(5, 7)])
    for u0 in (Fraction(3), Fraction(-9, 2)):
        vals = scalar_coefficient_values(pd, u0)
        for v, w in zip(vals, _pencil_values(pencil, u0), strict=True):
            assert _close(v, w, 1e-13), u0


def test_series_by_contour_matches_exact_series_for_every_coefficient():
    """One composition returns all N+1 series of an N=2 point."""
    p = GaudinProblem(2, [[2, 1, 0], [2, 1, 0]], [1, 1],
                      [Fraction(0), Fraction(1)])
    pt = [(Fraction(1, 3),), (Fraction(5, 7),)]
    _, series = master_coefficients(master_operator_at(p, pt), 8)
    pd = factored_pole_data(p, [tuple(complex(x) for x in g) for g in pt])
    approx = series_by_contour(pd, 8)
    assert sorted(approx) == [1, 2, 3]
    for i in (1, 2, 3):
        scale = max(1.0, max(abs(complex(b)) for b in series[i]))
        err = max(abs(a - complex(b)) for a, b in zip(approx[i], series[i],
                                                       strict=True))
        assert err < 1e-12 * scale, i


def test_series_by_contour_matches_exact_series():
    p = GaudinProblem(*ANCHOR)
    pt_exact = [(Fraction(1, 2),)]
    pencil = master_operator_at(p, pt_exact)
    _, series = master_coefficients(pencil, 6)
    pd = factored_pole_data(p, [(0.5 + 0j,)])
    approx = series_by_contour(pd, 6)
    assert sorted(approx) == [1, 2]
    for i in (1, 2):
        err = max(abs(a - complex(b)) for a, b in zip(approx[i], series[i]))
        assert err < 1e-12


def test_series_that_cancel_over_gaussian_rationals_render_as_zero():
    """Sites 4 and -4 make the u^-2 coefficient of C_1 cancel over Q(i) at a
    Gaussian-rational point: the pencil's expansion, which a report renders
    at an exact point, holds the int 0 there and renders it as "0"; the
    complex composition agrees to rounding."""
    p = GaudinProblem(1, [[1, 0], [1, 0]], [1], [Fraction(4), Fraction(-4)])
    pt = [(QI(Fraction(-2, 3), 5),)]
    _, want = master_coefficients(master_operator_at(p, pt), 5)
    assert type(want[1][1]) is int and want[1][1] == 0
    assert format_scalar(want[1][1]) == "0"
    got = series_by_contour(factored_pole_data(p, pt), 5)
    for i in (1, 2):
        for g, w in zip(got[i], want[i], strict=True):
            assert type(g) is complex and _close(g, w, 1e-13), i


def test_series_at_an_off_line_point_matches_the_exact_composition():
    """At a complex point off the real line, the series at infinity composed
    over the floating poles agrees to rounding with the expansion of the
    exact pencil over the same poles converted to Gaussian rationals."""
    p = GaudinProblem(2, [[2, 1, 0], [1, 0, 0]], [1, 1],
                      [Fraction(-1), Fraction(3, 2)])
    pt = [(complex(0.3, 0.8),), (complex(-0.45, 1.7),)]
    approx = series_by_contour(factored_pole_data(p, pt), 10)
    pencil = master_operator_at(p, [tuple(_qi(x) for x in g) for g in pt])
    _, series = master_coefficients(pencil, 10)
    for i in (1, 2, 3):
        scale = max(1.0, max(abs(complex(b)) for b in series[i]))
        err = max(abs(a - complex(b)) for a, b in zip(approx[i], series[i],
                                                       strict=True))
        assert err < 1e-12 * scale, i
