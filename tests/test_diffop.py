import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gaudin.diffop_ring import (ONE, OperatorPencil, Poly, RFMatrix,
                                row_determinant, site_denominator)
from gaudin.errors import ImproperRational, PoleEvaluation
from gaudin.linalg import SparseMatrix
from gaudin.scalars import QI


def _series(rf, j_max):
    """The series at infinity as SparseMatrix values, Fractions in the
    integral form, where each power-0 coefficient holds ints over d."""
    return [P.coeffs[0] if P.num else SparseMatrix(P.nrows, P.ncols)
            for P in rf.entries_series_at_infinity(j_max)]


def _rand_poly(rng, deg):
    return Poly(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(deg)) + (Fraction(1),))


def test_poly_arithmetic_against_numpy():
    rng = random.Random(11)
    for _ in range(15):
        p = _rand_poly(rng, rng.randint(0, 5))
        q = _rand_poly(rng, rng.randint(0, 5))
        pn = np.array([float(c) for c in p.coeffs])
        qn = np.array([float(c) for c in q.coeffs])
        prod = (p * q).coeffs
        want = np.convolve(pn, qn)
        assert np.allclose([float(c) for c in prod], want)
        s = (p + q).coeffs
        wid = max(len(pn), len(qn))
        want_sum = np.pad(pn, (0, wid - len(pn))) + np.pad(qn, (0, wid - len(qn)))
        got_sum = np.array([float(c) for c in s] + [0.0] * (wid - len(s)))
        assert np.allclose(got_sum, want_sum)


def test_poly_eval_and_derivative():
    p = Poly((Fraction(1), Fraction(-3), Fraction(2)))   # 1 - 3u + 2u^2
    assert p.eval(Fraction(2)) == 1 - 6 + 8
    assert p.derivative().coeffs == (Fraction(-3), Fraction(4))
    assert p.derivative(2).coeffs == (Fraction(4),)
    assert p.derivative(3).is_zero()


def test_taylor_shift():
    rng = random.Random(5)
    for _ in range(10):
        p = _rand_poly(rng, 4)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        q = p.taylor_shift(a)
        for v in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            assert q.eval(v) == p.eval(v + a)


def test_poly_from_roots():
    p = Poly.from_roots([Fraction(1), Fraction(2)])
    assert p.coeffs == (Fraction(2), Fraction(-3), Fraction(1))


def _scalar(num, base, power):
    """1x1 RFMatrix num(u) / base(u)^power."""
    mats = []
    for c in num.coeffs:
        m = SparseMatrix(1, 1)
        m[0, 0] = c
        mats.append(m)
    return RFMatrix(1, 1, mats, base, power)


def _pair(a: RFMatrix, key=(0, 0)):
    """Entry `key` of a as an unreduced (numerator, denominator) pair."""
    return Poly([m[key] for m in a.coeffs]), a.base ** a.power


_BASE = Poly.from_roots([Fraction(1), Fraction(-2)])


def test_derivative_product_rule():
    rng = random.Random(17)
    a = _scalar(_rand_poly(rng, 2), _BASE, 1)
    b = _scalar(_rand_poly(rng, 3), _BASE, 2)
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    u = Fraction(23, 2)
    assert lhs.eval(u)[0, 0] == rhs.eval(u)[0, 0] == oracles.rf_eval(
        oracles.rf_derivative(oracles.rf_mul(_pair(a), _pair(b))), u)


def test_series_at_infinity_geometric():
    # 1/(u - 3) = sum 3^(j-1) u^-j
    rf = _scalar(ONE, Poly((Fraction(-3), Fraction(1))), 1)
    s = [m[0, 0] for m in _series(rf, 5)]
    assert s == [Fraction(3) ** (j - 1) for j in range(1, 6)]
    # (2u + 1)/u^2 = 2/u + 1/u^2
    rf2 = _scalar(Poly((Fraction(1), Fraction(2))),
                  Poly((Fraction(0), Fraction(1))), 2)
    assert [m[0, 0] for m in _series(rf2, 3)] == \
        [Fraction(2), Fraction(1), Fraction(0)]
    with pytest.raises(ImproperRational):
        _scalar(Poly((0, 0, 1)), Poly((0, 1)), 1).entries_series_at_infinity(2)


def test_series_at_infinity_keeps_d_positive():
    """1/(3 - u) = -sum 3^(j-1) u^-j: a negative leading coefficient of the
    denominator goes into the int numerators, and each d stays positive."""
    rf = _scalar(ONE, Poly((Fraction(3), Fraction(-1))), 1)
    assert rf.integral
    series = rf.entries_series_at_infinity(4)
    assert all(P.d > 0 and P.power == 0 for P in series)
    assert [P.num[0][0, 0] * Fraction(1, P.d) for P in series] == \
        [-Fraction(3) ** (j - 1) for j in range(1, 5)]


def test_series_at_infinity_numeric():
    rf = _scalar(Poly((1.0 + 0j,)), Poly((-0.5 + 0j, 1.0 + 0j)), 1)
    s = [m[0, 0] for m in _series(rf, 4)]
    want = [0.5 ** (j - 1) for j in range(1, 5)]
    assert max(abs(a - b) for a, b in zip(s, want)) < 1e-12


def _d_plus(rf):
    """First-order pencil d + rf."""
    return OperatorPencil([rf, RFMatrix.identity(1)])


def test_pencil_compose_is_operator_composition():
    # check (A . B) h = A (B h) for first-order pencils with 1x1 rational
    # coefficients over one base, against the entrywise oracle
    rng = random.Random(19)
    for _ in range(6):
        a = _scalar(_rand_poly(rng, 1), _BASE, 1)
        b = _scalar(_rand_poly(rng, 2), _BASE, 1)
        A, B = _d_plus(a), _d_plus(b)
        h = _rand_poly(rng, 3)
        composed = A.compose(B).apply(h)
        # A (B h): B h = h' + b h, then the same again with a
        bh = oracles.rf_add((h.derivative(), ONE),
                            oracles.rf_mul(_pair(b), (h, ONE)))
        direct = oracles.rf_add(oracles.rf_derivative(bh),
                                oracles.rf_mul(_pair(a), bh))
        u = Fraction(31, 3)
        assert composed.eval(u)[0, 0] == oracles.rf_eval(direct, u)


def test_pencil_apply_leibniz():
    # (d^2 + c1 d + c0) h = h'' + c1 h' + c0 h
    rng = random.Random(23)
    c0 = _scalar(_rand_poly(rng, 2), _BASE, 1)
    c1 = _scalar(_rand_poly(rng, 1), _BASE, 1)
    pencil = OperatorPencil([c0, c1, RFMatrix.identity(1)])
    h = _rand_poly(rng, 3)
    got = pencil.apply(h)
    want = oracles.rf_add(
        (h.derivative(2), ONE),
        oracles.rf_add(oracles.rf_mul(_pair(c1), (h.derivative(), ONE)),
                       oracles.rf_mul(_pair(c0), (h, ONE))))
    u = Fraction(17, 5)
    assert got.eval(u)[0, 0] == oracles.rf_eval(want, u)
    # the kernel of d - 1/(u - 2) holds u - 2 exactly
    pole = Poly.from_roots([Fraction(2)])
    first = OperatorPencil([_scalar(Poly((Fraction(-1),)), pole, 1),
                            RFMatrix.identity(1)])
    assert first.apply(pole).is_zero()
    assert not first.apply(pole * pole).is_zero()
    # a 1 x m row of polynomials goes through in one apply, column by column
    hs = [h, pole, pole * pole, ONE]
    row = RFMatrix(1, len(hs), [
        SparseMatrix(1, len(hs), {(0, j): p.coeffs[a]
                                  for j, p in enumerate(hs)
                                  if a < len(p.coeffs)})
        for a in range(max(len(p.coeffs) for p in hs))])
    for op in (pencil, first):
        image = op.apply(row)
        for j, p in enumerate(hs):
            column = RFMatrix(len(hs), 1,
                              [SparseMatrix(len(hs), 1, {(j, 0): 1})])
            assert (image * column - op.apply(p)).is_zero()
    assert all(not m[0, 1] for m in first.apply(row).coeffs)


def test_row_determinant_order_convention():
    """2x2 with constant matrix coefficients: rdet(d*I - K) must equal
    d^2 - tr(K) d + det(K) when K is constant (entries then commute)."""
    K = [[Fraction(2), Fraction(1)], [Fraction(3), Fraction(-1)]]
    entries = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            m = SparseMatrix(1, 1)
            m[0, 0] = -K[i][j]
            c0 = RFMatrix(1, 1, [m])
            ident = SparseMatrix(1, 1)
            ident[0, 0] = Fraction(1)
            c1 = RFMatrix(1, 1, [ident])
            if i == j:
                entries[i][j] = OperatorPencil([c0, c1])
            else:
                entries[i][j] = OperatorPencil([c0])
    pencil = row_determinant(entries)
    tr = K[0][0] + K[1][1]
    det = K[0][0] * K[1][1] - K[0][1] * K[1][0]
    # coefficients are 1x1 RF matrices; evaluate at a sample point
    u = Fraction(4)
    assert pencil.order == 2
    vals = [pencil.coeffs[k].eval(u)[0, 0] for k in range(2)]
    assert vals[1] == -tr
    assert vals[0] == det


def test_rfmatrix_eval_and_add():
    m = SparseMatrix(2, 2)
    m[0, 1] = Fraction(3)
    a = RFMatrix.over_sites([m], site_denominator([Fraction(1)]))
    got = a.eval(Fraction(3))
    assert got[0, 1] == Fraction(3, 2)
    s = a + a
    assert s.eval(Fraction(3))[0, 1] == Fraction(3)


def test_rfmatrix_over_sites_is_a_sum_of_simple_poles():
    m, n = SparseMatrix(2, 2), SparseMatrix(2, 2)
    m[0, 1] = Fraction(3)
    n[0, 1], n[1, 0] = Fraction(-2), Fraction(5)
    z = [Fraction(1), Fraction(-2), Fraction(1, 3)]
    a = RFMatrix.over_sites([m, n, m], site_denominator(z))
    assert (a.power, a.base) == (1, Poly.from_roots(z))
    for u in (Fraction(4), Fraction(-1, 2)):
        want = m.scale(1 / (u - z[0])) + n.scale(1 / (u - z[1])) \
            + m.scale(1 / (u - z[2]))
        assert a.eval(u).data == want.data


def _values_at(residues, z, u):
    """sum_s residues[s] / (u - z_s) as a 2x2 list, in Fractions and QIs."""
    return [[sum((r[i, j] / (u - zs) for r, zs in zip(residues, z)),
                 Fraction(0)) for j in range(2)] for i in range(2)]


def test_gaussian_residues_meet_an_integral_matrix_over_rational_sites():
    """A Gaussian-rational residue at the rational sites 1/3 and -2 is
    added to and multiplied by an integral matrix over the same sites, with
    no conversion; the series at infinity over the non-monic integer base
    (3u - 1)(u + 2) is sum_s r_s z_s^(j-1), and that of the square is the
    Cauchy product of the series with itself."""
    z = [Fraction(1, 3), Fraction(-2)]
    sites = site_denominator(z)
    ra = [SparseMatrix(2, 2, {(0, 0): QI(1, 2), (0, 1): Fraction(1),
                              (1, 1): Fraction(1, 2)}),
          SparseMatrix(2, 2, {(1, 0): QI(0, -1), (1, 1): Fraction(3)})]
    rb = [SparseMatrix(2, 2, {(0, 0): Fraction(2), (1, 0): Fraction(-1),
                              (0, 1): Fraction(1, 4)}),
          SparseMatrix(2, 2, {(0, 0): Fraction(-3), (1, 0): Fraction(-1)})]
    a, b = (RFMatrix.over_sites(r, sites) for r in (ra, rb))
    assert b.integral and not a.integral
    assert a.is_exact() and b.is_exact()
    assert sites[0].coeffs[-1] == 3

    u = Fraction(5)
    va, vb = _values_at(ra, z, u), _values_at(rb, z, u)
    want_sum = [[va[i][j] + vb[i][j] for j in range(2)] for i in range(2)]
    want_prod = [[va[i][0] * vb[0][j] + va[i][1] * vb[1][j]
                  for j in range(2)] for i in range(2)]
    got_sum, got_prod = (a + b).eval(u), (a * b).eval(u)
    for i in range(2):
        for j in range(2):
            assert got_sum[i, j] == want_sum[i][j], (i, j)
            assert got_prod[i, j] == want_prod[i][j], (i, j)
    assert got_sum[0, 0] == QI(Fraction(3, 14), Fraction(3, 7))
    assert got_prod[0, 0] == Fraction(-15, 196)

    j_max = 6
    series = _series(a, j_max)
    for j, mat in enumerate(series, start=1):
        for i in range(2):
            for k in range(2):
                want = sum((r[i, k] * zs ** (j - 1) for r, zs in zip(ra, z)),
                           Fraction(0))
                assert mat[i, k] == want, (j, i, k)
    square = a * a
    assert square.power == 2
    for j, mat in enumerate(_series(square, j_max), start=1):
        want = SparseMatrix(2, 2)
        for p in range(1, j):
            want = want + series[p - 1] @ series[j - p - 1]
        assert mat == want, j


def _rand_matrix_poly(rng, deg, n=2):
    mats = []
    for _ in range(deg + 1):
        m = SparseMatrix(n, n)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.7:
                    m[i, j] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        mats.append(m)
    return mats


def _entrywise(a: RFMatrix):
    """The same matrix as a dict of independent (numerator, denominator)
    pairs, one per entry."""
    return {(i, j): _pair(a, (i, j))
            for i in range(a.nrows) for j in range(a.ncols)}


def _assert_same(a: RFMatrix, rfs, points):
    for u in points:
        got = a.eval(u)
        for key, rf in rfs.items():
            assert got[key] == oracles.rf_eval(rf, u)


def test_rfmatrix_agrees_with_entrywise_rational_functions():
    rng = random.Random(29)
    base = _BASE
    points = [Fraction(5), Fraction(-7, 3), Fraction(1, 2)]
    for _ in range(4):
        a = RFMatrix(2, 2, _rand_matrix_poly(rng, 1), base, 1)
        b = RFMatrix(2, 2, _rand_matrix_poly(rng, 3), base, 2)
        ra, rb = _entrywise(a), _entrywise(b)
        _assert_same(a, ra, points)
        # sums over different powers of the base
        _assert_same(a + b, {k: oracles.rf_add(ra[k], rb[k]) for k in ra},
                     points)
        _assert_same(a - b, {k: oracles.rf_sub(ra[k], rb[k]) for k in ra},
                     points)
        prod = {(i, j): oracles.rf_add(oracles.rf_mul(ra[i, 0], rb[0, j]),
                                       oracles.rf_mul(ra[i, 1], rb[1, j]))
                for i in range(2) for j in range(2)}
        _assert_same(a * b, prod, points)
        assert (a * b).power == 3
        db = {k: oracles.rf_derivative(v) for k, v in rb.items()}
        _assert_same(b.derivative(), db, points)
        for mat, want in ((a, ra), (b, rb), (a * b, prod),
                          (b.derivative(), db)):
            series = _series(mat, 6)
            for key, rf in want.items():
                assert [s[key] for s in series] == \
                    oracles.rf_series_at_infinity(rf, 6)


def test_rfmatrix_eval_raises_only_at_a_pole():
    m = SparseMatrix(1, 1)
    m[0, 0] = Fraction(2)
    base = Poly.from_roots([Fraction(1), Fraction(3)])
    with pytest.raises(PoleEvaluation):
        RFMatrix(1, 1, [m], base, 1).eval(Fraction(3))
    # a numerator divisible by the base is never reduced, so u = 1 is still a
    # pole of the stored form
    with pytest.raises(PoleEvaluation):
        RFMatrix(1, 1, [m.scale(-1), m], Poly.from_roots([Fraction(1)]),
                 1).eval(Fraction(1))
    assert RFMatrix(1, 1, [m], base, 0).eval(Fraction(3))[0, 0] == 2
    assert RFMatrix(1, 1, [], base, 2).eval(Fraction(1)).is_zero()


def test_is_exact_is_known_from_construction(monkeypatch):
    """Rational, Gaussian-rational and complex sites, and the identity
    meeting each: is_exact() reads a flag and scans no entry."""
    m = SparseMatrix(2, 2)
    m[0, 1], m[1, 0] = Fraction(3, 2), Fraction(-1)
    ident = RFMatrix.identity(2)
    made = {}
    for name, z in (("rational", [Fraction(1, 3), Fraction(-2)]),
                    ("gaussian", [Fraction(1, 3), QI(0, 2)]),
                    ("complex", [1 / 3 + 0j, -2.0 + 0.5j])):
        a = RFMatrix.over_sites([m, m.scale(2)], site_denominator(z))
        made[name] = [a, a * ident, ident * a + a, a.derivative(),
                      a.scale(Fraction(2, 3))]
    # the identity's ints meet a Gaussian-rational or complex scalar as they are
    made["gaussian"].append(ident.scale(QI(0, 1)))
    made["complex"].append(ident.scale(0.5j))
    monkeypatch.setattr("gaudin.diffop_ring.is_exact", None)
    assert ident.is_exact()
    for name, mats in made.items():
        assert all(a.is_exact() == (name != "complex") for a in mats), name
    assert made["rational"][0].integral
    assert not made["gaussian"][0].integral


def _fraction_horner(a: RFMatrix, u):
    """Entries of a at u by Horner over Fractions, keys in the order Horner
    first meets them (highest coefficient down)."""
    acc = {}
    for mat in reversed(a.coeffs):
        acc = {key: v * u for key, v in acc.items()}
        for key, v in mat.data.items():
            acc[key] = acc[key] + v if key in acc else v
    if a.power:
        d = a.base.eval(u) ** a.power
        acc = {key: v / d for key, v in acc.items()}
    return acc


def test_integer_eval_matches_fraction_horner():
    rng = random.Random(41)
    base = Poly.from_roots([Fraction(1, 3), Fraction(-2)])
    points = [Fraction(5), Fraction(-7, 3), Fraction(1, 2), Fraction(11, 4), 6]
    for power in (0, 1, 2):
        for deg in (0, 2, 3):
            mats = _rand_matrix_poly(rng, deg, n=3)
            # an entry met only at the constant coefficient, and one whose
            # value is zero at u = 5
            for m in mats:
                m[2, 0] = m[1, 2] = 0
            mats[0][2, 0] = Fraction(3, 7)
            if deg:
                mats[0][1, 2], mats[1][1, 2] = Fraction(-5), Fraction(1)
            a = RFMatrix(3, 3, mats, base, power)
            for u in points:
                want = {k: v for k, v in _fraction_horner(a, u).items() if v}
                got = a.eval(u).data
                assert list(got) == list(want)
                assert got == want
                assert all(type(v) is Fraction for v in got.values())
    # a pole is still a pole
    a = RFMatrix(3, 3, _rand_matrix_poly(rng, 2, n=3), base, 2)
    with pytest.raises(PoleEvaluation):
        a.eval(Fraction(1, 3))


def test_gaussian_rational_entries_take_the_generic_loop():
    m = SparseMatrix(2, 2)
    m[0, 0] = QI(1, 2)
    m[1, 0] = Fraction(3, 2)
    n = SparseMatrix(2, 2)
    n[0, 1] = Fraction(-1, 3)
    base = Poly.from_roots([Fraction(0), Fraction(2)])
    a = RFMatrix(2, 2, [m, n], base, 1)
    for u in (Fraction(5), Fraction(-1, 2)):
        want = {k: v for k, v in _fraction_horner(a, u).items() if v}
        got = a.eval(u).data
        assert list(got) == list(want) and got == want
    assert isinstance(a.eval(Fraction(5))[0, 0], QI)


def test_float_site_eval_at_a_rational_is_the_eval_at_its_complex():
    z = [0.25 + 0j, 1.5 - 0.3j, -2.0 + 0.7j]
    rng = random.Random(5)
    mats = _rand_matrix_poly(rng, 0, n=3) * 3
    a = RFMatrix.over_sites(mats, site_denominator(z))
    b = a * a
    for mat in (a, b, b.derivative()):
        for k in (2, 3, 7, -4):
            got = mat.eval(Fraction(k)).data
            want = mat.eval(complex(k)).data
            assert list(got) == list(want)
            assert [(v.real.hex(), v.imag.hex()) for v in got.values()] == \
                [(v.real.hex(), v.imag.hex()) for v in want.values()]


def _permutation_row_determinant(entries):
    """Oracle: sum over permutations of sign * entries[0][p0] o ... o
    entries[n-1][p(n-1)], composed left to right."""
    n = len(entries)
    acc = None
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        term = entries[0][perm[0]]
        for i in range(1, n):
            term = term.compose(entries[i][perm[i]])
        if inv % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _rand_matrix(rng, dim):
    m = SparseMatrix(dim, dim)
    for i in range(dim):
        for j in range(dim):
            m[i, j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return m


ROW_DETERMINANT_SITES = {
    "rational": [Fraction(0), Fraction(1), Fraction(-5, 2)],
    "gaussian": [Fraction(0), QI(1, Fraction(1, 2)), Fraction(-5, 2)],
    "complex": [0.25 + 0j, 1.5 - 0.3j, -2.0 + 0.7j],
}
ROW_DETERMINANT_POINTS = [Fraction(7, 2), complex(-1.25, 0.5)]
# sha256 of the complex-site row determinant: its coefficient matrices and
# their values at ROW_DETERMINANT_POINTS, floats as .hex(), recorded when
# every RFMatrix kept Fraction coefficients
ROW_DETERMINANT_COMPLEX_BITS = {
    2: "16ce4f9e147468706208a66b45b5fe7177dcc9f679e18278372ae7cbc11f7415",
    3: "974b5b2eadaa102c7ab9a23560fb06bb16d9c1cfe7525e29b64fb231620077c6",
    4: "35a37e2b5acc14b76abad192fe7e96a1af4b6415d8bfaad129b1e7c38a444703",
}


def _row_determinant_entries(n, z):
    rng = random.Random(n)
    sites = site_denominator(z)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            c0 = RFMatrix.over_sites([_rand_matrix(rng, 2) for _ in range(3)],
                                     sites)
            coeffs = [c0, RFMatrix(2, 2, [_rand_matrix(rng, 2)])] if i == j \
                else [c0]
            row.append(OperatorPencil(coeffs))
        entries.append(row)
    return entries


def _hex(v):
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else str(v)


def _bits(pencil, points):
    h = hashlib.sha256()
    for c in pencil.coeffs:
        for mat in c.coeffs:
            h.update(repr([(k, _hex(v)) for k, v in mat.data.items()]).encode())
        for u in points:
            h.update(repr([(k, _hex(v))
                           for k, v in c.eval(u).data.items()]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n, compositions", [(2, 2), (3, 9), (4, 28)])
def test_row_determinant_matches_the_permutation_formula(
        monkeypatch, n, compositions):
    """Entries with non-commuting 2x2 matrix coefficients over a site
    denominator, order 1 on the diagonal: the top-row expansion equals the
    permutation expansion, with fewer compositions.  Rational sites run in
    the integer form, a Gaussian-rational site and complex sites pass
    through; at complex sites the result keeps its recorded bits."""
    compose = OperatorPencil.compose
    calls = []

    def counting(self, other):
        calls.append(1)
        return compose(self, other)

    for name, z in ROW_DETERMINANT_SITES.items():
        entries = _row_determinant_entries(n, z)
        want = _permutation_row_determinant(entries)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(OperatorPencil, "compose", counting)
            got = row_determinant(entries)
        assert len(calls) == compositions
        assert got.order == want.order == n
        if name != "complex":
            for a, b in zip(got.coeffs, want.coeffs, strict=True):
                assert (a - b).is_zero()
                assert a.is_exact()
            continue
        assert _bits(got, ROW_DETERMINANT_POINTS) == \
            ROW_DETERMINANT_COMPLEX_BITS[n]
        for a, b in zip(got.coeffs, want.coeffs, strict=True):
            assert a.is_exact() == (a.power == 0)
            for u in ROW_DETERMINANT_POINTS:
                x, y = a.eval(u), b.eval(u)
                scale = max(abs(complex(v)) for v in y.data.values())
                assert all(abs(complex(x[k]) - complex(y[k])) <= 1e-12 * scale
                           for k in set(x.data) | set(y.data))
            for k in (2, -3):
                got_bits = a.eval(Fraction(k)).data
                want_bits = a.eval(complex(k)).data
                assert list(got_bits) == list(want_bits)
                assert [_hex(complex(v)) for v in got_bits.values()] == \
                    [_hex(complex(v)) for v in want_bits.values()]
