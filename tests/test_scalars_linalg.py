import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from gaudin.errors import DimensionMismatch
from gaudin.linalg import SparseMatrix, det, nullspace, rank, rref, solve
from gaudin.scalars import (QI, coerce, format_scalar, is_exact,
                            parse_rational, scalar_abs, to_complex)


def test_qi_field_ops():
    a = QI(Fraction(1, 2), Fraction(3))
    b = QI(Fraction(-2), Fraction(1, 5))
    assert a + b == QI(Fraction(-3, 2), Fraction(16, 5))
    assert a * b == QI(Fraction(1, 2) * Fraction(-2) - 3 * Fraction(1, 5),
                       Fraction(1, 2) * Fraction(1, 5) + 3 * Fraction(-2))
    assert (a / b) * b == a
    assert a - a == QI(0, 0)
    # an int or Fraction factor takes the two-product path, on either side
    for c in (3, Fraction(-2, 7)):
        for got in (a * c, c * a):
            assert got == a * QI(c) and type(got.re) is Fraction
    with pytest.raises(ZeroDivisionError):
        a / QI(0, 0)
    # parts are Fractions whether given as Fractions, which are kept, or
    # as ints, which are wrapped
    for x in (a + b, a - b, a * b, a / b, -a, a.conjugate(), a * 3, 3 - a,
              Fraction(1, 3) / a, QI(3), QI(2, -1), QI()):
        assert type(x.re) is Fraction and type(x.im) is Fraction, x
    assert QI(3) == QI(Fraction(3), Fraction(0))


def test_qi_matches_complex():
    rng = random.Random(7)
    for _ in range(25):
        a = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            got = to_complex(op(a, b))
            want = op(to_complex(a), to_complex(b))
            assert abs(got - want) < 1e-12


def test_coerce_and_mode():
    assert coerce(3) == Fraction(3)
    assert is_exact(coerce(3))
    assert coerce(0.25) == 0.25 + 0j
    assert not is_exact(coerce(1.5))
    with pytest.raises(TypeError):
        coerce(True)


def test_parse_and_format_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(4)) == "4"
    c = format_scalar(1.5 - 2.0j)
    assert c == [1.5, -2.0]


def _random_sparse(rng, nrows, ncols, density=0.6):
    m = SparseMatrix(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                m[i, j] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return m


def _dense(m):
    out = np.zeros((m.nrows, m.ncols))
    for (i, j), v in m.data.items():
        out[i, j] = float(v)
    return out


def test_sparse_matmul_against_numpy():
    rng = random.Random(0)
    for _ in range(10):
        a = _random_sparse(rng, 4, 5)
        b = _random_sparse(rng, 5, 3)
        got = _dense(a @ b)
        want = _dense(a) @ _dense(b)
        assert np.allclose(got, want)


def test_sparse_rank_and_nullspace_against_numpy():
    rng = random.Random(1)
    for _ in range(12):
        m = _random_sparse(rng, 5, 6, density=0.5)
        d = _dense(m)
        want_rank = np.linalg.matrix_rank(d, tol=1e-9)
        assert rank(m) == want_rank
        kernel = nullspace(m)
        assert len(kernel) == 6 - want_rank
        for v in kernel:
            arr = np.array([float(v.get(k, 0)) for k in range(6)])
            assert np.linalg.norm(d @ arr) < 1e-9
            assert np.linalg.norm(arr) > 0


def _permutation_det(rows):
    n = len(rows)
    tot = 0
    for perm in itertools.permutations(range(n)):
        term = oracles.perm_sign(perm)
        for i in range(n):
            term *= rows[i][perm[i]]
        tot += term
    return tot


def test_det_matches_the_permutation_formula():
    rng = random.Random(4)
    for n in (1, 2, 3, 4, 5):
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
        assert det(rows) == _permutation_det(rows)
    # a leading zero forces a row swap
    rows = [[Fraction(0), Fraction(2), Fraction(1)],
            [Fraction(3), Fraction(1, 2), Fraction(-1)],
            [Fraction(1), Fraction(0), Fraction(4)]]
    assert det(rows) == _permutation_det(rows) != 0
    singular = [[Fraction(1), Fraction(2), Fraction(3)],
                [Fraction(2), Fraction(4), Fraction(6)],
                [Fraction(0), Fraction(1), Fraction(5)]]
    assert det(singular) == 0
    assert det([]) == 1


def test_det_of_complex_entries_against_numpy():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 6):
        arr = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = det(arr.tolist())
        assert isinstance(got, complex)
        want = np.linalg.det(arr)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_solve_of_complex_systems_against_numpy():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            arr = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = np.array(solve(arr.tolist(), rhs.tolist()))
            want = np.linalg.solve(arr, rhs)
            err = np.abs(got - want).max()
            assert err <= 1e-12 * max(1.0, np.abs(want).max())


def test_solve_of_clongdouble_systems_has_extended_residual():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5):
        arr = (rng.normal(size=(n, n))
               + 1j * rng.normal(size=(n, n))).astype(np.clongdouble)
        arr += np.clongdouble(1) / 3         # entries not exact in double
        rhs = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(
            np.clongdouble)
        x = np.array(solve(list(arr), list(rhs)))
        assert all(type(v) is np.clongdouble for v in x)
        resid = np.abs(arr @ x - rhs).max()
        scale = np.abs(arr).max() * np.abs(x).max()
        assert resid <= 10 * n * np.finfo(np.longdouble).eps * scale


def test_solve_singular_and_exact():
    assert solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0]) is None
    assert solve([[0j, 0j], [0j, 1 + 0j]], [1j, 1j]) is None
    x = solve([[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]],
              [Fraction(4), Fraction(5)])
    assert x == [1, 2] and all(type(v) is Fraction for v in x)


def test_det_and_solve_take_any_rows_and_leave_them_unchanged():
    # find_critical_orbits reads the Hessian's row scale after det(H)
    rows = [[0j, 2 + 1j, 1], [3 - 1j, 0.5, -1], [1, 0, 4j]]
    rhs = [1j, 2, -1]
    want_det = np.linalg.det(np.array(rows))
    want_x = np.linalg.solve(np.array(rows), np.array(rhs))
    for form in (lambda r: [list(x) for x in r],
                 lambda r: [tuple(x) for x in r],
                 lambda r: list(np.array(r, dtype=complex)),
                 lambda r: np.array(r, dtype=complex)):
        given, b = form(rows), list(rhs)
        before = [list(r) for r in given]
        assert abs(det(given) - want_det) <= 1e-12 * abs(want_det)
        x = solve(given, b)
        assert np.abs(np.array(x) - want_x).max() <= 1e-12
        assert [list(r) for r in given] == before and b == rhs
    exact = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
    for given in (exact, [tuple(r) for r in exact]):
        before = [list(r) for r in given]
        assert det(given) == -6
        assert solve(given, [Fraction(4), Fraction(5)]) == [1, 2]
        assert [list(r) for r in given] == before


def test_rref_pivots_are_sorted_orders():
    rows = [{0: Fraction(1), 3: Fraction(2)},
            {0: Fraction(2), 3: Fraction(4), 5: Fraction(1)},
            {1: Fraction(1)}]
    _, pivots = rref(rows)
    assert pivots == sorted(pivots)
    assert len(pivots) == 3


def test_exact_routines_keep_int_input_exact():
    """int input divides into Fractions, not floats."""
    (v,) = nullspace(SparseMatrix(1, 2, {(0, 0): 2, (0, 1): 1}))
    assert v == {0: Fraction(-1, 2), 1: 1}
    assert all(type(x) is Fraction for x in v.values())
    d = det([[2, 1], [1, 3]])
    assert d == 5 and type(d) is Fraction
    (row,), pivots = rref([{0: 2, 1: 3, 2: 1}])
    assert row == {0: 1, 1: Fraction(3, 2), 2: Fraction(1, 2)}
    assert type(row[1]) is Fraction and type(row[2]) is Fraction


def test_commutator_and_transpose():
    rng = random.Random(3)
    a = _random_sparse(rng, 4, 4)
    b = _random_sparse(rng, 4, 4)
    c = a.commutator(b)
    assert np.allclose(_dense(c), _dense(a) @ _dense(b) - _dense(b) @ _dense(a))
    assert np.allclose(_dense(a.transpose()), _dense(a).T)


def test_kron_shape_and_values():
    a = SparseMatrix(2, 2)
    a[0, 0] = Fraction(2)
    a[1, 0] = Fraction(3)
    b = SparseMatrix(2, 2)
    b[0, 1] = Fraction(5)
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (4, 4)
    assert k[0, 1] == Fraction(10)
    assert k[2, 1] == Fraction(15)


def test_scalar_abs():
    assert scalar_abs(Fraction(-3, 2)) == 1.5
    assert scalar_abs(QI(3, 4)) == 5.0
    assert abs(QI(3, 4)) == 5.0
    assert scalar_abs(3 - 4j) == 5.0


def test_shape_mismatches_raise_under_python_O():
    """A sum or product of mismatched shapes raises DimensionMismatch, also
    under `python -O`, which strips assert statements: an assert there let
    the mismatch compute garbage."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "from gaudin.errors import DimensionMismatch\n"
        "from gaudin.linalg import SparseMatrix\n"
        "a, b = SparseMatrix(2, 3, {(0, 0): 1}), SparseMatrix(2, 2)\n"
        "for op in (lambda: a + b, lambda: a @ b):\n"
        "    try:\n"
        "        op()\n"
        "    except DimensionMismatch:\n"
        "        print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["raised", "raised"]
