"""Sparse exact linear algebra over Fraction / Gaussian-rational / complex scalars.

Matrices are dicts mapping (row, col) -> nonzero scalar.  Vectors are dicts
mapping index -> nonzero scalar.  Everything here is written for correctness
on modest dimensions (module dimensions in the hundreds).

Every sparse elimination is one row operation, `_eliminate`, in the
reduced row echelon form `rref` (and through it `rank` and `nullspace`).
Coordinates in a column basis need no elimination once every column has a
unit row, where it is 1 and the other columns are 0: `rref` of the columns
gives such a basis, and the coordinates are the entries at those rows
(`bethe_algebra.restrict_poles`).  Square matrices given as lists of rows,
determinants (`det`) and square systems (`solve`, the Newton kernel's
Jacobian), share one dense forward elimination, `_forward`, over list rows:
on a few variables dict rows cost more than the arithmetic.  Pivots are
exact (first nonzero) in exact mode and of largest modulus in numeric mode.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch
from .scalars import is_exact, scalar_abs

_NUMERIC_EPS = 1e-12


def vec_dot(u, v):
    if len(v) < len(u):
        u, v = v, u
    tot = 0
    for k, x in u.items():
        y = v.get(k)
        if y is not None:
            tot += x * y
    return tot


class SparseMatrix:
    """Dict-of-entries sparse matrix; rows/cols indexed 0..n-1."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows, ncols, data=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else {k: v for k, v in data.items() if v}

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def __getitem__(self, key):
        return self.data.get(key, 0)

    def __setitem__(self, key, value):
        if value:
            self.data[key] = value
        else:
            self.data.pop(key, None)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.data == other.data

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} + {other.nrows}x{other.ncols}")
        out = dict(self.data)
        for k, x in other.data.items():
            y = out.get(k)
            out[k] = x if y is None else y + x
        return SparseMatrix(self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return SparseMatrix(self.nrows, self.ncols)
        return SparseMatrix(self.nrows, self.ncols, {k: c * v for k, v in self.data.items()})

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        rows = {}
        for (i, k), x in self.data.items():
            rows.setdefault(k, []).append((i, x))
        out = {}
        for (k, j), y in other.data.items():
            hits = rows.get(k)
            if not hits:
                continue
            for i, x in hits:
                key = (i, j)
                cur = out.get(key)
                out[key] = x * y if cur is None else cur + x * y
        return SparseMatrix(self.nrows, other.ncols, out)

    def apply(self, vec):
        """Matrix times sparse dict-vector."""
        out = {}
        for (i, j), x in self.data.items():
            y = vec.get(j)
            if y is None:
                continue
            cur = out.get(i)
            s = x * y if cur is None else cur + x * y
            out[i] = s
        return {k: v for k, v in out.items() if v}

    def transpose(self):
        return SparseMatrix(self.ncols, self.nrows,
                            {(j, i): v for (i, j), v in self.data.items()})

    def commutator(self, other):
        return self @ other - other @ self

    def kron(self, other):
        """Kronecker product: index (i1*n2+i2, j1*m2+j2)."""
        n2, m2 = other.nrows, other.ncols
        out = {}
        for (i1, j1), x in self.data.items():
            for (i2, j2), y in other.data.items():
                out[(i1 * n2 + i2, j1 * m2 + j2)] = x * y
        return SparseMatrix(self.nrows * n2, self.ncols * m2, out)

    def is_zero(self):
        return not self.data

    def rows_as_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows


def rational_lcd(values):
    """lcm of the denominators when every value is a Fraction or an int,
    else None (a Gaussian-rational or floating value has no integer form)."""
    dens = []
    for v in values:
        if type(v) is Fraction:
            dens.append(v.denominator)
        elif type(v) is not int:
            return None
    return math.lcm(*dens)


def integer_scaled(mats):
    """([m * d for m in mats], d) over one common denominator d.

    When every entry is a Fraction or an int, d is the lcm of the entry
    denominators and the scaled entries are Python ints, so products and
    dict comparisons run without any gcd.  Otherwise (Gaussian-rational or
    complex entries) d = 1 and the matrices are returned unchanged.
    """
    d = rational_lcd(v for m in mats for v in m.data.values())
    if d is None:
        return list(mats), 1
    return [SparseMatrix(m.nrows, m.ncols,
                         {k: v.numerator * (d // v.denominator)
                          for k, v in m.data.items()})
            for m in mats], d


def _nz(x, exact, eps=_NUMERIC_EPS):
    if exact:
        return bool(x)
    return scalar_abs(x) > eps


def _div(a, b, exact):
    """a / b; in exact mode a Fraction when both are ints."""
    if exact and type(a) is int and type(b) is int:
        return Fraction(a, b)
    return a / b


def _eliminate(target, row, col, exact, eps=_NUMERIC_EPS):
    """target -= (target[col] / row[col]) * row, in place.

    The one row operation of this module.  An entry of the result is dropped
    when it is zero (exact mode) or of modulus at most `eps` (numeric mode).
    """
    x = target[col]
    piv = row[col]
    if piv != 1:
        x = _div(x, piv, exact)
    for j, w in row.items():
        y = target.get(j)
        s = -x * w if y is None else y - x * w
        if _nz(s, exact, eps):
            target[j] = s
        else:
            target.pop(j, None)


def rref(rows, eps=_NUMERIC_EPS):
    """Reduced row echelon form of a list of dict-rows.

    Returns (reduced_rows, pivot_cols).  reduced_rows[k] has leading 1 at
    pivot_cols[k]; zero rows are dropped.  Works in place on copies.  In
    numeric mode elimination drops entries of modulus at most `eps`, and a
    pivot below `eps` times max(1, largest modulus in its row) is skipped;
    exact mode ignores `eps`.
    """
    work = [dict(r) for r in rows if r]
    exact = all(is_exact(x) for r in work for x in r.values())
    reduced = []
    pivots = []
    for col in sorted({j for r in work for j in r}):
        best = None
        for idx, r in enumerate(work):
            x = r.get(col)
            if not x:
                continue
            if exact:
                best = idx
                break
            if best is None or scalar_abs(x) > scalar_abs(work[best].get(col, 0)):
                best = idx
        if best is None:
            continue
        row = work.pop(best)
        piv = row[col]
        if not exact and scalar_abs(piv) < eps * max(1.0, max(scalar_abs(v) for v in row.values())):
            continue
        row = {j: _div(v, piv, exact) for j, v in row.items()}
        row[col] = 1 if exact else 1.0
        for r in work + reduced:
            if r.get(col):
                _eliminate(r, row, col, exact, eps)
        reduced.append(row)
        pivots.append(col)
        work = [r for r in work if r]
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [reduced[k] for k in order], [pivots[k] for k in order]


def rank(mat: SparseMatrix) -> int:
    _, pivots = rref(mat.rows_as_dicts())
    return len(pivots)


def nullspace(mat: SparseMatrix):
    """Basis of the right kernel as a list of dict-vectors (exact or numeric)."""
    reduced, pivots = rref(mat.rows_as_dicts())
    pivset = set(pivots)
    free = [j for j in range(mat.ncols) if j not in pivset]
    basis = []
    for f in free:
        v = {f: Fraction(1)}
        for row, p in zip(reduced, pivots):
            x = row.get(f)
            if x:
                v[p] = -x
        basis.append(v)
    return basis


def _forward(work, n):
    """Forward elimination over columns 0..n-1 of n list rows of at least n
    entries, in place; returns (sign, exact).

    Afterwards the rows are eliminated on and above the diagonal (entries
    below it are left unread).  Exact mode (every nonzero entry exact) pivots
    on the first nonzero entry, numeric mode on the first entry of largest
    modulus.  Each step is row - x * pivot row over the columns after the
    pivot, with no entry dropped; a zero entry counts as absent, as in
    `_eliminate`.  sign is that of the row permutation, or 0 when some
    column has no pivot.  `det` and `solve` pass copies, so their callers'
    rows are never changed.
    """
    exact = all(is_exact(x) for r in work for x in r if x)
    sign = 1
    for col in range(n):
        if exact:
            piv = next((r for r in range(col, n) if work[r][col]), None)
        else:
            mags = [scalar_abs(work[r][col]) for r in range(col, n)]
            best = max(mags)
            piv = None if best == 0.0 else col + mags.index(best)
        if piv is None:
            return 0, exact
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        row = work[col]
        p = row[col]
        tail = [(j, row[j]) for j in range(col + 1, len(row)) if row[j]]
        for r in work[col + 1:]:
            x = r[col]
            if not x:
                continue
            if p != 1:
                x = _div(x, p, exact)
            for j, w in tail:
                y = r[j]
                r[j] = y - x * w if y else -x * w
    return sign, exact


def det(rows):
    """Determinant of a square matrix given as a list of rows (sequences),
    by Gaussian elimination (`_forward`)."""
    n = len(rows)
    work = [list(r) for r in rows]
    sign, exact = _forward(work, n)
    out = Fraction(sign) if exact else complex(sign)
    if sign:
        for col in range(n):
            out = out * work[col][col]
    return out


def solve(rows, rhs):
    """x with rows @ x = rhs, by the elimination of `det` and back
    substitution; None when the matrix is singular."""
    n = len(rows)
    work = [[*r, b] for r, b in zip(rows, rhs)]
    sign, exact = _forward(work, n)
    if not sign:
        return None
    x = [0] * n
    for col in reversed(range(n)):
        row = work[col]
        s = row[n] or 0
        for j in range(col + 1, n):
            w = row[j]
            if w:
                s = s - w * x[j]
        x[col] = _div(s, row[col], exact)
    return x
