"""Sparse exact linear algebra over Fraction / Gaussian-rational / complex scalars.

Matrices are dicts mapping (row, col) -> nonzero scalar.  Vectors are dicts
mapping index -> nonzero scalar.  Everything here is written for correctness
on modest dimensions (module dimensions in the hundreds).

Every elimination is one row operation, `_eliminate`: row echelon forms
(`rref`, `IncrementalSpan`), coordinates in a column basis (`Coordinates`),
determinants (`det`) and dense square systems (`solve`, the Newton kernel's
Jacobian).  Pivots are exact (first nonzero) in exact mode and of largest
modulus in numeric mode.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import is_exact, scalar_abs

_NUMERIC_EPS = 1e-12
# a numeric remainder this small relative to the vector counts as roundoff
_REMAINDER_RTOL = 1e-9


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

    def copy(self):
        return SparseMatrix(self.nrows, self.ncols, dict(self.data))

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
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        out = dict(self.data)
        for k, x in other.data.items():
            y = out.get(k)
            s = x if y is None else y + x
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparseMatrix(self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return SparseMatrix(self.nrows, self.ncols)
        return SparseMatrix(self.nrows, self.ncols, {k: c * v for k, v in self.data.items()})

    def __matmul__(self, other):
        assert self.ncols == other.nrows, (self.ncols, other.nrows)
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
                s = x * y if cur is None else cur + x * y
                out[key] = s
        out = {k: v for k, v in out.items() if v}
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


def _forward(work, n, exact):
    """Forward elimination of the dict rows `work` over columns 0..n-1.

    In place; the first nonzero pivot in exact mode, the largest modulus
    (partial pivoting) in numeric mode, and no entry is dropped.  Returns
    the sign of the row permutation, or 0 when some column has no pivot.
    """
    sign = 1
    for col in range(n):
        if exact:
            piv = next((r for r in range(col, n) if work[r].get(col)), None)
        else:
            piv = max(range(col, n),
                      key=lambda r: scalar_abs(work[r].get(col, 0)))
            if scalar_abs(work[piv].get(col, 0)) == 0.0:
                piv = None
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        row = work[col]
        for r in work[col + 1:]:
            if r.get(col):
                _eliminate(r, row, col, exact, eps=0.0)
    return sign


def _dict_rows(rows):
    work = [{j: x for j, x in enumerate(r) if x} for r in rows]
    return work, all(is_exact(x) for r in work for x in r.values())


def det(rows):
    """Determinant of a square matrix given as a list of rows (sequences),
    by Gaussian elimination (`_forward`)."""
    n = len(rows)
    work, exact = _dict_rows(rows)
    sign = _forward(work, n, exact)
    out = Fraction(sign) if exact else complex(sign)
    if sign:
        for col in range(n):
            out = out * work[col][col]
    return out


def solve(rows, rhs):
    """x with rows @ x = rhs, by the elimination of `det` and back
    substitution; None when the matrix is singular."""
    n = len(rows)
    work, exact = _dict_rows(list(r) + [b] for r, b in zip(rows, rhs))
    if not _forward(work, n, exact):
        return None
    x = [0] * n
    for col in reversed(range(n)):
        row = work[col]
        s = row.get(n, 0)
        for j, w in row.items():
            if col < j < n:
                s = s - w * x[j]
        x[col] = _div(s, row[col], exact)
    return x


class IncrementalSpan:
    """Reduced echelon basis of a growing span; used by `Coordinates`.

    add(v) reduces v against the current basis; if a new direction remains it
    is absorbed and True is returned.  Pivots lie below `ambient_dim`; entries
    at larger indices are tags that ride along in every row operation (see
    `Coordinates`).
    """

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.rows = []      # echelon rows, leading coefficient 1
        self.pivots = []    # pivot index of each row
        self.exact = True   # every row exact

    def __len__(self):
        return len(self.rows)

    def _reduce(self, v, eps=_NUMERIC_EPS):
        """(v with every pivot entry cleared by the rows, exact mode flag)."""
        v = dict(v)
        exact = self.exact and all(is_exact(x) for x in v.values())
        for row, p in zip(self.rows, self.pivots):
            if v.get(p):
                _eliminate(v, row, p, exact, eps)
        return v, exact

    def add(self, v):
        red, exact = self._reduce(v)
        free = [j for j in red if j < self.ambient_dim]
        if not free:
            return False
        if exact:
            p = min(free)
        else:
            p = max(free, key=lambda j: scalar_abs(red[j]))
        piv = red[p]
        red = {j: _div(w, piv, exact) for j, w in red.items()}
        red[p] = 1 if exact else 1.0
        # keep existing rows reduced against the new one
        for row in self.rows:
            if row.get(p):
                _eliminate(row, red, p, exact)
        self.rows.append(red)
        self.pivots.append(p)
        self.exact = exact
        return True


class Coordinates:
    """Coordinates of dict-vectors in a basis of independent columns.

    The columns go into an IncrementalSpan with column m tagged by a unit
    entry at dim + m.  Reducing v against that span leaves minus the
    coordinates of v at the tags and the part of v outside the span below
    dim.  Raises ValueError when the columns are linearly dependent.
    """

    def __init__(self, cols, dim):
        self.dim = dim
        self.span = IncrementalSpan(dim)
        for m, col in enumerate(cols):
            tagged = dict(col)
            tagged[dim + m] = Fraction(1)
            if not self.span.add(tagged):
                raise ValueError("basis columns are linearly dependent")

    def __call__(self, v):
        """(x, rest) with v = sum_m x[m] * cols[m] + rest, x and rest dicts.

        rest is empty when v lies in the span.  In numeric mode no entry is
        dropped, and a remainder of modulus at most _REMAINDER_RTOL times the
        largest modulus in v counts as roundoff and is discarded.
        """
        dim = self.dim
        red, exact = self.span._reduce(v, eps=0.0)
        x = {k - dim: -c for k, c in red.items() if k >= dim}
        rest = {k: c for k, c in red.items() if k < dim}
        if rest and not exact:
            bound = _REMAINDER_RTOL * max(scalar_abs(c) for c in v.values())
            if all(scalar_abs(c) <= bound for c in rest.values()):
                rest = {}
        return x, rest
