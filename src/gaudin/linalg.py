"""Sparse exact linear algebra over Fraction / Gaussian-rational / complex scalars.

Matrices are dicts mapping (row, col) -> nonzero scalar.  Vectors are dicts
mapping index -> nonzero scalar.  Everything here is written for correctness
on modest dimensions (module dimensions in the hundreds); elimination is plain
Gaussian with exact pivots in exact mode and partial pivoting in numeric mode.
"""

from __future__ import annotations

import math
from fractions import Fraction

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

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(nrows, ncols)

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


def integer_scaled(mats):
    """([m * d for m in mats], d) over one common denominator d.

    When every entry is a Fraction or an int, d is the lcm of the entry
    denominators and the scaled entries are Python ints, so products and
    dict comparisons run without any gcd.  Otherwise (Gaussian-rational or
    complex entries) d = 1 and the matrices are returned unchanged.
    """
    if not all(type(v) is Fraction or type(v) is int
               for m in mats for v in m.data.values()):
        return list(mats), 1
    d = math.lcm(*(v.denominator for m in mats for v in m.data.values()))
    return [SparseMatrix(m.nrows, m.ncols,
                         {k: v.numerator * (d // v.denominator)
                          for k, v in m.data.items()})
            for m in mats], d


def _pivot_in_row(row, exact):
    """Choose pivot column: smallest index (exact) / largest magnitude (numeric)."""
    if exact:
        return min(row)
    return max(row, key=lambda j: scalar_abs(row[j]))


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
        row = {j: v / piv for j, v in row.items()}
        row[col] = 1 if exact else 1.0
        for r in work:
            x = r.get(col)
            if x:
                for j, v in row.items():
                    y = r.get(j)
                    s = -x * v if y is None else y - x * v
                    if _nz(s, exact, eps):
                        r[j] = s
                    else:
                        r.pop(j, None)
        for r in reduced:
            x = r.get(col)
            if x:
                for j, v in row.items():
                    y = r.get(j)
                    s = -x * v if y is None else y - x * v
                    if _nz(s, exact, eps):
                        r[j] = s
                    else:
                        r.pop(j, None)
        reduced.append(row)
        pivots.append(col)
        work = [r for r in work if r]
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [reduced[k] for k in order], [pivots[k] for k in order]


def _nz(x, exact, eps=_NUMERIC_EPS):
    if exact:
        return bool(x)
    return scalar_abs(x) > eps


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


def solve(mat: SparseMatrix, rhs):
    """One solution of mat @ x = rhs (dict-vector rhs), or None if inconsistent."""
    aug_rows = mat.rows_as_dicts()
    for i, r in enumerate(aug_rows):
        y = rhs.get(i)
        if y:
            r[mat.ncols] = y
    reduced, pivots = rref(aug_rows)
    x = {}
    for row, p in zip(reduced, pivots):
        if p == mat.ncols:
            return None  # inconsistent: pivot in augmented column
        y = row.get(mat.ncols)
        if y:
            x[p] = y
    return x


class IncrementalSpan:
    """Maintains an RREF basis of a growing span; used for module closure.

    add(v) reduces v against the current basis; if a new direction remains it
    is absorbed and True is returned.  coords(v) expresses v in the stored
    (echelon) basis, or returns None when v lies outside the span.
    """

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.rows = []      # echelon rows, leading coefficient 1
        self.pivots = []    # pivot index of each row

    def __len__(self):
        return len(self.rows)

    def _reduce(self, v):
        v = dict(v)
        exact = all(is_exact(x) for x in v.values()) and all(
            is_exact(x) for r in self.rows for x in r.values())
        for row, p in zip(self.rows, self.pivots):
            x = v.get(p)
            if x:
                for j, w in row.items():
                    y = v.get(j)
                    s = -x * w if y is None else y - x * w
                    if _nz(s, exact):
                        v[j] = s
                    else:
                        v.pop(j, None)
        return v, exact

    def contains(self, v):
        red, _ = self._reduce(v)
        return not red

    def add(self, v):
        red, exact = self._reduce(v)
        if not red:
            return False
        p = _pivot_in_row(red, exact)
        piv = red[p]
        red = {j: w / piv for j, w in red.items()}
        red[p] = 1 if exact else 1.0
        # keep existing rows reduced against the new one
        for row in self.rows:
            x = row.get(p)
            if x:
                for j, w in red.items():
                    y = row.get(j)
                    s = -x * w if y is None else y - x * w
                    if _nz(s, exact):
                        row[j] = s
                    else:
                        row.pop(j, None)
        self.rows.append(red)
        self.pivots.append(p)
        return True

    def coords(self, v):
        """Coefficients c with v = sum_k c[k] * rows[k], or None if outside."""
        v = dict(v)
        exact = all(is_exact(x) for x in v.values()) and all(
            is_exact(x) for r in self.rows for x in r.values())
        out = [0] * len(self.rows)
        for k, (row, p) in enumerate(zip(self.rows, self.pivots)):
            x = v.get(p)
            if x:
                out[k] = x
                for j, w in row.items():
                    y = v.get(j)
                    s = -x * w if y is None else y - x * w
                    if _nz(s, exact):
                        v[j] = s
                    else:
                        v.pop(j, None)
        if v:
            return None
        return out

    def basis_matrix(self):
        m = SparseMatrix(len(self.rows), self.ambient_dim)
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                m[i, j] = x
        return m
