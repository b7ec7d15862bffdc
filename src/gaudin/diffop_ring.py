"""Univariate polynomials, rational matrices over known poles, and
differential-operator pencils.

Everything is generic over the scalar field (Fraction / Gaussian rational /
complex).  A pencil is sum_k C_k(u) d^k with coefficients written to the left
of the derivative powers.  Every coefficient is a matrix polynomial over a
power of one fixed denominator D(u) = prod (u - r) of the known pole
locations (RFMatrix), so nothing is ever gcd-reduced, and the same
composition code serves the row-determinant operator (poles at the sites)
and the scalar operator at a critical point (1x1, poles at the sites and the
Bethe variables).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DimensionMismatch, ImproperRational, PoleEvaluation
from .linalg import SparseMatrix
from .scalars import is_exact, scalar_abs


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


class Poly:
    """Dense univariate polynomial, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_strip(coeffs))

    @classmethod
    def from_roots(cls, roots):
        p = cls((Fraction(1),))
        for r in roots:
            p = p * cls((-r, Fraction(1)))
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def scale(self, c):
        if not c:
            return Poly(())
        return Poly([c * x for x in self.coeffs])

    def __pow__(self, k):
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def __rmul__(self, c):
        return self.scale(c)

    def eval(self, u):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    __call__ = eval

    def derivative(self, order=1):
        c = self.coeffs
        for _ in range(order):
            c = [k * c[k] for k in range(1, len(c))]
        return Poly(c)

    def taylor_shift(self, a):
        """Coefficients of p(u + a) -- the Taylor expansion around u = -a... i.e.
        returns q with q(v) = p(v + a); use taylor_shift(z) to expand around z
        via p(u) = q(u - z)."""
        n = len(self.coeffs)
        if n == 0:
            return self
        out = [0] * n
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            # c*(v+a)^k
            pw = 1
            for m in range(k, -1, -1):
                out[m] = out[m] + c * math.comb(k, k - m) * pw
                pw = pw * a
        return Poly(out)

    def is_exact_poly(self):
        return all(is_exact(c) for c in self.coeffs)

    def max_abs(self):
        return max((scalar_abs(c) for c in self.coeffs), default=0.0)


ONE = Poly((Fraction(1),))


def _series_quotient(num, den, count):
    """Coefficients 0..count of the power series num(w) / den(w), den[0] != 0."""
    out = []
    for j in range(count + 1):
        acc = num[j] if j < len(num) else 0
        for m in range(max(0, j - len(den) + 1), j):
            if out[m] and den[j - m]:
                acc = acc - out[m] * den[j - m]
        out.append(acc / den[0])
    return out


def _times_poly(mats, q: Poly):
    """Coefficients of P(u) * q(u) for a matrix polynomial P and scalar q."""
    if not mats or q.is_zero():
        return []
    out = [{} for _ in range(len(mats) + q.degree)]
    for a, mat in enumerate(mats):
        for b, c in enumerate(q.coeffs):
            if not c:
                continue
            acc = out[a + b]
            for key, v in mat.data.items():
                cur = acc.get(key)
                acc[key] = c * v if cur is None else cur + c * v
    return [SparseMatrix(mats[0].nrows, mats[0].ncols, d) for d in out]


def site_denominator(z):
    """D(u) = prod_s (u - z_s) and the cofactors prod_{t!=s} (u - z_t)."""
    factors = [Poly((-zs, 1 if is_exact(zs) else 1.0 + 0j)) for zs in z]
    base = ONE
    for f in factors:
        base = base * f
    cofactors = []
    for s in range(len(factors)):
        cofactor = ONE
        for t, f in enumerate(factors):
            if t != s:
                cofactor = cofactor * f
        cofactors.append(cofactor)
    return base, cofactors


def _add_polys(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


_FLOATING = "floating"
_GENERIC = "generic"


def _horner_plan(coeffs, base):
    """How RFMatrix.eval runs Horner at a rational point.

    (lcd, rows) when every entry and the base are rational: rows maps each
    entry, in the order Horner first meets it (highest coefficient down), to
    its integer numerators m_n, ..., m_0 over the common denominator lcd.
    _FLOATING when every entry is a float or complex, else _GENERIC.
    """
    if not coeffs:
        return _GENERIC
    rows = {}
    top = len(coeffs) - 1
    for a in range(top, -1, -1):
        for key, v in coeffs[a].data.items():
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * (top + 1)
            row[top - a] = v
    values = [v for row in rows.values() for v in row]
    if all(type(v) is Fraction or type(v) is int
           for v in itertools.chain(values, base.coeffs)):
        lcd = math.lcm(*(v.denominator for v in values))
        return lcd, {key: tuple(v.numerator * (lcd // v.denominator)
                                for v in row)
                     for key, row in rows.items()}
    if all(isinstance(v, (float, complex)) for mat in coeffs
           for v in mat.data.values()):
        return _FLOATING
    return _GENERIC


class RFMatrix:
    """Matrix of rational functions over one shared denominator power.

    The value is P(u) / D(u)^k: `coeffs` are the SparseMatrix coefficients of
    P in ascending powers of u, `base` is the polynomial D and `power` is k.
    Nothing is ever reduced.  Sums bring both sides to the larger power of D,
    products convolve the coefficients and add the powers.  The currents of a
    Gaudin model have D = prod_s (u - z_s), and an entry of weight i of their
    row determinant has pole order at most i at every site, so P_i / D^i is
    exact without any gcd.
    """

    __slots__ = ("nrows", "ncols", "coeffs", "base", "power", "_horner")

    def __init__(self, nrows, ncols, coeffs=(), base=ONE, power=0):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.nrows = nrows
        self.ncols = ncols
        self.coeffs = coeffs
        self.base = base
        self.power = power if coeffs else 0
        self._horner = None    # eval's plan, made at its first call

    @classmethod
    def identity(cls, n):
        return cls(n, n, [SparseMatrix.identity(n)])

    @classmethod
    def over_sites(cls, mats, sites):
        """sum_s mats[s] / (u - z_s), kept as sum_s mats[s] prod_{t!=s}(u - z_t)
        over D(u) = prod_s (u - z_s); `sites` is site_denominator(z)."""
        base, cofactors = sites
        coeffs = []
        for mat, cofactor in zip(mats, cofactors):
            coeffs = _add_polys(coeffs, _times_poly([mat], cofactor))
        return cls(mats[0].nrows, mats[0].ncols, coeffs, base, 1)

    def is_zero(self):
        return not self.coeffs

    def is_exact(self):
        return (self.base.is_exact_poly()
                and all(is_exact(v) for mat in self.coeffs
                        for v in mat.data.values()))

    def map_coeffs(self, fn, nrows, ncols):
        """fn applied to every coefficient matrix of P, over the same D^k."""
        return RFMatrix(nrows, ncols, [fn(mat) for mat in self.coeffs],
                        self.base, self.power)

    def _like(self, coeffs, power):
        return RFMatrix(self.nrows, self.ncols, coeffs, self.base, power)

    def _common_base(self, other):
        if not other.power:
            return self.base
        if not self.power:
            return other.base
        if self.base is other.base or self.base == other.base:
            return self.base
        raise ValueError("rational matrices over different denominators")

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(f"{(self.nrows, self.ncols)} != "
                                    f"{(other.nrows, other.ncols)}")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        base = self._common_base(other)
        a, b = self.coeffs, other.coeffs
        if self.power < other.power:
            a = _times_poly(a, base ** (other.power - self.power))
        elif other.power < self.power:
            b = _times_poly(b, base ** (self.power - other.power))
        return RFMatrix(self.nrows, self.ncols, _add_polys(a, b), base,
                        max(self.power, other.power))

    def __neg__(self):
        return self._like([m.scale(-1) for m in self.coeffs], self.power)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like([m.scale(c) for m in self.coeffs], self.power)

    def __mul__(self, other):
        if not isinstance(other, RFMatrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        if self.is_zero() or other.is_zero():
            return RFMatrix(self.nrows, other.ncols)
        base = self._common_base(other)
        out = [{} for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for a, left in enumerate(self.coeffs):
            by_col = {}
            for (i, k), x in left.data.items():
                by_col.setdefault(k, []).append((i, x))
            for b, right in enumerate(other.coeffs):
                acc = out[a + b]
                for (k, j), y in right.data.items():
                    for i, x in by_col.get(k, ()):
                        key = (i, j)
                        cur = acc.get(key)
                        acc[key] = x * y if cur is None else cur + x * y
        return RFMatrix(self.nrows, other.ncols,
                        [SparseMatrix(self.nrows, other.ncols, d) for d in out],
                        base, self.power + other.power)

    def derivative(self):
        """(P' D - k P D') / D^(k+1); a polynomial matrix stays one."""
        dp = [m.scale(k) for k, m in enumerate(self.coeffs) if k]
        if not self.power:
            return self._like(dp, 0)
        num = _add_polys(_times_poly(dp, self.base),
                         _times_poly(self.coeffs,
                                     self.base.derivative().scale(-self.power)))
        return self._like(num, self.power + 1)

    def eval(self, u) -> SparseMatrix:
        """Value P(u) / D(u)^k at u: one Horner pass, then one division.

        The first call picks a plan and caches it on the object (see
        `_horner_plan`).  For an exact matrix at an exact point u = p/q the
        Horner pass runs in Python ints, homogenised in p and q, over integer
        numerators with one common denominator; each entry becomes one
        Fraction at the end, D(u)^k folded in.  A floating matrix at a
        rational u multiplies by complex(u): complex * Fraction computes
        complex(v) * complex(u) anyway, so the bits are the same.  Anything
        else, such as Gaussian-rational entries, runs the generic loop.
        Every plan inserts the entries in the order Horner first meets them,
        from the highest coefficient down; SparseMatrix.apply sums floats in
        that order, so keeping it keeps numeric results bit for bit.
        """
        plan = self._horner
        if plan is None:
            plan = self._horner = _horner_plan(self.coeffs, self.base)
        if isinstance(u, (int, Fraction)) and plan is not _GENERIC:
            if plan is _FLOATING:
                return self._eval_generic(u, complex(u))
            return self._eval_integer(u, *plan)
        return self._eval_generic(u, u)

    def _denominator(self, u):
        """D(u)^k; PoleEvaluation when D(u) = 0."""
        d = self.base.eval(u)
        if not d:
            raise PoleEvaluation(f"evaluation at pole u={u!r}")
        den = d
        for _ in range(self.power - 1):
            den = den * d
        return den

    def _eval_generic(self, u, factor):
        """Horner over the coefficient matrices, multiplying by `factor`
        (u itself, or complex(u) for floating entries)."""
        acc = {}
        for mat in reversed(self.coeffs):
            acc = {key: v * factor for key, v in acc.items()}
            for key, v in mat.data.items():
                cur = acc.get(key)
                acc[key] = v if cur is None else cur + v
        if self.power:
            den = self._denominator(u)
            acc = {key: v / den for key, v in acc.items()}
        return SparseMatrix(self.nrows, self.ncols, acc)

    def _eval_integer(self, u, lcd, rows):
        """sum_a m_a p^a q^(n-a) / (lcd q^n D(u)^k) per entry, in ints."""
        p, q = u.numerator, u.denominator
        n = len(self.coeffs) - 1
        qpow = [q ** k for k in range(n + 1)]
        nums = []
        for ms in rows.values():
            acc = 0
            for m, qk in zip(ms, qpow):
                acc = acc * p + m * qk
            nums.append(acc)
        den = self._denominator(u) if self.power else Fraction(1)
        top = den.denominator
        bottom = lcd * q ** n * den.numerator
        return SparseMatrix(self.nrows, self.ncols,
                            {key: Fraction(num * top, bottom)
                             for key, num in zip(rows, nums)})

    def entries_series_at_infinity(self, j_max):
        """List of SparseMatrix coefficient matrices for u^-1..u^-j_max.

        1/D^k is expanded once; the constant term of the expansion is dropped.
        """
        mats = [SparseMatrix(self.nrows, self.ncols) for _ in range(j_max)]
        if self.is_zero():
            return mats
        den = self.base ** self.power
        top = len(self.coeffs) - 1
        if top > den.degree:
            raise ImproperRational(
                f"degree {top} numerator over degree {den.degree} denominator "
                "has no expansion at infinity")
        # 1/D^k = u^-deg * sum_m inv[m] u^-m
        inv = _series_quotient([1], den.coeffs[::-1], j_max)
        for j in range(1, j_max + 1):
            acc = {}
            for a, mat in enumerate(self.coeffs):
                c = inv[j - den.degree + a] if j - den.degree + a >= 0 else 0
                if not c:
                    continue
                for key, v in mat.data.items():
                    cur = acc.get(key)
                    acc[key] = c * v if cur is None else cur + c * v
            mats[j - 1] = SparseMatrix(self.nrows, self.ncols, acc)
        return mats


class OperatorPencil:
    """Differential operator sum_k coeffs[k] * d^k, coefficients left of d.

    The coefficients are RFMatrix entries of one shape over one denominator;
    a scalar operator has 1x1 coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return OperatorPencil(out)

    def __neg__(self):
        return OperatorPencil([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def compose(self, other):
        """Operator product self o other via normal ordering d o f = f d + f'."""
        zero = RFMatrix(self.coeffs[0].nrows, other.coeffs[0].ncols)
        out = [zero] * (self.order + other.order + 1)
        for b, g in enumerate(other.coeffs):
            if g.is_zero():
                continue
            # derivatives of g reused across a
            deriv_cache = [g]
            for a, f in enumerate(self.coeffs):
                if f.is_zero():
                    continue
                while len(deriv_cache) <= a:
                    deriv_cache.append(deriv_cache[-1].derivative())
                for m in range(a + 1):
                    gm = deriv_cache[m]
                    if gm.is_zero():
                        continue
                    term = f * gm
                    c = math.comb(a, m)
                    if c != 1:
                        term = term.scale(Fraction(c))
                    k = a - m + b
                    out[k] = out[k] + term
        return OperatorPencil(out)

    def apply(self, f: Poly) -> RFMatrix:
        """sum_k coeffs[k] * f^(k) for a polynomial f, over the coefficients'
        denominator; exactly zero when f is in the kernel."""
        first = self.coeffs[0]
        acc = RFMatrix(first.nrows, first.ncols)
        der = f
        for k, c in enumerate(self.coeffs):
            if k:
                der = der.derivative()
            acc = acc + c._like(_times_poly(c.coeffs, der), c.power)
        return acc

    def eval_coeffs(self, u):
        return [c.eval(u) for c in self.coeffs]

    def is_monic(self):
        top = self.coeffs[-1]
        return (top - RFMatrix.identity(top.nrows)).is_zero()


def row_determinant(entries):
    """Row determinant of a square array of pencils, products taken in row
    order (row-1 factor leftmost), by expansion along the top row.

    Built from the last row up: level k maps each set S of n - k columns
    to the row determinant of rows k..n-1 on the columns S, which is
    sum over j in S of (-1)^(position of j in S) entries[k][j] composed
    with the level-(k+1) minor on S without j.  Only the level below the
    one being built is kept, so each minor is freed as soon as the level
    above it is done; a memo through a recursive closure would keep every
    minor alive until the cyclic garbage collector runs.  Rank 3 takes 9
    compositions instead of the 12 of the permutation expansion, rank 4
    takes 28 instead of 72.
    """
    n = len(entries)
    level = {(j,): entries[n - 1][j] for j in range(n)}
    for k in range(n - 2, -1, -1):
        above = {}
        for cols in itertools.combinations(range(n), n - k):
            acc = None
            for pos, j in enumerate(cols):
                term = entries[k][j].compose(level[cols[:pos] + cols[pos + 1:]])
                if pos % 2:
                    term = -term
                acc = term if acc is None else acc + term
            above[cols] = acc
        level = above
    return level[tuple(range(n))]
