"""Univariate polynomials, rational matrices over known poles, and
differential-operator pencils.

Everything is generic over the scalar field (Fraction / Gaussian rational /
complex).  A pencil is sum_k C_k(u) d^k with coefficients written to the left
of the derivative powers.  Its coefficients are of one of two types, and one
composition and one row determinant serve both.  An RFMatrix is a matrix
polynomial over a power of one fixed denominator D(u) = prod (u - r) of the
known pole locations, so nothing is ever gcd-reduced: the scalar operator
at a critical point (1x1, poles at the sites and the Bethe variables) is
composed over it.  A PoleMatrix is an int matrix polynomial in the pole
symbols y_s = 1/(e (u - z_s)), with no site in it: the universal operator is
the row determinant over it, and each of its coefficients is put at the
sites once, into an RFMatrix (`PackedPoleMatrix.at_sites`).

An RFMatrix of any entry type keeps its value P(u)/D(u)^k in one form,
num(u) / (d * den(u)^k) with one positive int d, and den = D~ = lcd * D in
Python ints when the poles are rational; with rational entries num holds
ints too, so the arithmetic runs in integers.
The series at infinity stays in that form: each coefficient is a power-0
RFMatrix, int numerators over one int d in the integral form.  Composing
with a unit coefficient (the identity leading d - a) reuses the other
factor instead of multiplying by the identity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, ImproperRational, PoleEvaluation
from .linalg import SparseMatrix, integer_scaled, rational_lcd
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
        # an integer polynomial's powers start from the int 1, to stay ints
        out = _INT_ONE if all(type(c) is int for c in self.coeffs) else ONE
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
        """The polynomial q with q(v) = p(v + a).  Its coefficients are the
        Taylor coefficients of p at a, since p(u) = q(u - a)."""
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
_INT_ONE = Poly((1,))


def _mul_poly(mats, q: Poly):
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


def _by_column(mat):
    """The entries of mat grouped by column: k -> [(i, mat[i, k]), ...]."""
    by_col = {}
    for (i, k), x in mat.data.items():
        by_col.setdefault(k, []).append((i, x))
    return by_col


def _add_product(acc, by_col, right):
    """acc += left @ right in place, entry by entry; by_col is
    _by_column(left)."""
    for (k, j), y in right.data.items():
        for i, x in by_col.get(k, ()):
            key = (i, j)
            cur = acc.get(key)
            acc[key] = x * y if cur is None else cur + x * y


def site_denominator(z):
    """The site polynomial D(u) = prod_s (u - z_s), its cofactors
    prod_{t!=s} (u - z_t) and its linear factors, as
    (base, cofactors, lcd, factors).

    With every z_s = p_s / q_s rational, lcd = prod_s q_s and everything
    is scaled to integer coefficients: factor s is q_s u - p_s, base is
    prod_s (q_s u - p_s) = lcd * D, and cofactor s is
    q_s prod_{t!=s} (q_t u - p_t), so that
    1/(u - z_s) = cofactor_s / base = q_s / factor_s.  Otherwise lcd is
    None, factor s is u - z_s, and D and its cofactors are kept as they are.
    """
    lcd = None
    if rational_lcd(z) is not None:
        lcd = math.prod(zs.denominator for zs in z)
        factors = [Poly((-zs.numerator, zs.denominator)) for zs in z]
        one = _INT_ONE
    else:
        factors = [Poly((-zs, 1 if is_exact(zs) else 1.0 + 0j)) for zs in z]
        one = ONE
    base = one
    for f in factors:
        base = base * f
    cofactors = []
    for s in range(len(factors)):
        cofactor = one if lcd is None else Poly((factors[s].coeffs[1],))
        for t, f in enumerate(factors):
            if t != s:
                cofactor = cofactor * f
        cofactors.append(cofactor)
    return base, cofactors, lcd, factors


def _add_polys(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _to_ints(mat, e, f=1):
    """mat * e * f with int entries; e is a multiple of every denominator."""
    return SparseMatrix(mat.nrows, mat.ncols,
                        {key: v.numerator * (e // v.denominator) * f
                         for key, v in mat.data.items()})


def _scaled(mats, c):
    return mats if c == 1 else [m.scale(c) for m in mats]


class RFMatrix:
    """Matrix of rational functions over one shared denominator power.

    The value is P(u) / D(u)^k, and `coeffs` (the SparseMatrix coefficients
    of P in ascending powers of u), `base` (the polynomial D) and `power`
    (k) read it in those terms.  Nothing is ever reduced.  Sums bring both
    sides to the larger power of D, products convolve the coefficients and
    add the powers.  The currents of a Gaudin model have
    D = prod_s (u - z_s), and an entry of weight i of their row determinant
    has pole order at most i at every site, so P_i / D^i is exact without
    any gcd.

    Every entry type is stored in one form, num(u) / (d * den(u)^k), with d
    one positive int.  When every coefficient of D is rational, den is
    D~ = lcd * D with int coefficients, else den is D and lcd is None, so
    P = num / (d lcd^k).  A sum takes the lcm of the two d's, a product
    their product, a rational scalar goes into num and d, and no operation
    converts an operand.  `integral` says that num and den hold Python ints
    (rational entries over rational poles): its arithmetic then multiplies
    and adds ints only, with no gcd, and Fractions are made where values
    leave the type (`eval`, `coeffs`); the series at infinity keeps the
    form, one power-0 matrix per coefficient.
    Gaussian-rational and floating entries sit in num as they are.
    `is_exact` reads what the constructor knew.
    """

    __slots__ = ("nrows", "ncols", "num", "den", "lcd", "d", "power",
                 "integral", "exact", "_horner")

    def __init__(self, nrows, ncols, coeffs=(), base=ONE, power=0):
        coeffs = list(coeffs)
        values = [v for mat in coeffs for v in mat.data.values()]
        lcd = rational_lcd(base.coeffs)
        e = None if lcd is None else rational_lcd(values)
        num, den, d = coeffs, base, 1
        if lcd is not None:
            # P / D^k = P lcd^k / D~^k
            den = Poly([c.numerator * (lcd // c.denominator)
                        for c in base.coeffs])
            if e is None:
                num = _scaled(coeffs, lcd ** power)
            else:
                num = [_to_ints(mat, e, lcd ** power) for mat in coeffs]
                d = e
        exact = e is not None or (base.is_exact_poly()
                                  and all(is_exact(v) for v in values))
        self._set(nrows, ncols, num, den, lcd, d, power, e is not None, exact)

    def _set(self, nrows, ncols, num, den, lcd, d, power, integral, exact):
        while num and num[-1].is_zero():
            num.pop()
        self.nrows = nrows
        self.ncols = ncols
        self.num = num
        self.den = den
        self.lcd = lcd
        self.d = d
        self.power = power if num else 0
        self.integral = integral
        self.exact = exact
        self._horner = None    # eval's integer rows, made at its first call

    def _like(self, num, power, d=None, nrows=None, ncols=None, exact=None,
              integral=None):
        """A matrix over the same denominator."""
        out = RFMatrix.__new__(RFMatrix)
        out._set(self.nrows if nrows is None else nrows,
                 self.ncols if ncols is None else ncols, num, self.den,
                 self.lcd, self.d if d is None else d, power,
                 self.integral if integral is None else integral,
                 self.exact if exact is None else exact)
        return out

    @property
    def coeffs(self):
        """The coefficient matrices of P = num / (d lcd^k), as Fractions in
        the integral form."""
        f = self.d if self.lcd is None else self.d * self.lcd ** self.power
        if f == 1 and not self.integral:
            return self.num
        f = Fraction(f)     # exact: int / int would make a float
        return [SparseMatrix(self.nrows, self.ncols,
                             {key: v / f for key, v in mat.data.items()})
                for mat in self.num]

    @property
    def base(self):
        if self.lcd is None:
            return self.den
        return Poly([Fraction(c, self.lcd) for c in self.den.coeffs])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [SparseMatrix.identity(n)])

    @classmethod
    def over_sites(cls, mats, sites):
        """sum_s mats[s] / (u - z_s), kept as sum_s mats[s] times cofactor s
        over the base; `sites` is site_denominator(z)."""
        base, cofactors, lcd, _ = sites
        e = None if lcd is None else rational_lcd(
            v for m in mats for v in m.data.values())
        exact = e is not None or (base.is_exact_poly() and all(
            is_exact(v) for m in mats for v in m.data.values()))
        if e is not None:
            mats = [_to_ints(m, e) for m in mats]
        elif not base.is_exact_poly():
            # at floating sites complex * Fraction computes complex(v) * c
            # anyway, so converting each entry once keeps the bits
            mats = [SparseMatrix(m.nrows, m.ncols,
                                 {key: complex(v) for key, v in m.data.items()})
                    for m in mats]
        coeffs = []
        for mat, cofactor in zip(mats, cofactors):
            coeffs = _add_polys(coeffs, _mul_poly([mat], cofactor))
        out = cls.__new__(cls)
        out._set(mats[0].nrows, mats[0].ncols, coeffs, base, lcd, e or 1, 1,
                 e is not None, exact)
        return out

    def is_zero(self):
        return not self.num

    def zero(self, ncols):
        """The zero matrix with this one's rows and ncols columns."""
        return RFMatrix(self.nrows, ncols)

    def is_unit(self):
        """The identity matrix with int entries, d = 1 and power 0."""
        if not (self.integral and self.power == 0 and self.d == 1
                and len(self.num) == 1 and self.nrows == self.ncols):
            return False
        return _is_identity(self.num[0])

    def is_exact(self):
        return self.exact

    def _common_base(self, other):
        """The operand whose denominator the result is kept over."""
        if not other.power:
            return self
        if not self.power:
            return other
        if self.den is other.den or self.den == other.den:
            return self
        raise ValueError("rational matrices over different denominators")

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(f"{(self.nrows, self.ncols)} != "
                                    f"{(other.nrows, other.ncols)}")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        over = self._common_base(other)
        x, y = self.num, other.num
        d = self.d
        if self.d != other.d:
            d = math.lcm(self.d, other.d)
            x, y = _scaled(x, d // self.d), _scaled(y, d // other.d)
        if self.power < other.power:
            x = _mul_poly(x, over.den ** (other.power - self.power))
        elif other.power < self.power:
            y = _mul_poly(y, over.den ** (self.power - other.power))
        return over._like(_add_polys(x, y), max(self.power, other.power), d,
                          exact=self.exact and other.exact,
                          integral=self.integral and other.integral)

    def __neg__(self):
        return self._like([m.scale(-1) for m in self.num], self.power)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if type(c) is int or type(c) is Fraction:
            return self._like([m.scale(c.numerator) for m in self.num],
                              self.power, self.d * c.denominator)
        return self._like([m.scale(c) for m in self.num], self.power,
                          exact=self.exact and is_exact(c), integral=False)

    def __mul__(self, other):
        if not isinstance(other, RFMatrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        if self.is_zero() or other.is_zero():
            return RFMatrix(self.nrows, other.ncols)
        over = self._common_base(other)
        out = [{} for _ in range(len(self.num) + len(other.num) - 1)]
        for a, left in enumerate(self.num):
            by_col = _by_column(left)
            for b, right in enumerate(other.num):
                _add_product(out[a + b], by_col, right)
        return over._like([SparseMatrix(self.nrows, other.ncols, d)
                           for d in out],
                          self.power + other.power, self.d * other.d,
                          self.nrows, other.ncols, self.exact and other.exact,
                          self.integral and other.integral)

    def derivative(self):
        """(P' D - k P D') / D^(k+1); a polynomial matrix stays one."""
        dp = [m.scale(k) for k, m in enumerate(self.num) if k]
        if not self.power:
            return self._like(dp, 0)
        num = _add_polys(_mul_poly(dp, self.den),
                         _mul_poly(self.num,
                                   self.den.derivative().scale(-self.power)))
        return self._like(num, self.power + 1)

    def eval(self, u) -> SparseMatrix:
        """Value at u: one Horner pass over num, then one division per
        entry by d * den(u)^k.

        In the integral form at a rational point u = p/q the Horner pass
        runs in Python ints, homogenised in p and q, over the rows of num
        cached on the object at the first call; each entry becomes one
        Fraction at the end.  A floating matrix at a rational u multiplies
        by complex(u): Fraction * complex computes complex(float(u)) *
        complex anyway, so the bits are the same.  Every path inserts the
        entries in the order Horner first meets them, from the highest
        coefficient down, the order in which SparseMatrix.apply then sums
        them.
        """
        if self.is_zero():
            return SparseMatrix(self.nrows, self.ncols)
        if isinstance(u, (int, Fraction)):
            if self.integral:
                mat, c = self._eval_integer(u)
                return SparseMatrix(self.nrows, self.ncols,
                                    {key: Fraction(v, c)
                                     for key, v in mat.data.items()})
            if not self.exact:
                u = complex(u)
        acc = {}
        for mat in reversed(self.num):
            acc = {key: v * u for key, v in acc.items()}
            for key, v in mat.data.items():
                cur = acc.get(key)
                acc[key] = v if cur is None else cur + v
        if self.power or self.d != 1:
            c = self._denominator(u)
            acc = {key: v / c for key, v in acc.items()}
        return SparseMatrix(self.nrows, self.ncols, acc)

    def eval_scaled(self, u):
        """(m, c) with m / c the value at u and c one nonzero int.

        In the integral form at a rational u, m holds the integer numerators
        of the Horner pass, with no Fraction made; otherwise it is
        integer_scaled([eval(u)]).
        """
        if (self.integral and isinstance(u, (int, Fraction))
                and not self.is_zero()):
            return self._eval_integer(u)
        (mat,), c = integer_scaled([self.eval(u)])
        return mat, c

    def _denominator(self, u):
        """d * den(u)^k, exact where den(u) is (d as a Fraction, since
        int / int makes a float); PoleEvaluation when den(u) = 0."""
        c = Fraction(self.d)
        if not self.power:
            return c
        x = self.den.eval(u)
        if not x:
            raise PoleEvaluation(f"evaluation at pole u={u!r}")
        den = x
        for _ in range(self.power - 1):
            den = den * x
        return den if self.d == 1 else c * den

    def _eval_integer(self, u):
        """(m, c): the value at u = p/q as the int matrix m over the int c.

        Entry by entry m = sum_a m_a p^a q^(n-a) q^(ek) and c = q^n d N^k,
        where N = q^e D~(p/q) and e = deg D~.
        """
        rows = self._horner
        if rows is None:
            rows = {}
            top = len(self.num) - 1
            for a in range(top, -1, -1):
                for key, v in self.num[a].data.items():
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = [0] * (top + 1)
                    row[top - a] = v
            self._horner = rows
        p, q = u.numerator, u.denominator
        n = len(self.num) - 1
        qpow = [q ** k for k in range(n + 1)]
        nums = []
        for ms in rows.values():
            acc = 0
            for m, qk in zip(ms, qpow):
                acc = acc * p + m * qk
            nums.append(acc)
        top, bottom = 1, self.d * qpow[n]
        if self.power:
            e = self.den.degree
            dval = 0
            for k, c in enumerate(reversed(self.den.coeffs)):
                dval = dval * p + c * q ** k
            if not dval:
                raise PoleEvaluation(f"evaluation at pole u={u!r}")
            top = q ** (e * self.power)
            bottom *= dval ** self.power
        mat = SparseMatrix(self.nrows, self.ncols,
                           {key: num * top for key, num in zip(rows, nums)})
        return mat, bottom

    def entries_series_at_infinity(self, j_max):
        """The coefficients of u^-1..u^-j_max, as a list of power-0 matrices.

        With l the leading coefficient of den^k and m its degree,
        1/den^k = u^-m sum_t I_t / (l^(t+1) u^t), where I_0 = 1 and I_t is
        a sum of products of the coefficients of den^k and powers of l, with
        no division; the constant term is dropped.  Coefficient j is one sum
        over one divisor f = d l^(j-m+deg num+1).  In the integral form the
        int sums are stored as they are, in num[0] over d = |f|, with no
        Fraction made; the `coeffs` view gives their Fractions.  Otherwise
        they are divided by f, exactly for Gaussian rationals, and stored
        with d = 1.  I_t sums its terms in the order of the long division by
        den^k, so that a floating series keeps the bits of that division, up
        to the sign of zero.
        """
        mats = [self._like([], 0, 1) for _ in range(j_max)]
        if self.is_zero():
            return mats
        den = self.den ** self.power
        top = len(self.num) - 1
        m = den.degree
        if top > m:
            raise ImproperRational(
                f"degree {top} numerator over degree {m} denominator "
                "has no expansion at infinity")
        rev = den.coeffs[::-1]
        lpow = [1]
        for _ in range(j_max + 1):
            lpow.append(lpow[-1] * rev[0])
        inv = [1]
        for t in range(1, j_max + 1):
            acc = 0
            for i in range(min(t, m), 0, -1):
                if rev[i] and inv[t - i]:
                    acc -= rev[i] * lpow[i - 1] * inv[t - i]
            inv.append(acc)
        for j in range(1, j_max + 1):
            acc = {}
            for a, mat in enumerate(self.num):
                t = j - m + a
                if t < 0 or not inv[t]:
                    continue
                c = inv[t] * lpow[top - a]
                for key, v in mat.data.items():
                    cur = acc.get(key)
                    acc[key] = c * v if cur is None else cur + c * v
            if not acc:
                continue
            f = lpow[j - m + top + 1]
            if self.integral:
                d = self.d * f
                if d < 0:
                    d = -d
                    acc = {key: -v for key, v in acc.items()}
            else:
                f = Fraction(self.d) * f    # exact, as in eval
                acc = {key: v / f for key, v in acc.items()}
                d = 1
            mats[j - 1] = self._like(
                [SparseMatrix(self.nrows, self.ncols, acc)], 0, d)
        return mats


def _is_identity(mat):
    """mat is the square identity matrix with int entries."""
    data = mat.data
    return mat.nrows == mat.ncols and len(data) == mat.nrows and all(
        i == j and v == 1 and type(v) is int for (i, j), v in data.items())


class PoleMatrix:
    """A matrix polynomial sum_m C_m y^m in the pole symbols y_s, with int
    matrices C_m and d/du y_s = -e y_s^2 for one positive int e.

    With y_s = x_s / e and x_s = 1/(u - z_s), a current sum_s a_s x_s of
    rational slot matrices a_s is sum_s (e a_s) y_s, integral when e is a
    multiple of their denominators, and d/du x_s = -x_s^2 gives
    d/du y_s = -e y_s^2.  `terms` maps a monomial, the sorted tuple of the
    sites in it with repeats, to its nonzero coefficient.  Nothing here
    depends on where the sites are: `PackedPoleMatrix.at_sites` puts them
    in.  The coefficients of the row determinant of the Gaudin currents are
    homogeneous, of degree k in front of d^(N+1-k).
    """

    __slots__ = ("nrows", "ncols", "terms", "e")

    def __init__(self, nrows, ncols, terms, e):
        self.nrows = nrows
        self.ncols = ncols
        self.terms = {m: mat for m, mat in terms.items() if mat.data}
        self.e = e

    @classmethod
    def identity(cls, n, e):
        return cls(n, n, {(): SparseMatrix(n, n, {(i, i): 1
                                                  for i in range(n)})}, e)

    @classmethod
    def over_poles(cls, mats, e):
        """sum_s mats[s] x_s = sum_s (e mats[s]) y_s, for rational matrices
        whose denominators divide e."""
        return cls(mats[0].nrows, mats[0].ncols,
                   {(s,): _to_ints(mat, e) for s, mat in enumerate(mats)}, e)

    def is_zero(self):
        return not self.terms

    def zero(self, ncols):
        return PoleMatrix(self.nrows, ncols, {}, self.e)

    def is_unit(self):
        """The constant identity matrix, as `identity` makes it."""
        return (len(self.terms) == 1 and () in self.terms
                and _is_identity(self.terms[()]))

    def _from_dicts(self, acc, ncols=None):
        """A PoleMatrix from monomial -> entry dict."""
        ncols = self.ncols if ncols is None else ncols
        return PoleMatrix(self.nrows, ncols,
                          {m: SparseMatrix(self.nrows, ncols, d)
                           for m, d in acc.items()}, self.e)

    def __add__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        terms = dict(self.terms)
        for m, mat in other.terms.items():
            cur = terms.get(m)
            terms[m] = mat if cur is None else cur + mat
        return PoleMatrix(self.nrows, self.ncols, terms, self.e)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return PoleMatrix(self.nrows, self.ncols,
                          {m: mat.scale(c) for m, mat in self.terms.items()},
                          self.e)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        out = {}
        for m, left in self.terms.items():
            by_col = _by_column(left)
            for n, right in other.terms.items():
                key = tuple(sorted(m + n))
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                _add_product(acc, by_col, right)
        return self._from_dicts(out, other.ncols)

    def derivative(self):
        """-e sum_m C_m sum_s m_s y^m y_s, with m_s the times s is in m."""
        out = {}
        for m, mat in self.terms.items():
            for s in dict.fromkeys(m):
                c = -self.e * m.count(s)
                acc = out.setdefault(tuple(sorted(m + (s,))), {})
                for key, v in mat.data.items():
                    cur = acc.get(key)
                    acc[key] = c * v if cur is None else cur + c * v
        return self._from_dicts(out)


class PackedPoleMatrix:
    """A PoleMatrix value divided by a positive int d, held compactly, to
    put the sites in, as often as needed.

    `keys` is a read-only 2 x K array of the rows and columns of the K
    entries that are nonzero in some monomial, in row-major order, which is
    the key order of the dicts `at_sites` makes.  `terms` holds per
    monomial, in the PoleMatrix's order, the monomial and a read-only 2 x n
    array of the key indices and the int values of its entries, in their
    order: int64, or object past the int64 range.  A few arrays take less
    memory than the dicts of the PoleMatrix, and the values and their
    order, so every sum `at_sites` makes, are the same.  d is 1, or the lcd
    of a basis the value is restricted to (`bethe_algebra.restrict_poles`).
    """

    __slots__ = ("nrows", "ncols", "e", "d", "degree", "keys", "terms")

    def __init__(self, value: PoleMatrix, d=1):
        self.nrows = value.nrows
        self.ncols = value.ncols
        self.e = value.e
        self.d = d
        self.degree = len(next(iter(value.terms), ()))
        keys = sorted({key for mat in value.terms.values()
                       for key in mat.data})
        index = {key: i for i, key in enumerate(keys)}
        self.terms = tuple(
            (m, _packed([[index[key] for key in mat.data],
                         list(mat.data.values())]))
            for m, mat in value.terms.items())
        self.keys = _packed([[r for r, _ in keys], [c for _, c in keys]])

    def at_sites(self, sites) -> RFMatrix:
        """The value at y_s = 1/(e (u - z_s)) of a value homogeneous of
        degree k, as an RFMatrix over the site polynomial.

        `sites` is site_denominator(z), whose factor s is L_s = q_s u - p_s
        with q_s its leading coefficient (1 unless every site is rational),
        so that 1/(u - z_s) = q_s / L_s and y^m = prod_s q_s^(m_s)
        L_s^(k - m_s) / (e^k base^k): num = sum_m C_m prod_s q_s^(m_s)
        L_s^(k - m_s), over e^k times the packed d.  The entries of num are
        ints at rational sites, and Gaussian rationals or complex floats
        where the factors hold them.
        """
        base, _, lcd, factors = sites
        k = self.degree
        powers = [[f ** j for j in range(k + 1)] for f in factors]
        # per key its coefficients in u, each w of degree k (n - 1)
        keys = list(zip(*self.keys.tolist()))
        rows = [None] * len(keys)
        for m, entries in self.terms:
            w = Poly((math.prod(factors[s].coeffs[1] for s in m),))
            for s, pw in enumerate(powers):
                j = k - m.count(s)
                if j:
                    w = w * pw[j]
            w = w.coeffs
            for i, v in zip(*entries.tolist()):
                row = rows[i]
                rows[i] = [c * v for c in w] if row is None else \
                    [x + c * v for x, c in zip(row, w)]
        num = [{} for _ in range(k * (len(factors) - 1) + 1)] if keys else []
        for key, row in zip(keys, rows):
            for acc, x in zip(num, row):
                acc[key] = x
        out = RFMatrix.__new__(RFMatrix)
        out._set(self.nrows, self.ncols,
                 [SparseMatrix(self.nrows, self.ncols, acc) for acc in num],
                 base, lcd, self.e ** k * self.d, k, lcd is not None,
                 base.is_exact_poly())
        return out


def _packed(rows):
    """A read-only int64 array of the given lists of ints, or an object
    array where one is past the int64 range."""
    try:
        out = np.array(rows, dtype=np.int64)
    except OverflowError:
        out = np.array(rows, dtype=object)
    out.flags.writeable = False
    return out


def _is_unit(f):
    """f is the unit of its coefficient type; both types answer it."""
    return f.is_unit()


class OperatorPencil:
    """Differential operator sum_k coeffs[k] * d^k, coefficients left of d.

    The coefficients are RFMatrix entries of one shape over one denominator,
    or PoleMatrix entries of one shape and one e; a scalar operator has 1x1
    coefficients.  `apply` and `is_monic` take RFMatrix coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        # a pencil over the zero space keeps its order: all its
        # coefficients, the leading identity too, are zero
        while len(coeffs) > 1 and coeffs[-1].is_zero() and coeffs[-1].nrows:
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
        """Operator product self o other via normal ordering d o f = f d + f'.

        The coefficients are RFMatrix or PoleMatrix values, all of one
        type.  A unit coefficient of self (the int identity, as the leading
        coefficient of d - a) contributes g^(m) itself: the product would
        have its value and form.
        """
        zero = self.coeffs[0].zero(other.coeffs[0].ncols)
        out = [zero] * (self.order + other.order + 1)
        units = [_is_unit(f) for f in self.coeffs]
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
                    term = gm if units[a] else f * gm
                    c = math.comb(a, m)
                    if c != 1:
                        term = term.scale(c)
                    k = a - m + b
                    out[k] = out[k] + term
        return OperatorPencil(out)

    def apply(self, f) -> RFMatrix:
        """sum_k coeffs[k] * f^(k) over the coefficients' denominator, for a
        polynomial f or a row of them (a polynomial RFMatrix, column j
        holding f_j); exactly zero where f is in the kernel."""
        if isinstance(f, Poly):
            f = RFMatrix(1, 1, [SparseMatrix(1, 1, {(0, 0): c})
                                for c in f.coeffs])
        acc = RFMatrix(self.coeffs[0].nrows, f.ncols)
        for k, c in enumerate(self.coeffs):
            if k:
                f = f.derivative()
            acc = acc + c * f
        return acc

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
