"""Univariate polynomials, rational matrices over known poles, and
differential-operator pencils.

Everything is generic over the scalar field (Fraction / Gaussian rational /
complex).  A pencil is sum_k C_k(u) d^k with coefficients written to the left
of the derivative powers.  Every coefficient is a matrix polynomial over a
power of one fixed denominator D(u) = prod (u - r) of the known pole
locations (RFMatrix), so nothing is ever gcd-reduced, and the same
composition code serves the row-determinant operator (poles at the sites)
and the scalar operator at a critical point (1x1, poles at the sites and the
Bethe variables).  When the entries and the poles are rational, an RFMatrix
keeps its value P(u)/D(u)^k as P~(u) / (d * D~(u)^k) with P~ and D~ = lcd * D
in Python ints and one positive int d, so its arithmetic runs in integers;
Gaussian-rational and floating ones are kept as P / D^k.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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
_INT_ONE = Poly((1,))


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


def site_denominator(z):
    """The site polynomial D(u) = prod_s (u - z_s) and its cofactors
    prod_{t!=s} (u - z_t), as (base, cofactors, lcd).

    With every z_s = p_s / q_s rational, lcd = prod_s q_s and everything
    is scaled to integer coefficients: base is lcd * D = prod_s (q_s u - p_s)
    and cofactor s is q_s prod_{t!=s} (q_t u - p_t), so that
    1/(u - z_s) = cofactor_s / base.  Otherwise lcd is None and D and its
    cofactors are kept as they are.
    """
    lcd = rational_lcd(z)
    if lcd is not None:
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
    return base, cofactors, lcd


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

    When every entry and every coefficient of D is rational, the value is
    stored in integers as P~(u) / (d * D~(u)^k): `num` holds the coefficient
    matrices of P~ with Python int entries, `den` is D~ = lcd * D with
    integer coefficients, and d is one positive int, so P = P~ / (d lcd^k).
    Sums, products, scalings and derivatives then multiply and add ints
    only, with no gcd; Fractions are made where values leave the type (`eval`,
    `entries_series_at_infinity`, `coeffs`).  Anything else (Gaussian-
    rational or floating entries or sites) passes through with num = P,
    den = D and d = lcd = 1, and an operation between the two forms works on
    the Fraction form of the integer side, or on its ints as they are when
    they are P itself (d = 1 and k = 0, as for the identity).  `is_exact`
    reads what the constructor knew.
    """

    __slots__ = ("nrows", "ncols", "num", "den", "lcd", "d", "power",
                 "integral", "exact", "_horner")

    def __init__(self, nrows, ncols, coeffs=(), base=ONE, power=0):
        coeffs = list(coeffs)
        values = [v for mat in coeffs for v in mat.data.values()]
        e = rational_lcd(values)
        lcd = None if e is None else rational_lcd(base.coeffs)
        if lcd is None:
            exact = (base.is_exact_poly()
                     and all(is_exact(v) for v in values))
            self._set(nrows, ncols, coeffs, base, 1, 1, power, False, exact)
            return
        num = [_to_ints(mat, e, lcd ** power) for mat in coeffs]
        den = Poly([c.numerator * (lcd // c.denominator) for c in base.coeffs])
        self._set(nrows, ncols, num, den, lcd, e, power, True, True)

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

    def _like(self, num, power, d=None, nrows=None, ncols=None, exact=None):
        """A matrix in the same form and over the same denominator."""
        out = RFMatrix.__new__(RFMatrix)
        out._set(self.nrows if nrows is None else nrows,
                 self.ncols if ncols is None else ncols, num, self.den,
                 self.lcd, self.d if d is None else d, power, self.integral,
                 self.exact if exact is None else exact)
        return out

    @property
    def coeffs(self):
        """The coefficient matrices of P, made as Fractions in the integer
        form."""
        return self._p_matrices() if self.integral else self.num

    @property
    def base(self):
        if not self.integral:
            return self.den
        return Poly([Fraction(c, self.lcd) for c in self.den.coeffs])

    def _p_matrices(self):
        """P = P~ / (d lcd^k) of the integer form, as Fractions."""
        f = self.d * self.lcd ** self.power
        return [SparseMatrix(self.nrows, self.ncols,
                             {key: Fraction(v, f)
                              for key, v in mat.data.items()})
                for mat in self.num]

    def _pass_through(self):
        """The same value in the pass-through form.  When d = 1 and k = 0
        the ints of P~ are P and stay as they are: an int meets a Gaussian
        rational or a complex with the same bits as its Fraction."""
        if not self.integral:
            return self
        num = self.num if self.d == 1 and not self.power \
            else self._p_matrices()
        out = RFMatrix.__new__(RFMatrix)
        out._set(self.nrows, self.ncols, num, self.base, 1, 1, self.power,
                 False, True)
        return out

    @classmethod
    def identity(cls, n):
        return cls(n, n, [SparseMatrix.identity(n)])

    @classmethod
    def over_sites(cls, mats, sites):
        """sum_s mats[s] / (u - z_s), kept as sum_s mats[s] times cofactor s
        over the base; `sites` is site_denominator(z)."""
        base, cofactors, lcd = sites
        e = None if lcd is None else rational_lcd(
            v for m in mats for v in m.data.values())
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
        if e is None:
            return cls(mats[0].nrows, mats[0].ncols, coeffs, base, 1)
        out = cls.__new__(cls)
        out._set(mats[0].nrows, mats[0].ncols, coeffs, base, lcd, e, 1, True,
                 True)
        return out

    def is_zero(self):
        return not self.num

    def is_exact(self):
        return self.exact

    def _same_form(self, other):
        if self.integral == other.integral:
            return self, other
        return self._pass_through(), other._pass_through()

    def _common_base(self, other):
        """The operand whose denominator the result is kept over."""
        if not other.power:
            return self
        if not self.power:
            return other
        if self.den is other.den or (self.den == other.den
                                     and self.lcd == other.lcd):
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
        a, b = self._same_form(other)
        over = a._common_base(b)
        x, y = a.num, b.num
        d = a.d
        if a.d != b.d:
            d = math.lcm(a.d, b.d)
            x, y = _scaled(x, d // a.d), _scaled(y, d // b.d)
        if a.power < b.power:
            x = _mul_poly(x, over.den ** (b.power - a.power))
        elif b.power < a.power:
            y = _mul_poly(y, over.den ** (a.power - b.power))
        return over._like(_add_polys(x, y), max(a.power, b.power), d,
                          exact=a.exact and b.exact)

    def __neg__(self):
        return self._like([m.scale(-1) for m in self.num], self.power)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not self.integral:
            return self._like([m.scale(c) for m in self.num], self.power,
                              exact=self.exact and is_exact(c))
        if type(c) is int or type(c) is Fraction:
            return self._like([m.scale(c.numerator) for m in self.num],
                              self.power, self.d * c.denominator)
        return self._pass_through().scale(c)

    def __mul__(self, other):
        if not isinstance(other, RFMatrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        if self.is_zero() or other.is_zero():
            return RFMatrix(self.nrows, other.ncols)
        lhs, rhs = self._same_form(other)
        over = lhs._common_base(rhs)
        out = [{} for _ in range(len(lhs.num) + len(rhs.num) - 1)]
        for a, left in enumerate(lhs.num):
            by_col = {}
            for (i, k), x in left.data.items():
                by_col.setdefault(k, []).append((i, x))
            for b, right in enumerate(rhs.num):
                acc = out[a + b]
                for (k, j), y in right.data.items():
                    for i, x in by_col.get(k, ()):
                        key = (i, j)
                        cur = acc.get(key)
                        acc[key] = x * y if cur is None else cur + x * y
        return over._like([SparseMatrix(self.nrows, other.ncols, d)
                           for d in out],
                          lhs.power + rhs.power, lhs.d * rhs.d, self.nrows,
                          other.ncols, lhs.exact and rhs.exact)

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
        """Value at u: one Horner pass, then one division per entry.

        In the integer form at a rational point u = p/q the Horner pass runs
        in Python ints, homogenised in p and q, over the rows of P~ cached on
        the object at the first call; each entry becomes one Fraction at the
        end, d and D~(u)^k folded in.  A floating matrix at a rational u
        multiplies by complex(u): Fraction * complex computes
        complex(float(u)) * complex anyway, so the bits are the same.
        Anything else runs the generic loop, the integer form on its
        Fractions.  Every path inserts the entries in the order Horner first
        meets them, from the highest coefficient down, the order in which
        SparseMatrix.apply then sums them.
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
                return self._eval_generic(u, complex(u))
        return self._pass_through()._eval_generic(u, u)

    def eval_scaled(self, u):
        """(m, c) with m / c the value at u and c one nonzero int.

        In the integer form at a rational u, m holds the integer numerators
        of the Horner pass, with no Fraction made; otherwise it is
        integer_scaled([eval(u)]).
        """
        if (self.integral and isinstance(u, (int, Fraction))
                and not self.is_zero()):
            return self._eval_integer(u)
        (mat,), c = integer_scaled([self.eval(u)])
        return mat, c

    def _denominator(self, u):
        """D(u)^k; PoleEvaluation when D(u) = 0."""
        d = self.den.eval(u)
        if not d:
            raise PoleEvaluation(f"evaluation at pole u={u!r}")
        den = d
        for _ in range(self.power - 1):
            den = den * d
        return den

    def _eval_generic(self, u, factor):
        """Horner over the coefficient matrices, multiplying by `factor`
        (u itself, or complex(u) for floating entries), and D(factor)^k."""
        acc = {}
        for mat in reversed(self.num):
            acc = {key: v * factor for key, v in acc.items()}
            for key, v in mat.data.items():
                cur = acc.get(key)
                acc[key] = v if cur is None else cur + v
        if self.power:
            den = self._denominator(factor)
            acc = {key: v / den for key, v in acc.items()}
        return SparseMatrix(self.nrows, self.ncols, acc)

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
        """List of SparseMatrix coefficient matrices for u^-1..u^-j_max.

        1/D^k is expanded once; the constant term of the expansion is
        dropped.  In the integer form 1/D~^k = u^-m sum_t I_t / (l^(t+1) u^t)
        with integer I_t, l the leading coefficient and m the degree of D~^k,
        so each output matrix is one integer sum over one denominator.
        """
        mats = [SparseMatrix(self.nrows, self.ncols) for _ in range(j_max)]
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
        if not self.integral:
            # 1/D^k = u^-m * sum_t inv[t] u^-t
            inv = _series_quotient([1], rev, j_max)
            lead = None
        else:
            lead = rev[0]
            lpow = [1]
            for _ in range(j_max + 1):
                lpow.append(lpow[-1] * lead)
            inv = [1]
            for t in range(1, j_max + 1):
                acc = 0
                for i in range(1, min(t, m) + 1):
                    if rev[i] and inv[t - i]:
                        acc -= rev[i] * lpow[i - 1] * inv[t - i]
                inv.append(acc)
        for j in range(1, j_max + 1):
            acc = {}
            for a, mat in enumerate(self.num):
                t = j - m + a
                c = inv[t] if t >= 0 else 0
                if not c:
                    continue
                if lead is not None:
                    c *= lpow[top - a]
                for key, v in mat.data.items():
                    cur = acc.get(key)
                    acc[key] = c * v if cur is None else cur + c * v
            if lead is not None and acc:
                f = self.d * lpow[j - m + top + 1]
                acc = {key: Fraction(v, f) for key, v in acc.items() if v}
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
