"""Independent reference computations used to cross-check the package.

Everything here is implemented from first principles (combinatorics, finite
differences, closed-form small cases) without calling into the package's own
linear algebra or operator machinery, so that agreement is meaningful.
"""

import cmath
import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------- dimensions

def weyl_dimension(lam):
    """Dimension of the irreducible with highest weight lam (partition)."""
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def gt_patterns(top):
    """All Gelfand-Tsetlin patterns with the given top row."""
    def rec(rows):
        cur = rows[-1]
        if len(cur) == 1:
            yield rows
            return
        ranges = [range(cur[i + 1], cur[i] + 1) for i in range(len(cur) - 1)]
        for nxt in itertools.product(*ranges):
            if all(nxt[i] >= nxt[i + 1] for i in range(len(nxt) - 1)):
                yield from rec(rows + [tuple(nxt)])
    yield from rec([tuple(top)])


def weight_multiplicities(top):
    """Weight-space dimensions of one irreducible, counted by GT patterns."""
    out = {}
    for pat in gt_patterns(top):
        rowsum = {len(r): sum(r) for r in pat}
        rowsum[0] = 0
        n = len(top)
        w = tuple(rowsum[k] - rowsum[k - 1] for k in range(1, n + 1))
        out[w] = out.get(w, 0) + 1
    return out


def tensor_weight_multiplicities(tops):
    """Convolution of the factor weight multiplicity tables."""
    acc = {(0,) * len(tops[0]): 1}
    for top in tops:
        table = weight_multiplicities(top)
        nxt = {}
        for w1, m1 in acc.items():
            for w2, m2 in table.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                nxt[w] = nxt.get(w, 0) + m1 * m2
        acc = nxt
    return acc


def singular_dimension(tops, mu):
    """Multiplicity of the irreducible mu inside the tensor product, by the
    Weyl-group alternating sum over weight multiplicities (Kostant)."""
    n = len(mu)
    rho = tuple(n - 1 - i for i in range(n))
    table = tensor_weight_multiplicities(tops)
    shifted = tuple(mu[i] + rho[i] for i in range(n))
    total = 0
    for perm in itertools.permutations(range(n)):
        sgn = perm_sign(perm)
        w = tuple(shifted[perm[i]] - rho[i] for i in range(n))
        total += sgn * table.get(w, 0)
    return total


def perm_sign(perm):
    sgn = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sgn = -sgn
    return sgn


# --------------------------------------------- master function, from scratch

def exponent_table(partitions, N):
    """A[color][site] = lam_color - lam_{color+1} of the site partition."""
    return [[p[i - 1] - p[i] for p in partitions] for i in range(1, N + 1)]


def pair_coeff(g1, g2):
    d = abs(g1 - g2)
    return 2 if d == 0 else (-1 if d == 1 else 0)


def log_master_value(partitions, l, z, flat):
    """log of the master function at a flat point [(value, color0), ...]."""
    N = len(partitions[0]) - 1
    A = exponent_table(partitions, N)
    acc = 0j
    for a, (xa, ga) in enumerate(flat):
        for s, zs in enumerate(z):
            e = A[ga][s]
            if e:
                acc -= e * cmath.log(complex(xa) - complex(zs))
        for b in range(a + 1, len(flat)):
            xb, gb = flat[b]
            c = pair_coeff(ga, gb)
            if c:
                acc += c * cmath.log(complex(xa) - complex(xb))
    return acc


def fd_gradient(partitions, l, z, flat, h=1e-6):
    """Central finite differences of log master along each coordinate."""
    out = []
    for a in range(len(flat)):
        up = [(x + (h if b == a else 0), g) for b, (x, g) in enumerate(flat)]
        dn = [(x - (h if b == a else 0), g) for b, (x, g) in enumerate(flat)]
        out.append((log_master_value(partitions, l, z, up)
                    - log_master_value(partitions, l, z, dn)) / (2 * h))
    return out


def closed_gradient(partitions, l, z, flat):
    """The closed-form gradient, written independently."""
    N = len(partitions[0]) - 1
    A = exponent_table(partitions, N)
    out = []
    for a, (xa, ga) in enumerate(flat):
        acc = 0j
        for b, (xb, gb) in enumerate(flat):
            if b == a:
                continue
            c = pair_coeff(ga, gb)
            if c:
                acc += c / (complex(xa) - complex(xb))
        for s, zs in enumerate(z):
            e = A[ga][s]
            if e:
                acc -= e / (complex(xa) - complex(zs))
        out.append(acc)
    return out


def fd_hessian(partitions, l, z, flat, h=1e-5):
    """Central finite differences of the closed-form gradient."""
    n = len(flat)
    out = [[0j] * n for _ in range(n)]
    for b in range(n):
        up = [(x + (h if c == b else 0), g) for c, (x, g) in enumerate(flat)]
        dn = [(x - (h if c == b else 0), g) for c, (x, g) in enumerate(flat)]
        gu = closed_gradient(partitions, l, z, up)
        gd = closed_gradient(partitions, l, z, dn)
        for a in range(n):
            out[a][b] = (gu[a] - gd[a]) / (2 * h)
    return out


def single_color_critical_roots(partitions, z):
    """N=1, one variable: critical points are the roots of
    sum_s A_s prod_{r != s} (t - z_r)."""
    import numpy as np
    A = [p[0] - p[1] for p in partitions]
    coeffs = None
    for s in range(len(z)):
        poly = np.poly1d([1.0])
        for r in range(len(z)):
            if r != s:
                poly = poly * np.poly1d([1.0, -complex(z[r])])
        term = A[s] * poly
        coeffs = term if coeffs is None else coeffs + term
    return np.roots(coeffs.coeffs)


# ------------------------------------------------- anchor: the sl2 instance
#
# Two sites with partition (1, 0) at z = (0, 1), one variable, critical point
# t = 1/2.  Everything below is hand-checkable.

def anchor_norm_square():
    """Shapovalov square of the anchor vector, from the printed 2-term sum.

    omega = fv (x) v / ((1/2 - 0)) ... computed by hand: coefficient of
    fv (x) v is 1/(t - z1) = 2, coefficient of v (x) fv is 1/(t - z2) = -2,
    and <fv, fv> = 1 in each factor, so S = 4 + 4 = 8.
    """
    t = Fraction(1, 2)
    c1 = 1 / (t - 0)
    c2 = 1 / (t - 1)
    return c1 * c1 + c2 * c2


def anchor_hessian():
    """d^2/dt^2 log Phi at t = 1/2 for the anchor: 1/t^2 + 1/(t-1)^2."""
    t = Fraction(1, 2)
    return 1 / t ** 2 + 1 / (t - 1) ** 2


def anchor_ode_apply(hcoeffs):
    """Apply the anchor's scalar operator to a polynomial, exactly.

    D = (d - a1)(d - a2) with a1 = 1/u + 1/(u-1) - 1/(u-1/2) and
    a2 = 1/(u-1/2), so D h = h'' - (a1+a2) h' + (a1 a2 - a2') h.
    Returns the values at a few rational sample points.
    """
    def ev(cs, u):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * u + c
        return acc

    def deriv(cs):
        return [k * c for k, c in enumerate(cs)][1:]

    h1 = deriv(list(hcoeffs))
    h2 = deriv(h1)
    out = []
    for u in (Fraction(2), Fraction(3), Fraction(5), Fraction(-7, 3)):
        a1 = 1 / u + 1 / (u - 1) - 1 / (u - Fraction(1, 2))
        a2 = 1 / (u - Fraction(1, 2))
        a2p = -1 / (u - Fraction(1, 2)) ** 2
        val = (ev(h2, u) - (a1 + a2) * ev(h1, u)
               + (a1 * a2 - a2p) * ev(list(hcoeffs), u))
        out.append(val)
    return out


def telescoped_first_coefficient_value(sizes, z, u0):
    """-sum_s w_s/(u0 - z_s), the collapsed form of the first coefficient."""
    return sum(Fraction(-w) / (Fraction(u0) - Fraction(zs))
               for w, zs in zip(sizes, z))


def telescoped_first_coefficient_series(sizes, z, j_max):
    """Expansion at infinity of the collapsed first coefficient:
    the u^-(k+1) coefficient is -sum_s w_s z_s^k."""
    return [sum(-Fraction(w) * Fraction(zs) ** k
                for w, zs in zip(sizes, z)) for k in range(j_max)]


# ------------------------------------------- rational functions, entrywise
#
# A rational function is an unreduced (numerator, denominator) pair of Polys.
# Only Poly's ring operations are used (checked against numpy on their own),
# never RFMatrix or the package's series code.

def rf_add(a, b):
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def rf_sub(a, b):
    return rf_add(a, (-b[0], b[1]))


def rf_mul(a, b):
    return (a[0] * b[0], a[1] * b[1])


def rf_derivative(a):
    num, den = a
    return (num.derivative() * den - num * den.derivative(), den * den)


def rf_eval(a, u):
    return a[0].eval(u) / a[1].eval(u)


def rf_series_at_infinity(a, j_max):
    """Coefficients of u^-1 .. u^-j_max of num/den, deg num <= deg den.

    The polynomial part of num * u^j_max / den is sum_k c_k u^(j_max - k),
    where c_k is the u^-k coefficient; long division gives it.
    """
    num, den = a
    assert num.degree <= den.degree
    rem = [0] * j_max + list(num.coeffs)
    dd, lead = den.degree, den.coeffs[-1]
    quo = {}
    for k in range(len(rem) - 1, dd - 1, -1):
        q = rem[k] / lead
        quo[k - dd] = q
        for i, b in enumerate(den.coeffs):
            rem[k - dd + i] = rem[k - dd + i] - q * b
    return [quo.get(j_max - k, 0) for k in range(1, j_max + 1)]


# ------------------------------------------------------------ miscellaneous

def brute_weight_terms(l, n):
    """Count (sequence, assignment) summands by explicit enumeration: every
    distinct color word, every split into n ordered segments, every bijection
    of same-color variables onto positions."""
    N = len(l)
    colors = [i for i in range(N) for _ in range(l[i])]
    total = len(colors)
    count = 0
    for word in sorted(set(itertools.permutations(colors))):
        for _cut in itertools.combinations(range(total + n - 1), n - 1):
            for _assign in itertools.product(
                    *[itertools.permutations(range(l[i])) for i in range(N)]):
                count += 1
    return count


def random_rational(rng, lo=-12, hi=12, den=7):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


# ------------------------------------------------ full-module algebra checks
# Unlike the rest of this file, these call the package: they are the
# per-instance algebra checks as the pipeline once ran them on the whole
# module, kept as the reference that the checks on Sing M are compared with.

def full_module_family(M, z, j_max):
    """The universal operator of M at the sites z on the whole module, with
    its series at infinity to u^-j_max."""
    from gaudin.bethe_algebra import restrict_family, universal_operator
    return restrict_family(universal_operator(M, z), None, j_max)


def full_module_algebra_checks(M, z, sizes):
    """(algebra_selfcheck, first_coefficient_identity) of the universal
    operator of M at the sites z, on the whole module."""
    from gaudin.bethe_algebra import (algebra_selfcheck,
                                      first_coefficient_identity,
                                      restrict_family, universal_operator)
    pencil = universal_operator(M, z)
    return (algebra_selfcheck(restrict_family(pencil, None, M.N), z),
            first_coefficient_identity(pencil, sizes, z))
