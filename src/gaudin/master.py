"""Master function of the Gaudin model: critical points and the scalar operator.

A problem instance fixes gl(N+1) site partitions, pairwise distinct site
positions, and the number of auxiliary variables per color group.  The
logarithm of the master function has the gradient

    psi_a = sum_{b != a} c_ab / (t_a - t_b) - sum_s A_as / (t_a - z_s)

with pair coefficients c_ab = 2 (same group), -1 (adjacent groups), 0 (else),
and site exponents A_as equal to the pairing of the s-th partition with the
simple root of a's group.  `GaudinProblem.poles` lays these terms out once
per problem, and `kernels.evaluate` / `kernels.derivatives` read it for every
value of psi and of its Hessian: in Newton's floats, in the degenerate test
and the norm formula's determinant, and exactly (over Fraction and QI) for
the admissibility of a point and the check of a rationalized orbit.  A point
lies in U unless a variable meets a partner or a site of nonzero exponent.

Critical points are found by seeded multistart damped Newton on this
gradient; each solution is recorded once per orbit of the within-group
permutation action.  A run that comes within
COLLAPSE_MARGIN * max(1, max|z|) of a site or of a partner variable ends
unconverged with residual inf: near there the leading pole terms cancel and
a pseudo-orbit can pass the residual test, so no such point is accepted.

At a critical point the scalar operator is the left-to-right composition of
first-order factors (d - logarithmic derivative), one per color, built from
the site factors and the group polynomials y_i = prod_j (u - t^(i)_j).  Each
logarithmic derivative is a sum of simple poles at the sites and the
variables, so the operator is composed over the product of (u - r) for the
known pole locations r, like the universal operator over its sites.  At an
exact point this pencil gives the kernel, its certificate and the
expansion at infinity exactly.  At a floating point one composition of the
same factors over complex series in 1/u stands in for it: its expansion at
infinity gives the spectrum, the eigenvalue equations, the kernel and the
kernel's residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from . import kernels
from .diffop_ring import OperatorPencil, Poly, RFMatrix, site_denominator
from .errors import DimensionMismatch, PointNotInU, RepeatedSites
from .linalg import SparseMatrix, det
from .pcg64 import Stream
from .scalars import QI, coerce, is_exact, to_complex
from .weights import check_partition, derive_infinity_weight, root_pairing, weight_size


class GaudinProblem:
    """Sites, site partitions, and variable counts; validates admissibility.

    z entries may be Fractions (exact mode) or complex numbers (numeric mode);
    the mode is derived and recorded.
    """

    def __init__(self, N, partitions, l, z):
        if N < 1:
            raise ValueError("rank parameter must be >= 1")
        self.N = int(N)
        self.partitions = tuple(check_partition(lam, N) for lam in partitions)
        if len(self.partitions) != len(z):
            raise DimensionMismatch(
                f"{len(self.partitions)} partitions for {len(z)} sites")
        if len(self.partitions) == 0:
            raise ValueError("need at least one site")
        self.l = tuple(int(x) for x in l)
        if len(self.l) != N or any(x < 0 for x in self.l):
            raise ValueError(f"need {N} nonnegative group sizes, got {l!r}")
        self.z = tuple(coerce(x) for x in z)
        for x in self.z:
            # no sample point keeps its distance from such a site
            if type(x) is complex and not (math.isfinite(x.real)
                                           and math.isfinite(x.imag)):
                raise ValueError(f"site {x!r} is not finite")
        for a in range(len(self.z)):
            for b in range(a + 1, len(self.z)):
                if self.z[a] == self.z[b]:
                    raise RepeatedSites(f"repeated site {self.z[a]!r}")
        self.n_sites = len(self.z)
        self.infinity_weight = derive_infinity_weight(self.partitions, self.l, N)
        self.sizes = tuple(weight_size(lam) for lam in self.partitions)
        self.exact = all(is_exact(x) for x in self.z)
        self.mode = "exact" if self.exact else "numeric"
        if not self.exact:
            # sites far enough out overflow the floating site polynomial
            # prod_s (u - z_s), and everything built over it is NaN
            for k, c in enumerate(site_denominator(self.z)[0].coeffs):
                c = to_complex(c)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ValueError(
                        f"coefficient {k} of the site polynomial is not "
                        f"finite ({c!r}): the sites are too far out")
        # site exponent of color i at site s (integer pairing with alpha_i)
        self.site_exponent = tuple(
            tuple(root_pairing(lam, i) for lam in self.partitions)
            for i in range(1, N + 1))

        # the pole layout of psi (see kernels): per variable its partners by
        # index, then the sites, those of exponent 0 last
        groups = [g for g, cnt in enumerate(self.l) for _ in range(cnt)]
        n = len(groups)
        self.poles = tuple(
            [(b, 2 if gb == ga else -1) for b, gb in enumerate(groups)
             if b != a and abs(gb - ga) <= 1]
            + sorted(((n + s, -e) for s, e in
                      enumerate(self.site_exponent[ga])),
                     key=lambda pole: not pole[1])
            for a, ga in enumerate(groups))

    @property
    def n_vars(self):
        return sum(self.l)

    def __repr__(self):
        return (f"GaudinProblem(N={self.N}, partitions={self.partitions}, "
                f"l={self.l}, z={self.z})")


def _normalize_groups(problem, point):
    groups = point.groups if isinstance(point, PointConfig) else point
    if len(groups) != problem.N:
        raise DimensionMismatch(f"need {problem.N} variable groups")
    out = []
    for g, grp in enumerate(groups):
        grp = tuple(coerce(x) for x in grp)
        if len(grp) != problem.l[g]:
            raise DimensionMismatch(
                f"group {g + 1} has {len(grp)} entries, expected {problem.l[g]}")
        out.append(grp)
    return out


class PointConfig:
    """A point of the variable space, validated to avoid all singular divisors."""

    def __init__(self, problem, groups):
        self.problem = problem
        self.groups = _normalize_groups(problem, groups)
        _evaluate_at(problem, self.groups)


def _grouped(problem, flat):
    """The flattened variables (or values per variable) split into groups."""
    it = iter(flat)
    return [tuple(islice(it, cnt)) for cnt in problem.l]


def _evaluate_at(problem, point):
    """`kernels.evaluate` at a grouped point of U, reading the problem's pole
    layout; raises PointNotInU where a variable meets a partner or a site of
    nonzero exponent."""
    flat = [x for grp in _normalize_groups(problem, point) for x in grp]
    out = kernels.evaluate(flat, problem.poles, problem.z)
    if out is None:
        raise PointNotInU(f"a variable of {flat!r} meets a partner or a site")
    return out


# relative distance (in units of max(1, max|z|)) below which a Newton run
# counts as collapsed onto a site or a partner variable: pseudo-orbits sit
# just outside pole_margin, where leading pole terms cancel in the gradient,
# so the kernel ends such a run unconverged
COLLAPSE_MARGIN = 1e-6


@dataclass
class SolverConfig:
    seed: int = 0
    starts: int = 0            # 0 = automatic from the expected orbit count
    max_iter: int = 200
    tol_residual: float = 1e-10
    tol_dedup: float = 1e-8
    tol_degenerate: float = 1e-8
    pole_margin: float = 1e-8
    precision: str = "double"  # or "longdouble"
    early_stop: bool = True


@dataclass
class CriticalOrbit:
    groups: tuple               # tuple of per-color tuples, canonically sorted
    residual: float
    hessian_determinant: complex
    degenerate: bool
    index: int = 0

    def flat(self):
        return [x for grp in self.groups for x in grp]


def gradient_log_master(problem: GaudinProblem, point):
    """Exact-capable gradient of log of the master function, grouped."""
    return _grouped(problem, _evaluate_at(problem, point)[0])


def hessian_log_master(problem: GaudinProblem, point):
    """Dense Hessian of log of the master function as a list of lists."""
    _, W, _, _, inv = _evaluate_at(problem, point)
    return kernels.derivatives(problem.poles, W, inv)[0]


def hessian_determinant(problem: GaudinProblem, point):
    return det(hessian_log_master(problem, point))


# ------------------------------------------------------------- orbit search

def canonicalize_orbit(groups):
    """Sort within each color group by (re, im); the orbit's canonical form."""
    out = []
    for grp in groups:
        out.append(tuple(sorted(grp, key=_sort_key)))
    return tuple(out)


def _sort_key(x):
    c = to_complex(x)
    return (round(c.real, 9), round(c.imag, 9))


def _group_distance(g1, g2):
    """Min over matchings of the max pointwise distance (small groups only)."""
    import itertools
    if len(g1) != len(g2):
        return float("inf")
    if not g1:
        return 0.0
    a = [to_complex(x) for x in g1]
    best = float("inf")
    if len(g1) <= 6:
        for perm in itertools.permutations(range(len(g1))):
            m = max(abs(a[k] - to_complex(g2[perm[k]])) for k in range(len(g1)))
            best = min(best, m)
        return best
    b = sorted((to_complex(x) for x in g2), key=lambda c: (c.real, c.imag))
    a = sorted(a, key=lambda c: (c.real, c.imag))
    return max(abs(x - y) for x, y in zip(a, b))


def orbit_distance(groups1, groups2):
    return max(_group_distance(g1, g2) for g1, g2 in zip(groups1, groups2)) \
        if groups1 else 0.0


def expected_orbit_count(problem: GaudinProblem):
    """Dimension of the singular subspace of the derived weight."""
    from .repr_core import shared_singular_subspace
    _, S = shared_singular_subspace(problem.partitions, problem.N,
                                    problem.infinity_weight)
    return S.ncols


def find_critical_orbits(problem: GaudinProblem, config: SolverConfig = None,
                         expected=None):
    """Seeded multistart Newton search; returns canonically ordered orbits."""
    config = config or SolverConfig()
    n = problem.n_vars
    if n == 0:
        return [CriticalOrbit(groups=tuple(() for _ in range(problem.N)),
                              residual=0.0, hessian_determinant=Fraction(1),
                              degenerate=False, index=0)]
    if expected is None:
        expected = expected_orbit_count(problem)
    zc = [to_complex(x) for x in problem.z]
    # the stream of np.random.default_rng(seed), without numpy.random
    rng = Stream(config.seed)
    n_starts = config.starts or min(max(200 * max(expected, 1), 200), 20000)
    scale = max(1.0, max(abs(z) for z in zc))
    radius = 2.0 * scale
    newton = kernels.newton_longdouble if config.precision == "longdouble" \
        else kernels.newton_single
    orbits = []
    for trial in range(n_starts):
        if trial % 4 == 3 and problem.n_sites > 0:
            anchor = zc[rng.integers(0, len(zc))]
            t0 = anchor + 0.45 * radius * _disc(rng, n)
        else:
            t0 = radius * _disc(rng, n)
        t, ok, res = newton(t0.astype(np.complex128), problem.poles, zc,
                            config.max_iter, min(config.tol_residual, 1e-12),
                            config.pole_margin, COLLAPSE_MARGIN * scale)
        if not (res <= config.tol_residual):
            continue
        t = np.asarray(t, dtype=np.complex128)
        # the gradient also decays along escapes to infinity; those are not
        # critical points and are recognized by leaving the search region
        if np.abs(t).max() > 5.0 * radius:
            continue
        groups = canonicalize_orbit(_grouped(problem, map(complex, t)))
        known = False
        for orb in orbits:
            if orbit_distance(orb.groups, groups) < config.tol_dedup * scale:
                known = True
                break
        if known:
            continue
        H = hessian_log_master(problem, groups)
        hdet = det(H)
        rowscale = 1.0
        for row in H:
            rowscale *= max(max(map(abs, row)), 1e-300)
        degenerate = abs(hdet) < config.tol_degenerate * rowscale
        orbits.append(CriticalOrbit(groups=groups, residual=float(res),
                                    hessian_determinant=hdet,
                                    degenerate=degenerate))
        if (config.early_stop and expected is not None
                and len(orbits) == expected
                and all(not o.degenerate for o in orbits)):
            break
    orbits.sort(key=lambda o: tuple(_sort_key(x) for x in o.flat()))
    for k, orb in enumerate(orbits):
        orb.index = k
    return orbits


def _disc(rng, n):
    r = np.sqrt(rng.uniform(0.05, 1.0, n))
    th = rng.uniform(0.0, 2 * np.pi, n)
    return r * np.exp(1j * th)


def rationalize_scalar(x, max_denominator=10 ** 6, tol=1e-9):
    """Nearest small rational (or Gaussian rational); None when not close."""
    c = to_complex(x)
    re = Fraction(c.real).limit_denominator(max_denominator)
    im = Fraction(c.imag).limit_denominator(max_denominator)
    if abs(complex(re) - c.real) > tol or abs(complex(im) - c.imag) > tol:
        return None
    if im == 0:
        return re
    return QI(re, im)


def try_rationalize_orbit(problem: GaudinProblem, orbit: CriticalOrbit,
                          max_denominator=10 ** 6, tol=1e-9):
    """Exact orbit coordinates verified by a vanishing exact gradient, or None."""
    if not problem.exact:
        return None
    flat = [rationalize_scalar(x, max_denominator, tol) for x in orbit.flat()]
    if any(x is None for x in flat):
        return None
    point = kernels.evaluate(flat, problem.poles, problem.z)
    if point is None or any(point[0]):
        return None
    return canonicalize_orbit(_grouped(problem, flat))


# ------------------------------------------------------- the scalar operator

def group_polynomials(problem: GaudinProblem, point):
    """y_i = prod over the i-th group of (u - t); y_0 = y_{N+1} = 1 implicit."""
    gs = _normalize_groups(problem, point)
    return [Poly.from_roots(grp) for grp in gs]


def master_operator_at(problem: GaudinProblem, point) -> OperatorPencil:
    """Left-to-right composition of the scalar first-order factors at a point.

    Factor i (i = 1..N+1) is d minus the logarithmic derivative of
    y_{i-1} * T_i * ... * T_N / y_i, a sum of simple poles (see
    `factored_pole_data`).  Every coefficient is a 1x1 RFMatrix over one
    denominator D(u), the product of (u - r) over the distinct pole locations
    r of all factors, so composing needs no gcd.
    """
    pole_data = factored_pole_data(problem, point)
    locations = list(dict.fromkeys(r for fac in pole_data for _, r in fac))
    slot = {r: k for k, r in enumerate(locations)}
    sites = site_denominator(locations)
    one = RFMatrix.identity(1)
    pencil = None
    for fac in pole_data:
        residues = [SparseMatrix(1, 1) for _ in locations]
        for c, r in fac:
            residues[slot[r]][0, 0] = -c
        minus_a = RFMatrix.over_sites(residues, sites) if fac \
            else RFMatrix(1, 1)
        factor = OperatorPencil([minus_a, one])
        pencil = factor if pencil is None else pencil.compose(factor)
    if pencil.order != problem.N + 1 or not pencil.is_monic():
        raise DimensionMismatch(f"master operator of order {pencil.order} "
                                f"is not monic of order {problem.N + 1}")
    return pencil


def master_coefficients(pencil: OperatorPencil, j_max: int):
    """(coefficient functions, expansion coefficients) keyed by 1..order;
    the functions are the 1x1 RFMatrix coefficients of the pencil, and the
    expansion coefficients their Fraction (or QI) values, 0 where zero."""
    order = pencil.order
    funcs = {i: pencil.coeffs[order - i] for i in range(1, order + 1)}
    series = {i: [m.coeffs[0][0, 0] if m.num else 0
                  for m in funcs[i].entries_series_at_infinity(j_max)]
              for i in funcs}
    return funcs, series


# -------------------------------------- series of the composed factors
#
# Composing the factors symbolically in floating point gives rational
# functions whose numerator and denominator share large unreduced factors;
# evaluating or expanding those loses many digits.  Instead the factors are
# composed over truncated complex power series in a local parameter, Taylor
# jets in u - u0 at a point and series in 1/u at infinity, where each
# factor, a sum of known simple poles, has an exact expansion.  Only the
# rule for d/du differs between the two parameters.  The pipeline reads the
# series at infinity; the jets at a point are a reference for it.  An exact
# point reads the pencil of `master_operator_at` instead.

def factored_pole_data(problem: GaudinProblem, point):
    """Per factor i = 1..N+1: list of (coefficient, location) simple poles."""
    gs = _normalize_groups(problem, point)
    N = problem.N
    site_tail = []
    tail = {}
    for i in range(N, 0, -1):
        tail = dict(tail)
        for s, zs in enumerate(problem.z):
            e = problem.site_exponent[i - 1][s]
            if e:
                tail[zs] = tail.get(zs, 0) + e
        site_tail.append(tail)
    site_tail.reverse()  # site_tail[i-1] = poles of sum_{k >= i} T'_k/T_k
    out = []
    for i in range(1, N + 2):
        poles = dict(site_tail[i - 1]) if i <= N else {}
        if i >= 2:
            for t in gs[i - 2]:
                poles[t] = poles.get(t, 0) + 1
        if i <= N:
            for t in gs[i - 1]:
                poles[t] = poles.get(t, 0) - 1
        out.append([(c, r) for r, c in poles.items() if c])
    return out


def _pole_jet(poles, u0, order):
    """Taylor coefficients at u0 of sum c/(u - r), orders 0..order: the m-th
    is sum (-1)^m c (u0 - r)^(-m-1)."""
    out = [0j] * (order + 1)
    for c, r in poles:
        d = u0 - to_complex(r)
        term = c / d
        for m in range(order + 1):
            out[m] = out[m] + term
            term = -term / d
    return out


def _pole_series_at_infinity(poles, j_max):
    """Coefficients of u^0 .. u^-j_max of sum c/(u - r) = sum_j c r^(j-1) u^-j."""
    out = [0j] * (j_max + 1)
    for c, r in poles:
        term, r = c, to_complex(r)
        for j in range(1, j_max + 1):
            out[j] = out[j] + term
            term = term * r
    return out


def _jet_derivative(f):
    """d/du of a Taylor jet in u - u0; its top order is lost."""
    return [(m + 1) * f[m + 1] for m in range(len(f) - 1)]


def _derivative_at_infinity(f):
    """d/du of a series in 1/u: u^-j goes to -j u^-(j+1), the constant to 0."""
    return [0, 0] + [-j * f[j] for j in range(1, len(f) - 1)]


def _series_mul(f, g):
    """Product of two truncated series, as long as the shorter one."""
    return [sum((f[a] * g[m - a] for a in range(m + 1)), 0j)
            for m in range(min(len(f), len(g)))]


def _compose_factors(factors, derivative):
    """[C_1, ..., C_n] as series, C_i standing in front of d^(n-i) in
    (d - a_1)(d - a_2)...(d - a_n), from the series of the a_i.

    (d - a) sum_k q_k d^k = sum_k (q_k' - a q_k + q_(k-1)) d^k, so the
    factors are taken from the right, starting at the identity.  A Taylor
    jet loses one order per factor: jets of orders 0..n give the values.
    """
    nil = [0j] * len(factors[0])
    q = [[1] + nil[1:]]                   # q[k] stands in front of d^k
    for a in reversed(factors):
        q = [[x - y + w for x, y, w in zip(derivative(qk),
                                           _series_mul(a, qk), below)]
             for qk, below in zip(q + [nil], [nil] + q)]
    return q[-2::-1]


def scalar_coefficient_values(pole_data, u0):
    """[C_1(u0), ..., C_{N+1}(u0)]: complex values at the point u0 of the
    coefficients standing in front of d^N, ..., d^0, the order-0 terms of
    the factors composed over complex Taylor jets at u0, whatever the type
    of the poles: a reference for the series at infinity and the pencil."""
    u0 = to_complex(u0)
    jets = [_pole_jet(fac, u0, len(pole_data)) for fac in pole_data]
    composed = _compose_factors(jets, _jet_derivative)
    return [c[0] for c in composed]


def series_by_contour(pole_data, j_max):
    """{i: complex expansion coefficients of u^-1 .. u^-j_max} of every
    coefficient i = 1..N+1 of the factored operator, from the factors
    composed over complex series in 1/u, accurate to rounding; term j does
    not depend on j_max.  A floating point's spectrum and kernel read it, an
    exact point its pencil.  perfbench/spans.py binds this name."""
    factors = [_pole_series_at_infinity(fac, j_max)
               for fac in pole_data]
    composed = _compose_factors(factors, _derivative_at_infinity)
    return {i: c[1:] for i, c in enumerate(composed, start=1)}
