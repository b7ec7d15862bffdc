"""Polynomial kernel of the scalar operator and its geometric certificates.

At a critical point the scalar operator annihilates an (N+1)-dimensional
space of polynomials.  That space is computed here, exactly from the
numerator of the operator applied to the monomials, or from the Laurent
coefficients at infinity of its image, normalized to the expected exponent
shape, and certified two ways: Wronskian product identities relating
consecutive minors to the group polynomials and site factors, and
vanishing-order (incidence) tables at every site and at infinity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diffop_ring import ONE, OperatorPencil, Poly, RFMatrix
from .errors import (AmbientTooSmall, KernelDimensionMismatch,
                     ShapeNormalizationFailure)
from .linalg import SparseMatrix, nullspace, rref
from .master import (GaudinProblem, _normalize_groups, factored_pole_data,
                     group_polynomials, master_operator_at,
                     series_by_contour)
from .scalars import is_exact, scalar_abs, to_complex


SVD_CUTOFF = 1e-10   # relative singular values spanning the numeric kernel
SERIES_MARGIN = 5    # Laurent coefficients read beyond those that pin it


@dataclass
class ExponentData:
    exponents: tuple          # d_1 > d_2 > ... > d_{N+1} >= 0
    exponent_set: frozenset
    dual_partition: tuple     # N+1 parts, inside the ambient box
    d_cap: int                # ambient space = polynomials of degree < d_cap
    minimal_d_cap: int


def exponent_data(problem: GaudinProblem, d_cap=None) -> ExponentData:
    """Exponents at infinity and the dual partition in a chosen ambient space."""
    N = problem.N
    lam = problem.infinity_weight
    d = tuple(lam[i] + N - i for i in range(N + 1))
    minimal = N + 1 + max([lam[0]] + [p[0] for p in problem.partitions])
    if d_cap is None:
        d_cap = minimal
    if d_cap < minimal:
        raise AmbientTooSmall(f"ambient degree bound {d_cap} below {minimal}")
    dual = tuple(d_cap - N - 1 - lam[N - k] for k in range(N + 1))
    return ExponentData(exponents=d, exponent_set=frozenset(d),
                        dual_partition=dual, d_cap=d_cap, minimal_d_cap=minimal)


def site_factor_polynomials(problem: GaudinProblem):
    """T_i = prod_s (u - z_s)^(pairing of site partition with alpha_i)."""
    out = []
    for i in range(1, problem.N + 1):
        p = ONE
        for s, zs in enumerate(problem.z):
            e = problem.site_exponent[i - 1][s]
            for _ in range(e):
                p = p * Poly((-zs, 1 if is_exact(zs) else 1.0 + 0j))
        out.append(p)
    return out


@dataclass
class PolynomialTuple:
    polys: tuple              # h_1 .. h_{N+1}, degrees strictly decreasing
    exponents: tuple

    def __iter__(self):
        return iter(self.polys)


def _poles_of(problem, point):
    gs = _normalize_groups(problem, point)
    return list(problem.z) + [x for grp in gs for x in grp]


def series_terms(problem: GaudinProblem, point):
    """Terms of the series at infinity that the floating kernel reads:
    d1 + (N+1) P + SERIES_MARGIN, P the number of distinct poles (sites and
    variables); see `_laurent_matrix`."""
    d1 = exponent_data(problem).exponents[0]
    poles = {to_complex(x) for x in _poles_of(problem, point)}
    return d1 + (problem.N + 1) * len(poles) + SERIES_MARGIN


def _laurent_matrix(problem: GaudinProblem, point, series, d1):
    """(E, R): E[t, k] is the coefficient of u^e in L u^k times R^(e-k), for
    e = d1-N-1-t down to d1 - series_terms, from the series of L's
    coefficients (composed here unless given).  R = 1.5 max(1, max|pole|);
    a coefficient times R^e is the Fourier coefficient on |u| = R.

    L p = Q / prod (u - r)^(N+1) over the P distinct poles r and is
    O(u^(d1-N-1)) for deg p <= d1, so L p = 0 exactly when its
    coefficients at u^(d1-N-1), ..., u^(-(N+1)P) vanish."""
    N, n = problem.N, series_terms(problem, point)
    R = 1.5 * max([1.0] + [abs(to_complex(x))
                           for x in _poles_of(problem, point)])
    if not isinstance(series, dict):
        series = series_by_contour(factored_pole_data(problem, point), n)
    rows = n - N
    E = np.zeros((rows, d1 + 1), dtype=complex)
    for k in range(N + 1, d1 + 1):          # d^(N+1) u^k, at e = k - N - 1
        E[d1 - k, k] = math.perm(k, N + 1) * R ** -(N + 1)
    # C_i d^(N+1-i) u^k: the coefficient of u^-j in C_i lands at row
    # t = j + d1 - k - i, which is index k + i + t of `padded`
    scale = R ** (N + 1.0 + np.arange(1, n + 1))
    for i, c in series.items():
        padded = np.concatenate([np.zeros(d1 + 1),
                                 np.array(c[:n]) * R ** i / scale])
        for k in range(N + 1 - i, d1 + 1):
            E[:, k] += math.perm(k, N + 1 - i) * padded[k + i:k + i + rows]
    return E, R


def solve_h_tuple(problem: GaudinProblem, point, pencil=None,
                  data: ExponentData = None) -> PolynomialTuple:
    """Kernel of the scalar operator on polynomials, in exponent shape.

    `pencil` is the point's operator, given or built here: the exact
    pencil at an exact point, else its coefficients' series at infinity
    (`series_by_contour`, at least `series_terms` long).  The pencil is
    applied once to the row (1, u, ..., u^d1) of monomials; sum_k x_k u^k
    is in the kernel exactly when x is a null vector of every coefficient
    matrix of the image's numerator.  From the series the kernel is read by
    an SVD of the Laurent coefficients of the monomials' images.
    """
    if pencil is None and all(is_exact(x) for x in _poles_of(problem, point)):
        pencil = master_operator_at(problem, point)
    if data is None:
        data = exponent_data(problem)
    d1 = data.exponents[0]
    if isinstance(pencil, OperatorPencil):
        monomials = RFMatrix(1, d1 + 1, [SparseMatrix(1, d1 + 1, {(0, k): 1})
                                         for k in range(d1 + 1)])
        image = pencil.apply(monomials)
        mat = SparseMatrix(len(image.num), d1 + 1,
                           {(i, k): v for i, m in enumerate(image.num)
                            for (_, k), v in m.data.items()})
        kernel = nullspace(mat)
        if len(kernel) != problem.N + 1:
            raise KernelDimensionMismatch(
                f"kernel dimension {len(kernel)}, expected {problem.N + 1}")
        vecs = [[v.get(k, Fraction(0)) for k in range(d1 + 1)] for v in kernel]
    else:
        # the symbolic composition would hide the kernel behind floating
        # cancellation; the factors composed over series at infinity do not
        E, R = _laurent_matrix(problem, point, pencil, d1)
        _, sv, vh = np.linalg.svd(E)
        null_rows = [r for r in range(len(sv))
                     if sv[r] < SVD_CUTOFF * max(sv[0], 1e-300)]
        if len(null_rows) != problem.N + 1:
            raise KernelDimensionMismatch(
                f"kernel dimension {len(null_rows)}, expected {problem.N + 1}")
        vecs = [[vh[r, k].conjugate() / (R ** k) for k in range(d1 + 1)]
                for r in null_rows]

    polys = _shape_normalize(vecs, data)
    return PolynomialTuple(polys=tuple(polys), exponents=data.exponents)


def _shape_normalize(vecs, data: ExponentData):
    """Echelonize from the top degree down; pivots must be the exponents."""
    exact = all(is_exact(c) for v in vecs for c in v)
    d1 = data.exponents[0]
    work = [list(v) for v in vecs]
    taken = []
    for _ in range(len(work)):
        best, bdeg = None, -1
        for idx, v in enumerate(work):
            deg = _leading_degree(v, exact)
            if deg > bdeg:
                best, bdeg = idx, deg
        if best is None or bdeg < 0:
            raise ShapeNormalizationFailure("zero vector in kernel basis")
        v = work.pop(best)
        lead = v[bdeg]
        v = [c / lead for c in v]
        v[bdeg] = Fraction(1) if exact else 1.0 + 0.0j
        for w in work:
            x = w[bdeg]
            if x:
                for k in range(d1 + 1):
                    w[k] = w[k] - x * v[k]
                w[bdeg] = 0
        for (w, wd) in taken:
            x = w[bdeg]
            if x:
                for k in range(d1 + 1):
                    w[k] = w[k] - x * v[k]
                w[bdeg] = 0
        taken.append((v, bdeg))
    degrees = tuple(sorted((d for _, d in taken), reverse=True))
    if degrees != data.exponents:
        raise ShapeNormalizationFailure(
            f"kernel degrees {degrees} differ from exponents {data.exponents}")
    polys = []
    for v, deg in sorted(taken, key=lambda p: -p[1]):
        coeffs = v[:deg + 1]
        if not exact:
            scale = max(scalar_abs(c) for c in coeffs)
            coeffs = [c if scalar_abs(c) > 1e-10 * scale else 0.0 for c in coeffs]
        polys.append(Poly(coeffs))
    return polys


def _leading_degree(v, exact):
    if exact:
        for k in range(len(v) - 1, -1, -1):
            if v[k]:
                return k
        return -1
    scale = max((scalar_abs(c) for c in v), default=0.0)
    if scale == 0.0:
        return -1
    for k in range(len(v) - 1, -1, -1):
        if scalar_abs(v[k]) > 1e-6 * scale:
            return k
    return -1


def wronskian(polys):
    """Determinant of the derivative matrix (rows = functions)."""
    k = len(polys)
    rows = [[p.derivative(j) for j in range(k)] for p in polys]
    acc = Poly(())
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k)
                  if perm[a] > perm[b])
        term = ONE
        for a in range(k):
            term = term * rows[a][perm[a]]
        acc = acc + (term if inv % 2 == 0 else -term)
    return acc


def verify_wronskian_identities(problem: GaudinProblem, point,
                                htuple: PolynomialTuple):
    """Consecutive-minor identities: for j = 1..N the Wronskian of the last
    j+1 kernel polynomials equals y_{N-j} times a staircase of site factors
    times an integer constant from the exponents.

    Returns {j: residual}; residuals are exactly 0.0 in exact mode.
    """
    N = problem.N
    ys = group_polynomials(problem, point)
    Ts = site_factor_polynomials(problem)
    d = htuple.exponents
    out = {}
    for j in range(1, N + 1):
        funcs = [htuple.polys[N - m] for m in range(j + 1)]   # h_{N+1}, h_N, ...
        lhs = wronskian(funcs)
        rhs = ONE if N - j == 0 else ys[N - j - 1]
        for m in range(j):
            # T_{N-m} to the power (j - m)
            for _ in range(j - m):
                rhs = rhs * Ts[N - m - 1]
        const = Fraction(1)
        for a in range(N - j, N + 1):
            for b in range(a + 1, N + 1):
                const = const * (d[a] - d[b])
        rhs = rhs.scale(const)
        out[j] = _poly_residual(lhs, rhs)
    return out


def _poly_residual(p: Poly, q: Poly):
    diff = p - q
    if diff.is_zero():
        return 0.0
    scale = max(p.max_abs(), q.max_abs(), 1.0)
    return diff.max_abs() / scale


def vanishing_orders(polys, z, tol=1e-8):
    """Vanishing-order set at z of the span of the polynomials.

    Coefficients are re-expanded around z; the order set is the pivot set of
    the row echelon form of the coefficient rows.  Float rows are divided by
    max(1, max|coefficient|), so that the zero and pivot tests of the
    elimination, at `tol`, are relative to each row's scale: cancellation
    residue between proportional rows is not a pivot.
    """
    rows = []
    for p in polys:
        q = p.taylor_shift(z)
        row = {}
        scale = max(q.max_abs(), 1.0)
        for k, c in enumerate(q.coeffs):
            if is_exact(c):
                if c:
                    row[k] = c
            elif scalar_abs(c) > tol * scale:
                row[k] = c / scale
        rows.append(row)
    _, pivots = rref(rows, tol)
    return sorted(pivots)


def degree_set(polys):
    return sorted(p.degree for p in polys)


def expected_orders(lam, N):
    """{lam_{N+1-k} + k : k = 0..N} for a partition with N+1 parts."""
    return sorted(lam[N - k] + k for k in range(N + 1))


def schubert_incidence(problem: GaudinProblem, htuple: PolynomialTuple,
                       data: ExponentData = None, tol=1e-8):
    """Incidence certificates of the kernel span at every site and infinity.

    For each site: the vanishing-order set must be {lam_j + N + 1 - j} of the
    site partition (re-indexed increasingly), equivalently the rank table
    dim{f : ord >= lam_j + N + 1 - j} = j.  At infinity the degree set must
    be the exponent set.  Returns a report dict with a boolean `ok`.
    """
    if data is None:
        data = exponent_data(problem)
    N = problem.N
    report = {"sites": [], "ok": True}
    for s, zs in enumerate(problem.z):
        lam = problem.partitions[s]
        got = vanishing_orders(htuple.polys, zs, tol)
        want = expected_orders(lam, N)
        table = []
        for j in range(1, N + 2):
            thr = lam[j - 1] + N + 1 - j
            dim_at_least = sum(1 for o in got if o >= thr)
            table.append({"j": j, "threshold": thr, "dim": dim_at_least,
                          "ok": dim_at_least == j})
        ok = got == want and all(r["ok"] for r in table)
        report["sites"].append({"site": s, "orders": got, "expected": want,
                                "rank_table": table, "ok": ok})
        report["ok"] = report["ok"] and ok
    got_inf = degree_set(htuple.polys)
    want_inf = sorted(data.exponents)
    report["infinity"] = {"degrees": got_inf, "expected": want_inf,
                          "ok": got_inf == want_inf}
    report["ok"] = report["ok"] and report["infinity"]["ok"]
    return report


def kernel_residuals(problem: GaudinProblem, point, htuple: PolynomialTuple,
                     pencil=None):
    """Residuals of the operator, given as in `solve_h_tuple`, applied to
    each kernel polynomial h: 0.0 for an exact zero, else the largest
    |Laurent coefficient of L h at u^e| R^e of `_laurent_matrix` over
    max(1, max|h|), the Cauchy bound of L h on the circle |u| = R."""
    exact = all(h.is_exact_poly() for h in htuple.polys)
    if pencil is None and exact and all(
            is_exact(x) for x in _poles_of(problem, point)):
        pencil = master_operator_at(problem, point)
    if isinstance(pencil, OperatorPencil) and exact:
        return [0.0 if pencil.apply(h).is_zero() else float("inf")
                for h in htuple.polys]
    E, R = _laurent_matrix(problem, point, pencil, htuple.exponents[0])
    return [float(np.abs(E[:, :len(h.coeffs)] @ [
        to_complex(c) * R ** k for k, c in enumerate(h.coeffs)]).max())
        / max(h.max_abs(), 1.0) for h in htuple.polys]
