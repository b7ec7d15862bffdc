"""The universal differential operator of the Gaudin model and its coefficients.

The operator is the row determinant of the (N+1)x(N+1) matrix with entry
delta_ij * d - e_ji(u), where e_ij(u) is the generating current acting on a
tensor product of evaluation modules: sum_s e_ij^(s) / (u - z_s).  The
coefficient of d^(N+1-k) is a homogeneous polynomial of degree k in the pole
symbols x_s = 1/(u - z_s), with d x_s = -x_s^2, whose matrix coefficients do
not depend on the sites (Talalaev 2004; Mukhin-Tarasov-Varchenko 2006).  So
the determinant is taken in ints over those symbols (`pole_operator`), once
per process for each (N, partitions) key, as the module itself is
(`shared_pole_operator`), and each instance only puts its sites in, once per
coefficient, into the RFMatrix form the consumers read.  Its
coefficient matrices commute pairwise, commute with the diagonal gl action,
and are symmetric for the invariant form, so they preserve Sing L[mu].
The last three statements hold for every set of sites exactly when they
hold for the site-free int matrices of each monomial: `module_selfcheck`
checks the first two there once per module, exactly.  Given exact
gl-invariance, M = sum_mu L_mu x Sing M[mu] and every B_i(u) acts as the sum
of Id x B_i(u)|Sing M[mu], so commutativity, the vanishing lower series
coefficients and B_1 = scalar Id hold on M exactly when they hold on
Sing M, the sum of the Sing M[mu] over the dominant weights mu.
`shared_singular_poles` restricts the C_m to Sing M once per
(partitions, N), and an instance puts its sites in once, into K x K
matrices, K = dim Sing M (2-6 where the benchmark modules have 16-80
dimensions); `algebra_selfcheck` runs on that family, and the eigenvalue
equations on its block mu (`SingularPoles.split`).  Commutativity is
compared at sample points, exactly on exact sites and on dense complex128
arrays (one BLAS product each), relative to the size of the products, at
floating sites.

The module check multiplies the sparse int matrices in Python ints.  The
exact commutativity check multiplies integer matrices too.  Where a bound
proves every partial sum of both products of a comparison to be an integer
below 2^53, it multiplies them as float64 arrays in BLAS, which is then
exact; since two distinct floats never subtract to 0, a zero float
difference is an exact zero.  Past the bound, and to measure a nonzero
residual, it multiplies Python ints.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .diffop_ring import (OperatorPencil, PackedPoleMatrix, PoleMatrix,
                          RFMatrix, row_determinant, site_denominator)
from .errors import DimensionMismatch, NotInvariant, RepeatedSites
from .linalg import SparseMatrix, integer_scaled, rational_lcd
from .repr_core import (_SHARED_MODULES, GlModule, shared_module,
                        shared_singular_subspace,
                        weight_and_singular_subspace)
from .scalars import scalar_abs


def _check_sites(M: GlModule, z):
    if len(z) != len(M.factors):
        raise DimensionMismatch(
            f"{len(z)} sites for {len(M.factors)} tensor factors")
    for a in range(len(z)):
        for b in range(a + 1, len(z)):
            if z[a] == z[b]:
                raise RepeatedSites(f"repeated site {z[a]!r}")


def current_matrix(M: GlModule, i, j, z) -> RFMatrix:
    """Action of the current e_ij(u) = sum_s e_ij^(s)/(u - z_s)."""
    _check_sites(M, z)
    mats = [M.slot_matrix(s, i, j) for s in range(len(M.factors))]
    return RFMatrix.over_sites(mats, site_denominator(z))


def pole_operator(M: GlModule):
    """The coefficients of d^0 .. d^N of the universal operator over the
    pole symbols, free of sites, each packed to put sites in
    (`PackedPoleMatrix`).

    The determinant is taken over y_s = x_s / e, x_s = 1/(u - z_s), where e
    is the lcd of the slot matrices' entries: entry (i, j) is
    delta_ij d - sum_s (e e_ji^(s)) y_s, with int matrices and
    d/du y_s = -e y_s^2 (`PoleMatrix`), so no site enters it.  The
    coefficient of d^(N+1-k) is homogeneous of degree k in the y_s; the
    leading one, the identity, is left out.
    """
    r = M.rank
    e = rational_lcd(v for f in M.factors for i in range(1, r + 1)
                     for j in range(1, r + 1) for v in f.e(i, j).data.values())
    unit = PoleMatrix.identity(M.dim, e)
    entries = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            c0 = -PoleMatrix.over_poles(
                [M.slot_matrix(s, j, i) for s in range(len(M.factors))], e)
            row.append(OperatorPencil([c0, unit] if i == j else [c0]))
        entries.append(row)
    pencil = row_determinant(entries)
    if pencil.order != r or not pencil.coeffs[r].is_unit():
        raise DimensionMismatch(f"determinant of order {pencil.order} is "
                                f"not monic of order {r}")
    return tuple(PackedPoleMatrix(c) for c in pencil.coeffs[:r])


@functools.lru_cache(maxsize=_SHARED_MODULES)
def shared_pole_operator(partitions, N):
    """(poles, module check): `pole_operator` of `shared_module(partitions,
    N)` and `module_selfcheck` of it, each taken once per process and shared
    by every caller: do not mutate them.  The key holds no site, so each
    instance of a shape only puts its sites in."""
    M, form = shared_module(partitions, N)
    poles = pole_operator(M)
    return poles, module_selfcheck(poles, M, form)


def universal_operator(M: GlModule, z, poles=None) -> OperatorPencil:
    """Row determinant of delta_ij d - e_ji(u); monic of order N+1.

    `poles` is `pole_operator(M)`, taken here when it is not given (the
    pipeline passes the shared one, `shared_pole_operator`), or its
    restriction to a subspace (`restrict_poles`).
    `PackedPoleMatrix.at_sites` puts the sites into each of its
    coefficients, once; the leading one is RFMatrix.identity of their size.
    """
    _check_sites(M, z)
    if poles is None:
        poles = pole_operator(M)
    sites = site_denominator(z)
    return OperatorPencil([c.at_sites(sites) for c in poles]
                          + [RFMatrix.identity(poles[0].nrows)])


def operator_coefficient(pencil: OperatorPencil, i: int) -> RFMatrix:
    """The coefficient standing in front of d^(order - i)."""
    return pencil.coeffs[pencil.order - i]


class BetheOperatorFamily:
    """Coefficients of the universal operator restricted to a subspace.

    B_u[i] is the RFMatrix coefficient of d^(N+1-i) in the chosen basis;
    B_coeffs[i][j-1] is the u^-j expansion coefficient (j = 1..j_max), a
    power-0 RFMatrix stored once: for an integral B_u[i] its int numerators
    in num[0] over the one positive int d, else its values in num[0] with
    d = 1 (`RFMatrix.entries_series_at_infinity`).  `coeffs[0]` gives the
    Fractions of a nonzero one.  `unit_rows[m]` is the unit row of basis
    column m, or None for the full space; `coordinates` reads a vector of
    the span in the basis.
    """

    def __init__(self, N, B_u, B_coeffs, subspace, j_max, unit_rows=None):
        self.N = N
        self.B_u = B_u
        self.B_coeffs = B_coeffs
        self.subspace = subspace
        self.j_max = j_max
        self.unit_rows = unit_rows

    def eval(self, i, u) -> SparseMatrix:
        """B_i(u)."""
        return self.B_u[i].eval(u)

    def coordinates(self, vec):
        """The coordinates of a sparse dict vector of the span: its entries
        at the unit rows of the basis, or vec itself on the full space."""
        if self.unit_rows is None:
            return vec
        return {m: vec[r] for m, r in enumerate(self.unit_rows) if r in vec}


def _unit_rows(S: SparseMatrix):
    """For each column m the first row r_m where column m is 1 and every
    other column is 0; ValueError when a column has none."""
    hits = {}
    for (r, c), v in S.data.items():
        hits.setdefault(r, []).append((c, v))
    unit = [None] * S.ncols
    for r in sorted(hits):
        (c, v), *others = hits[r]
        if not others and v == 1 and unit[c] is None:
            unit[c] = r
    if None in unit:
        raise ValueError(
            f"basis column {unit.index(None)} has no unit row; linalg.rref "
            "of the columns gives a basis of the same span with unit rows")
    return unit


def _restrict_matrix(mat: SparseMatrix, S, unit, L):
    """(R, remainder): R with mat @ S == S @ R / L, read at the unit rows of
    S (where S is L), and L mat @ S - S @ R, or None where that is zero.

    mat's entries are read once, against the rows of S, so each entry of
    mat @ S is summed in their order, as in SparseMatrix.apply.
    """
    k = S.ncols
    by_row = {}
    for (r, c), v in S.data.items():
        by_row.setdefault(r, []).append((c, v))
    image = {}
    for (r, j), x in mat.data.items():
        for c, y in by_row.get(j, ()):
            key = (r, c)
            cur = image.get(key)
            image[key] = x * y if cur is None else cur + x * y
    image = SparseMatrix(mat.nrows, k, image)
    R = SparseMatrix(k, k, {(m, c): image[r, c]
                            for m, r in enumerate(unit) for c in range(k)})
    scaled = image.scale(L) if L != 1 else image
    back = S @ R
    return R, None if scaled.data == back.data else scaled - back


def restrict_poles(poles, S: SparseMatrix):
    """`poles` (`pole_operator`) restricted to the span of the columns of S,
    exactly: k x k PackedPoleMatrix coefficients, k = S.ncols.

    Each column m of S must be rational and have a unit row r_m, where it is
    1 and every other column is 0 (ValueError otherwise), as the columns of
    `weight_and_singular_subspace` have; `linalg.rref` gives any basis unit
    rows.  The y_s are algebraically independent, so B_i(u) = sum_m C_m y^m
    preserves the span for every u and every set of sites exactly when
    every C_m does.  Each C_m is restricted in ints against S scaled by its
    lcd L, with NotInvariant where a remainder is not zero, and L goes into
    the packed d, so `at_sites` gives d = e^k L.
    """
    unit = _unit_rows(S)
    if rational_lcd(S.data.values()) is None:
        raise ValueError("basis entries must be rational")
    (ints,), L = integer_scaled([S])
    k = S.ncols
    out = []
    for a, packed in enumerate(poles):
        terms = {}
        for m, C in _pole_terms(packed):
            terms[m], rem = _restrict_matrix(C, ints, unit, L)
            if rem is not None:
                raise NotInvariant(
                    f"coefficient {len(poles) - a} maps basis vector "
                    f"{min(c for _, c in rem.data)} outside the subspace")
        out.append(PackedPoleMatrix(PoleMatrix(k, k, terms, packed.e), L))
    return tuple(out)


class SingularPoles:
    """The site-free coefficients restricted to Sing M, the direct sum of
    the Sing M[mu] over the dominant weights mu of M.

    `poles` holds one block-diagonal K x K PackedPoleMatrix per coefficient,
    K = dim Sing M, with d = 1.  Block mu, at rows and columns
    offset .. offset + k - 1, holds the int matrices of
    `restrict_poles(poles, S_mu)`: L_mu times the matrices of the C_m in the
    basis S_mu of `weight_and_singular_subspace`, with L_mu the lcd of S_mu.
    `blocks` maps each mu with k > 0 to (offset, k, L_mu), and `lcd` is the
    lcm of the L_mu.  `split` reads the whole family and one block from a
    single `universal_operator` of `poles`.
    """

    __slots__ = ("poles", "blocks", "lcd")

    def __init__(self, poles, blocks):
        self.poles = poles
        self.blocks = blocks
        self.lcd = math.lcm(*(L for _, _, L in blocks.values()))

    def split(self, pencil: OperatorPencil, mu):
        """(whole, block): the pencil on Sing M and on Sing M[mu], from
        `pencil` = `universal_operator(M, z, poles=self.poles)`.

        Block mu of each coefficient is num / (e^k L_mu) with the numerators
        put in at the sites, so it has the entries, their order and the d of
        the sites put into `restrict_poles(poles, S_mu)` alone; a weight
        with no singular vector gives the 0 x 0 pencil.  The whole pencil
        scales the rows of block mu by lcd / L_mu, over e^k lcd.
        """
        coeffs = pencil.coeffs[:-1]
        start, k, L = self.blocks.get(tuple(mu), (0, 0, 1))
        block = [_block(P, start, k, L) for P in coeffs]
        factors = {}
        for offset, size, f in self.blocks.values():
            if f != self.lcd:
                factors.update(dict.fromkeys(range(offset, offset + size),
                                             self.lcd // f))
        whole = [_rows_scaled(P, factors, self.lcd) for P in coeffs]
        return (OperatorPencil(whole + pencil.coeffs[-1:]),
                OperatorPencil(block + [RFMatrix.identity(k)]))


def _block(P: RFMatrix, start, size, L) -> RFMatrix:
    """Rows and columns start .. start + size - 1 of a block-diagonal P,
    over L times its d."""
    stop = start + size
    num = [SparseMatrix(size, size, {
        (r - start, c - start): v for (r, c), v in mat.data.items()
        if start <= r < stop}) for mat in P.num]
    return P._like(num, P.power, d=P.d * L, nrows=size, ncols=size)


def _rows_scaled(P: RFMatrix, factors, L) -> RFMatrix:
    """P with row r multiplied by factors.get(r, 1), over L times its d."""
    num = P.num if not factors else [
        SparseMatrix(P.nrows, P.ncols, {
            key: v * factors[key[0]] if key[0] in factors else v
            for key, v in mat.data.items()}) for mat in P.num]
    return P._like(num, P.power, d=P.d * L)


def singular_poles(poles, M: GlModule, subspaces=None) -> SingularPoles:
    """`poles` (`pole_operator(M)`) restricted to Sing M, exactly, one
    dominant weight at a time (`restrict_poles`), highest weight first;
    NotInvariant where a C_m does not preserve some Sing M[mu].
    `subspaces(mu)` gives (W, S) of weight mu, by default
    `weight_and_singular_subspace(M, mu)`.

    The blocks keep the monomials in the order of `poles`, so that each
    entry of a block sums its monomials in the order `restrict_poles` alone
    gives them.
    """
    subspaces = subspaces or functools.partial(weight_and_singular_subspace,
                                               M)
    parts, blocks, K = [], {}, 0
    for mu in sorted(set(M.basis_weights), reverse=True):
        if any(a < b for a, b in zip(mu, mu[1:])):
            continue
        _, S = subspaces(mu)
        if not S.ncols:
            continue
        restricted = restrict_poles(poles, S)
        parts.append((K, restricted))
        blocks[mu] = (K, S.ncols, restricted[0].d)
        K += S.ncols
    out = []
    for a, full in enumerate(poles):
        order = {m: t for t, (m, _) in enumerate(full.terms)}
        terms = {}
        for offset, restricted in parts:
            for m, C in _pole_terms(restricted[a]):
                terms.setdefault(m, {}).update(
                    ((r + offset, c + offset), v)
                    for (r, c), v in C.data.items())
        out.append(PackedPoleMatrix(PoleMatrix(K, K, {
            m: SparseMatrix(K, K, terms[m])
            for m in sorted(terms, key=order.__getitem__)}, full.e)))
    return SingularPoles(tuple(out), blocks)


@functools.lru_cache(maxsize=_SHARED_MODULES)
def shared_singular_poles(partitions, N):
    """`singular_poles` of `shared_pole_operator(partitions, N)`, taken once
    per process and shared by every caller: do not mutate it.  A
    NotInvariant is raised again at every call.  The bases S_mu come from
    the per-weight cache (`shared_singular_subspace`), which the instances
    read too, so each weight's basis is made once."""
    poles, _ = shared_pole_operator(partitions, N)
    return singular_poles(poles, shared_module(partitions, N)[0],
                          functools.partial(shared_singular_subspace,
                                            partitions, N))


def restrict_family(pencil: OperatorPencil, subspace, j_max) -> BetheOperatorFamily:
    """The coefficients of the pencil with their series at infinity to
    u^-j_max, on the full carrier space (subspace None) or on the span of
    the columns of S = subspace.

    On a span the pencil is already k x k, k = S.ncols: `universal_operator`
    of `restrict_poles` (DimensionMismatch otherwise).  The family keeps the
    unit rows of S, where the coordinates x of a vector v = S x of the span
    are read (`BetheOperatorFamily.coordinates`).  S has full column rank,
    so B v - g v = S (R x - g x) is zero exactly when R x = g x.  The series
    of an integral coefficient stays in ints, one int d per matrix.
    """
    order = pencil.order
    N = order - 1
    B_u = {i: operator_coefficient(pencil, i) for i in range(1, order + 1)}
    unit = None
    if subspace is not None:
        size = pencil.coeffs[0].nrows
        if size != subspace.ncols:
            raise DimensionMismatch(
                f"{size} x {size} pencil on a span of {subspace.ncols}")
        unit = _unit_rows(subspace)
    B_coeffs = {i: B.entries_series_at_infinity(j_max) if j_max > 0 else []
                for i, B in B_u.items()}
    return BetheOperatorFamily(N, B_u, B_coeffs, subspace, j_max, unit)


def _matrix_residual(mat: SparseMatrix) -> float:
    """The largest modulus of an entry, or inf where one is inf or nan, as
    floating values overflow at far-out sites: a max would drop a nan."""
    vals = [scalar_abs(v) for v in mat.data.values()]
    return max(vals, default=0.0) if all(map(math.isfinite, vals)) \
        else math.inf


def _numerator(P: RFMatrix) -> SparseMatrix:
    """num[0] of a series coefficient, empty where the coefficient is 0."""
    return P.num[0] if P.num else SparseMatrix(P.nrows, P.ncols)


def _largest_entry(P: RFMatrix) -> float:
    """The largest modulus of an entry of a series coefficient num / d: in
    the integral form max|num| / d, one int division, which rounds as the
    float of the Fraction does; else d = 1 and num holds the values."""
    mat = _numerator(P)
    if P.integral:
        return max(map(abs, mat.data.values()), default=0) / P.d
    return _matrix_residual(mat)


# An integer product whose terms sum, in absolute value, to less than this
# is exact in float64: every partial sum is an integer below 2^53, in any
# order of summation.
_EXACT_BOUND = 2 ** 53


def _difference(left, right, d=1):
    """(largest entry of (left - right) / d, largest entry of left and right).

    left and right are d times the products compared: int or Gaussian-
    rational SparseMatrix products in exact mode, where the second value is
    0.0 and only an exact zero passes, or complex ndarrays (d = 1) in numeric
    mode, where the second value is the scale a residual is judged against
    and left is overwritten by the difference.  A floating difference that
    is not finite, as far-out sites overflow the values, is inf, which no
    max drops as it would a nan.
    """
    if isinstance(left, np.ndarray):
        scale = max(np.abs(left).max(), np.abs(right).max())
        left -= right
        res = float(np.abs(left).max())
        return (res if res < math.inf else math.inf), float(scale)
    a, b = left.data, right.data
    if a == b:
        return 0.0, 0.0
    diff = ([v - b.get(k, 0) for k, v in a.items()]
            + [v for k, v in b.items() if k not in a])
    if d != 1:
        diff = [x / d for x in diff]
    return max(map(scalar_abs, diff)), 0.0


class _Scaled:
    """An exact matrix m / c, with c a nonzero int, for the exact self-check.

    When m holds ints, g is the gcd of its entries, `top` the largest entry
    of |m| / g, and `rows` and `cols` the largest sums of |m| / g along a
    row and along a column; else g is 1 and all three are None.  m is given
    as a SparseMatrix, or as a float64 ndarray of ints below 2^53 (the
    integral Horner pass).  `sparse()` gives m as a SparseMatrix and
    `dense()` gives m / g as a float64 ndarray, each made at its first
    call.
    """

    __slots__ = ("c", "g", "top", "rows", "cols", "_sparse", "_dense")

    def __init__(self, c, sparse=None, dense=None):
        self.c = c
        self.g = 1
        self._sparse = sparse
        self._dense = dense
        if dense is not None:
            nonzero = dense[dense != 0].astype(np.int64)
            if nonzero.size:
                self.g = int(np.gcd.reduce(nonzero))
                dense /= self.g
            a = np.abs(dense)
            # float sums of ints are exact below 2^53 and stay at or above
            # it past it, which is all the bound needs
            self.top, self.rows, self.cols = (
                int(a.max(initial=0.0)), int(a.sum(1).max(initial=0.0)),
                int(a.sum(0).max(initial=0.0)))
            return
        self.top = self.rows = self.cols = None
        if all(type(v) is int for v in sparse.data.values()):
            self.g = math.gcd(*sparse.data.values()) or 1
            top, rows, cols = 0, {}, {}
            for (i, j), v in sparse.data.items():
                v = abs(v) // self.g
                top = max(top, v)
                rows[i] = rows.get(i, 0) + v
                cols[j] = cols.get(j, 0) + v
            self.top = top
            self.rows = max(rows.values(), default=0)
            self.cols = max(cols.values(), default=0)

    def sparse(self) -> SparseMatrix:
        if self._sparse is None:
            m, g = self._dense, self.g
            rows, cols = np.nonzero(m)
            self._sparse = SparseMatrix(
                *m.shape, {key: g * int(v) for key, v in zip(
                    zip(rows.tolist(), cols.tolist()),
                    m[rows, cols].tolist())})
        return self._sparse

    def dense(self) -> np.ndarray:
        if self._dense is None:
            m, g = self._sparse, self.g
            self._dense = _dense(m if g == 1 else SparseMatrix(
                m.nrows, m.ncols, {k: v // g for k, v in m.data.items()}),
                float)
        return self._dense


def _scaled_difference(x: _Scaled, y: _Scaled):
    """_difference of x y and y x in exact mode.

    For x and y of ints, x y = y x exactly when the same holds for x / g(x)
    and y / g(y), which the dense products compare.  Every partial sum of
    entry (i, j) of a product a b is an integer of modulus at most
    sum_k |a_ik| |b_kj|, whatever the order of summation, and that sum is at
    most rows(a) max|b| and max|a| cols(b).  When those bounds are below
    2^53 for both products, both are exact float64 BLAS products.  Two
    distinct floats never subtract to 0, so the products are equal exactly
    when their float difference is zero, and then the residual is 0.0.
    Otherwise, and where the products differ, the pair is multiplied in
    Python ints, so that a residual keeps the bits of the integer products.
    A zero x or y gives 0.0 at once.
    """
    if x.top == 0 or y.top == 0:
        return 0.0, 0.0
    if x.top is not None and y.top is not None:
        bound = max(min(x.rows * y.top, x.top * y.cols),
                    min(y.rows * x.top, y.top * x.cols))
        # neither side is zero, so the bound caps every entry too
        if bound < _EXACT_BOUND:
            a, b = x.dense(), y.dense()
            if np.array_equal(a @ b, b @ a):
                return 0.0, 0.0
    a, b = x.sparse(), y.sparse()
    return _difference(a @ b, b @ a, x.c * y.c)


def _dense(mat: SparseMatrix, dtype=complex) -> np.ndarray:
    out = np.zeros((mat.nrows, mat.ncols), dtype=dtype)
    if mat.data:
        rows, cols = zip(*mat.data)
        out[rows, cols] = list(map(dtype, mat.data.values()))
    return out


def _dense_horner(B: RFMatrix, scaled=False):
    """u -> B(u) as a dense ndarray, by Horner over the coefficient matrices
    of the numerator, each held as (rows, cols, values) arrays.

    By default the values are complex128, divided by d den(u)^k.  With
    `scaled`, for the integral form at an integer u, they are the int
    numerators m = d den(u)^k B(u) in float64, with no division, or None
    where sum_a max|num_a| |u|^a >= 2^53: below that bound every step of the
    pass is an integer below 2^53, so every value is exact.
    """
    dtype = float if scaled else complex
    tops = [max(map(abs, m.data.values()), default=0) for m in B.num] \
        if scaled else []
    coeffs = []
    if max(tops, default=0) < _EXACT_BOUND:
        for mat in reversed(B.num):
            keys = np.array(list(mat.data), dtype=np.intp).reshape(-1, 2)
            coeffs.append((keys[:, 0], keys[:, 1],
                           np.fromiter(mat.data.values(), dtype, len(keys))))

    def at(u):
        if scaled:
            u = int(u)
            if sum(t * abs(u) ** a for a, t in enumerate(tops)) \
                    >= _EXACT_BOUND:
                return None
        x = dtype(u)
        out = np.zeros((B.nrows, B.ncols), dtype=dtype)
        for rows, cols, vals in coeffs:
            out *= x
            out[rows, cols] += vals
        if not scaled and (B.power or B.d != 1):
            out /= complex(B._denominator(x))
        return out

    return at


def sample_points(z, count):
    """Deterministic exact integer sample points u >= 2 at distance at least 1
    from every site."""
    out = []
    k = 2
    while len(out) < count:
        # an int meets a complex site with the bits of its Fraction, without
        # going through Fraction's fallback to complex
        if all(scalar_abs(k - t) >= 1 for t in z):
            out.append(Fraction(k))
        k += 1
    return out


def _pole_terms(packed: PackedPoleMatrix):
    """(m, C_m) for each monomial m of a packed coefficient, in its order,
    with the int matrix C_m as a SparseMatrix of Python ints."""
    rows, cols = packed.keys.tolist()
    for m, (index, values) in packed.terms:
        yield m, SparseMatrix(packed.nrows, packed.ncols, {
            (rows[k], cols[k]): v
            for k, v in zip(index.tolist(), values.tolist())})


def module_selfcheck(poles, M: GlModule, form) -> dict:
    """gl-invariance and form-symmetry residuals of the site-free
    coefficients, exactly: the largest entry of C_m E - E C_m over every
    generator E = e_ab of M, and of G C_m - C_m^T G over the Gram matrix G
    of the form, over every monomial m of every coefficient in `poles`
    (`pole_operator(M)`).

    B_i(u) = sum_m C_m y^m, and the y_s = 1/(e (u - z_s)) are algebraically
    independent functions of (u, z), so B_i(u) commutes with gl and is
    symmetric for the form at every u and every set of sites exactly when
    every C_m is.  Both residuals are exact zeros where that holds, whatever
    the sites of an instance.  E and G are scaled to ints once for every
    C_m, and every comparison runs in Python-int SparseMatrix products: the
    C_m and the generators are sparse, more so as the module grows.
    """
    gens, c_gl = integer_scaled([M.e(a, b) for a in range(1, M.rank + 1)
                                 for b in range(1, M.rank + 1)])
    (G,), c_sym = integer_scaled([form.gram])
    res_gl = res_sym = 0.0
    for packed in poles:
        for _, C in _pole_terms(packed):
            for E in gens:
                res_gl = max(res_gl, _difference(C @ E, E @ C, c_gl)[0])
            res_sym = max(res_sym, _difference(G @ C, C.transpose() @ G,
                                               c_sym)[0])
    return {"commutator_with_gl": res_gl, "form_symmetry": res_sym}


def algebra_selfcheck(family: BetheOperatorFamily, z) -> dict:
    """Commutativity and lower-coefficient residuals of a family: the
    pipeline passes the family on Sing M, which decides them for the whole
    module once gl-invariance holds (module docstring).  gl-invariance and
    form symmetry hold for every set of sites once they hold for the
    site-free coefficients, and `module_selfcheck` checks them there, once
    per module.

    Commutativity compares B_i(u) and B_j(v), i <= j, at consecutive sample
    points: integers at distance at least 1 from every site z_s, where
    evaluating P(u)/D(u)^k in floating point loses no digits to a small
    D(u).  The lower coefficients are the u^-j terms j < i of the series at
    infinity of B_i, which vanish.

    In exact mode all residuals are exactly zero and `exact` reports True.
    Each B_i(u) is first brought to ints m over one int denominator c, by a
    float64 Horner pass over the int numerator arrays where
    sum_a max|num_a| |u|^a < 2^53 (then c = d D~(u)^k), else by
    `RFMatrix.eval_scaled`.  A series coefficient of an integral family is
    read as it is stored, its int num[0] over d, as max|num[0]| / d, one int
    division.  A comparison A B = B A then runs as two float64 BLAS products
    of A and B divided by the gcd of their entries, when every entry of
    |A| |B| and |B| |A| is below 2^53 by a bound read from the largest
    entry, row sum and column sum of each: every partial sum of such a
    product is an integer below 2^53, so both products are exact, and two
    distinct floats never subtract to 0, so a zero float difference is an
    exact zero.  Otherwise, and to compute the residual of a pair that
    differs, the pair runs in Python-int SparseMatrix products of the
    unreduced ints, so that a residual, divided back by the denominators,
    keeps their bits.  Gaussian-rational matrices pass through unscaled and
    always take the SparseMatrix products.  The route is decided before
    anything is made dense (`_scaled_difference`).

    In numeric mode every B_i(u) is a dense complex128 ndarray from a dense
    Horner over the coefficient matrices of its numerator, each held as
    (rows, cols, values) arrays, so a product is one BLAS call.
    `scales["commutator_pairs"]` holds the largest entry of the products
    compared, so that a residual can be judged relative to them: they reach
    1e4 and more when the sites differ much in size.

    In both modes only the values of B_i at the two current sample points
    are held at a time.
    """
    N = family.N
    order = N + 1
    family_u = [family.B_u[i] for i in range(1, order + 1)]
    exact_mode = all(B.is_exact() for B in family_u)
    # at(u) gives B_i(u) for i = 1..N+1, and compare(x, y) the residual and
    # scale of x y - y x
    if exact_mode:
        # c = d D~(u)^k is eval_scaled's denominator where B is nonzero
        horners = [_dense_horner(B, scaled=True)
                   if B.integral and not B.is_zero() else None
                   for B in family_u]

        def at(u):
            out = []
            for B, value in zip(family_u, horners):
                m = None if value is None else value(u)
                if m is None:
                    m, c = B.eval_scaled(u)
                    out.append(_Scaled(c, m))
                else:
                    out.append(_Scaled(B.d * B.den.eval(int(u)) ** B.power,
                                       dense=m))
            return out

        compare = _scaled_difference
    else:
        horners = [_dense_horner(B) for B in family_u]

        def at(u):
            return [value(u) for value in horners]

        def compare(x, y):
            return _difference(x @ y, y @ x)

    # B_i(u) and B_j(v) at consecutive sample points, the values at only two
    # points alive at a time
    pts = sample_points(z, 6)
    left = at(pts[0])
    res_comm = scale_comm = 0.0
    for v0 in pts[1:]:
        right = at(v0)
        for i in range(order):
            for j in range(i, order):
                res, scale = compare(left[i], right[j])
                res_comm = max(res_comm, res)
                scale_comm = max(scale_comm, scale)
        left = right

    res_lower = 0.0
    for i in range(1, order + 1):
        for j, P in enumerate(family.B_coeffs.get(i, ()), start=1):
            if j < i:
                res_lower = max(res_lower, _largest_entry(P))

    return {
        "commutator_pairs": res_comm,
        "lower_coefficients": res_lower,
        "scales": {"commutator_pairs": scale_comm},
        "exact": exact_mode,
        "max_residual": max(res_comm, res_lower),
    }


def first_coefficient_identity(pencil: OperatorPencil, sizes, z) -> bool:
    """First coefficient == -sum_s |weight_s| / (u - z_s) * Id.

    Both sides are numerators of power 1 over the site polynomial, and the
    numerators are compared: exactly when everything is exact, and at
    floating sites up to 1e-9 times the largest numerator entry of either
    side, or 1e-9 when that is below 1.
    """
    B1 = operator_coefficient(pencil, 1)
    ident = SparseMatrix.identity(B1.nrows)
    target = RFMatrix.over_sites([ident.scale(-Fraction(n)) for n in sizes],
                                 site_denominator(z))
    diff = B1 - target
    if diff.is_zero():
        return True
    if diff.is_exact():
        return False
    scale = max(map(_matrix_residual, B1.num + target.num))
    return scale < math.inf and \
        max(map(_matrix_residual, diff.num)) <= 1e-9 * max(1.0, scale)
