"""The universal differential operator of the Gaudin model and its coefficients.

The operator is the row determinant of the (N+1)x(N+1) matrix with entry
delta_ij * d - e_ji(u), where e_ij(u) is the generating current acting on a
tensor product of evaluation modules: sum_s e_ij^(s) / (u - z_s).  Its
coefficient matrices commute pairwise, commute with the diagonal gl action,
and are symmetric for the invariant form; `algebra_selfcheck` checks those
statements exactly, in integer products, on rational sites, and on dense
complex128 arrays (one BLAS product each), relative to the size of the
products, at floating sites.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .diffop_ring import (OperatorPencil, RFMatrix, row_determinant,
                          site_denominator)
from .errors import DimensionMismatch, NotInvariant, RepeatedSites
from .linalg import SparseMatrix, integer_scaled, rational_lcd
from .repr_core import GlModule
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
    return _current(M, i, j, site_denominator(z))


def _current(M: GlModule, i, j, sites) -> RFMatrix:
    mats = [M.slot_matrix(s, i, j) for s in range(len(M.factors))]
    return RFMatrix.over_sites(mats, sites)


def universal_operator(M: GlModule, z) -> OperatorPencil:
    """Row determinant of delta_ij d - e_ji(u); monic of order N+1."""
    _check_sites(M, z)
    r = M.rank
    ident = RFMatrix.identity(M.dim)
    sites = site_denominator(z)
    entries = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            c0 = -_current(M, j, i, sites)
            row.append(OperatorPencil([c0, ident]) if i == j
                       else OperatorPencil([c0]))
        entries.append(row)
    pencil = row_determinant(entries)
    assert pencil.order == r and pencil.is_monic()
    return pencil


def operator_coefficient(pencil: OperatorPencil, i: int) -> RFMatrix:
    """The coefficient standing in front of d^(order - i)."""
    return pencil.coeffs[pencil.order - i]


class BetheOperatorFamily:
    """Coefficients of the universal operator restricted to a subspace.

    B_u[i] is the RFMatrix coefficient of d^(N+1-i) in
    the chosen basis; B_coeffs[i][j-1] is the matrix of the u^-j expansion
    coefficient (j = 1..j_max).
    """

    def __init__(self, N, B_u, B_coeffs, subspace, j_max):
        self.N = N
        self.B_u = B_u
        self.B_coeffs = B_coeffs
        self.subspace = subspace
        self.j_max = j_max

    @property
    def carrier_dim(self):
        any_mat = self.B_u[1]
        return any_mat.nrows

    def eval(self, i, u) -> SparseMatrix:
        """B_i(u)."""
        return self.B_u[i].eval(u)


# a floating remainder at most this share of the image counts as roundoff
_REMAINDER_RTOL = 1e-9


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


def _restrict_matrix(mat: SparseMatrix, S, unit, L, exact, i):
    """R with mat @ S == S @ R / L, read at the unit rows of S (where S is
    L); NotInvariant when mat maps a column of S outside its span.

    mat's entries are read once, against the rows of S, so each entry of
    mat @ S is summed in their order, as in SparseMatrix.apply.  Exact
    matrices must meet the identity exactly.  At floating sites a remainder
    in column c of at most _REMAINDER_RTOL times the largest entry of the
    image of column c counts as roundoff.
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
    if L != 1:
        image = image.scale(L)
    back = S @ R
    if image.data == back.data:
        return R
    top, rest = {}, {}
    for (_, c), v in image.data.items():
        top[c] = max(top.get(c, 0.0), scalar_abs(v))
    for (_, c), v in (image - back).data.items():
        rest[c] = max(rest.get(c, 0.0), scalar_abs(v) / top[c])
    for c in sorted(rest):
        if exact or rest[c] > _REMAINDER_RTOL:
            raise NotInvariant(
                f"coefficient {i} maps basis vector {c} outside the subspace "
                f"(remainder {rest[c]:.3e} of the image)")
    return R


def restrict_family(pencil: OperatorPencil, subspace, j_max) -> BetheOperatorFamily:
    """Express every coefficient of the pencil in the given column basis.

    subspace: SparseMatrix of rational basis columns with unit rows, or None
    for the full carrier space.  Column m must have a unit row r_m, where it
    is 1 and every other column is 0, as the columns of
    `weight_and_singular_subspace` have; ValueError otherwise.  Any basis
    gets unit rows from `linalg.rref` of its columns.  The coordinates of a
    vector of the span are its entries at the unit rows.

    A coefficient P(u)/D(u)^k leaves the span invariant iff every
    coefficient matrix of P does, so each is restricted on its own: R is read
    at the unit rows of P S, and P S == S R is checked as one identity.
    Raises NotInvariant when it fails.  Every coefficient, of any entry
    type, is restricted in its numerator num against the basis scaled to
    ints by its lcd L, and L goes into the restricted d; an integral
    coefficient restricts in ints, with no Fraction made.
    """
    order = pencil.order
    N = order - 1
    B_u = {i: operator_coefficient(pencil, i) for i in range(1, order + 1)}
    if subspace is not None:
        unit = _unit_rows(subspace)
        if rational_lcd(subspace.data.values()) is None:
            raise ValueError("basis entries must be rational")
        (ints,), L = integer_scaled([subspace])
        k = subspace.ncols
        for i, B in B_u.items():
            num = [_restrict_matrix(mat, ints, unit, L, B.is_exact(), i)
                   for mat in B.num]
            B_u[i] = B._like(num, B.power, B.d * L, k, k)
    B_coeffs = {}
    for i in range(1, order + 1):
        mats = B_u[i].entries_series_at_infinity(j_max) if j_max > 0 else []
        B_coeffs[i] = mats
    return BetheOperatorFamily(N, B_u, B_coeffs, subspace, j_max)


def _matrix_residual(mat: SparseMatrix) -> float:
    return max((scalar_abs(v) for v in mat.data.values()), default=0.0)


def _difference(left, right, d=1):
    """(largest entry of (left - right) / d, largest entry of left and right).

    left and right are d times the products compared: int or Gaussian-
    rational SparseMatrix products in exact mode, where the second value is
    0.0 and only an exact zero passes, or complex ndarrays (d = 1) in numeric
    mode, where the second value is the scale a residual is judged against
    and left is overwritten by the difference.
    """
    if isinstance(left, np.ndarray):
        scale = max(np.abs(left).max(), np.abs(right).max())
        left -= right
        return float(np.abs(left).max()), float(scale)
    a, b = left.data, right.data
    if a == b:
        return 0.0, 0.0
    diff = ([v - b.get(k, 0) for k, v in a.items()]
            + [v for k, v in b.items() if k not in a])
    if d != 1:
        diff = [x / d for x in diff]
    return max(map(scalar_abs, diff)), 0.0


def _dense(mat: SparseMatrix) -> np.ndarray:
    out = np.zeros((mat.nrows, mat.ncols), dtype=complex)
    if mat.data:
        rows, cols = zip(*mat.data)
        out[rows, cols] = list(map(complex, mat.data.values()))
    return out


def _dense_horner(B: RFMatrix):
    """u -> B(u) as a dense complex ndarray, by Horner over the coefficient
    matrices of the numerator, each held as (rows, cols, values) arrays."""
    coeffs = []
    for mat in reversed(B.num):
        keys = np.array(list(mat.data), dtype=np.intp).reshape(-1, 2)
        coeffs.append((keys[:, 0], keys[:, 1],
                       np.fromiter(mat.data.values(), complex, len(keys))))

    def at(u):
        x = complex(u)
        out = np.zeros((B.nrows, B.ncols), dtype=complex)
        for rows, cols, vals in coeffs:
            out *= x
            out[rows, cols] += vals
        if B.power or B.d != 1:
            out /= complex(B._denominator(x))
        return out

    return at


def _transpose(mat):
    return mat.T if isinstance(mat, np.ndarray) else mat.transpose()


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


def algebra_selfcheck(family: BetheOperatorFamily, form, M: GlModule,
                      z) -> dict:
    """Commutativity, gl-invariance, and form-symmetry residuals.

    The family must live on the full module for the gl-commutation and
    Shapovalov checks to make sense.  The sample points are integers at
    distance at least 1 from every site z_s, where evaluating P(u)/D(u)^k in
    floating point loses no digits to a small D(u).

    In exact mode all residuals are exactly zero and `exact` reports True.
    Every matrix is first brought to integers over one denominator: B_i(u)
    by `RFMatrix.eval_scaled`, which reads the integer Horner numerators
    without making Fractions, and G, E and each coefficient matrix by
    `integer_scaled`.  Products and comparisons then run in Python ints,
    and a residual, divided back by the denominators, is computed only where
    a comparison fails.  Gaussian-rational matrices pass through unscaled.

    In numeric mode every matrix is a dense complex128 ndarray, so a product
    is one BLAS call.  B_i(u) comes from a dense Horner over the coefficient
    matrices of its numerator, each held as (rows, cols, values) arrays.
    Only the values of B_i at the two current sample points, G, and the one
    generator or series coefficient in use are held dense at a time.
    `scales` holds, per check, the largest entry of the products it
    compares, so that a residual can be judged relative to them; the
    commutator, gl and form checks compare products whose entries reach 1e4
    and more when the sites differ much in size.
    """
    N = family.N
    order = N + 1
    family_u = [family.B_u[i] for i in range(1, order + 1)]
    exact_mode = all(B.is_exact() for B in family_u)
    # at(u) gives (B_i(u) times c, c) for i = 1..N+1
    if exact_mode:
        scaled = integer_scaled

        def at(u):
            return [B.eval_scaled(u) for B in family_u]
    else:
        horners = [_dense_horner(B) for B in family_u]

        def at(u):
            return [(value(u), 1) for value in horners]

        def scaled(mats):
            # a generator, so that each matrix is made dense only when used
            return (_dense(m) for m in mats), 1

    pts = sample_points(z, 6)
    # the values at the first sample point serve the gl and form checks,
    # then start the commutator walk below
    left = at(pts[0])

    res_gl = scale_gl = 0.0
    gens, d_gens = scaled([M.e(k, l) for k in range(1, M.rank + 1)
                           for l in range(1, M.rank + 1)])
    for E in gens:
        for Bi, d in left:
            res, scale = _difference(Bi @ E, E @ Bi, d * d_gens)
            res_gl = max(res_gl, res)
            scale_gl = max(scale_gl, scale)

    res_sym_u = 0.0
    res_sym_c = 0.0
    scale_sym = 0.0
    if form is not None:
        (G,), d_G = scaled([form.gram])
        for i, (Bi, d) in enumerate(left, start=1):
            res, scale = _difference(G @ Bi, _transpose(Bi) @ G, d_G * d)
            res_sym_u = max(res_sym_u, res)
            scale_sym = max(scale_sym, scale)
            for mat in family.B_coeffs.get(i, ()):
                (P,), d = scaled([mat])
                res, scale = _difference(G @ P, _transpose(P) @ G, d_G * d)
                res_sym_c = max(res_sym_c, res)
                scale_sym = max(scale_sym, scale)

    # B_i(u) and B_j(v) at consecutive sample points, the values at only two
    # points alive at a time
    res_comm = scale_comm = 0.0
    E = G = P = Bi = None    # free the dense ones before the walk
    for v0 in pts[1:]:
        right = at(v0)
        for i in range(order):
            for j in range(i, order):
                (a, da), (b, db) = left[i], right[j]
                res, scale = _difference(a @ b, b @ a, da * db)
                res_comm = max(res_comm, res)
                scale_comm = max(scale_comm, scale)
        left = right

    res_lower = 0.0
    for i in range(1, order + 1):
        for j, mat in enumerate(family.B_coeffs.get(i, ()), start=1):
            if j < i:
                res_lower = max(res_lower, _matrix_residual(mat))

    return {
        "commutator_pairs": res_comm,
        "commutator_with_gl": res_gl,
        "form_symmetry_at_samples": res_sym_u,
        "form_symmetry_coefficients": res_sym_c,
        "lower_coefficients": res_lower,
        "scales": {"commutator_pairs": scale_comm,
                   "commutator_with_gl": scale_gl,
                   "form_symmetry": scale_sym},
        "exact": exact_mode,
        "max_residual": max(res_comm, res_gl, res_sym_u, res_sym_c, res_lower),
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
    return max(map(_matrix_residual, diff.num)) <= 1e-9 * max(1.0, scale)
