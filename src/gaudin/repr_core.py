"""Exact finite-dimensional gl(N+1) modules and their tensor products.

Irreducible highest-weight modules are realized inside tensor powers of the
defining (N+1)-dimensional representation: the highest weight vector is the
product of column antisymmetrizers of the Young diagram, and the module is the
closure of that vector under the simple lowering generators, tracked with
exact rational arithmetic.  This keeps every generator matrix rational and
makes the invariant-form Gram matrix positive definite.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DimensionMismatch
from .linalg import (Coordinates, IncrementalSpan, SparseMatrix,
                     integer_scaled, nullspace, vec_dot)
from .weights import check_partition, conjugate_partition

_COMMUTATION_CHECK_MAX_DIM = 200


class GlModule:
    """Weight-graded gl(N+1)-module with exact generator matrices.

    gen_action maps 1-based generator index pairs (i, j) to the sparse matrix
    of e_ij on the chosen basis.  For tensor modules, `factors` retains the
    tensor factors so that per-slot actions can be reconstructed.
    """

    def __init__(self, rank, dim, basis_weights, gen_action, hw_index=None,
                 factors=None, label=None):
        self.rank = rank            # N+1
        self.dim = dim
        self.basis_weights = basis_weights
        self.gen_action = gen_action
        self.hw_index = hw_index
        self.factors = factors if factors is not None else [self]
        self.label = label
        self._slot_cache = {}
        self._weight_positions = {}
        for k, w in enumerate(basis_weights):
            self._weight_positions.setdefault(w, []).append(k)

    @property
    def N(self):
        return self.rank - 1

    def e(self, i, j) -> SparseMatrix:
        return self.gen_action[(i, j)]

    def weight_positions(self, mu):
        return self._weight_positions.get(tuple(mu), [])

    def highest_vector(self):
        return {self.hw_index: Fraction(1)}

    def slot_matrix(self, s, i, j) -> SparseMatrix:
        """Action of e_ij in tensor slot s (identity elsewhere)."""
        key = (s, i, j)
        cached = self._slot_cache.get(key)
        if cached is not None:
            return cached
        dims = [f.dim for f in self.factors]
        left = 1
        for d in dims[:s]:
            left *= d
        right = 1
        for d in dims[s + 1:]:
            right *= d
        fm = self.factors[s].e(i, j)
        out = SparseMatrix(self.dim, self.dim)
        for (r, c), v in fm.data.items():
            for a in range(left):
                base_r = (a * dims[s] + r) * right
                base_c = (a * dims[s] + c) * right
                for b in range(right):
                    out[base_r + b, base_c + b] = v
        self._slot_cache[key] = out
        return out


class SymmetricForm:
    """Invariant symmetric bilinear form given by its Gram matrix."""

    def __init__(self, gram: SparseMatrix):
        self.gram = gram

    def pairing(self, u, v):
        return vec_dot(u, self.gram.apply(v))

    def norm_square(self, u):
        return self.pairing(u, u)


def _apply_tensor_generator(vec, i, j, m, base):
    """e_ij acting on a dict-vector in the m-fold tensor power of the defining
    representation (indices are base-(N+1) digit strings, slot 0 most significant)."""
    if m == 0:
        return {}
    out = {}
    src = j - 1
    dst = i - 1
    for idx, c in vec.items():
        rem = idx
        digits = [0] * m
        for s in range(m - 1, -1, -1):
            digits[s] = rem % base
            rem //= base
        for s in range(m):
            if digits[s] == src:
                nidx = idx + (dst - src) * base ** (m - 1 - s)
                cur = out.get(nidx)
                nc = c if cur is None else cur + c
                if nc:
                    out[nidx] = nc
                else:
                    out.pop(nidx, None)
    return out


def _column_antisymmetrizer(height, base):
    """sum over permutations of sign * e_{pi(1)} x ... x e_{pi(height)}."""
    out = {}
    for perm in itertools.permutations(range(height)):
        inv = sum(1 for a in range(height) for b in range(a + 1, height)
                  if perm[a] > perm[b])
        idx = 0
        for d in perm:
            idx = idx * base + d
        out[idx] = Fraction(-1 if inv % 2 else 1)
    if height == 0:
        out[0] = Fraction(1)
    return out


def _kron_vec(u, v, vdim):
    if not u or not v:
        return {}
    return {iu * vdim + iv: cu * cv for iu, cu in u.items() for iv, cv in v.items()}


def verify_commutation(M: GlModule):
    """Exhaustively check [e_ij, e_sk] = delta_js e_ik - delta_ik e_sj.

    Both sides change sign when the two generators swap, and a generator
    commutes with itself, so every unordered pair of distinct generators is
    checked once: r^2 (r^2 - 1) matrix products for rank r.  The generators
    are scaled to integer matrices over one common denominator d, and
    e_ij e_sk + delta_ik d e_sj == e_sk e_ij + delta_js d e_ik is compared
    by dict equality of the exact entries.
    """
    keys = [(i, j) for i in range(1, M.rank + 1)
            for j in range(1, M.rank + 1)]
    mats, d = integer_scaled([M.e(i, j) for i, j in keys])
    E = dict(zip(keys, mats))
    for a, (i, j) in enumerate(keys):
        A = E[i, j]
        for s, k in keys[a + 1:]:
            B = E[s, k]
            lhs = A @ B
            rhs = B @ A
            if i == k:
                lhs = lhs + E[s, j].scale(d)
            if j == s:
                rhs = rhs + E[i, k].scale(d)
            if lhs.data != rhs.data:
                raise AssertionError(
                    f"commutation identity fails for e_{i}{j}, e_{s}{k}")


def build_irreducible(lam, N):
    """Irreducible module of highest weight lam, with its invariant form.

    Returns (GlModule, SymmetricForm).  When lam has a nonzero last part c,
    the module for lam - (c,...,c) is built and the diagonal action shifted,
    which leaves the form untouched.
    """
    lam = check_partition(lam, N)
    base = N + 1
    shift = lam[-1]
    core = tuple(x - shift for x in lam)
    m = sum(core)

    hw = _column_antisymmetrizer(0, base) if m == 0 else None
    if m > 0:
        cols = conjugate_partition(core)
        hw = {0: Fraction(1)}
        cur_dim = 1
        for h in cols:
            col = _column_antisymmetrizer(h, base)
            hw = _kron_vec(hw, col, base ** h)
            cur_dim *= base ** h
        assert cur_dim == base ** m

    vectors = [hw]
    vweights = [core]
    span = IncrementalSpan(base ** m)
    span.add(dict(hw))
    head = 0
    while head < len(vectors):
        v = vectors[head]
        wt = vweights[head]
        head += 1
        for i in range(1, N + 1):
            w = _apply_tensor_generator(v, i + 1, i, m, base)
            if w and span.add(dict(w)):
                vectors.append(w)
                nw = list(wt)
                nw[i - 1] -= 1
                nw[i] += 1
                vweights.append(tuple(nw))

    order = sorted(range(len(vectors)),
                   key=lambda k: tuple(reversed(vweights[k])))
    vectors = [vectors[k] for k in order]
    vweights = [vweights[k] for k in order]
    dim = len(vectors)
    hw_index = next(k for k in range(dim) if vweights[k] == core)

    by_weight = {}
    for k, w in enumerate(vweights):
        by_weight.setdefault(w, []).append(k)
    coords = {w: (Coordinates([vectors[k] for k in positions], base ** m),
                  positions)
              for w, positions in by_weight.items()}

    gen_action = {}
    for i in range(1, N + 2):
        for j in range(1, N + 2):
            mat = SparseMatrix(dim, dim)
            if i == j:
                for k, w in enumerate(vweights):
                    val = w[i - 1] + shift
                    if val:
                        mat[k, k] = Fraction(val)
            else:
                for k in range(dim):
                    img = _apply_tensor_generator(vectors[k], i, j, m, base)
                    if not img:
                        continue
                    tw = list(vweights[k])
                    tw[i - 1] += 1
                    tw[j - 1] -= 1
                    tw = tuple(tw)
                    entry = coords.get(tw)
                    assert entry is not None, "image outside the weight grading"
                    in_basis, positions = entry
                    x, rest = in_basis(img)
                    assert not rest, "image escaped the module span"
                    for c, val in x.items():
                        mat[positions[c], k] = val
            gen_action[(i, j)] = mat

    weights_full = [tuple(w[a] + shift for a in range(base)) for w in vweights]
    module = GlModule(base, dim, weights_full, gen_action,
                      hw_index=hw_index, label=lam)

    hw_norm = vec_dot(vectors[hw_index], vectors[hw_index])
    gram = SparseMatrix(dim, dim)
    for a in range(dim):
        va = vectors[a]
        for b in range(a, dim):
            if vweights[a] != vweights[b]:
                continue
            val = vec_dot(va, vectors[b]) / hw_norm
            if val:
                gram[a, b] = val
                if a != b:
                    gram[b, a] = val
    if dim <= _COMMUTATION_CHECK_MAX_DIM:
        verify_commutation(module)
    return module, SymmetricForm(gram)


def tensor_module(factors):
    """Tensor product module; generators act by the Leibniz rule."""
    if not factors:
        raise ValueError("need at least one tensor factor")
    rank = factors[0].rank
    for f in factors:
        if f.rank != rank:
            raise DimensionMismatch("tensor factors of different rank")
    dims = [f.dim for f in factors]
    dim = 1
    for d in dims:
        dim *= d

    basis_weights = []
    for combo in itertools.product(*[range(d) for d in dims]):
        w = [0] * rank
        for s, k in enumerate(combo):
            for a in range(rank):
                w[a] += factors[s].basis_weights[k][a]
        basis_weights.append(tuple(w))

    hw_index = 0
    for s, f in enumerate(factors):
        hw_index = hw_index * dims[s] + f.hw_index

    out = GlModule(rank, dim, basis_weights, {}, hw_index=hw_index,
                   factors=list(factors))
    gen_action = {}
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            acc = SparseMatrix(dim, dim)
            for s in range(len(factors)):
                acc = acc + out.slot_matrix(s, i, j)
            gen_action[(i, j)] = acc
    out.gen_action = gen_action
    if dim <= _COMMUTATION_CHECK_MAX_DIM:
        verify_commutation(out)
    return out


def tensor_shapovalov(forms):
    """Kronecker product of the factor Gram matrices."""
    if not forms:
        raise ValueError("need at least one form")
    gram = forms[0].gram
    for f in forms[1:]:
        gram = gram.kron(f.gram)
    return SymmetricForm(gram)


def weight_and_singular_subspace(M: GlModule, mu):
    """Basis matrices (columns) of the weight subspace and its singular part."""
    mu = tuple(mu)
    positions = M.weight_positions(mu)
    W = SparseMatrix(M.dim, len(positions))
    for c, k in enumerate(positions):
        W[k, c] = Fraction(1)
    if not positions:
        return W, SparseMatrix(M.dim, 0)

    raisers = [(i, j) for i in range(1, M.rank + 1)
               for j in range(i + 1, M.rank + 1)]
    nloc = len(positions)
    A = SparseMatrix(M.dim * len(raisers), nloc)
    for b, (i, j) in enumerate(raisers):
        E = M.e(i, j)
        cols = {}
        for (r, k), v in E.data.items():
            cols.setdefault(k, []).append((r, v))
        for c, k in enumerate(positions):
            for r, v in cols.get(k, ()):
                A[b * M.dim + r, c] = v
    kernel = nullspace(A)
    S = SparseMatrix(M.dim, len(kernel))
    for c, coeffs in enumerate(kernel):
        for loc, v in coeffs.items():
            S[positions[loc], c] = v
    return W, S


def columns_of(mat: SparseMatrix):
    """The columns of a basis matrix as dict-vectors."""
    cols = [dict() for _ in range(mat.ncols)]
    for (i, j), v in mat.data.items():
        cols[j][i] = v
    return cols


def check_contravariance(form: SymmetricForm, M: GlModule):
    """Gram e_ij == e_ji^T Gram for all generator pairs (exact)."""
    for i in range(1, M.rank + 1):
        for j in range(1, M.rank + 1):
            lhs = form.gram @ M.e(i, j)
            rhs = M.e(j, i).transpose() @ form.gram
            if not (lhs - rhs).is_zero():
                return False
    return True
