"""Exact finite-dimensional gl(N+1) modules and their tensor products.

An irreducible highest-weight module is built in its Gelfand-Tsetlin basis,
one basis vector per pattern: the generators are given by rational formulas
in the pattern entries (A. Molev, "Gelfand-Tsetlin bases for classical Lie
algebras", arXiv:math/0211289, section 2), so every generator matrix is
rational, and the invariant form is diagonal with positive entries.
Tensor products act by the Leibniz rule and carry the product form.

A module and its form depend only on (N, partitions), not on the sites.
`shared_irreducible` and `shared_module` build and check each such key once
per process and hand every caller the same objects, so a caller must not
mutate a module, its generator matrices or its Gram matrix.  The site-free
determinant of the universal operator is shared under the same key
(`bethe_algebra.shared_pole_operator`), and so are the weight and singular
subspaces of each weight mu under the key (partitions, N, mu)
(`shared_singular_subspace`) and the restriction of that determinant to
the singular subspace (`bethe_algebra.shared_singular_poles`); none may be
mutated.  Slot matrices are
made anew on each call and are not shared.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import DimensionMismatch
from .linalg import SparseMatrix, integer_scaled, nullspace, vec_dot
from .weights import check_partition

_COMMUTATION_CHECK_MAX_DIM = 200
# keys kept per shared-module cache: 7 shapes in both factor orders, above
# the 12 tensor keys and 7 irreducibles that one workload seed uses
_SHARED_MODULES = 16


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
        """Action of e_ij in tensor slot s (identity elsewhere).  Made anew
        on each call, so that a shared module holds only its generators,
        weights and form."""
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
        return out


class SymmetricForm:
    """Invariant symmetric bilinear form given by its Gram matrix."""

    def __init__(self, gram: SparseMatrix):
        self.gram = gram

    def pairing(self, u, v):
        return vec_dot(u, self.gram.apply(v))

    def norm_square(self, u):
        return self.pairing(u, u)


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


def _gt_patterns(lam):
    """Every Gelfand-Tsetlin pattern with top row lam, as a tuple of rows:
    row k (0-based) has k + 1 entries, row k interlaces row k + 1, and the
    last row is lam."""
    patterns = [(tuple(lam),)]
    for _ in range(len(lam) - 1):
        patterns = [(row,) + rows for rows in patterns
                    for row in itertools.product(
                        *[range(rows[0][i + 1], rows[0][i] + 1)
                          for i in range(len(rows[0]) - 1)])]
    return patterns


def _gt_weight(rows):
    sums = [0] + [sum(row) for row in rows]
    return tuple(sums[k + 1] - sums[k] for k in range(len(rows)))


def _gt_moved(rows, k, i, step):
    row = list(rows[k])
    row[i] += step
    return rows[:k] + (tuple(row),) + rows[k + 1:]


def _gt_coefficient(rows, k, i, step):
    """Coefficient of _gt_moved(rows, k, i, step) in e_{k,k+1} (step +1) or
    e_{k+1,k} (step -1) applied to the vector of rows, with 0-based k and i
    (A. Molev, arXiv:math/0211289, Theorem 2.3)."""
    l = [[x - j for j, x in enumerate(row)] for row in rows]
    li = l[k][i]
    if step > 0:
        num = -math.prod(li - x for x in l[k + 1])
    else:
        num = math.prod(li - x for x in l[k - 1]) if k else 1
    return Fraction(num, math.prod(li - x for j, x in enumerate(l[k])
                                   if j != i))


def build_irreducible(lam, N):
    """Irreducible module of highest weight lam, with its invariant form.

    Returns (GlModule, SymmetricForm).  The basis is the Gelfand-Tsetlin
    basis, one vector per pattern with top row lam, ordered by weight.  The
    simple generators act by the Gelfand-Tsetlin formulas, and e_ij with
    |i - j| > 1 is a commutator of two generators closer to the diagonal.
    The contravariant form is diagonal in this basis: <hw, hw> = 1, and
    <e_{k,k+1} x, y> = <x, e_{k+1,k} y> gives the norm of each pattern from
    that of a pattern one raising step above it.
    """
    lam = check_partition(lam, N)
    rank = N + 1
    patterns = sorted(_gt_patterns(lam),
                      key=lambda rows: tuple(reversed(_gt_weight(rows))))
    index = {rows: c for c, rows in enumerate(patterns)}
    dim = len(patterns)
    weights = [_gt_weight(rows) for rows in patterns]

    acts = {}
    for i in range(1, rank + 1):
        acts[i, i] = SparseMatrix(dim, dim, {(c, c): Fraction(w[i - 1])
                                             for c, w in enumerate(weights)})
    for k in range(N):
        for step, key in ((1, (k + 1, k + 2)), (-1, (k + 2, k + 1))):
            mat = acts[key] = SparseMatrix(dim, dim)
            for c, rows in enumerate(patterns):
                for i in range(k + 1):
                    r = index.get(_gt_moved(rows, k, i, step))
                    if r is not None:
                        mat[r, c] = _gt_coefficient(rows, k, i, step)
    for gap in range(2, rank):
        for i in range(1, rank - gap + 1):
            j = i + gap
            acts[i, j] = acts[i, j - 1].commutator(acts[j - 1, j])
            acts[j, i] = acts[j, j - 1].commutator(acts[j - 1, i])
    gen_action = {(i, j): acts[i, j] for i in range(1, rank + 1)
                  for j in range(1, rank + 1)}

    hw_index = index[tuple(lam[:k + 1] for k in range(rank))]
    module = GlModule(rank, dim, weights, gen_action, hw_index=hw_index,
                      label=lam)

    # raising adds 1 to the sum of all entries, so going by decreasing sum
    # meets the pattern above before the pattern below
    norms = {hw_index: Fraction(1)}
    for c in sorted(range(dim), key=lambda c: -sum(map(sum, patterns[c]))):
        if c == hw_index:
            continue
        rows = patterns[c]
        k, r = next((k, index[up]) for k in range(N) for i in range(k + 1)
                    if (up := _gt_moved(rows, k, i, 1)) in index)
        norms[c] = (norms[r] * gen_action[k + 1, k + 2][r, c]
                    / gen_action[k + 2, k + 1][c, r])
    gram = SparseMatrix(dim, dim, {(c, c): norms[c] for c in range(dim)})
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


@functools.lru_cache(maxsize=_SHARED_MODULES)
def shared_irreducible(lam, N):
    """`build_irreducible(lam, N)`, built and checked once per process.

    lam is a padded partition tuple, as `check_partition(lam, N)` returns
    it.  The (module, form) pair is shared by every caller: do not mutate it.
    """
    return build_irreducible(lam, N)


@functools.lru_cache(maxsize=_SHARED_MODULES)
def shared_module(partitions, N):
    """(module, form) of the tensor product of the irreducibles of a tuple of
    padded partition tuples, built once per process from the shared
    irreducibles; a single partition gives its irreducible itself.  The pair
    is shared by every caller: do not mutate it."""
    pairs = [shared_irreducible(lam, N) for lam in partitions]
    if len(pairs) == 1:
        return pairs[0]
    return (tensor_module([m for m, _ in pairs]),
            tensor_shapovalov([f for _, f in pairs]))


@functools.lru_cache(maxsize=_SHARED_MODULES)
def shared_singular_subspace(partitions, N, mu):
    """`weight_and_singular_subspace(M, mu)` of M = `shared_module(partitions,
    N)`, with mu a tuple, taken once per process.  W and S are shared by
    every caller: do not mutate them."""
    return weight_and_singular_subspace(shared_module(partitions, N)[0], mu)


def weight_and_singular_subspace(M: GlModule, mu):
    """Basis matrices (columns) of the weight subspace and its singular part.

    Each column of either basis has a unit row, where it is 1 and every
    other column is 0: W's columns are the unit vectors at the weight
    positions, and S's come from `nullspace`, so column m is 1 at its free
    position and the other columns vanish there.
    `bethe_algebra.restrict_poles` restricts against S at these rows, and
    `restrict_family` reads coordinates in S there.
    """
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

