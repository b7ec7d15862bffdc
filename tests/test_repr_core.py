import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import gaudin
import oracles
from conftest import shared_caches
from gaudin.errors import DimensionMismatch
from gaudin.linalg import SparseMatrix
from gaudin.repr_core import (build_irreducible, tensor_module,
                              tensor_shapovalov, verify_commutation,
                              weight_and_singular_subspace)

PARTITIONS = [((1, 0), 1), ((2, 0), 1), ((3, 0), 1), ((2, 1), 1),
              ((1, 0, 0), 2), ((1, 1, 0), 2), ((2, 1, 0), 2), ((2, 2, 0), 2),
              ((2, 1, 0, 0), 3), ((2, 2, 1), 2), ((3, 1, 1, 0), 3),
              ((2, 1, 0, 0, 0), 4)]


def test_irreducible_dimensions_match_weyl():
    for lam, N in PARTITIONS:
        M, form = build_irreducible(lam, N)
        assert M.dim == oracles.weyl_dimension(lam), lam


def test_weight_multiplicities_match_gt_patterns():
    for lam, N in PARTITIONS:
        M, _ = build_irreducible(lam, N)
        want = oracles.weight_multiplicities(lam)
        got = {}
        for w in M.basis_weights:
            got[w] = got.get(w, 0) + 1
        assert got == want, lam


def test_highest_vector_weight_and_annihilation():
    for lam, N in PARTITIONS[:6]:
        M, _ = build_irreducible(lam, N)
        hw = M.highest_vector()
        assert M.basis_weights[next(iter(hw))] == lam
        for i in range(1, N + 2):
            for j in range(i + 1, N + 2):
                assert M.e(i, j).apply(hw) == {}


def test_diagonal_action_is_weight():
    M, _ = build_irreducible((2, 1, 0), 2)
    for k in range(M.dim):
        v = {k: Fraction(1)}
        for i in range(1, 4):
            out = M.e(i, i).apply(v)
            want = M.basis_weights[k][i - 1]
            assert out.get(k, 0) == want
            assert all(idx == k for idx in out)


def test_commutation_relations():
    # [e_ij, e_kl] = delta_jk e_il - delta_li e_kj on a random module sample
    rng = random.Random(3)
    M, _ = build_irreducible((2, 1, 0), 2)
    idx = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for _ in range(12):
        (i, j) = idx[rng.randrange(len(idx))]
        (k, l) = idx[rng.randrange(len(idx))]
        lhs = M.e(i, j).commutator(M.e(k, l))
        want = SparseMatrix(M.dim, M.dim)
        if j == k:
            want = want + M.e(i, l)
        if l == i:
            want = want - M.e(k, j)
        assert (lhs - want).is_zero()


def test_verify_commutation_passes():
    M, _ = build_irreducible((2, 0), 1)
    verify_commutation(M)


def test_verify_commutation_catches_each_corrupted_generator():
    """One entry of one generator changed by 1 breaks some relation; the
    unordered pair loop must see it for every generator, also for those that
    only ever come second in a pair."""
    M = tensor_module([build_irreducible((2, 1, 0), 2)[0],
                       build_irreducible((1, 0, 0), 2)[0]])
    for key, mat in list(M.gen_action.items()):
        bad = SparseMatrix(mat.nrows, mat.ncols, mat.data)
        entry = min(mat.data)
        bad[entry] = mat[entry] + 1
        M.gen_action[key] = bad
        with pytest.raises(AssertionError, match="commutation identity"):
            verify_commutation(M)
        M.gen_action[key] = mat
    verify_commutation(M)


def _up_to_scale(mat):
    first = mat.data[min(mat.data)]
    return frozenset((k, Fraction(v) / first) for k, v in mat.data.items())


@pytest.mark.parametrize("lam, N", [((2, 0), 1), ((2, 1, 0), 2),
                                    ((1, 1, 0, 0), 3)])
def test_verify_commutation_multiplies_each_unordered_pair_once(
        monkeypatch, lam, N):
    M, _ = build_irreducible(lam, N)
    r = M.rank
    # an operand is named by its entries up to a common factor, so the
    # names hold whatever denominator the generators are scaled by
    name = {_up_to_scale(mat): key for key, mat in M.gen_action.items()}
    assert len(name) == r * r
    products = []
    matmul = SparseMatrix.__matmul__

    def counting(a, b):
        products.append((name[_up_to_scale(a)], name[_up_to_scale(b)]))
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    verify_commutation(M)
    assert len(products) == r * r * (r * r - 1)
    pairs = {frozenset(p) for p in products}
    assert len(pairs) == r * r * (r * r - 1) // 2
    assert all(len(p) == 2 for p in pairs)
    assert len(set(products)) == len(products)


def _contravariant(form, M):
    """Gram e_ij == e_ji^T Gram for all generator pairs (exact)."""
    for i in range(1, M.rank + 1):
        for j in range(1, M.rank + 1):
            lhs = form.gram @ M.e(i, j)
            rhs = M.e(j, i).transpose() @ form.gram
            if not (lhs - rhs).is_zero():
                return False
    return True


def test_shapovalov_contravariance_and_normalization():
    for lam, N in PARTITIONS:
        M, form = build_irreducible(lam, N)
        assert _contravariant(form, M), lam
        hw = M.highest_vector()
        assert form.norm_square(hw) == Fraction(1)
        # the Gelfand-Tsetlin basis is orthogonal: a diagonal, positive Gram
        assert sorted(form.gram.data) == [(k, k) for k in range(M.dim)], lam
        assert all(v > 0 for v in form.gram.data.values()), lam


def test_shapovalov_contravariance_explicit():
    # <e_ij x, y> = <x, e_ji y> on random vectors
    rng = random.Random(9)
    M, form = build_irreducible((2, 1, 0), 2)
    for _ in range(6):
        x = {rng.randrange(M.dim): Fraction(rng.randint(1, 5))}
        y = {rng.randrange(M.dim): Fraction(rng.randint(1, 5))}
        for (i, j) in [(1, 2), (2, 3), (1, 3), (2, 1), (3, 2)]:
            lhs = form.pairing(M.e(i, j).apply(x), y)
            rhs = form.pairing(x, M.e(j, i).apply(y))
            assert lhs == rhs


def test_tensor_module_dimensions_and_weights():
    M1, f1 = build_irreducible((1, 0, 0), 2)
    M2, f2 = build_irreducible((1, 1, 0), 2)
    M = tensor_module([M1, M2])
    assert M.dim == 9
    want = oracles.tensor_weight_multiplicities([(1, 0, 0), (1, 1, 0)])
    got = {}
    for w in M.basis_weights:
        got[w] = got.get(w, 0) + 1
    assert got == want


def test_tensor_rank_mismatch_rejected():
    M1, _ = build_irreducible((1, 0), 1)
    M2, _ = build_irreducible((1, 0, 0), 2)
    with pytest.raises(DimensionMismatch):
        tensor_module([M1, M2])


def test_slot_matrix_leibniz():
    M1, _ = build_irreducible((1, 0), 1)
    M = tensor_module([M1, M1])
    total = M.slot_matrix(0, 2, 1) + M.slot_matrix(1, 2, 1)
    assert (total - M.e(2, 1)).is_zero()


def test_singular_subspace_dimensions_match_oracle():
    cases = [([(1, 0), (1, 0)], (1,), 1),
             ([(2, 0), (2, 0)], (2,), 1),
             ([(1, 0, 0), (1, 1, 0)], (1, 1), 2),
             ([(2, 1, 0), (2, 1, 0)], (1, 1), 2)]
    from gaudin.weights import derive_infinity_weight
    for parts, l, N in cases:
        mods = [build_irreducible(lam, N) for lam in parts]
        M = tensor_module([m for m, _ in mods])
        mu = derive_infinity_weight(parts, l, N)
        W, S = weight_and_singular_subspace(M, mu)
        want = oracles.singular_dimension(parts, mu)
        assert S.ncols == want, (parts, l)
        want_wt = oracles.tensor_weight_multiplicities(parts).get(tuple(mu), 0)
        assert W.ncols == want_wt


def test_singular_columns_are_singular():
    M1, f1 = build_irreducible((1, 0), 1)
    M = tensor_module([M1, M1])
    W, S = weight_and_singular_subspace(M, (1, 1))
    assert S.ncols == 1
    col = {r: v for (r, c), v in S.data.items() if c == 0}
    assert M.e(1, 2).apply(col) == {}


def test_tensor_shapovalov_is_product():
    M1, f1 = build_irreducible((1, 0), 1)
    form = tensor_shapovalov([f1, f1])
    # <fv (x) v, fv (x) v> = <fv,fv> <v,v> = 1
    M = tensor_module([M1, M1])
    fv = M1.e(2, 1).apply(M1.highest_vector())
    k1 = next(iter(fv))
    vec = {k1 * M1.dim + M1.hw_index: Fraction(1)}
    assert form.norm_square(vec) == f1.norm_square(fv) * Fraction(1)


def test_the_cache_helper_clears_every_cache_of_the_package():
    """`fresh_modules` empties every per-process cache of the package, found
    by name: a cache it missed would carry state from one test into the
    next, and make a count or a traced layer depend on test order."""
    caches = {id(fn) for fn in shared_caches()}
    modules = [importlib.import_module(f"gaudin.{info.name}")
               for info in pkgutil.iter_modules(gaudin.__path__)
               if info.name != "__main__"]
    missed = [f"{mod.__name__}.{name}" for mod in modules
              for name, fn in vars(mod).items()
              if hasattr(fn, "cache_clear") and id(fn) not in caches]
    assert not missed, missed
    assert {fn.__name__ for fn in shared_caches()} >= {
        "shared_irreducible", "shared_module", "shared_singular_subspace",
        "shared_pole_operator", "shared_singular_poles"}
