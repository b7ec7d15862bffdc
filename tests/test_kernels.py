from fractions import Fraction

import numpy as np

import oracles
from gaudin import kernels
from gaudin.master import COLLAPSE_MARGIN, GaudinProblem, SolverConfig, _disc

ANCHOR = GaudinProblem(1, [[1, 0], [1, 0]], [1], [Fraction(0), Fraction(1)])
TWOVAR = GaudinProblem(1, [[2, 0], [2, 0]], [2], [Fraction(0), Fraction(1)])
CHAIN4 = GaudinProblem(1, [[1, 0]] * 4, [2], [Fraction(k) for k in range(4)])


def random_state(rng, n, m):
    t = rng.uniform(-2, 2, n) + 1j * rng.uniform(0.5, 2, n)
    return t.astype(np.complex128)


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"


def evaluate(t, cmat, zc, A, scalar=complex):
    """psi, W, Hessian and dW at t from the kernel's scalar evaluation, as
    the kernel's sequences of scalars (rows for the matrices)."""
    layout = kernels._layout(cmat, zc, A, scalar)
    psi, W, _, _, inv = kernels._evaluate([scalar(x) for x in t], layout,
                                          0.0)
    return (psi, W) + tuple(kernels._derivatives(layout, W, inv))


def test_psi_matches_independent_gradient():
    rng = np.random.default_rng(11)
    cmat, A, zc = TWOVAR.arrays()
    for _ in range(10):
        t = random_state(rng, 2, 2)
        got = np.array(evaluate(t, cmat, zc, A)[0])
        flat = [(t[0], 0), (t[1], 0)]
        want = oracles.closed_gradient([[2, 0], [2, 0]], [2],
                                       [0.0, 1.0], flat)
        assert np.allclose(got, want, atol=1e-12)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    cmat, A, zc = TWOVAR.arrays()
    t = random_state(rng, 2, 2)
    H = np.array(evaluate(t, cmat, zc, A)[2])
    assert np.array_equal(np.array(kernels.hessian(t, cmat, zc, A)), H)
    h = 1e-6
    for b in range(2):
        e = np.zeros(2, dtype=np.complex128)
        e[b] = h
        fd = (np.array(evaluate(t + e, cmat, zc, A)[0])
              - np.array(evaluate(t - e, cmat, zc, A)[0])) / (2 * h)
        assert np.allclose(H[:, b], fd, atol=1e-5)


def test_cleared_derivative_matches_finite_differences():
    rng = np.random.default_rng(13)
    cmat, A, zc = TWOVAR.arrays()
    t = random_state(rng, 2, 2)
    dW = np.array(evaluate(t, cmat, zc, A)[3])
    h = 1e-7
    for b in range(2):
        e = np.zeros(2, dtype=np.complex128)
        e[b] = h
        up = np.array(evaluate(t + e, cmat, zc, A)[1])
        dn = np.array(evaluate(t - e, cmat, zc, A)[1])
        fd = (up - dn) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.all(np.abs(dW[:, b] - fd) / scale < 1e-5)


def test_cleared_system_grows_where_gradient_decays():
    # the raw gradient vanishes along escapes to infinity, which is exactly
    # what made |psi|-descent accept runaway iterates; the cleared form
    # q = psi * W must blow up there instead
    cmat, A, zc = ANCHOR.arrays()
    p, W, _, _ = evaluate([1e6 + 0j], cmat, zc, A)
    assert abs(p[0]) < 1e-5
    assert abs(p[0] * W[0]) > 1e5


def test_evaluation_measures_the_distance_to_sites_and_partners():
    # CHAIN4 has one group of two variables and sites 0..3
    cmat, A, zc = CHAIN4.arrays()
    layout = kernels._layout(cmat, zc, A, complex)
    t = [1.5 + 0.25j, 1.5 - 0.25j]
    assert kernels._evaluate(t, layout, 0.0)[3] == 0.5
    assert kernels._evaluate(t, layout, 0.5) is not None
    assert kernels._evaluate(t, layout, 0.51) is None
    assert kernels._evaluate([2.0 + 0j, 1.5 + 0j], layout, 0.0) is None


def test_newton_finds_anchor_root():
    cmat, A, zc = ANCHOR.arrays()
    for start in (0.1 + 0.3j, -2.0 + 1.0j, 5.0 - 4.0j):
        t0 = np.array([start], dtype=np.complex128)
        t, ok, res = kernels.newton_single(t0, cmat, zc, A)
        assert ok
        assert res < 1e-12
        assert abs(t[0] - 0.5) < 1e-10


def test_newton_two_variable_complex_pair():
    # closed form: with t2 = 1 - t1 the equations reduce to
    # 3 t^2 - 3 t + 1 = 0, so the orbit is the conjugate pair (3 +- i sqrt 3)/6
    cmat, A, zc = TWOVAR.arrays()
    rng = np.random.default_rng(21)
    found = None
    for _ in range(50):
        t0 = (rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)).astype(
            np.complex128)
        t, ok, res = kernels.newton_single(t0, cmat, zc, A)
        if ok and res < 1e-12:
            found = t
            break
    assert found is not None
    s = found[0] + found[1]
    p = found[0] * found[1]
    assert abs(s - 1.0) < 1e-9
    assert abs(p - 1.0 / 3.0) < 1e-9


def test_newton_rejects_start_on_pole():
    cmat, A, zc = ANCHOR.arrays()
    t0 = np.array([1e-12 + 0j])
    _, ok, res = kernels.newton_single(t0, cmat, zc, A)
    assert not ok
    assert res == np.inf


def test_collapse_stop_keeps_accepted_runs_bit_identical():
    # the starts of find_critical_orbits: discs of radius 2 * scale, every
    # fourth one around a site; most runs on this chain collapse onto a site
    cmat, A, zc = CHAIN4.arrays()
    scale = max(1.0, float(np.abs(zc).max()))
    collapse = COLLAPSE_MARGIN * scale
    tol = SolverConfig().tol_residual
    rng = np.random.default_rng(0)
    accepted = collapsed = 0
    for trial in range(40):
        if trial % 4 == 3:
            t0 = zc[rng.integers(0, len(zc))] + 0.9 * scale * _disc(rng, 2)
        else:
            t0 = 2.0 * scale * _disc(rng, 2)
        t, _, res = kernels.newton_single(t0, cmat, zc, A)
        tc, okc, resc = kernels.newton_single(t0, cmat, zc, A,
                                              collapse=collapse)
        close = kernels._evaluate(
            list(t), kernels._layout(cmat, zc, A, complex), collapse) is None
        if res <= tol and np.abs(t).max() <= 10.0 * scale and not close:
            accepted += 1
            assert np.array_equal(t, tc) and res == resc
        else:
            assert not okc
            if close:
                collapsed += 1
                assert resc == np.inf
    assert accepted > 0 and collapsed > 0


def test_newton_start_inside_collapse_distance_ends_unconverged():
    cmat, A, zc = CHAIN4.arrays()
    collapse = COLLAPSE_MARGIN * 3.0
    t0 = np.array([1e-7 + 0j, 1.5 + 0.5j])
    for newton in (kernels.newton_single, kernels.newton_longdouble):
        _, ok, res = newton(t0, cmat, zc, A, collapse=collapse)
        assert not ok
        assert res == np.inf
        # outside pole_margin, so only the collapse distance ends it
        assert newton(t0, cmat, zc, A, max_iter=0)[2] < np.inf


def test_newton_longdouble_refines_double_result():
    cmat, A, zc = TWOVAR.arrays()
    t0 = np.array([0.4 + 0.2j, 0.6 - 0.2j], dtype=np.complex128)
    td, okd, _ = kernels.newton_single(t0, cmat, zc, A)
    tl, okl, resl = kernels.newton_longdouble(t0, cmat, zc, A)
    assert okd and okl
    assert resl < 1e-15
    assert np.allclose(np.asarray(tl, dtype=np.complex128), td, atol=1e-10)


def test_newton_deterministic():
    cmat, A, zc = TWOVAR.arrays()
    t0 = np.array([0.4 + 0.2j, 0.6 - 0.2j], dtype=np.complex128)
    r1 = kernels.newton_single(t0, cmat, zc, A)
    r2 = kernels.newton_single(t0, cmat, zc, A)
    assert np.array_equal(r1[0], r2[0])
    assert r1[1:] == r2[1:]


def test_clongdouble_evaluations_match_complex128():
    rng = np.random.default_rng(14)
    cmat, A, zc = TWOVAR.arrays()
    for _ in range(5):
        t = random_state(rng, 2, 2)
        pairs = zip(evaluate(t, cmat, zc, A, np.clongdouble),
                    evaluate(t, cmat, zc, A))
        for got, want in pairs:
            entries = [x for row in got
                       for x in (row if isinstance(row, list) else [row])]
            assert all(type(x) is np.clongdouble for x in entries)
            got, want = np.array(got), np.array(want)
            err = np.abs(got.astype(np.complex128) - want).max()
            assert err < 1e-13 * max(1.0, np.abs(want).max())


def test_newton_longdouble_on_rank_two_instance():
    prob = GaudinProblem(2, [[2, 1, 0], [2, 1, 0]], [1, 1],
                         [Fraction(0), Fraction(1)])
    cmat, A, zc = prob.arrays()
    rng = np.random.default_rng(22)
    for _ in range(20):
        t0 = (rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)).astype(
            np.complex128)
        t, ok, res = kernels.newton_longdouble(t0, cmat, zc, A, tol=1e-15)
        if ok:
            break
    assert ok
    assert t.dtype == np.clongdouble
    assert res < 1e-15


def test_singular_jacobian_ends_the_run_unconverged():
    # the second variable has no site and no partner: psi_2 = 0 and W_2 = 1,
    # so its Jacobian row vanishes while psi_1 does not
    cmat = np.zeros((2, 2))
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    zc = np.array([0j, 1 + 0j])
    t0 = np.array([0.3 + 0.4j, 2.0 + 1.0j])
    for newton in (kernels.newton_single, kernels.newton_longdouble):
        t, ok, res = newton(t0, cmat, zc, A)
        assert not ok
        assert np.isfinite(res) and res > 0.1
        assert np.array_equal(np.asarray(t, dtype=np.complex128), t0)


def test_both_precisions_classify_the_search_starts_alike():
    # the 40 starts of find_critical_orbits on CHAIN4 (as in the collapse
    # test above): both precisions converge, collapse or fail on the same ones
    cmat, A, zc = CHAIN4.arrays()
    scale = max(1.0, float(np.abs(zc).max()))
    collapse = COLLAPSE_MARGIN * scale
    tol = SolverConfig().tol_residual
    rng = np.random.default_rng(0)
    kinds = set()
    for trial in range(40):
        if trial % 4 == 3:
            t0 = zc[rng.integers(0, len(zc))] + 0.9 * scale * _disc(rng, 2)
        else:
            t0 = 2.0 * scale * _disc(rng, 2)
        runs = [newton(t0, cmat, zc, A, collapse=collapse)
                for newton in (kernels.newton_single, kernels.newton_longdouble)]
        kind = [("inf" if res == np.inf else res <= tol) for _, _, res in runs]
        assert kind[0] == kind[1]
        kinds.add(kind[0])
        if kind[0] is True:
            td, tl = (np.asarray(t, dtype=np.complex128) for t, _, _ in runs)
            assert np.abs(td - tl).max() < 1e-10
    assert kinds == {True, "inf"}
