from fractions import Fraction

import numpy as np

import oracles
from gaudin import kernels
from gaudin.master import COLLAPSE_MARGIN, GaudinProblem, SolverConfig, _disc
from gaudin.scalars import QI

ANCHOR = GaudinProblem(1, [[1, 0], [1, 0]], [1], [Fraction(0), Fraction(1)])
TWOVAR = GaudinProblem(1, [[2, 0], [2, 0]], [2], [Fraction(0), Fraction(1)])
CHAIN4 = GaudinProblem(1, [[1, 0]] * 4, [2], [Fraction(k) for k in range(4)])


def random_state(rng, n, m):
    t = rng.uniform(-2, 2, n) + 1j * rng.uniform(0.5, 2, n)
    return t.astype(np.complex128)


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"


def layout(problem):
    """The problem's pole layout and its sites as a complex array."""
    return problem.poles, np.array([complex(x) for x in problem.z])


def evaluate(t, poles, zc, scalar=complex):
    """psi, W, Hessian and dW at t from the kernel's scalar evaluation, as
    the kernel's sequences of scalars (rows for the matrices)."""
    psi, W, _, _, inv = kernels.evaluate([scalar(x) for x in t], poles,
                                         [scalar(x) for x in zc], 0.0)
    return (psi, W) + kernels.derivatives(poles, W, inv)


def test_psi_matches_independent_gradient():
    rng = np.random.default_rng(11)
    poles, zc = layout(TWOVAR)
    for _ in range(10):
        t = random_state(rng, 2, 2)
        got = np.array(evaluate(t, poles, zc)[0])
        flat = [(t[0], 0), (t[1], 0)]
        want = oracles.closed_gradient([[2, 0], [2, 0]], [2],
                                       [0.0, 1.0], flat)
        assert np.allclose(got, want, atol=1e-12)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    poles, zc = layout(TWOVAR)
    t = random_state(rng, 2, 2)
    H = np.array(evaluate(t, poles, zc)[2])
    h = 1e-6
    for b in range(2):
        e = np.zeros(2, dtype=np.complex128)
        e[b] = h
        fd = (np.array(evaluate(t + e, poles, zc)[0])
              - np.array(evaluate(t - e, poles, zc)[0])) / (2 * h)
        assert np.allclose(H[:, b], fd, atol=1e-5)


def test_cleared_derivative_matches_finite_differences():
    rng = np.random.default_rng(13)
    poles, zc = layout(TWOVAR)
    t = random_state(rng, 2, 2)
    dW = np.array(evaluate(t, poles, zc)[3])
    h = 1e-7
    for b in range(2):
        e = np.zeros(2, dtype=np.complex128)
        e[b] = h
        up = np.array(evaluate(t + e, poles, zc)[1])
        dn = np.array(evaluate(t - e, poles, zc)[1])
        fd = (up - dn) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.all(np.abs(dW[:, b] - fd) / scale < 1e-5)


def test_evaluation_stays_exact_over_fractions_and_gaussian_rationals():
    # every pole of TWOVAR has k != 0, so each entry below is computed
    for t, kind in (([Fraction(1, 3), Fraction(-1, 2)], Fraction),
                    ([QI(1, 1), QI(Fraction(1, 2), -2)], QI)):
        psi, W, q, _, inv = kernels.evaluate(t, TWOVAR.poles, TWOVAR.z)
        H, dW = kernels.derivatives(TWOVAR.poles, W, inv)
        for x in [*psi, *W, *q, *H[0], *H[1], *dW[0], *dW[1]]:
            assert type(x) is kind
        want = evaluate([complex(x) for x in t], *layout(TWOVAR))
        for got, ref in zip((psi, W, H, dW), want):
            assert np.allclose(np.array(got, dtype=complex), ref, atol=1e-12)


def test_cleared_system_grows_where_gradient_decays():
    # the raw gradient vanishes along escapes to infinity, which is exactly
    # what made |psi|-descent accept runaway iterates; the cleared form
    # q = psi * W must blow up there instead
    poles, zc = layout(ANCHOR)
    p, W, _, _ = evaluate([1e6 + 0j], poles, zc)
    assert abs(p[0]) < 1e-5
    assert abs(p[0] * W[0]) > 1e5


def test_evaluation_measures_the_distance_to_sites_and_partners():
    # CHAIN4 has one group of two variables and sites 0..3
    poles, zc = layout(CHAIN4)
    z = list(zc)
    t = [1.5 + 0.25j, 1.5 - 0.25j]
    assert kernels.evaluate(t, poles, z, 0.0)[3] == 0.5
    assert kernels.evaluate(t, poles, z, 0.5) is not None
    assert kernels.evaluate(t, poles, z, 0.51) is None
    assert kernels.evaluate([2.0 + 0j, 1.5 + 0j], poles, z, 0.0) is None


def test_newton_finds_anchor_root():
    poles, zc = layout(ANCHOR)
    for start in (0.1 + 0.3j, -2.0 + 1.0j, 5.0 - 4.0j):
        t0 = np.array([start], dtype=np.complex128)
        t, ok, res = kernels.newton_single(t0, poles, zc)
        assert ok
        assert res < 1e-12
        assert abs(t[0] - 0.5) < 1e-10


def test_newton_two_variable_complex_pair():
    # closed form: with t2 = 1 - t1 the equations reduce to
    # 3 t^2 - 3 t + 1 = 0, so the orbit is the conjugate pair (3 +- i sqrt 3)/6
    poles, zc = layout(TWOVAR)
    rng = np.random.default_rng(21)
    found = None
    for _ in range(50):
        t0 = (rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)).astype(
            np.complex128)
        t, ok, res = kernels.newton_single(t0, poles, zc)
        if ok and res < 1e-12:
            found = t
            break
    assert found is not None
    s = found[0] + found[1]
    p = found[0] * found[1]
    assert abs(s - 1.0) < 1e-9
    assert abs(p - 1.0 / 3.0) < 1e-9


def test_newton_rejects_start_on_pole():
    poles, zc = layout(ANCHOR)
    t0 = np.array([1e-12 + 0j])
    _, ok, res = kernels.newton_single(t0, poles, zc)
    assert not ok
    assert res == np.inf


def test_collapse_stop_keeps_accepted_runs_bit_identical():
    # the starts of find_critical_orbits: discs of radius 2 * scale, every
    # fourth one around a site; most runs on this chain collapse onto a site
    poles, zc = layout(CHAIN4)
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
        t, _, res = kernels.newton_single(t0, poles, zc)
        tc, okc, resc = kernels.newton_single(t0, poles, zc,
                                              collapse=collapse)
        close = kernels.evaluate(list(t), poles, list(zc), collapse) is None
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
    poles, zc = layout(CHAIN4)
    collapse = COLLAPSE_MARGIN * 3.0
    t0 = np.array([1e-7 + 0j, 1.5 + 0.5j])
    for newton in (kernels.newton_single, kernels.newton_longdouble):
        _, ok, res = newton(t0, poles, zc, collapse=collapse)
        assert not ok
        assert res == np.inf
        # outside pole_margin, so only the collapse distance ends it
        assert newton(t0, poles, zc, max_iter=0)[2] < np.inf


def test_newton_longdouble_refines_double_result():
    poles, zc = layout(TWOVAR)
    t0 = np.array([0.4 + 0.2j, 0.6 - 0.2j], dtype=np.complex128)
    td, okd, _ = kernels.newton_single(t0, poles, zc)
    tl, okl, resl = kernels.newton_longdouble(t0, poles, zc)
    assert okd and okl
    assert resl < 1e-15
    assert np.allclose(np.asarray(tl, dtype=np.complex128), td, atol=1e-10)


def test_newton_deterministic():
    poles, zc = layout(TWOVAR)
    t0 = np.array([0.4 + 0.2j, 0.6 - 0.2j], dtype=np.complex128)
    r1 = kernels.newton_single(t0, poles, zc)
    r2 = kernels.newton_single(t0, poles, zc)
    assert np.array_equal(r1[0], r2[0])
    assert r1[1:] == r2[1:]


def test_clongdouble_evaluations_match_complex128():
    rng = np.random.default_rng(14)
    poles, zc = layout(TWOVAR)
    for _ in range(5):
        t = random_state(rng, 2, 2)
        pairs = zip(evaluate(t, poles, zc, np.clongdouble),
                    evaluate(t, poles, zc))
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
    poles, zc = layout(prob)
    rng = np.random.default_rng(22)
    for _ in range(20):
        t0 = (rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)).astype(
            np.complex128)
        t, ok, res = kernels.newton_longdouble(t0, poles, zc, tol=1e-15)
        if ok:
            break
    assert ok
    assert t.dtype == np.clongdouble
    assert res < 1e-15


def test_singular_jacobian_ends_the_run_unconverged():
    # the second variable has no site and no partner: psi_2 = 0 and W_2 = 1,
    # so its Jacobian row vanishes while psi_1 does not
    poles = [[(2, -1), (3, -1)], [(2, 0), (3, 0)]]
    zc = np.array([0j, 1 + 0j])
    t0 = np.array([0.3 + 0.4j, 2.0 + 1.0j])
    for newton in (kernels.newton_single, kernels.newton_longdouble):
        t, ok, res = newton(t0, poles, zc)
        assert not ok
        assert np.isfinite(res) and res > 0.1
        assert np.array_equal(np.asarray(t, dtype=np.complex128), t0)


def test_both_precisions_classify_the_search_starts_alike():
    # the 40 starts of find_critical_orbits on CHAIN4 (as in the collapse
    # test above): both precisions converge, collapse or fail on the same ones
    poles, zc = layout(CHAIN4)
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
        runs = [newton(t0, poles, zc, collapse=collapse)
                for newton in (kernels.newton_single, kernels.newton_longdouble)]
        kind = [("inf" if res == np.inf else res <= tol) for _, _, res in runs]
        assert kind[0] == kind[1]
        kinds.add(kind[0])
        if kind[0] is True:
            td, tl = (np.asarray(t, dtype=np.complex128) for t, _, _ in runs)
            assert np.abs(td - tl).max() < 1e-10
    assert kinds == {True, "inf"}
