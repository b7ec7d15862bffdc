"""Numeric kernel for the critical-point search.

The gradient of the logarithm of the master function and its Hessian are
evaluated on flat complex arrays.  Newton iteration runs on the pole-cleared
polynomial form of the equations, q_a = psi_a * W_a with W_a the product of
the linear factors appearing in psi_a's denominators: psi itself decays along
escapes to infinity (which would make runaways look converged), while |q|
grows there, so the cleared system only converges to genuine finite roots.

There is one vectorized numpy Newton loop.  Its precision is a parameter:
complex128 (`newton_single`) or clongdouble (`newton_longdouble`).  Only the
linear solve depends on it, because LAPACK has no extended-precision solve.

Runs that collapse onto a site or onto a partner variable are the common
failure: the iterates creep towards the pole, where the leading pole terms of
psi cancel, and can even pass the residual test there.  The caller passes an
absolute `collapse` distance (`master.COLLAPSE_MARGIN` * max(1, max|z|) in
the orbit search); a start or an accepted iterate that close ends the run
unconverged with residual inf, as a start inside `pole_margin` does.  The
search rejected such points anyway, so ending early only drops wasted steps.

Data layout:
    t     complex[n]           current variable values (all groups flattened)
    cmat  float[n, n]          pair coefficients: 2 same group, -1 adjacent
                               groups, 0 otherwise; symmetric, zero diagonal
    z     complex[m]           site positions
    A     float[n, m]          site exponents per variable
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def psi(t, cmat, z, A):
    """Gradient of log of the master function."""
    D = t[:, None] - t[None, :]
    np.fill_diagonal(D, 1.0)
    pair = (cmat / D).sum(axis=1)
    P = t[:, None] - z[None, :]
    site = (A / P).sum(axis=1)
    return pair - site


def hessian(t, cmat, z, A):
    D = t[:, None] - t[None, :]
    np.fill_diagonal(D, 1.0)
    off = cmat / (D * D)
    P = t[:, None] - z[None, :]
    diag = -off.sum(axis=1) + (A / (P * P)).sum(axis=1)
    H = off.astype(diag.dtype)
    np.fill_diagonal(H, diag)
    return H


def _too_close(t, cmat, z, margin):
    """Whether some variable is within margin of a site or of a partner."""
    if (np.abs(t[:, None] - z[None, :]) < margin).any():
        return True
    n = t.shape[0]
    for a in range(n):
        for b in range(a + 1, n):
            if cmat[a, b] != 0.0 and abs(t[a] - t[b]) < margin:
                return True
    return False


def _cleared(t, cmat, z, A):
    """W_a = product of the linear factors under psi_a, and dW_a/dt_b."""
    D = t[:, None] - t[None, :]
    np.fill_diagonal(D, 1.0)
    pair_mask = cmat != 0.0
    P = t[:, None] - z[None, :]
    site_mask = A != 0.0
    W = (np.where(pair_mask, D, 1.0).prod(axis=1)
         * np.where(site_mask, P, 1.0).prod(axis=1))
    inv_pair = np.where(pair_mask, 1.0 / D, 0.0)
    inv_site = np.where(site_mask, 1.0 / P, 0.0)
    dW = -W[:, None] * inv_pair
    np.fill_diagonal(dW, W * (inv_pair.sum(axis=1) + inv_site.sum(axis=1)))
    return W, dW


def _solve_longdouble(H, rhs):
    """Gaussian elimination with partial pivoting for clongdouble systems."""
    n = H.shape[0]
    M = np.concatenate([H, rhs[:, None]], axis=1).astype(np.clongdouble)
    for col in range(n):
        p = col + int(np.argmax(np.abs(M[col:, col])))
        if np.abs(M[p, col]) == 0:
            raise np.linalg.LinAlgError("singular matrix")
        if p != col:
            M[[col, p]] = M[[p, col]]
        M[col] = M[col] / M[col, col]
        for r in range(n):
            if r != col and M[r, col] != 0:
                M[r] = M[r] - M[r, col] * M[col]
    return M[:, n]


def _newton(t0, cmat, z, A, max_iter, tol, pole_margin, collapse, dtype):
    """Damped Newton on the cleared system; returns (t, converged, residual).

    The reported residual is the max gradient component |psi|, but steps and
    the line search use q = psi * W, whose modulus grows at infinity.  A
    singular Jacobian ends the run unconverged.  A start or accepted iterate
    within `collapse` of a site or a partner variable ends the run with
    residual inf, like a start inside `pole_margin`; `collapse=0` never does.
    """
    solve = np.linalg.solve if dtype == np.complex128 else _solve_longdouble
    t = np.array(t0, dtype=dtype)
    if _too_close(t, cmat, z, max(pole_margin, collapse)):
        return t, False, np.inf
    p = psi(t, cmat, z, A)
    W, dW = _cleared(t, cmat, z, A)
    q = p * W
    qn = float(np.abs(q).max())
    res = float(np.abs(p).max())
    for _ in range(max_iter):
        if res < tol:
            return t, True, res
        J = W[:, None] * hessian(t, cmat, z, A) + p[:, None] * dW
        try:
            step = solve(J, -q)
        except np.linalg.LinAlgError:
            return t, False, res
        alpha = 1.0
        for _bt in range(40):
            cand = t + alpha * step
            if not _too_close(cand, cmat, z, pole_margin):
                cp = psi(cand, cmat, z, A)
                cW, cdW = _cleared(cand, cmat, z, A)
                cq = cp * cW
                cqn = float(np.abs(cq).max())
                if cqn < qn or float(np.abs(cp).max()) < tol:
                    t, p, W, dW, q, qn = cand, cp, cW, cdW, cq, cqn
                    res = float(np.abs(p).max())
                    break
            alpha *= 0.5
        else:
            return t, False, res
        if _too_close(t, cmat, z, collapse):
            return t, False, np.inf
    return t, res < tol, res


def newton_single(t0, cmat, z, A, max_iter=200, tol=1e-12, pole_margin=1e-8,
                  collapse=0.0):
    """One Newton run in double precision."""
    return _newton(t0, cmat, z, A, max_iter, tol, pole_margin, collapse,
                   np.complex128)


def newton_longdouble(t0, cmat, z, A, max_iter=200, tol=1e-12,
                      pole_margin=1e-8, collapse=0.0):
    """One Newton run in extended precision (clongdouble)."""
    return _newton(t0, cmat, z, A, max_iter, tol, pole_margin, collapse,
                   np.clongdouble)
