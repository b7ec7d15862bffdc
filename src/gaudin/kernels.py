"""The gradient of the log master function, its Hessian and the Newton
kernel of the critical-point search.

Newton iteration runs on the pole-cleared polynomial form of the equations,
q_a = psi_a * W_a, with psi the gradient of the logarithm of the master
function and W_a the product of the linear factors appearing in psi_a's
denominators: psi itself decays along escapes to infinity (which would make
runaways look converged), while |q| grows there, so the cleared system only
converges to genuine finite roots.

There is one Newton loop over Python scalars (numpy's per-call overhead on
arrays of a few variables costs more than the arithmetic); its precision is
the scalar type, `complex` (`newton_single`) or `np.clongdouble`
(`newton_longdouble`).  `linalg.solve` solves the Jacobian.

Runs that collapse onto a site or onto a partner variable are the common
failure: the iterates creep towards the pole, where the leading pole terms of
psi cancel, and can even pass the residual test there.  A start or accepted
iterate within the caller's `collapse` distance (`master.COLLAPSE_MARGIN` *
max(1, max|z|) in the orbit search) of a site or a partner ends the run
unconverged with residual inf, as a start inside `pole_margin` does.

The pole layout (`GaudinProblem.poles`): for each flattened variable a, the
pairs (j, k) with psi_a = sum of k / (t_a - x_j), where x is the variables
followed by the sites and k an int: 2 for a partner in the same group, -1 for
one in an adjacent group, -A_as for site s.  Partners come first by index,
then the sites of nonzero exponent, then those of exponent 0, whose k = 0
adds nothing to psi and which only bound the distances.  `evaluate` and
`derivatives` are the only code computing psi, W, q and the Hessian; they
take `complex`, `np.clongdouble`, `Fraction` and `QI` values alike, so the
exact gradient and Hessian of `master` read the same layout.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import solve


def backend_name() -> str:
    return "numpy"


def evaluate(t, poles, z, margin=0):
    """(psi, W, q, near, inv) at t; None when a variable lies within `margin`
    of a site or a partner, or on one of nonzero k.  near is the smallest
    such distance; inv[a] lists 1/(t_a - x_j) over the poles of t_a with
    k != 0."""
    x = [*t, *z]
    near = math.inf
    rows = []
    for ta, tpoles in zip(t, poles):
        g, w, ra = 0, 1, []
        for j, k in tpoles:
            d = ta - x[j]
            dist = abs(d)
            if dist < margin or (k and not dist):
                return None
            if dist < near:
                near = dist
            if k:
                w *= d
                r = 1 / d
                g += k * r
                ra.append(r)
        rows.append((g, w, g * w, ra))
    psi, W, q, inv = zip(*rows) if rows else ((),) * 4
    return psi, W, q, near, inv


def derivatives(poles, W, inv):
    """(Hessian of the log master function, dW_a/dt_b), each as rows."""
    n = len(W)
    H, dW = [], []
    for a, (w, ra) in enumerate(zip(W, inv)):
        h, dw = [0] * n, [0] * n
        for (j, k), r in zip(poles[a], ra):
            h[a] -= k * r * r
            dw[a] += r
            if j < n:
                h[j] = k * r * r
                dw[j] = -w * r
        dw[a] *= w
        H.append(h)
        dW.append(dw)
    return H, dW


def _maxabs(v):
    """max |v_a|; inf when some v_a is NaN, so that NaN never passes a test."""
    return max(abs(x) if x == x else math.inf for x in v)


def _newton(t0, poles, z, max_iter, tol, pole_margin, collapse, scalar):
    """Damped Newton on the cleared system; returns (t, converged, residual).

    The residual is max |psi|; steps and the line search use |q|.  A singular
    Jacobian ends the run unconverged; `collapse=0` never ends it early.
    """
    z = [scalar(x) for x in z]
    t = [scalar(x) for x in t0]
    point = evaluate(t, poles, z, max(pole_margin, collapse))
    if point is None:
        return np.array(t), False, math.inf
    psi, W, q, near, inv = point
    qn, res = _maxabs(q), _maxabs(psi)
    for _ in range(max_iter):
        if res < tol:
            break
        H, dW = derivatives(poles, W, inv)
        step = solve([[w * h + p * d for h, d in zip(hrow, drow)]
                      for p, w, hrow, drow in zip(psi, W, H, dW)],
                     [-x for x in q])
        if step is None:
            break
        for halvings in range(40):
            cand = [x + 0.5 ** halvings * s for x, s in zip(t, step)]
            point = evaluate(cand, poles, z, pole_margin)
            if point is not None:
                cqn = _maxabs(point[2])
                if cqn < qn or _maxabs(point[0]) < tol:
                    break
        else:
            break
        t, qn = cand, cqn
        psi, W, q, near, inv = point
        res = _maxabs(psi)
        if near < collapse:
            res = math.inf
            break
    return np.array(t), res < tol, float(res)


def newton_single(t0, poles, z, max_iter=200, tol=1e-12, pole_margin=1e-8,
                  collapse=0.0):
    """One Newton run in double precision."""
    return _newton(t0, poles, z, max_iter, tol, pole_margin, collapse,
                   complex)


def newton_longdouble(t0, poles, z, max_iter=200, tol=1e-12,
                      pole_margin=1e-8, collapse=0.0):
    """One Newton run in extended precision (clongdouble)."""
    return _newton(t0, poles, z, max_iter, tol, pole_margin, collapse,
                   np.clongdouble)
