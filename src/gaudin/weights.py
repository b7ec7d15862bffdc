"""Partitions and gl(N+1) weight bookkeeping.

A weight is a tuple of N+1 integers (coordinates in the standard basis of the
diagonal Cartan subalgebra).  Dominant integral weights with nonnegative
entries are partitions of length at most N+1; those label the irreducible
modules this package builds.
"""

from __future__ import annotations

from .errors import NotAPartition


def check_partition(seq, N=None):
    """Validate weakly decreasing nonnegative integers; return a padded tuple.

    With N given, pad with zeros to length N+1 (error if longer).
    """
    vals = list(seq)
    for x in vals:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise NotAPartition(f"entries must be nonnegative integers: {seq!r}")
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise NotAPartition(f"entries must weakly decrease: {seq!r}")
    if N is not None:
        if len(vals) > N + 1:
            raise NotAPartition(f"partition {seq!r} longer than {N + 1} rows")
        vals = vals + [0] * (N + 1 - len(vals))
    return tuple(vals)


def weight_size(lam):
    return sum(lam)


def root_pairing(lam, i):
    """Pairing of a weight with the i-th simple root: lam_i - lam_{i+1} (1-based i)."""
    return lam[i - 1] - lam[i]


def weight_sub_roots(weights_sum, l, N):
    """weights_sum minus sum_i l[i] * alpha_i, as a plain tuple."""
    out = list(weights_sum)
    for i in range(1, N + 1):
        c = l[i - 1]
        out[i - 1] -= c
        out[i] += c
    return tuple(out)


def derive_infinity_weight(partitions, l, N):
    """Weight at infinity: sum of the site partitions minus sum l_i alpha_i.

    Raises NotAPartition when the result is not weakly decreasing nonnegative,
    i.e. when the chosen Bethe-variable counts l are inadmissible.
    """
    if len(l) != N:
        raise ValueError(f"need {N} group sizes, got {len(l)}")
    total = [0] * (N + 1)
    for lam in partitions:
        lam = check_partition(lam, N)
        for k in range(N + 1):
            total[k] += lam[k]
    lam_inf = weight_sub_roots(total, l, N)
    return check_partition(lam_inf, N)
