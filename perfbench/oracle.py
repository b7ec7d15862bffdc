"""Dimensions of a Gaudin instance from gl(N+1) characters alone.

The benchmark checks the pipeline's derived module, weight and singular
dimensions against these numbers.  Nothing here calls into `gaudin`.
"""

from __future__ import annotations

import itertools
from collections import Counter


def _gt_weights(top):
    """Weight of every Gelfand-Tsetlin pattern with top row `top`."""
    def rec(row):
        if len(row) == 1:
            yield (row[0],)
            return
        ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
        for below in itertools.product(*ranges):
            for w in rec(below):
                yield w + (sum(row) - sum(below),)
    yield from rec(tuple(top))


def tensor_character(partitions):
    """Weight multiplicities of the tensor product of the irreducibles."""
    acc = Counter({(0,) * len(partitions[0]): 1})
    for lam in partitions:
        factor = Counter(_gt_weights(lam))
        nxt = Counter()
        for w1, m1 in acc.items():
            for w2, m2 in factor.items():
                nxt[tuple(a + b for a, b in zip(w1, w2))] += m1 * m2
        acc = nxt
    return acc


def _sign(perm):
    inversions = sum(1 for a in range(len(perm))
                     for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def dimensions(partitions, mu):
    """(module, weight-space, singular-subspace) dimensions for weight mu.

    The singular dimension is the multiplicity of the irreducible mu, from
    the Weyl-group alternating sum over the tensor character.
    """
    char = tensor_character(partitions)
    n = len(mu)
    rho = tuple(range(n - 1, -1, -1))
    shifted = [m + r for m, r in zip(mu, rho)]
    singular = sum(_sign(p) * char.get(tuple(shifted[p[i]] - rho[i]
                                             for i in range(n)), 0)
                   for p in itertools.permutations(range(n)))
    return sum(char.values()), char.get(tuple(mu), 0), singular


def infinity_weight(partitions, l):
    """Sum of the site partitions minus sum_i l_i alpha_i."""
    total = [sum(col) for col in zip(*partitions)]
    for i, cnt in enumerate(l):
        total[i] -= cnt
        total[i + 1] += cnt
    return tuple(total)
