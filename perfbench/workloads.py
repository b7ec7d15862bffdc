"""Seeded problem generators for the three benchmark workloads.

Each generator returns a list of problem dicts in the `gaudin verify` input
format.  The seed fixes the site positions, which site carries which
partition, and every `solver.seed`; the list of module shapes and its order
are fixed, so every seed runs the same mix of sizes.  Why each workload
exists is written in README.md next to this file.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle

# Multistart budget per expected orbit.  The package default is 200, so an
# instance that meets a pseudo-orbit (ROADMAP defect 1) runs every start and
# costs 10-30x a clean one; 40 keeps it at a few times a clean one.  `search`
# makes every one of its starts, and clean instances found all their orbits
# within 20 starts per orbit when surveyed.
STARTS_PER_ORBIT = 40
SEARCH_STARTS_PER_ORBIT = 20

RATIONAL_SITES = sorted({Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3)})

# (N, partitions, l): higher-rank modules on two sites with at most three
# Bethe variables.
WIDE_21 = (2, [[2, 1, 0], [2, 1, 0]], [1, 1])
ADJ_FUND = (2, [[2, 1, 0], [1, 0, 0]], [1, 1])
ADJ_SYM = (2, [[2, 1, 0], [2, 0, 0]], [2, 1])
ADJ_WEDGE = (2, [[2, 1, 0], [1, 1, 0]], [1, 1])
SYM_WEDGE = (2, [[2, 0, 0], [1, 1, 0]], [1, 1])
GL4_FUND_WEDGE = (3, [[1, 0, 0, 0], [1, 1, 0, 0]], [1, 1, 0])
GL4_HOOK_FUND = (3, [[2, 1, 0, 0], [1, 0, 0, 0]], [1, 1, 0])


def spin_chain(n):
    """N=1, n spin-1/2 sites, l = floor(n/2)."""
    return (1, [[1, 0]] * n, [n // 2])


# (shape, copies).  The copies fix the mix of sizes, so every seed runs the
# same mix, and each pass takes about 20 s at the reference speed.  They put
# the median inside the largest group of similar times and the tail
# percentile inside the GL4_FUND_WEDGE group, so that neither lands on the
# gap between two groups.
SEARCH_MIX = [(spin_chain(4), 26)]
ALGEBRA_MIX = [(SYM_WEDGE, 3), (ADJ_FUND, 6), (ADJ_WEDGE, 10),
               (GL4_FUND_WEDGE, 10), (ADJ_SYM, 2), (WIDE_21, 1),
               (GL4_HOOK_FUND, 1)]
NUMERIC_MIX = [(SYM_WEDGE, 8), (ADJ_FUND, 6), (ADJ_WEDGE, 6),
               (spin_chain(4), 4), (GL4_FUND_WEDGE, 12), (ADJ_SYM, 2),
               (WIDE_21, 1)]


def _problem(rng, shape, z, starts_per_orbit=STARTS_PER_ORBIT,
             early_stop=True):
    N, partitions, l = shape
    partitions = list(partitions)
    rng.shuffle(partitions)
    _, _, singular = oracle.dimensions(partitions,
                                       oracle.infinity_weight(partitions, l))
    return {
        "N": N,
        "partitions": partitions,
        "l": list(l),
        "z": z,
        "solver": {"seed": rng.randrange(2 ** 31),
                   "starts": starts_per_orbit * max(singular, 1),
                   "early_stop": early_stop},
    }


def _rational_sites(rng, n):
    return [str(x) for x in sorted(rng.sample(RATIONAL_SITES, n))]


def _float_sites(rng, n, off_line):
    """n sites at least 0.5 apart; all but the first get an imaginary part
    when off_line."""
    while True:
        re = sorted(round(rng.uniform(-4.0, 4.0), 3) for _ in range(n))
        if all(b - a >= 0.5 for a, b in zip(re, re[1:])):
            break
    out = []
    for k, x in enumerate(re):
        im = 0.0
        if off_line and k > 0:
            im = round(rng.choice((-1, 1)) * rng.uniform(0.1, 0.6), 3)
        out.append([x, im])
    return out


def _expand(mix):
    return [shape for shape, copies in mix for _ in range(copies)]


def search(seed):
    """Every instance runs all its starts: with early stop, the number of
    starts made varies from 3 to 20 per orbit with the solver seed, which
    moved the run's total by a third between seeds."""
    rng = random.Random(f"search:{seed}")
    return [_problem(rng, s, _rational_sites(rng, len(s[1])),
                     starts_per_orbit=SEARCH_STARTS_PER_ORBIT, early_stop=False)
            for s in _expand(SEARCH_MIX)]


def algebra(seed):
    rng = random.Random(f"algebra:{seed}")
    return [_problem(rng, s, _rational_sites(rng, len(s[1])))
            for s in _expand(ALGEBRA_MIX)]


def numeric(seed):
    """Every other instance has sites off the real line."""
    rng = random.Random(f"numeric:{seed}")
    return [_problem(rng, s, _float_sites(rng, len(s[1]), k % 2 == 1))
            for k, s in enumerate(_expand(NUMERIC_MIX))]


WORKLOADS = {"search": search, "algebra": algebra, "numeric": numeric}


def generate(workload, seed):
    return WORKLOADS[workload](seed)
