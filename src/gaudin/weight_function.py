"""Weight function: the universal eigenvector candidate attached to a point.

The vector is a sum over (colored sequence, variable assignment) pairs.  A
colored sequence distributes the multiset of colors (color i appearing l_i
times) into one ordered word per site; an assignment gives the word positions
of color i the variables of group i, bijectively.  Each pair contributes

    prod over sites of 1/((v_1 - v_2)(v_2 - v_3)...(v_k - z_s))

(v_1..v_k are the variable values along the site's word; empty words
contribute 1) times the tensor product over sites of the word's lowering
chain applied to the site's highest vector, rightmost letter first.

Evaluated at a critical point of the master function this is the Bethe
vector; its norm against the invariant form and its singular-subspace
membership are checked downstream.
"""

from __future__ import annotations

import itertools
import math

from .errors import DimensionMismatch, TermLimitExceeded, ZeroVector
from .master import GaudinProblem, PointConfig
from .repr_core import GlModule
from .scalars import is_exact, scalar_abs
from .weights import weight_sub_roots


class ColoredSequence:
    """One word of colors (1..N) per site; counts must match the group sizes."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        self.segments = tuple(tuple(int(c) for c in seg) for seg in segments)

    def positions(self):
        """Global position list [(site, color), ...] in reading order."""
        out = []
        for s, seg in enumerate(self.segments):
            for c in seg:
                out.append((s, c))
        return out

    def __repr__(self):
        return f"ColoredSequence({list(self.segments)})"

    def __eq__(self, other):
        return isinstance(other, ColoredSequence) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)


def compositions(total, parts):
    """Weak compositions of total into parts, lexicographically decreasing in
    the first coordinate last (i.e. (0,...,total) first)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def multiset_words(l):
    """All words using color i exactly l[i-1] times, lexicographic order."""
    letters = []
    for i, cnt in enumerate(l, start=1):
        letters.extend([i] * cnt)
    seen_len = len(letters)

    def rec(remaining):
        if not remaining:
            yield ()
            return
        prev = None
        for k in range(len(remaining)):
            c = remaining[k]
            if c == prev:
                continue
            prev = c
            rest = remaining[:k] + remaining[k + 1:]
            for tail in rec(rest):
                yield (c,) + tail

    if seen_len == 0:
        yield ()
        return
    yield from rec(tuple(letters))


def sequence_count(l, n):
    """Number of colored sequences: multinomial(sum l; l) * C(sum l + n - 1, n - 1)."""
    total = sum(l)
    words = math.factorial(total)
    for cnt in l:
        words //= math.factorial(cnt)
    return words * math.comb(total + n - 1, n - 1)


def term_count(l, n):
    """Total number of (sequence, assignment) summands."""
    out = sequence_count(l, n)
    for cnt in l:
        out *= math.factorial(cnt)
    return out


def enumerate_sequences(l, n):
    """All colored sequences for group sizes l over n sites, words outer."""
    total = sum(l)
    for word in multiset_words(l):
        for comp in compositions(total, n):
            segs = []
            pos = 0
            for k in comp:
                segs.append(word[pos:pos + k])
                pos += k
            yield ColoredSequence(segs)


def enumerate_assignments(l, seq: ColoredSequence):
    """Bijections giving each color-i position a distinct variable index.

    Yields tuples parallel to seq.positions(): the 0-based variable index
    within the position's color group.
    """
    N = len(l)
    positions = seq.positions()
    slots = [[] for _ in range(N)]
    for p, (_s, c) in enumerate(positions):
        slots[c - 1].append(p)
    pools = [itertools.permutations(range(l[i])) for i in range(N)]
    for choice in itertools.product(*pools):
        out = [0] * len(positions)
        for i in range(N):
            for p, var in zip(slots[i], choice[i]):
                out[p] = var
        yield tuple(out)


def enumerate_terms(l, n):
    for seq in enumerate_sequences(l, n):
        for sigma in enumerate_assignments(l, seq):
            yield seq, sigma


def term_coefficient(seq: ColoredSequence, sigma, groups, z):
    """Product over sites of the chain factor 1/((v_1-v_2)...(v_k - z_s))."""
    positions = seq.positions()
    values = []
    for p, (_s, c) in enumerate(positions):
        values.append(groups[c - 1][sigma[p]])
    # int starts: a Fraction would send every complex product through
    # fractions' fallback, with the same bits
    coeff = 1
    pos = 0
    for s, seg in enumerate(seq.segments):
        k = len(seg)
        if k == 0:
            continue
        vs = values[pos:pos + k]
        pos += k
        den = 1
        for a in range(k - 1):
            den = den * (vs[a] - vs[a + 1])
        den = den * (vs[k - 1] - z[s])
        if not den:
            raise ZeroDivisionError("chain factor hits a singular divisor")
        coeff = coeff / den
    return coeff


def sequence_vector(M: GlModule, seq: ColoredSequence):
    """Tensor product over sites of the word's lowering chain on the highest
    vector (rightmost letter acts first); dict-vector in M, possibly empty."""
    factors = M.factors
    if len(seq.segments) != len(factors):
        raise DimensionMismatch(
            f"{len(seq.segments)} segments for {len(factors)} tensor factors")
    vec = None
    for s, fac in enumerate(factors):
        w = fac.highest_vector()
        for c in reversed(seq.segments[s]):
            w = fac.e(c + 1, c).apply(w)
            if not w:
                return {}
        if vec is None:
            vec = w
        else:
            d = fac.dim
            vec = {i * d + j: x * y for i, x in vec.items() for j, y in w.items()}
    return vec if vec is not None else {}


def weight_function(problem: GaudinProblem, M: GlModule, point,
                    max_terms=10 ** 7):
    """Sum of all (sequence, assignment) contributions at the given point."""
    groups = PointConfig(problem, point).groups
    l, n = problem.l, problem.n_sites
    total = term_count(l, n)
    if total > max_terms:
        raise TermLimitExceeded(f"{total} summands exceed the limit {max_terms}")
    out = {}
    for seq in enumerate_sequences(l, n):
        base = sequence_vector(M, seq)
        if not base:
            continue
        coeff = 0
        for sigma in enumerate_assignments(l, seq):
            coeff = coeff + term_coefficient(seq, sigma, groups, problem.z)
        if not coeff:
            continue
        for idx, v in base.items():
            cur = out.get(idx)
            s = coeff * v if cur is None else cur + coeff * v
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
    _assert_weight(problem, M, out)
    return out


def _assert_weight(problem, M, vec):
    if not vec:
        return
    mu = weight_sub_roots(
        [sum(col) for col in zip(*(list(lam) for lam in problem.partitions))],
        problem.l, problem.N)
    for idx in vec:
        if M.basis_weights[idx] != tuple(mu):
            raise DimensionMismatch(
                "weight function left the expected weight subspace")


def singular_residual(M: GlModule, vec):
    """Largest coefficient magnitude among the simple raisings of vec."""
    worst = 0.0
    for k in range(1, M.rank):
        img = M.e(k, k + 1).apply(vec)
        for v in img.values():
            worst = max(worst, scalar_abs(v))
    return worst


def bethe_vector(problem: GaudinProblem, M: GlModule, point, form=None,
                 max_terms=10 ** 7, zero_tol=1e-12):
    """Weight function at a critical point, with diagnostics.

    Returns (vector, info); info records the invariant norm (when a form is
    given), the worst simple-raising residual, and the summand count.
    Raises ZeroVector when the vector vanishes.
    """
    groups = point.groups if hasattr(point, "groups") else point
    vec = weight_function(problem, M, groups, max_terms=max_terms)
    coeff_max = max((scalar_abs(v) for v in vec.values()), default=0.0)
    if not vec or coeff_max < zero_tol:
        raise ZeroVector("weight function vanishes at the point")
    info = {
        "term_count": term_count(problem.l, problem.n_sites),
        "coeff_max": coeff_max,
        "singular_residual": singular_residual(M, vec),
        "exact": all(is_exact(v) for v in vec.values()),
    }
    if form is not None:
        info["norm_square"] = form.norm_square(vec)
    return vec, info
