"""The stream of numpy's `default_rng(seed)`, in pure Python.

The multistart search draws its starts from the generator numpy builds for
an int seed: SeedSequence(seed), then PCG64 (a 128-bit LCG with the XSL-RR
output), then `Generator`.  `Stream` replays that stream bit for bit for
the two calls the search makes, `uniform(low, high, size)` and
`integers(0, k)`, without importing `numpy.random`: with `hashlib` and
`secrets`, which it loads too, that import holds 5-6 MB in a process that
has imported numpy only.  The constants and steps are those of numpy's `bit_generator`,
`pcg64` and `distributions` sources (O'Neill, "PCG: a family of simple fast
space-efficient statistically good algorithms for random number
generation", 2014; Lemire, "Fast random integer generation in an
interval", 2019).
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_ULP = 2.0 ** -53


def _seed_words(seed):
    """SeedSequence(seed).generate_state(4, uint64) for an int seed >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    mult = _INIT_A

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * _MULT_A & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = (_MIX_L * x - _MIX_R * y) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = []
    mult = _INIT_B
    for k in range(2 * _POOL):
        value = pool[k % _POOL] ^ mult
        mult = mult * _MULT_B & _MASK32
        value = value * mult & _MASK32
        words.append(value ^ value >> 16)
    # pairs of 32-bit words, low word first, make the 64-bit words
    return [words[k] | words[k + 1] << 32 for k in range(0, 2 * _POOL, 2)]


class Stream:
    """`np.random.default_rng(seed)` for `uniform` and `integers(0, k)`."""

    __slots__ = ("state", "inc", "half")

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self.state = 0
        self._next64(1)
        self.state = (self.state + (s0 << 64 | s1)) & _MASK128
        self._next64(1)
        self.half = None    # the buffered upper half of a 64-bit draw

    def _next64(self, n):
        """The next n 64-bit outputs: step the LCG, then XSL-RR its state."""
        state, inc = self.state, self.inc
        out = []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = ((state >> 64) ^ state) & _MASK64
            r = state >> 122
            out.append((x >> r | x << (-r & 63)) & _MASK64)
        self.state = state
        return out

    def _next32(self):
        if self.half is not None:
            out, self.half = self.half, None
            return out
        x, = self._next64(1)
        self.half = x >> 32
        return x & _MASK32

    def uniform(self, low, high, size):
        """`size` float64 draws low + (high - low) u, u = (x >> 11) 2^-53."""
        width = high - low
        return np.array([low + width * ((x >> 11) * _ULP)
                         for x in self._next64(size)])

    def integers(self, low, high):
        """One int of [low, high), 0 < high - low < 2^32, by Lemire's
        32-bit rejection; a range of one value draws nothing."""
        k = high - low
        if k == 1:
            return low
        m = self._next32() * k
        if m & _MASK32 < k:
            threshold = (1 << 32) % k
            while m & _MASK32 < threshold:
                m = self._next32() * k
        return low + (m >> 32)
