"""Deterministic pseudo-random streams.

Every randomized experiment in this package draws from its own `Stream`,
keyed by an experiment label and a 64-bit seed, so results never depend on
call order or worker scheduling.  The generator is xoshiro256** seeded
through splitmix64 (public-domain algorithms by Blackman & Vigna,
https://prng.di.unimi.it/); both are reimplemented here so that the bit
stream is identical on every platform and Python version.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; return (new_state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Stream:
    """xoshiro256** generator bound to an (experiment label, seed) pair.

    The 256-bit state is filled from splitmix64 seeded with
    ``seed XOR fnv1a64(label)``, the standard way to expand a 64-bit seed
    without risking the all-zero state.
    """

    def __init__(self, label: str, seed: int):
        self.label = label
        self.seed = seed
        s = (seed ^ _fnv1a64(label.encode("utf-8"))) & _MASK64
        state = []
        for _ in range(4):
            s, word = _splitmix64(s)
            state.append(word)
        self._s = state

    def next_words(self, k: int) -> list[int]:
        """The next ``k`` 64-bit outputs, in order."""
        s0, s1, s2, s3 = self._s
        words = []
        append = words.append
        for _ in range(k):
            x = s1 * 5 & _MASK64
            append((x << 7 | x >> 57) * 9 & _MASK64)  # rotl(s1 * 5, 7) * 9
            t = s1 << 17 & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = (s3 << 45 | s3 >> 19) & _MASK64
        self._s = [s0, s1, s2, s3]
        return words

    def next_u64(self) -> int:
        return self.next_words(1)[0]

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling; 1 <= bound <= 2^64."""
        if not 0 < bound <= _MASK64 + 1:
            raise ValueError(f"bound must be in [1, 2^64], got {bound}")
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % bound
