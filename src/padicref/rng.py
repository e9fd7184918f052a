"""Deterministic, portable random streams for sampling-based checks.

We deliberately avoid the stdlib ``random`` module: reports must be
byte-identical across runs and reproducible from the algorithm description
alone (e.g. by a port in another language).  The generator is splitmix64:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

all arithmetic mod 2^64.  Integers in a range are drawn by rejection from
the top multiple of the range, so streams are unbiased and portable.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
DIGITS = 3  # p-adic digits drawn for units and matrix entries


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) for 1 <= n <= 2^64; a larger n raises
        ``ValueError``, since one 64-bit draw cannot cover it."""
        if not 1 <= n <= 1 << 64:
            raise ValueError("randrange needs 1 <= n <= 2^64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def unit(self, p: int) -> int:
        """A p-adic unit known modulo p^DIGITS, returned as an integer."""
        u = self.randrange(p ** DIGITS)
        while u % p == 0:
            u = self.randrange(p ** DIGITS)
        return u

    def padic_rational(self, p: int, vmin: int = -2, vmax: int = 2) -> Fraction:
        """A nonzero rational of the form p^v * unit with v in [vmin, vmax]."""
        v, u = self.randint(vmin, vmax), self.unit(p)
        return Fraction(u * p ** v) if v >= 0 else Fraction(u, p ** -v)

    def spawn(self, tag: str) -> "SplitMix64":
        """A child stream derived from this seed and a label.

        Mixing consumes nothing from the parent stream, so adding a new
        child does not shift existing ones.
        """
        h = self.state
        for ch in tag.encode("utf-8"):
            h = ((h ^ ch) * 0x100000001B3) & _MASK
        return SplitMix64(h)
