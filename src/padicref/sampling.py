"""Seeded samplers of p-adic matrices for the suites and the tests.

Each sampler draws from a ``rng.SplitMix64`` stream in a fixed order, so a
seed fixes the matrices and, through them, the report body.
"""

from __future__ import annotations

from .padiclin import PadicMatrix
from .rng import DIGITS


def random_glzp(rng, p, n):
    while True:
        m = PadicMatrix(p, [[rng.randrange(p ** DIGITS) for _ in range(n)]
                            for _ in range(n)])
        if m.in_glzp():
            return m


def random_iwahori(rng, p, n):
    rows = []
    for i in range(n):
        unit = rng.unit(p)  # drawn before the entries left of it
        rows.append([p * rng.randrange(p ** (DIGITS - 1)) for _ in range(i)] + [unit]
                    + [rng.randrange(p ** DIGITS) for _ in range(i + 1, n)])
    return PadicMatrix(p, rows)


def random_upper_zp(rng, p, n):
    return PadicMatrix(p, [[0] * i + [rng.unit(p)]
                           + [rng.randrange(p ** DIGITS) for _ in range(i + 1, n)]
                           for i in range(n)])


def random_n_beta(rng, p, n, beta):
    """An element of N^beta(Z_p) inside GL_{2n}."""
    a = PadicMatrix(p, [[1 if i == j else (p ** beta * rng.randrange(p ** 2) if j > i else 0)
                         for j in range(n)] for i in range(n)])
    b = PadicMatrix(p, [[1 if i == j else (p ** beta * rng.randrange(p ** 2) if j > i else 0)
                         for j in range(n)] for i in range(n)])
    y = [[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)]
    # w_n + p^beta y
    top = PadicMatrix(p, [[int(i + j == n - 1) + p ** beta * y[i][j]
                           for j in range(n)] for i in range(n)])
    return PadicMatrix.from_blocks(a, top * b, PadicMatrix.diagonal(p, [0] * n), b)


def random_iw_beta(rng, p, n2, beta):
    """An element of Iw^beta = Nbar(pZ_p) T(Z_p) N^beta(Z_p)."""
    n = n2 // 2
    nbar = PadicMatrix(p, [[1 if i == j else (p * rng.randrange(p ** 2) if j < i else 0)
                            for j in range(n2)] for i in range(n2)])
    t = PadicMatrix.diagonal(p, [rng.unit(p) for _ in range(n2)])
    return nbar * t * random_n_beta(rng, p, n, beta)
