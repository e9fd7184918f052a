"""Seeded samplers of p-adic matrices for the suites and the tests.

Each sampler draws from a ``rng.SplitMix64`` stream in a fixed order, so a
seed fixes the matrices and, through them, the report body.  The draw
order is part of each sampler's contract, however it assembles its matrix;
the tests pin it against the product formulas.
"""

from __future__ import annotations

from operator import mul

from .padiclin import PadicMatrix, imul
from .rng import DIGITS


def random_glzp(rng, p, n):
    while True:
        m = PadicMatrix.from_ints(p, 1, [[rng.randrange(p ** DIGITS) for _ in range(n)]
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


def random_sparse_qp(rng, p, n):
    """n x n, each entry, row by row, rng.padic_rational(p, -2, 2) if
    rng.randrange(3) else 0, drawn in that order (randrange, then the
    exponent, then the unit) and assembled on int rows over p^2."""
    return PadicMatrix.from_ints(p, p * p, [[p ** (rng.randint(-2, 2) + 2) * rng.unit(p)
                                             if rng.randrange(3) else 0 for _ in range(n)]
                                            for _ in range(n)])


def random_n_beta(rng, p, n, beta):
    """An element (a, (w_n + p^beta y) b; 0, b) of N^beta(Z_p) inside
    GL_{2n}: a, b upper unipotent with entries in p^beta Z_p, y integral,
    drawn in that order, row by row, and assembled on int rows."""
    a, b = ([[1 if i == j else (p ** beta * rng.randrange(p ** 2) if j > i else 0)
              for j in range(n)] for i in range(n)] for _ in range(2))
    top = [[int(i + j == n - 1) + p ** beta * rng.randrange(p ** 3) for j in range(n)]
           for i in range(n)]
    return PadicMatrix.from_ints(p, 1, [ra + rt for ra, rt in zip(a, imul(top, b))]
                                 + [[0] * n + rb for rb in b])


def random_iw_beta(rng, p, n2, beta):
    """An element nbar t g of Iw^beta = Nbar(pZ_p) T(Z_p) N^beta(Z_p), with
    nbar, then the units of t, then g = random_n_beta drawn in that order."""
    nbar = [[1 if i == j else (p * rng.randrange(p ** 2) if j < i else 0)
             for j in range(n2)] for i in range(n2)]
    t = [rng.unit(p) for _ in range(n2)]
    nbar_t = [list(map(mul, row, t)) for row in nbar]  # column j times t_j
    return PadicMatrix.from_ints(p, 1, imul(nbar_t, random_n_beta(rng, p, n2 // 2, beta).nums))


def random_shalika_positive(rng, p, n, beta):
    """(k, x) on the support of the Shalika integrand at delta = w_n: k = u
    w_n i and x = k w_n z^(2 beta) a, with u = random_upper_zp, i =
    random_iwahori and a integral with entries below p^3, drawn in that
    order.  On int rows: a row of u w_n is a row of u reversed, and column c
    of k w_n z^(2 beta) is column n-1-c of k times p^(2 beta (n-1-c))."""
    u, i = random_upper_zp(rng, p, n).nums, random_iwahori(rng, p, n).nums
    a = [[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)]
    k = imul([row[::-1] for row in u], i)
    kwz = [[row[n - 1 - c] * p ** (2 * beta * (n - 1 - c)) for c in range(n)] for row in k]
    return PadicMatrix.from_ints(p, 1, k), PadicMatrix.from_ints(p, 1, imul(kwz, a))
