"""Test-only deterministic samplers; the shared ones are in padicref.sampling."""

from fractions import Fraction

from padicref import padiclin
from padicref.branchfam import in_iwh_beta
from padicref.padiclin import PadicMatrix
from padicref.perms import longest_perm
from padicref.rng import SplitMix64


def make_rng(tag: str) -> SplitMix64:
    return SplitMix64(0xC0FFEE).spawn(tag)


def identity(p, n) -> PadicMatrix:
    return PadicMatrix.diagonal(p, [1] * n)


def det(m: PadicMatrix) -> Fraction:
    """det m, by fraction-free elimination of its int rows."""
    return Fraction(padiclin._eliminate([list(row) for row in m.nums], pivot=True),
                    m.den ** m.size)


def permutation_matrix(p, w) -> PadicMatrix:
    """The matrix of the permutation w, sending basis vector j to w[j]."""
    n = len(w)
    return PadicMatrix.from_ints(p, 1, [[int(w[j] == i) for j in range(n)] for i in range(n)])


def longest_weyl(p, n) -> PadicMatrix:
    """The permutation matrix of the longest Weyl element w_n."""
    return permutation_matrix(p, longest_perm(n))


def z_matrix(p, n, power=1) -> PadicMatrix:
    """z = diag(p^(n-1), ..., p, 1), raised to the given power."""
    return PadicMatrix.diagonal(p, [p ** ((n - 1 - i) * power) for i in range(n)])


def blocks(a, b, c, d) -> PadicMatrix:
    """The matrix (a b; c d) of four square blocks of one size."""
    return PadicMatrix(a.p, [ra + rb for ra, rb in zip(a.rows, b.rows)]
                       + [rc + rd for rc, rd in zip(c.rows, d.rows)])


def random_upper_triangular_q(rng, p, n, vmin=-2, vmax=2):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.padic_rational(p, vmin, vmax)
        for j in range(i + 1, n):
            rows[i][j] = rng.padic_rational(p, vmin, vmax) if rng.randrange(2) else 0
    return PadicMatrix(p, rows)


def random_lower_triangular_q(rng, p, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.padic_rational(p, -1, 1)
        for j in range(i):
            rows[i][j] = rng.padic_rational(p, 0, 1) if rng.randrange(2) else 0
    return PadicMatrix(p, rows)


def random_iwh1(rng, p, n):
    """An element of Iw_H^1 inside GL_{2n}."""
    wn = longest_weyl(p, n)
    while True:
        h1 = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                             for _ in range(n)])
        if not h1.in_glzp():
            continue
        conj = wn * h1 * wn
        h2 = PadicMatrix(p, [[conj.rows[i][j] + p * rng.randrange(p ** 2)
                              for j in range(n)] for i in range(n)])
        if not h2.in_glzp():
            continue
        zero = PadicMatrix.diagonal(p, [0] * n)
        h = blocks(h1, zero, zero, h2)
        if in_iwh_beta(h, 1):
            return h
