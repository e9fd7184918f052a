"""Exact p-adic linear algebra.

Scalars are plain ``Fraction`` values whose denominators are p-powers in
all sampled inputs; no truncated digit arithmetic appears anywhere, so
there is no precision to analyse.  ``vp`` gives the valuation (with a
+infinity sentinel at 0), ``unit_part`` the unit x / p^vp(x), and
``residue`` the one scalar reduction, x mod p^k for p-integral x; every
module reduces through these.  ``PadicMatrix`` is an immutable exact matrix
together with the ambient prime, carrying the subgroup predicates and the
two factorizations the local proofs run on:

* ``iwahori_bruhat_decompose``: g = b * w * i with b upper triangular over
  Q_p, w a permutation and i in the Iwahori subgroup (the cell label w is
  unique);
* ``open_cell_factorize``: g = bbar * u * diag(h1, h2) on the open
  H-orbit, where u = [[1, w_n], [0, 1]]; certified by re-multiplication.

There are two eliminations, both on Python ints (rows scaled to one common
denominator by ``_int_rows``).  ``bruhat_cell_valuations``, the Bruhat
core, returns the cell and the diagonal valuations of b.  ``_eliminate``
is fraction-free (Bareiss) elimination, with exact integer divisions;
``det``, ``inverse`` and ``lu_unit_lower`` read their results off it, and
through them so do the two factorizations.  Matrix products are integer
dot products too.  The full Bruhat decomposition is the Bruhat core plus
one UL factorization and a certificate checked with multiplication, det
and vp alone; the cell and vp(diag b) are invariants of the double coset
B(Q_p) g Iw, so every certified decomposition is an independent proof of
the core's answer.

Haar measure normalizations are fixed once and for all here:
vol(GL_n(Z_p)) = 1 for compact-group integrals, vol(M_n(Z_p)) = 1
additively, and vol(Iw_n) = #B_n(F_p) / #GL_n(F_p).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .perms import longest_perm

INF = math.inf


class LinAlgError(Exception):
    pass


def _split_int(x: int, p: int):
    """(v, u) with x = p^v * u and u prime to p, for a nonzero int x."""
    v = 0
    while not x % p:
        x //= p
        v += 1
    return v, x


def vp(x, p: int):
    """p-adic valuation of a rational; vp(0) = +inf."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if not x:
        return INF
    v = _split_int(x.numerator, p)[0]
    if v or x.denominator == 1:
        return v
    return -_split_int(x.denominator, p)[0]


def unit_part(x, p: int) -> Fraction:
    """x / p^vp(x) for x != 0."""
    v = vp(x, p)
    if v is INF:
        raise LinAlgError("unit part of zero")
    return Fraction(x) / Fraction(p) ** int(v)


def residue(x, p: int, k: int) -> int:
    """x mod p^k in [0, p^k), for a p-integral rational x (callers test
    vp(x, p) first and raise their own error)."""
    x = Fraction(x)
    m = p ** k
    return x.numerator * pow(x.denominator, -1, m) % m


def _int_rows(rows):
    """(d, d * rows as lists of ints), d the lcm of the denominators of the
    int or Fraction entries."""
    d = 1
    for row in rows:
        for x in row:
            if x.denominator != 1:
                d = math.lcm(d, x.denominator)
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _eliminate(m, pivot: bool, jordan: bool = False) -> int:
    """Fraction-free (Bareiss) elimination, in place, of the n x c int rows
    m, c >= n.  Returns det m[:, :n], or 0 when step k finds no pivot: with
    pivot, column k is zero from row k down (m is singular); without, the
    leading (k+1)-minor is 0.

    Step k (with pivot, a zero p_k = m[k][k] is first swapped with the next
    nonzero entry below it) sets, for j > k and p_{-1} = 1,
        m[i][j] <- (p_k * m[i][j] - m[i][k] * m[k][j]) / p_{k-1}
    in every row i > k, and with jordan in every row i < k too.  Each new
    entry is a minor of the row-swapped input, so each division is exact:
    for i > k the minor on rows 0..k, i and columns 0..k, j (Sylvester's
    identity); for i < k the leading (k+1)-minor with column i replaced by
    column j (Cramer's rule).  At the end, for k < n:

    * m[k][k] = p_k, the leading (k+1)-minor, and row k of U is
      m[k][k:] / p_{k-1} (m[k][j] is the minor on rows 0..k, columns
      0..k-1, j);
    * without jordan, the multiplier L[i][k], i > k, is m[i][k] / p_k
      (m[i][k] is the minor on rows 0..k-1, i and columns 0..k);
    * with jordan, m[:, n:] is R times the input's m[:, n:], for the row
      operations R with R * m[:, :n] = p_{n-1} * 1.
    """
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None) if pivot else None
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk, tail = m[k][k], m[k][k + 1:]
        for i in range(0 if jordan else k + 1, n):
            ri, f = m[i], m[i][k]
            if i != k and (f or pk != prev):
                ri[k + 1:] = [(pk * x - f * y) // prev for x, y in zip(ri[k + 1:], tail)]
        prev = pk
    return sign * prev


class PadicMatrix:
    __slots__ = ("p", "size", "rows")

    def __init__(self, p: int, rows):
        self.p = p
        self.rows = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x)
                                for x in row) for row in rows)
        self.size = len(self.rows)
        for row in self.rows:
            if len(row) != self.size:
                raise LinAlgError("matrix must be square")

    # -- constructors

    @classmethod
    def identity(cls, p, n):
        return cls(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, p, entries):
        n = len(entries)
        return cls(p, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def permutation(cls, p, w: tuple):
        n = len(w)
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            rows[w[j]][j] = 1
        return cls(p, rows)

    @classmethod
    def longest_weyl(cls, p, n):
        return cls.permutation(p, longest_perm(n))

    @classmethod
    def from_blocks(cls, a: "PadicMatrix", b: "PadicMatrix",
                    c: "PadicMatrix", d: "PadicMatrix") -> "PadicMatrix":
        n = a.size
        rows = []
        for i in range(n):
            rows.append(list(a.rows[i]) + list(b.rows[i]))
        for i in range(n):
            rows.append(list(c.rows[i]) + list(d.rows[i]))
        return cls(a.p, rows)

    @classmethod
    def block_diag(cls, a: "PadicMatrix", b: "PadicMatrix") -> "PadicMatrix":
        n, m = a.size, b.size
        rows = []
        for i in range(n):
            rows.append(list(a.rows[i]) + [0] * m)
        for i in range(m):
            rows.append([0] * n + list(b.rows[i]))
        return cls(a.p, rows)

    @classmethod
    def open_orbit_rep(cls, p, n) -> "PadicMatrix":
        """u = [[1_n, w_n], [0, 1_n]] in GL_{2n}(Z_p)."""
        one = cls.identity(p, n)
        wn = cls.longest_weyl(p, n)
        zero = cls(p, [[0] * n for _ in range(n)])
        return cls.from_blocks(one, wn, zero, one)

    # -- basic operations

    def __mul__(self, other: "PadicMatrix") -> "PadicMatrix":
        if self.size != other.size:
            raise LinAlgError("size mismatch")
        (da, a), (db, b) = _int_rows(self.rows), _int_rows(other.rows)
        cols = list(zip(*b))
        return PadicMatrix(self.p, [[Fraction(sum(map(mul, ra, cb)), da * db)
                                     for cb in cols] for ra in a])

    def __eq__(self, other):
        return isinstance(other, PadicMatrix) and self.p == other.p and self.rows == other.rows

    def __hash__(self):
        return hash((self.p, self.rows))

    def transpose(self):
        return PadicMatrix(self.p, list(zip(*self.rows)))

    def det(self) -> Fraction:
        d, m = _int_rows(self.rows)
        return Fraction(_eliminate(m, pivot=True), d ** self.size)

    def inverse(self) -> "PadicMatrix":
        n = self.size
        d, m = _int_rows(self.rows)  # self = m / d, so self^{-1} = d * R / p_{n-1}
        for i, row in enumerate(m):
            row.extend(int(i == j) for j in range(n))
        if not _eliminate(m, pivot=True, jordan=True):
            raise LinAlgError("singular matrix")
        return PadicMatrix(self.p, [[Fraction(d * x, m[-1][n - 1]) for x in row[n:]]
                                    for row in m])

    def block(self, r0, r1, c0, c1) -> "PadicMatrix":
        return PadicMatrix(self.p, [row[c0:c1] for row in self.rows[r0:r1]])

    def diagonal_entries(self) -> list:
        return [self.rows[i][i] for i in range(self.size)]

    def diagonal_valuations(self):
        return [vp(x, self.p) for x in self.diagonal_entries()]

    # -- predicates

    def is_integral(self) -> bool:
        return all(vp(x, self.p) >= 0 for row in self.rows for x in row)

    def in_glzp(self) -> bool:
        return self.is_integral() and vp(self.det(), self.p) == 0

    def in_iwahori(self) -> bool:
        """Upper triangular modulo p, inside GL(Z_p)."""
        if not self.in_glzp():
            return False
        return all(vp(self.rows[i][j], self.p) >= 1
                   for i in range(self.size) for j in range(i))

    def is_upper_triangular(self) -> bool:
        return all(self.rows[i][j] == 0 for i in range(self.size) for j in range(i))

    def is_lower_triangular(self) -> bool:
        return all(self.rows[i][j] == 0 for i in range(self.size)
                   for j in range(i + 1, self.size))

    def in_upper_unipotent(self, depth: int = 0) -> bool:
        """In N(Z_p), with above-diagonal entries in p^depth Z_p."""
        n = self.size
        for i in range(n):
            if self.rows[i][i] != 1:
                return False
            for j in range(i):
                if self.rows[i][j] != 0:
                    return False
            for j in range(i + 1, n):
                if vp(self.rows[i][j], self.p) < depth:
                    return False
        return True

    def in_h_zp(self) -> bool:
        """Block diagonal diag(h1, h2) with both blocks in GL_n(Z_p)."""
        if self.size % 2:
            return False
        n = self.size // 2
        if any(self.rows[i][j] != 0 for i in range(n) for j in range(n, 2 * n)):
            return False
        if any(self.rows[i][j] != 0 for i in range(n, 2 * n) for j in range(n)):
            return False
        return self.block(0, n, 0, n).in_glzp() and self.block(n, 2 * n, n, 2 * n).in_glzp()

    def congruent_identity(self, beta: int) -> bool:
        n = self.size
        return all(vp(self.rows[i][j] - (1 if i == j else 0), self.p) >= beta
                   for i in range(n) for j in range(n))

    def __repr__(self):
        return "PadicMatrix(p=%d, %s)" % (self.p, [list(map(str, r)) for r in self.rows])


# ---------------------------------------------------------------------------
# Iwahori-Bruhat decomposition


class BruhatDecomposition:
    __slots__ = ("b", "w", "i")

    def __init__(self, b, w, i):
        self.b = b
        self.w = w
        self.i = i


def iwahori_bruhat_decompose(g: PadicMatrix) -> BruhatDecomposition:
    """g = b * w * i exactly; raises LinAlgError on singular input.

    The cell w and the diagonal valuations of b come from
    bruhat_cell_valuations.  Since Iw = (Iw ∩ w^{-1} B w)(Iw ∩ w^{-1} Nbar w),
    B w Iw = B w (Iw ∩ w^{-1} Nbar w): g * w^{-1} = b * ybar with ybar unit
    lower triangular and i = w^{-1} * ybar * w.  B ∩ Nbar = 1, so b and
    ybar are unique, and one UL factorization of the transpose
    (g * w^{-1})^T = ybar^T * b^T finds them.

    The result is certified before it is returned: b upper triangular, i
    in Iw, the valuations of diag(b) equal to the core's, and b * w * i
    equal to g.  The certificate uses only multiplication, det and vp, and
    w and the valuations of diag(b) are invariants of the double coset
    B(Q_p) g Iw, so a certified triple proves the core's answer; a wrong
    answer from the core raises LinAlgError.
    """
    p, n = g.p, g.size
    w, vals = bruhat_cell_valuations(p, g.rows)
    # (g * w^{-1})^T = w * g^T: its row w[k] is column k of g
    gwt = [None] * n
    for k in range(n):
        gwt[w[k]] = [row[k] for row in g.rows]
    ybar_t, b_t = ul_factorize(PadicMatrix(p, gwt))
    b = b_t.transpose()
    i_factor = PadicMatrix(p, [[ybar_t.rows[w[c]][w[r]] for c in range(n)]
                               for r in range(n)])
    # column j of b * w is column w[j] of b
    if not (b.is_upper_triangular() and i_factor.in_iwahori()
            and b.diagonal_valuations() == list(vals)
            and PadicMatrix(p, [[r[k] for k in w] for r in b.rows]) * i_factor == g):
        raise LinAlgError("Bruhat decomposition failed its certificate")
    return BruhatDecomposition(b, w, i_factor)


def bruhat_cell_valuations(p: int, rows):
    """(cell, diagonal valuations of the Borel part), without assembling
    the factors.  Entries are ints or Fractions.

    One bottom-up elimination on Python ints that keeps only the pivot
    data.  The rows are first multiplied by D, the lcm of the
    denominators: D * 1 is central in B(Q_p), so the cell stays and every
    valuation moves by vp(D), subtracted at the end.  For i = n-1 down to
    0, row i pivots on the leftmost column j of least valuation among the
    columns holding no pivot yet; with m[i][j] = p^v * a, a prime to p,
    cell[j] = i and every other such column k is cleared by
    col_k <- a * col_k - c * col_j, c = m[i][k] / p^v.

    * Each step is in Iw: it multiplies on the right by the identity
      matrix with a (a unit) in place (k, k) and -c in place (j, k).  c
      is in Z_p, and when j > k the entry is below the diagonal and c is
      in p Z_p, because j is the leftmost column of least valuation.
    * The end state gives the answer: row i is zero outside its pivot
      column and the pivot columns of the rows below it, so D * g * I =
      b * w with b upper triangular and the pivots on its diagonal.

    iwahori_bruhat_decompose certifies this answer on every call; it is
    the innermost loop of the integration oracles, through
    principal-series evaluation.
    """
    n = len(rows)
    den, m = _int_rows(rows)
    shift = _split_int(den, p)[0]
    free = list(range(n))
    cell = [0] * n
    vals = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        best = None
        for j in free:
            if row[j]:
                v, unit = _split_int(row[j], p)
                if best is None or v < best[0]:
                    best = (v, unit, j)
        if best is None:
            raise LinAlgError("singular matrix in Bruhat decomposition")
        v, a, j = best
        free.remove(j)
        cell[j] = i
        vals[i] = v - shift
        pv = p ** v
        for k in free:
            if not row[k]:
                continue
            c = row[k] // pv
            row[k] = 0
            for r in range(i):
                mr = m[r]
                if mr[j]:
                    mr[k] = a * mr[k] - c * mr[j]
                elif a != 1:
                    mr[k] *= a
    return tuple(cell), tuple(vals)


# ---------------------------------------------------------------------------
# LU-type factorizations


def lu_unit_lower(mat: PadicMatrix):
    """mat = L * U with L unit lower triangular; no pivoting.

    Raises LinAlgError when a leading pivot vanishes.
    """
    n = mat.size
    d, m = _int_rows(mat.rows)
    if not _eliminate(m, pivot=False):
        raise LinAlgError("zero pivot in LU")
    piv = [1] + [m[k][k] for k in range(n)]
    lo = [[Fraction(m[i][k], piv[k + 1]) if k < i else Fraction(int(k == i))
           for k in range(n)] for i in range(n)]
    up = [[Fraction(m[k][j], piv[k] * d) if j >= k else Fraction(0)
           for j in range(n)] for k in range(n)]
    return PadicMatrix(mat.p, lo), PadicMatrix(mat.p, up)


def ul_factorize(mat: PadicMatrix):
    """mat = U0 * L0 with U0 unit upper triangular, L0 lower triangular.

    Conjugating by w_n reverses rows and columns and swaps upper with
    lower: this is lu_unit_lower of the reversed matrix, reversed back."""
    def rev(m):
        return PadicMatrix(m.p, [row[::-1] for row in m.rows[::-1]])

    lt, ut = lu_unit_lower(rev(mat))
    return rev(lt), rev(ut)


# ---------------------------------------------------------------------------
# open cell factorization


class OpenCellFactorization:
    __slots__ = ("bbar", "h1", "h2")

    def __init__(self, bbar, h1, h2):
        self.bbar = bbar
        self.h1 = h1
        self.h2 = h2


def open_cell_factorize(g: PadicMatrix):
    """Factor g = bbar * u * diag(h1, h2) on the open cell, else None.

    Writing g in n x n blocks (A B; C D), the lower block-triangular part
    is pinned down by a UL factorization of M = w_n (D - C A^{-1} B) B^{-1}
    (whenever g is in the cell, M = w_n R w_n P^{-1} lies in the big
    (B, Bbar)-cell, so the factorization exists).  Success is certified by
    exact re-multiplication; a distinguished None is returned off the cell.
    """
    if g.size % 2:
        raise LinAlgError("open cell factorization needs even size")
    p, n = g.p, g.size // 2
    A = g.block(0, n, 0, n)
    B = g.block(0, n, n, 2 * n)
    C = g.block(n, 2 * n, 0, n)
    D = g.block(n, 2 * n, n, 2 * n)
    try:
        CAinv, Binv = C * A.inverse(), B.inverse()
    except LinAlgError:  # A or B singular
        return None
    CAB = CAinv * B
    schur = PadicMatrix(p, [[D.rows[i][j] - CAB.rows[i][j] for j in range(n)]
                            for i in range(n)])
    M = PadicMatrix(p, (schur * Binv).rows[::-1])  # w_n * (schur B^{-1})
    try:
        u0, l0 = ul_factorize(M)
    except LinAlgError:
        return None
    P = l0.inverse()
    h1 = l0 * A
    h2 = PadicMatrix(p, (l0 * B).rows[::-1])  # w_n * l0 * B
    Q = CAinv * P  # C h1^{-1}
    Rblk = PadicMatrix(p, [row[::-1] for row in u0.rows[::-1]])  # w_n * u0 * w_n
    bbar = PadicMatrix.from_blocks(P, PadicMatrix(p, [[0] * n for _ in range(n)]),
                                   Q, Rblk)
    if not (P.is_lower_triangular() and Rblk.is_lower_triangular()):
        return None
    u = PadicMatrix.open_orbit_rep(p, n)
    h = PadicMatrix.block_diag(h1, h2)
    if bbar * u * h != g:
        return None
    return OpenCellFactorization(bbar, h1, h2)


# ---------------------------------------------------------------------------
# fixed Haar normalizations


def gl_order_mod_p(p: int, n: int) -> int:
    """#GL_n(F_p)."""
    out = 1
    for k in range(n):
        out *= p ** n - p ** k
    return out


def borel_order_mod_p(p: int, n: int) -> int:
    """#B_n(F_p)."""
    return (p - 1) ** n * p ** (n * (n - 1) // 2)


def vol_iwahori(p: int, n: int) -> Fraction:
    """vol(Iw_n) for vol(GL_n(Z_p)) = 1."""
    return Fraction(borel_order_mod_p(p, n), gl_order_mod_p(p, n))


def vol_big_cell(p: int, n: int) -> Fraction:
    """vol(B_n(Z_p) w_n Iw_n) for vol(GL_n(Z_p)) = 1.

    Reduction mod p identifies the cell with B w_n B in GL_n(F_p), of size
    #B * p^{length(w_n)}.
    """
    return Fraction(borel_order_mod_p(p, n) * p ** (n * (n - 1) // 2),
                    gl_order_mod_p(p, n))
