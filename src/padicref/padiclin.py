"""Exact p-adic linear algebra.

Scalars are exact rationals, ``int`` or ``Fraction``: no truncated digit
arithmetic appears anywhere, so there is no precision to analyse, and a
``float``, which stands for the binary fraction it stores, is refused by
``vp`` and ``PadicMatrix`` with ``LinAlgError``.  ``vp`` gives the
valuation (with a +infinity sentinel at 0), ``unit_part`` the unit
x / p^vp(x), and ``residue`` the one scalar reduction, x mod p^k for
p-integral x; every module reduces through these.

``PadicMatrix`` is an immutable exact matrix with its ambient prime,
stored as int rows ``nums`` over one denominator ``den`` > 0 with
gcd(den, every entry) = 1.  The form is unique: den clears every
denominator, so the lcm L of the entries' denominators divides it, and
den / L divides den and every entry, so den = L.  Equality and hashing
are literal, and ``rows`` is a ``Fraction`` view derived on access;
``PadicMatrix.from_ints(p, den, nums)`` is the one canonicalizer, so a
matrix assembled on int rows over one den is made canonical once.  The
matrix carries the subgroup predicates and the two factorizations the
local proofs run on:

* ``iwahori_bruhat_decompose``: g = b * w * i with b upper triangular over
  Q_p, w a permutation and i in the Iwahori subgroup (the cell label w is
  unique);
* ``open_cell_factorize``: g = bbar * u * diag(h1, h2) on the open
  H-orbit, where u = [[1, w_n], [0, 1]], with (det h1, det h2).

Everything runs on the int rows.  ``bruhat_cell_valuations``, the Bruhat
core, returns the cell and the diagonal valuations of b.  ``_eliminate``
is fraction-free (Bareiss) elimination, with exact integer divisions;
``inverse``, the LU and both factorizations read their results off it,
and matrix products are integer dot products.  ``in_glzp`` and the cell
of a matrix mod p need no det: ``unit_pivots_mod_p`` eliminates once
over F_p.  The cell and vp(diag b) are determined by g, and each Bruhat
path certifies the core's answer by one integer product, index checks
and vp: ``certified_bruhat_cell`` by the core's own column operations
(in Iw), with no LU and no factor, and ``iwahori_bruhat_decompose`` by
one LU, whose b and i it makes canonical on return (i = w^{-1} ybar w,
ybar unit lower triangular, so det i = 1 needs no det).  The open cell
runs three eliminations (two Jordan solves and one LU step on augmented
rows), one n x 2n product for h1 and h2 and one 2n x 2n product that
certifies bbar * u * diag(h1, h2) = g; it reads det h1 = det U det A and
det h2 = sgn(w_n) det U det B off the pivots, and makes its three
factors canonical only on return.

Haar measure normalizations are fixed once and for all here:
vol(GL_n(Z_p)) = 1 for compact-group integrals, vol(M_n(Z_p)) = 1
additively, and vol(Iw_n) = #B_n(F_p) / #GL_n(F_p).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import mul

INF = math.inf


class LinAlgError(Exception):
    pass


def _exact(x):
    """x itself if it is an int or a Fraction, else LinAlgError."""
    if not isinstance(x, (int, Fraction)):
        raise LinAlgError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")
    return x


def _split_int(x: int, p: int):
    """(v, u) with x = p^v * u and u prime to p, for a nonzero int x."""
    v = 0
    while not x % p:
        x //= p
        v += 1
    return v, x


def vp(x, p: int):
    """p-adic valuation of an int or Fraction; vp(0) = +inf."""
    if not _exact(x):
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


def _scaled(rows):
    """(den, den * rows as tuples of ints) for rows of int or Fraction
    entries, den the lcm of their denominators; LinAlgError for others."""
    rows = tuple(map(tuple, rows))
    fracs = [x for row in rows for x in row if type(x) is not int]
    if not fracs:
        return 1, rows
    den = math.lcm(*[_exact(x).denominator for x in fracs])
    return den, tuple(tuple([x.numerator * (den // x.denominator) for x in r]) for r in rows)


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


def jordan_solve(a, b):
    """(q, q * a^{-1} * b) on int rows, a n x n and b with n rows: the
    Jordan elimination of (a | b) leaves the right part, q = +-det a its
    last pivot (_eliminate); LinAlgError when a is singular."""
    n, m = len(a), [list(ra) + list(rb) for ra, rb in zip(a, b)]
    if not _eliminate(m, pivot=True, jordan=True):
        raise LinAlgError("singular matrix")
    return m[-1][n - 1], [row[n:] for row in m]


def unit_pivots_mod_p(nums, p: int, pivot: bool) -> bool:
    """One elimination over F_p of the n x n int rows nums: with pivot (row
    swaps), True exactly when det nums is prime to p; without, exactly when
    every leading minor is (pivot k is nonzero exactly when the leading
    (k+1)-minor is, given nonzero pivots before it)."""
    m, n = [[x % p for x in row] for row in nums], len(nums)
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None) if pivot else None
            if swap is None:
                return False
            m[k], m[swap] = m[swap], m[k]
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[k])]
    return True


def imul(x, y) -> list:
    """The product of the int matrices x and y, given by rows."""
    cols = tuple(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


class PadicMatrix:
    """nums / den over Q_p, in the unique form of the module docstring."""

    __slots__ = ("p", "size", "den", "nums")

    def __init__(self, p: int, rows):
        """The matrix with these rows of int or Fraction entries."""
        self.den, self.nums = _scaled(rows)
        self.p, self.size = p, len(self.nums)
        if set(map(len, self.nums)) - {self.size}:
            raise LinAlgError("matrix must be square")

    @classmethod
    def from_ints(cls, p: int, den: int, nums) -> "PadicMatrix":
        """The matrix nums / den (int rows, int den != 0) in canonical form:
        both divided by gcd(den, every entry) and signed so that den > 0."""
        g = math.gcd(den, *chain.from_iterable(nums)) if den != 1 else 1
        g = -g if den < 0 else g
        out = object.__new__(cls)
        out.p, out.size, out.den = p, len(nums), den // g
        out.nums = tuple(map(tuple, nums)) if g == 1 else tuple(
            tuple([x // g for x in row]) for row in nums)
        return out

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, derived on each access."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.nums)

    # -- constructors

    @classmethod
    def diagonal(cls, p, entries):
        n = len(entries)
        return cls(p, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def open_orbit_rep(cls, p, n) -> "PadicMatrix":
        """u = [[1_n, w_n], [0, 1_n]] in GL_{2n}(Z_p)."""
        return cls.from_ints(p, 1, [[int(i == j or (i < n and i + j == 2 * n - 1))
                                     for j in range(2 * n)] for i in range(2 * n)])

    # -- basic operations

    def __mul__(self, other: "PadicMatrix") -> "PadicMatrix":
        if self.size != other.size:
            raise LinAlgError("size mismatch")
        return PadicMatrix.from_ints(self.p, self.den * other.den,
                                     imul(self.nums, other.nums))

    def __eq__(self, other):
        return (isinstance(other, PadicMatrix) and self.p == other.p
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.p, self.den, self.nums))

    def inverse(self) -> "PadicMatrix":
        # self = nums / den, so self^{-1} = den * (q nums^{-1}) / q
        n = self.size
        q, right = jordan_solve(self.nums, [[int(i == j) for j in range(n)] for i in range(n)])
        return PadicMatrix.from_ints(self.p, q, [[self.den * x for x in row] for row in right])

    def block(self, r0, r1, c0, c1) -> "PadicMatrix":
        return PadicMatrix.from_ints(self.p, self.den,
                                     [row[c0:c1] for row in self.nums[r0:r1]])

    def diagonal_entries(self) -> list:
        return [Fraction(self.nums[i][i], self.den) for i in range(self.size)]

    def diagonal_valuations(self):
        shift = vp(self.den, self.p)
        return [vp(self.nums[i][i], self.p) - shift for i in range(self.size)]

    # -- predicates

    def is_integral(self) -> bool:
        return self.den % self.p != 0

    def in_glzp(self) -> bool:
        """Integral with a unit det.  den is then a unit, so det = det(nums) /
        den^n is a unit exactly when nums is invertible mod p: one
        elimination over F_p, no det."""
        return self.is_integral() and unit_pivots_mod_p(self.nums, self.p, pivot=True)

    def in_iwahori(self) -> bool:
        """Upper triangular modulo p, inside GL(Z_p).  An integral matrix
        with p-divisible lower entries is upper triangular mod p, so its det
        is the product of its diagonal mod p: no det is needed."""
        return self.is_integral() and not any(
            x % self.p for i, row in enumerate(self.nums) for x in row[:i]) \
            and all(row[i] % self.p for i, row in enumerate(self.nums))

    def in_h_zp(self) -> bool:
        """Block diagonal diag(h1, h2) with both blocks in GL_n(Z_p)."""
        m, n = self.size, self.size // 2
        return not m % 2 and not any(self.nums[i][j] for i in range(m) for j in range(m)
                                     if (i < n) != (j < n)) \
            and self.block(0, n, 0, n).in_glzp() and self.block(n, m, n, m).in_glzp()

    def __repr__(self):
        return "PadicMatrix(p=%d, %s)" % (self.p, [list(map(str, r)) for r in self.rows])


# ---------------------------------------------------------------------------
# Iwahori-Bruhat decomposition


BruhatDecomposition = namedtuple("BruhatDecomposition", "b w i")


def iwahori_bruhat_decompose(g: PadicMatrix) -> BruhatDecomposition:
    """g = b * w * i exactly, certified (_bruhat_rows); raises LinAlgError
    on singular input.  b and i are made canonical only here."""
    w, _, du, b, dl, i = _bruhat_rows(g)
    return BruhatDecomposition(PadicMatrix.from_ints(g.p, du, b), w,
                               PadicMatrix.from_ints(g.p, dl, i))


def certified_bruhat_cell(g: PadicMatrix):
    """(w, vp(diag b)) of g = b * w * i, certified on int rows by the core's
    own column operations, with no LU; LinAlgError unless certified.

    For g = nums / den the core leaves in ops the product I of its column
    operations; P = nums * I (not the core's rows) is checked: w is a
    permutation; I is in Iw (diagonal prime to p, entries below it in p Z);
    P[r][j] = 0 for r > w[j], so b' = P w^{-1} is upper triangular (column
    j of b' w is column w[j] of b'); vp(b'[w[j]][w[j]]) = vp(P[w[j]][j]) is
    the core's valuation at w[j] (vp(0) = inf).  So g = (b' / den) w I^{-1},
    I^{-1} in Iw.  The answer is unique: b w i = b2 w2 i2 forces w = w2
    (Iwahori-Matsumoto, Publ. Math. IHES 25, 1965), and b^{-1} b2 = w i
    i2^{-1} w^{-1} lies in B(Q_p) and GL_n(Z_p), so has a unit diagonal.
    """
    p, n = g.p, g.size
    ops = [[int(r == c) for c in range(n)] for r in range(n)]
    w, vals = bruhat_cell_valuations(p, g.nums, ops=ops)
    prod = imul(g.nums, ops)
    if not (sorted(w) == list(range(n))
            and all(row[r] % p and not any(x % p for x in row[:r])
                    for r, row in enumerate(ops))
            and not any(prod[r][j] for j in range(n) for r in range(w[j] + 1, n))
            and all(vp(prod[w[j]][j], p) == vals[w[j]] for j in range(n))):
        raise LinAlgError("Bruhat cell failed its certificate")
    shift = vp(g.den, p)
    return w, tuple(v - shift for v in vals)


def _bruhat_rows(g: PadicMatrix):
    """(w, vp(diag b), du, b, dl, i) with g = (b / du) * w * (i / dl), b and
    i int rows, for iwahori_bruhat_decompose; LinAlgError unless certified.

    The cell w and the diagonal valuations of den * b come from
    bruhat_cell_valuations on the int rows den * g.  Since
    Iw = (Iw ∩ w^{-1} B w)(Iw ∩ w^{-1} Nbar w), B w Iw = B w (Iw ∩ w^{-1}
    Nbar w): g * w^{-1} = b * ybar with ybar unit lower triangular and
    i = w^{-1} * ybar * w.  B ∩ Nbar = 1, so b and ybar are unique, and
    x = w0 (g w^{-1})^T w0 = L U, L = w0 ybar^T w0, U = w0 b^T w0, is the
    entries of g moved: b and i are read off _lu_rows(x) by index.

    The rows are certified before they are returned: b upper triangular, i
    integral with its entries below the diagonal in p Z_p, L (so ybar)
    unit lower triangular, which proves det i = det ybar = 1 with no
    elimination, the valuations of diag(b) equal to the core's less
    vp(den), and b * w * i equal to g on ints.  The certificate uses only
    multiplication and vp, and w and the valuations of diag(b) are
    determined by g (certified_bruhat_cell), so certified rows prove the
    core's answer; a wrong answer from the core raises LinAlgError.
    """
    p, n = g.p, g.size
    w, vals = bruhat_cell_valuations(p, g.nums)
    # row w[k] of (g * w^{-1})^T is column k of g; w0 reverses rows and columns
    x = [col[::-1] for _, col in sorted(zip(w, zip(*g.nums)), reverse=True)]
    dl, lo, du, up = _lu_rows(x, g.den)
    # b = w0 U^T w0 and i = w^{-1} ybar w with ybar = w0 L^T w0
    b = [col[::-1] for col in list(zip(*up))[::-1]]
    i = [[lo[n - 1 - w[c]][n - 1 - w[r]] for c in range(n)] for r in range(n)]
    # column j of b * w is column w[j] of b; i / dl is integral when q | i
    bw, q = [[row[k] for k in w] for row in b], p ** _split_int(dl, p)[0]
    shift, ushift = vp(g.den, p), vp(du, p)
    vals = tuple(v - shift for v in vals)
    if any(any(row[:k]) for k, row in enumerate(b)) or not (
            all(row[k] == dl and not any(row[k + 1:]) for k, row in enumerate(lo))
            and not any(y % (q * p if c < r else q) for r, row in enumerate(i)
                        for c, y in enumerate(row))
            and tuple(vp(b[k][k], p) - ushift for k in range(n)) == vals
            and [[g.den * x for x in row] for row in imul(bw, i)]
            == [[du * dl * x for x in row] for row in g.nums]):
        raise LinAlgError("Bruhat decomposition failed its certificate")
    return w, vals, du, b, dl, i


def bruhat_cell_valuations(p: int, rows, ops=None):
    """(cell, diagonal valuations of the Borel part), without assembling
    the factors.  Entries are ints or Fractions; ops, n int rows equal to
    1 on entry, ends as I below when given (certified_bruhat_cell).

    One bottom-up elimination on Python ints that keeps only the pivot
    data.  Rows with a Fraction entry are first multiplied by D, the lcm
    of the denominators: D * 1 is central in B(Q_p), so the cell stays and
    every valuation moves by vp(D), subtracted at the end.  For i = n-1
    down to 0, row i pivots on the leftmost column j of least valuation
    among the columns holding no pivot yet; with m[i][j] = p^v * a, a
    prime to p, cell[j] = i and every other such column k is cleared by
    col_k <- a * col_k - c * col_j, c = m[i][k] / p^v.

    * Each step is in Iw: it multiplies on the right by the identity
      matrix with a (a unit) in place (k, k) and -c in place (j, k).  c
      is in Z_p, and when j > k the entry is below the diagonal and c is
      in p Z_p, because j is the leftmost column of least valuation.
    * The end state gives the answer: row i is zero outside its pivot
      column and the pivot columns of the rows below it, so D * g * I =
      b * w with b upper triangular and the pivots on its diagonal.

    It is the innermost loop of the integration oracles, which pass no ops,
    through principal-series evaluation.
    """
    n = len(rows)
    shift = 0
    if not all(type(x) is int for row in rows for x in row):
        den, rows = _scaled(rows)
        shift = _split_int(den, p)[0]
    m = [list(row) for row in rows]
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
        above = m[:i] if ops is None else m[:i] + ops
        for k in free:
            if not row[k]:
                continue
            c = row[k] // pv
            row[k] = 0
            for mr in above:
                if mr[j]:
                    mr[k] = a * mr[k] - c * mr[j]
                elif a != 1:
                    mr[k] *= a
    return tuple(cell), tuple(vals)


# ---------------------------------------------------------------------------
# LU factorization


def _lu_rows(nums, den: int):
    """(dl, lo, du, up) with nums / den = L U, L = lo / dl unit lower and U
    = up / du upper triangular, on ints; by _eliminate, L[i][k] = m[i][k] /
    p_k and U[k][j] = m[k][j] / (p_{k-1} den).  LinAlgError on a zero
    leading pivot."""
    n = len(nums)
    m = [list(row) for row in nums]
    if not _eliminate(m, pivot=False):
        raise LinAlgError("zero pivot in LU")
    piv = [1] + [m[k][k] for k in range(n)]
    dl, du = math.lcm(*piv[1:n]), den * math.lcm(*piv[:n])
    lo = [[m[i][k] * (dl // piv[k + 1]) if k < i else dl * (k == i)
           for k in range(n)] for i in range(n)]
    up = [[m[k][j] * (du // (piv[k] * den)) if j >= k else 0
           for j in range(n)] for k in range(n)]
    return dl, lo, du, up


def lu_unit_lower(mat: PadicMatrix):
    """mat = L * U with L unit lower triangular, no pivoting (_lu_rows)."""
    dl, lo, du, up = _lu_rows(mat.nums, mat.den)
    return PadicMatrix.from_ints(mat.p, dl, lo), PadicMatrix.from_ints(mat.p, du, up)


# ---------------------------------------------------------------------------
# open cell factorization


OpenCellFactorization = namedtuple("OpenCellFactorization", "bbar h1 h2 dets")


def open_cell_factorize(g: PadicMatrix):
    """Factor g = bbar * u * diag(h1, h2) on the open cell, else None; dets
    is (det h1, det h2).

    With g = (A B; C D) in n x n blocks and bbar = (P 0; Q R), P and R
    lower triangular, R unipotent: A = P h1, B = P w_n h2, C = Q h1 and
    D = (Q w_n + R) h2.  So X = C A^{-1} = Q P^{-1}, the Schur complement
    is S = D - X B = R h2, and M = S B^{-1} w_n = (D B^{-1} - X) w_n = R U
    with U = w_n P^{-1} w_n upper triangular: R and U are the unique LU of
    M, h1 = w_n U w_n A, h2 = U w_n B, P = w_n U^{-1} w_n and Q = X P.

    Three Bareiss eliminations give all of it, and no product of blocks
    precedes the factors; the first two run on the int rows of transposed
    blocks, which are the columns of g (A^T | C^T the first n, B^T | D^T
    the last n):

    * the Jordan solve of A^T | C^T gives det A and qa X^T (qa its last
      pivot), and that of B^T | D^T gives det B and qb B^{-T} D^T; as
      (M w_n)^T = B^{-T} D^T - X^T, Y = qa qb M^T is w_n times qa times
      the second right part less qb times the first;
    * the forward elimination of Y | Z, Z = w_n (qa 1 | qa X^T), with
      pivots p_k (p_{-1} = 1), reads as in _eliminate: Y = L V with L unit
      lower, and Y = U^T (qa qb R^T), so L = U^T diag(U)^{-1}, V = qa qb
      diag(U) R^T and p_k / p_{k-1} = qa qb diag(U)_k.  Hence R[j][k] =
      m[k][j] / p_k and U[k][i] = m[i][k] / (qa qb p_{k-1}) for i >= k,
      and row k of the right part, p_{k-1} (L^{-1} Z)[k], is p_k / (qa
      qb) (U^{-T} Z)[k].  P^T = w_n U^{-T} w_n and Q^T = P^T X^T, so
      column j of (P; Q) is qb m[n-1-j][n:] / p_{n-1-j}: every column of
      bbar is over one p_k;
    * h1 and h2 are one product, U w_n (A B): its left half is w_n h1, its
      right half h2; det h1 = det U det A and det h2 = sgn(w_n) det U det
      B, det U = p_{n-1} / (qa qb)^n.

    bbar is assembled lower triangular with R unipotent: its entries above
    the diagonal are written as zeros and R's diagonal as 1, never read
    off the elimination.  The certificate runs on these raw int rows,
    before the factors are made canonical on return: bbar * k = g by one 2n
    x 2n int product, k = u diag(h1, h2) = (h1 w_n h2; 0 h2), which checks
    every entry of every factor.  Off the cell (A or B singular, a zero
    pivot of Y, a failed certificate) the distinguished None is returned.
    """
    if g.size % 2:
        raise LinAlgError("open cell factorization needs even size")
    p, n, d = g.p, g.size // 2, g.den
    cols = list(zip(*g.nums))
    ta, tb = list(map(list, cols[:n])), list(map(list, cols[n:]))
    det_a, det_b = _eliminate(ta, pivot=True, jordan=True), \
        _eliminate(tb, pivot=True, jordan=True)
    if not (det_a and det_b):
        return None
    qa, qb = ta[-1][n - 1], tb[-1][n - 1]
    # row k: qa qb M^T, then row n-1-k of (qa 1 | qa X^T)
    m = [[qa * y - qb * x for y, x in zip(rb[n:], ra[n:])] + [0] * (n - 1 - k) + [qa] + [0] * k
         + ra[n:] for k, (rb, ra) in enumerate(zip(tb[::-1], ta[::-1]))]
    det_y = _eliminate(m, pivot=False)
    if not det_y:
        return None
    piv, s = [1] + [m[k][k] for k in range(n)], qa * qb
    den, lu = math.lcm(*piv[1:]), math.lcm(*piv[:n])
    # bbar by columns: (P; Q)[:, n-1-k] = qb m[k][n:] / p_k, R[:, k] = m[k][:n] / p_k
    left, right = [], []
    for k, row in enumerate(m):
        f, j = den // piv[k + 1], n - 1 - k
        fq = qb * f
        left.append([0] * j + [fq * x for x in row[n + j:]])
        right.append([0] * (n + k) + [den] + [f * x for x in row[k + 1:n]])
    bbar = list(zip(*left[::-1], *right))
    up = [[0] * k + [m[i][k] * (lu // piv[k]) for i in range(k, n)] for k in range(n)]
    uw = imul(up, g.nums[n - 1::-1])  # (w_n h1 | h2) * du d, du = s lu
    du = s * lu
    c = den * du
    if imul(bbar, uw[::-1] + [[0] * n + row[n:] for row in uw]) != [
            [c * x for x in row] for row in g.nums]:
        return None
    scale = (s * d) ** n
    return OpenCellFactorization(
        PadicMatrix.from_ints(p, den, bbar),
        PadicMatrix.from_ints(p, du * d, [row[:n] for row in uw[::-1]]),
        PadicMatrix.from_ints(p, du * d, [row[n:] for row in uw]),
        (Fraction(det_y * det_a, scale),
         Fraction((-1) ** (n * (n - 1) // 2) * det_y * det_b, scale)))


# ---------------------------------------------------------------------------
# fixed Haar normalizations


def gl_order_mod_p(p: int, n: int) -> int:
    """#GL_n(F_p)."""
    return math.prod(p ** n - p ** k for k in range(n))


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
