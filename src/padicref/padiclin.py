"""Exact p-adic linear algebra.

Scalars are plain ``Fraction`` values whose denominators are p-powers in
all sampled inputs; no truncated digit arithmetic appears anywhere, so
there is no precision to analyse.  ``vp`` gives the valuation (with a
+infinity sentinel at 0).  ``PadicMatrix`` is an immutable exact matrix
together with the ambient prime, carrying the subgroup predicates and the
three factorizations the local proofs run on:

* ``iwahori_bruhat_decompose``: g = b * w * i with b upper triangular over
  Q_p, w a permutation and i in the Iwahori subgroup (the cell label w is
  unique);
* ``iwahori_factorize_unit``: 1 + p^beta * w_n * X = R * S with R
  upper-unipotent, S lower triangular, both congruent to 1 mod p^beta;
* ``open_cell_factorize``: g = bbar * u * diag(h1, h2) on the open
  H-orbit, where u = [[1, w_n], [0, 1]]; certified by re-multiplication.

``bruhat_cell_valuations`` is the light path of the first: it returns only
the cell and the diagonal valuations of b, and runs on Python ints.  It
multiplies g by the lcm D of its denominators, a central scalar, so the
cell is unchanged and every diagonal valuation moves by vp(D); its column
operations scale by p-adic units, i.e. multiply on the right by GL(Z_p),
which changes neither; and the cell of K^{-1} in GL(Z_p) is read from its
reduction mod p.  The full decomposition stays on ``Fraction`` values and
certifies itself by re-multiplication; it is the reference the light path
is tested against.

Haar measure normalizations are fixed once and for all here:
vol(GL_n(Z_p)) = 1 for compact-group integrals, vol(M_n(Z_p)) = 1
additively, and vol(Iw_n) = #B_n(F_p) / #GL_n(F_p).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .perms import compose, identity_perm, inverse_perm, longest_perm

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


class PadicMatrix:
    __slots__ = ("p", "size", "rows")

    def __init__(self, p: int, rows):
        self.p = p
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
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
        n = self.size
        orows = other.rows
        out = []
        for i in range(n):
            ri = self.rows[i]
            out.append([sum(ri[k] * orows[k][j] for k in range(n) if ri[k])
                        for j in range(n)])
        return PadicMatrix(self.p, out)

    def __eq__(self, other):
        return isinstance(other, PadicMatrix) and self.p == other.p and self.rows == other.rows

    def __hash__(self):
        return hash((self.p, self.rows))

    def transpose(self):
        return PadicMatrix(self.p, list(zip(*self.rows)))

    def scale(self, c):
        c = Fraction(c)
        return PadicMatrix(self.p, [[c * x for x in row] for row in self.rows])

    def det(self) -> Fraction:
        n = self.size
        m = [list(row) for row in self.rows]
        det = Fraction(1)
        for k in range(n):
            piv = None
            for i in range(k, n):
                if m[i][k] != 0:
                    piv = i
                    break
            if piv is None:
                return Fraction(0)
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            det *= m[k][k]
            inv = 1 / m[k][k]
            for i in range(k + 1, n):
                if m[i][k]:
                    f = m[i][k] * inv
                    for j in range(k, n):
                        m[i][j] -= f * m[k][j]
        return det

    def inverse(self) -> "PadicMatrix":
        n = self.size
        m = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i, row in enumerate(self.rows)]
        for k in range(n):
            piv = None
            for i in range(k, n):
                if m[i][k] != 0:
                    piv = i
                    break
            if piv is None:
                raise LinAlgError("singular matrix")
            m[k], m[piv] = m[piv], m[k]
            inv = 1 / m[k][k]
            m[k] = [x * inv for x in m[k]]
            for i in range(n):
                if i != k and m[i][k]:
                    f = m[i][k]
                    m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        return PadicMatrix(self.p, [row[n:] for row in m])

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

    def in_iwahori_depth(self, beta: int) -> bool:
        """Upper triangular modulo p^beta, inside GL(Z_p)."""
        if not self.in_glzp():
            return False
        return all(vp(self.rows[i][j], self.p) >= beta
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

    def in_lower_unipotent(self, depth: int = 1) -> bool:
        """In Nbar(p^depth Z_p): unipotent lower with strictly-lower entries in p^depth."""
        n = self.size
        for i in range(n):
            if self.rows[i][i] != 1:
                return False
            for j in range(i + 1, n):
                if self.rows[i][j] != 0:
                    return False
            for j in range(i):
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

    Phase 1 (Iwasawa): right GL(Z_p) column operations with bottom-up
    minimal-valuation pivots bring g to upper triangular form, so
    g * K is upper triangular and k = K^{-1} lies in GL(Z_p).
    Phase 2: left B(Z_p) row operations and right Iwahori column
    operations reduce k to a permutation-shaped matrix; the pivot of each
    column is the bottom-most unit among unassigned rows.  The result is
    re-multiplied and the factor shapes are checked before returning.
    """
    p, n = g.p, g.size
    m = [list(row) for row in g.rows]
    kmat = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def colop(dst, src, c):
        # col_dst -= c * col_src
        for r in range(n):
            if m[r][src]:
                m[r][dst] -= c * m[r][src]
        for r in range(n):
            if kmat[r][src]:
                kmat[r][dst] -= c * kmat[r][src]

    def colswap(a, b):
        for r in range(n):
            m[r][a], m[r][b] = m[r][b], m[r][a]
            kmat[r][a], kmat[r][b] = kmat[r][b], kmat[r][a]

    # phase 1: bottom-up
    for i in range(n - 1, -1, -1):
        best = None
        for j in range(i + 1):
            v = vp(m[i][j], p)
            if v is not INF and (best is None or v < best[0]):
                best = (v, j)
        if best is None:
            raise LinAlgError("singular matrix in Bruhat decomposition")
        _, jpiv = best
        if jpiv != i:
            colswap(jpiv, i)
        pivot = m[i][i]
        for j in range(i):
            if m[i][j]:
                colop(j, i, m[i][j] / pivot)

    K = PadicMatrix(p, kmat)
    b0 = PadicMatrix(p, m)          # b0 = g * K, upper triangular
    k = K.inverse()                  # in GL(Z_p)

    # phase 2 on k
    mm = [list(row) for row in k.rows]
    rmat = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    assigned_row = [False] * n
    sigma = [None] * n  # column -> pivot row

    for j in range(n):
        cands = [i for i in range(n) if not assigned_row[i] and vp(mm[i][j], p) == 0]
        if not cands:
            raise LinAlgError("no unit pivot; matrix not in GL(Z_p)?")
        i0 = max(cands)
        sigma[j] = i0
        assigned_row[i0] = True
        piv = mm[i0][j]
        mm[i0] = [x / piv for x in mm[i0]]
        # clear the column above / at unassigned rows via left row operations
        for i in range(n):
            if not assigned_row[i] and i < i0 and mm[i][j]:
                c = mm[i][j]
                mm[i] = [a - c * b for a, b in zip(mm[i], mm[i0])]
        # clear the pivot row rightwards via right Iwahori column operations
        for j2 in range(j + 1, n):
            c = mm[i0][j2]
            if c:
                for r in range(n):
                    if mm[r][j]:
                        mm[r][j2] -= c * mm[r][j]
                for r in range(n):
                    if rmat[r][j]:
                        rmat[r][j2] -= c * rmat[r][j]

    w = tuple(sigma)  # column j has pivot in row w[j]
    mprime = PadicMatrix(p, mm)
    R = PadicMatrix(p, rmat)
    iprime = PadicMatrix(p, [mm[w[j]] for j in range(n)])  # w^{-1} * mprime
    wmat = PadicMatrix.permutation(p, w)
    b1 = k * R * iprime.inverse() * wmat.inverse()
    i_factor = iprime * R.inverse()
    b = b0 * b1

    if not (b.is_upper_triangular() and i_factor.in_iwahori()):
        raise LinAlgError("Bruhat decomposition produced malformed factors")
    if b * wmat * i_factor != g:
        raise LinAlgError("Bruhat decomposition failed to recompose")
    return BruhatDecomposition(b, w, i_factor)


def bruhat_cell(g: PadicMatrix) -> tuple:
    return iwahori_bruhat_decompose(g).w


def bruhat_cell_valuations(p: int, rows):
    """(cell, diagonal valuations of the Borel part), without assembling
    the factors.  Entries are ints or Fractions.

    Runs the same two-phase elimination as iwahori_bruhat_decompose, on
    Python ints, and keeps only the pivot data.  Every step leaves the
    cell and the valuations unchanged:

    * the rows are multiplied by D, the lcm of the denominators; D * g =
      (D * 1) * g with D * 1 central in B(Q_p), so the cell stays and
      every diagonal valuation moves by vp(D), which is subtracted at the
      end;
    * phase 1 clears row i with the pivot p^v * a (a prime to p) by
      col_j <- a * col_j - (m[i][j] / p^v) * col_i, an exact integer
      operation that multiplies on the right by a matrix of GL(Z_p)
      (determinant a), so the phase-1 pivots still carry the diagonal
      valuations of b (the phase-2 Borel factor is integral with unit
      diagonal, so it contributes nothing);
    * K^{-1} lies in GL(Z_p), and its cell in B(Z_p) \\ GL(Z_p) / Iw is
      its Bruhat cell over F_p, so K^{-1} is tracked mod p only and
      phase 2 reads the pivot pattern mod p.

    Agreement with the full decomposition is a tested invariant; this
    path exists because principal-series evaluation is the innermost
    loop of the integration oracles.
    """
    n = len(rows)
    den = 1
    for row in rows:
        for x in row:
            if x.denominator != 1:
                den = math.lcm(den, x.denominator)
    m = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    kinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vals = [0] * n
    shift = _split_int(den, p)[0]
    # phase 1, bottom-up: D * g * K upper triangular, K^{-1} mod p alongside
    for i in range(n - 1, -1, -1):
        row = m[i]
        best = None
        for j in range(i + 1):
            if row[j]:
                v, unit = _split_int(row[j], p)
                if best is None or v < best[0]:
                    best = (v, unit, j)
        if best is None:
            raise LinAlgError("singular matrix in Bruhat decomposition")
        v, a, jp = best
        vals[i] = v - shift
        if jp != i:
            for r in range(i + 1):
                m[r][jp], m[r][i] = m[r][i], m[r][jp]
            kinv[jp], kinv[i] = kinv[i], kinv[jp]
        pv = p ** v
        ainv = pow(a, -1, p)
        krow_i = kinv[i]
        for j in range(i):
            if not row[j]:
                continue
            c = row[j] // pv
            row[j] = 0
            for r in range(i):
                mr = m[r]
                if mr[i]:
                    mr[j] = a * mr[j] - c * mr[i]
                elif a != 1:
                    mr[j] *= a
            # the column operation is K <- K * E; mirror it on K^{-1} mod p,
            # K^{-1} <- E^{-1} * K^{-1}: row_j /= a, then row_i += c * row_j
            krow_j = kinv[j]
            if ainv != 1:
                krow_j = kinv[j] = [x * ainv % p for x in krow_j]
            cm = c % p
            if cm:
                for t in range(n):
                    if krow_j[t]:
                        krow_i[t] = (krow_i[t] + cm * krow_j[t]) % p
    # phase 2: pivot pattern of K^{-1} mod p.  Only the rows above a pivot
    # need clearing: the column operations of the full path touch nothing
    # but the pivot row, which is never read again.
    assigned = [False] * n
    sigma = [0] * n
    for j in range(n):
        i0 = n - 1
        while i0 >= 0 and (assigned[i0] or not kinv[i0][j]):
            i0 -= 1
        if i0 < 0:
            raise LinAlgError("no unit pivot; matrix not in GL(Z_p)?")
        sigma[j] = i0
        assigned[i0] = True
        row0 = kinv[i0]
        pinv = None
        for i in range(i0):
            row_i = kinv[i]
            if assigned[i] or not row_i[j]:
                continue
            if pinv is None:
                pinv = pow(row0[j], -1, p)
            c = row_i[j] * pinv
            for t in range(j + 1, n):
                if row0[t]:
                    row_i[t] = (row_i[t] - c * row0[t]) % p
    return tuple(sigma), tuple(vals)


def opposite_parahoric_cell(g: PadicMatrix, r: int):
    """Label of the cell of g in B(Q_p) \\ G / Jbar_r.

    Jbar_r is the parahoric of GL(Z_p) reducing mod p into the block-lower
    parabolic with Levi GL_r x GL_{n-r}.  Cells are cosets in
    W_n / (S_r x S_{n-r}); the label returned is the sorted tuple of
    images of the first r letters, which determines the coset.
    """
    n = g.size
    if not (1 <= r <= n - 1):
        raise LinAlgError("parabolic index out of range")
    wlong = longest_perm(n)
    dec = iwahori_bruhat_decompose(g * PadicMatrix.permutation(g.p, wlong))
    w = compose(dec.w, wlong)  # cell of g for (B, Bbar)
    return tuple(sorted(w[j] for j in range(r)))


# ---------------------------------------------------------------------------
# LU-type factorizations


def lu_unit_lower(mat: PadicMatrix):
    """mat = L * U with L unit lower triangular; no pivoting.

    Raises LinAlgError when a leading pivot vanishes.
    """
    n = mat.size
    u = [list(row) for row in mat.rows]
    lo = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(n):
        if u[k][k] == 0:
            raise LinAlgError("zero pivot in LU")
        for i in range(k + 1, n):
            if u[i][k]:
                f = u[i][k] / u[k][k]
                lo[i][k] = f
                for j in range(k, n):
                    u[i][j] -= f * u[k][j]
    return PadicMatrix(mat.p, lo), PadicMatrix(mat.p, u)


def ul_factorize(mat: PadicMatrix):
    """mat = U0 * L0 with U0 unit upper triangular, L0 lower triangular."""
    n = mat.size
    J = PadicMatrix.longest_weyl(mat.p, n)
    lt, ut = lu_unit_lower(J * mat * J)
    return J * lt * J, J * ut * J


def iwahori_factorize_unit(x: PadicMatrix, beta: int):
    """(R, S) with 1 + p^beta * w_n * x = R * S, R upper-unipotent, S lower.

    Both factors are integral and congruent to 1 mod p^beta.
    """
    if beta < 1:
        raise LinAlgError("depth must be >= 1")
    if not x.is_integral():
        raise LinAlgError("x must be integral")
    p, n = x.p, x.size
    mat = PadicMatrix.identity(p, n)
    wx = PadicMatrix.longest_weyl(p, n) * x
    mat = PadicMatrix(p, [[mat.rows[i][j] + Fraction(p) ** beta * wx.rows[i][j]
                           for j in range(n)] for i in range(n)])
    r, s = ul_factorize(mat)
    if r * s != mat:
        raise LinAlgError("unit factorization failed to recompose")
    if not (r.congruent_identity(beta) and s.congruent_identity(beta)):
        raise LinAlgError("unit factorization not congruent to 1")
    if not (r.in_upper_unipotent() and s.is_lower_triangular()):
        raise LinAlgError("unit factorization has wrong shapes")
    return r, s


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
    wn = PadicMatrix.longest_weyl(p, n)
    if A.det() == 0 or B.det() == 0:
        return None
    CAB = C * A.inverse() * B
    schur = PadicMatrix(p, [[D.rows[i][j] - CAB.rows[i][j] for j in range(n)]
                            for i in range(n)])
    M = wn * schur * B.inverse()
    try:
        u0, l0 = ul_factorize(M)
    except LinAlgError:
        return None
    P = l0.inverse()
    h1 = l0 * A
    h2 = wn * l0 * B
    if h2.det() == 0 or h1.det() == 0:
        return None
    Q = C * h1.inverse()
    Rblk = wn * u0 * wn
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
