"""Branching vectors for GL(n) x GL(n) inside GL(2n) and their
interpolation over the pure weight space.

The classical vector v_{lam,j} generating the H-isotypic line of weight
(det_1^{-j} det_2^{sw+j}) in V_lam is realized through the open-cell
factorization: on g = bbar * u * diag(h1, h2) its value is

    lam(bbar) * det(h1)^{-j} * det(h2)^{sw+j},

normalised so that v_{lam,j}(u) = 1; off the open cell the realization is
extended by zero (all statements under test evaluate inside Iw^1, where
the two agree).  The auxiliary vectors v_(0), v_(1..n-1), v_(n),1,
v_(n),2 are the same construction at the basis weights; the product
formula and the membership predicates for N^beta, Iw^beta, Iw_H^beta take
their shapes from the factorization.

Family interpolation replaces integer powers by characters with values in
a truncated Iwasawa algebra: w_chi on Iw^1, v_Omega(f) on locally
polynomial f, and the pushforward kappa_Omega on finite linear
combinations of Dirac evaluations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .famring import (FamilyRing, FamSeries, tame_order, teichmuller,
                      wild_base, wild_exponent)
from .padiclin import (LinAlgError, PadicMatrix, lu_unit_lower,
                       open_cell_factorize, residue, vp)
from .rootspin import is_pure


class BranchError(Exception):
    pass


# ---------------------------------------------------------------------------
# weights and the critical range


class PureWeight:
    """A pure dominant integral weight with its purity weight and critical range."""

    __slots__ = ("entries", "sw")

    def __init__(self, entries):
        entries = tuple(entries)
        if len(entries) % 2 or not is_pure(entries):
            raise BranchError(f"weight {entries} is not pure")
        if any(a < b for a, b in zip(entries, entries[1:])):
            raise BranchError("weight must be dominant")
        if any(Fraction(x).denominator != 1 for x in entries):
            raise BranchError("branching needs an integral weight")
        self.entries = tuple(map(int, entries))
        self.sw = self.entries[0] + self.entries[-1]

    @property
    def n(self):
        return len(self.entries) // 2

    def product(self, factors) -> Fraction:
        """The product of lam_i(x)^k = x^(k lam_i) over the factors (i, x, k),
        1 <= i <= 2n, x an int or a Fraction."""
        return _power_product((x.numerator, x.denominator, k * self.entries[i - 1])
                              for i, x, k in factors)


def _power_product(factors) -> Fraction:
    """The product of (a / b)^e over the int triples (a, b, e), multiplied
    on int numerators and denominators and made one Fraction at the end."""
    num = den = 1
    for a, b, e in factors:
        a, b = (a, b) if e > 0 else (b, a)
        num, den = num * a ** abs(e), den * b ** abs(e)
    return Fraction(num, den)


def crit_range(lam: PureWeight):
    """Integers j with -lam_n <= j <= -lam_{n+1}."""
    n = lam.n
    lo, hi = -lam.entries[n - 1], -lam.entries[n]
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# classical branching vectors via the open cell


def v_lambda_j(fac, lam: PureWeight, j: int) -> Fraction:
    """The normalized branching vector at the point whose open-cell
    factorization is fac: lam(bbar) * det(h1)^(-j) * det(h2)^(sw + j).

    fac is open_cell_factorize(g), with its dets; the value is 0 off the
    cell, where fac is None (the algebraic vector is only tested on Iw^1,
    where the extension by zero is never reached).
    """
    if j not in crit_range(lam):
        raise BranchError(f"{j} is not in the critical range")
    if fac is None:
        return Fraction(0)
    bbar = fac.bbar
    # (numerator, denominator, exponent) of each factor
    factors = [(bbar.nums[i][i], bbar.den, lam.entries[i]) for i in range(bbar.size)]
    return _power_product(factors + [(d.numerator, d.denominator, e)
                                     for d, e in zip(fac.dets, (-j, lam.sw + j))])


def v_lambda_all(g: PadicMatrix, lam: PureWeight) -> dict:
    """{j: v_lambda_j at g} for every j in the critical range, on one
    open-cell factorization of g; every value is 0 off the cell."""
    fac = open_cell_factorize(g)
    return {j: v_lambda_j(fac, lam, j) for j in crit_range(lam)}


def v_basis_values(g: PadicMatrix):
    """(v_(0), [v_(1), ..., v_(n-1)], v_(n)1, v_(n)2) at g, on one open-cell
    factorization; None off the open cell.

    These are v_lambda_j at the basis weights alpha_0 = (1^2n), alpha_i =
    (1^i, 0^(2n-2i), (-1)^i) for 0 < i < n and alpha_n = (1^n, 0^n), whose
    purity weights are 2, 0 and 1, each at the j given, read in closed form
    off the diagonal b_1, ..., b_2n of bbar and (d1, d2) = (det h1, det h2):
    v_{alpha_0, -1} = b_1 ... b_2n d1 d2 (= det g), v_{alpha_i, 0} = (b_1
    ... b_i) / (b_2n+1-i ... b_2n), v_{alpha_n, -1} = b_1 ... b_n d1 and
    v_{alpha_n, 0} = b_1 ... b_n d2.
    """
    fac = open_cell_factorize(g)
    if fac is None:
        return None
    n, (d1, d2) = g.size // 2, fac.dets
    den = fac.bbar.den ** n
    diag = [row[i] for i, row in enumerate(fac.bbar.nums)]
    head, tail = math.prod(diag[:n]), math.prod(diag[n:])
    return (Fraction(head * tail * d1.numerator * d2.numerator,
                     den * den * d1.denominator * d2.denominator),
            [Fraction(math.prod(diag[:i]), math.prod(diag[2 * n - i:])) for i in range(1, n)],
            Fraction(head * d1.numerator, den * d1.denominator),
            Fraction(head * d2.numerator, den * d2.denominator))


# ---------------------------------------------------------------------------
# congruence subsets of the Iwahori


def in_n_beta(g: PadicMatrix, beta: int) -> bool:
    """g in N(p^beta Z_p) * u: unipotent upper congruent to u mod p^beta.
    g u^{-1} = (A, B - A w_n; C, D - C w_n) by column moves, on the int rows."""
    n, d, q = g.size // 2, g.den, g.p ** (max(beta, 0) + vp(g.den, g.p))
    m = [row[:n] + tuple([row[n + j] - row[n - 1 - j] for j in range(n)]) for row in g.nums]
    return all(x == d * (i == j) if i >= j else not x % q
               for i, row in enumerate(m) for j, x in enumerate(row))


def iwahori_coordinates(g: PadicMatrix):
    """(nbar, t, n) with g = nbar * diag(t) * n: nbar lower unipotent with
    p-divisible entries, t the list of the torus's diagonal units, n upper
    unipotent.

    All three are read off one lu_unit_lower, g = L U on int rows: nbar = L,
    whose entries below the diagonal are checked to lie in p Z_p, t =
    diag(U), and n = t^{-1} U, whose row i is row i of U's int rows over
    its diagonal entry; n is assembled over the lcm of those entries and
    made canonical once."""
    if not g.in_iwahori():
        raise BranchError("element is not in the Iwahori subgroup")
    lo, up = lu_unit_lower(g)
    q = g.p ** (1 + vp(lo.den, g.p))
    if any(x % q for i, row in enumerate(lo.nums) for x in row[:i]):
        raise BranchError("Iwahori factorization failed on the lower part")
    diag = [row[i] for i, row in enumerate(up.nums)]
    den = math.lcm(*diag)
    return lo, [Fraction(x, up.den) for x in diag], PadicMatrix.from_ints(
        g.p, den, [[x * (den // d) for x in row] for row, d in zip(up.nums, diag)])


def in_iw_beta(g: PadicMatrix, beta: int) -> bool:
    """g in Iw^beta = Nbar(p Z_p) T(Z_p) N^beta(Z_p)."""
    try:
        _, _, n = iwahori_coordinates(g)
    except (BranchError, LinAlgError):
        return False
    return in_n_beta(n, beta)


def in_iwh_beta(h: PadicMatrix, beta: int) -> bool:
    """h in Iw_H^beta = H(Z_p) intersect u^{-1} Iw^beta."""
    if not h.in_h_zp():
        return False
    u = PadicMatrix.open_orbit_rep(h.p, h.size // 2)
    return in_iw_beta(u * h, beta)


# ---------------------------------------------------------------------------
# weight characters (algebraic and family)


def specialization_points(p: int, lam: PureWeight) -> list:
    """The exact points T_i = b^e - 1, b = wild_base(p), at which a family
    specializes to lam: e = sw for T_0 and e = lam_i for T_i."""
    b = Fraction(wild_base(p))
    return [b ** e - 1 for e in (lam.sw, *lam.entries[:lam.n])]


class FamilyWeight:
    """An (n+1)-parameter pure family weight at ambient precision (p^M, D).

    Coordinates: tame exponents for chi_1, ..., chi_n and for sw, together
    with one truncated-power-series variable each (T_1..T_n and T_0); the
    remaining torus coordinates are derived from purity:
    chi_{2n+1-i} = sw * chi_i^{-1}.
    """

    def __init__(self, p: int, n: int, prec: int, degree: int,
                 tame: list, tame_sw: int):
        self.p = p
        self.n = n
        self.ring = FamilyRing(p, prec, degree, n + 1)
        self.tame = list(tame)
        self.tame_sw = tame_sw
        if len(self.tame) != n:
            raise BranchError("need n tame exponents")
        self._cprec = self.ring.exponent_precision()

    def product(self, factors) -> FamSeries:
        """The product of chi_{Omega,i}(x)^k over the factors (i, x, k), for
        1 <= i <= 2n and units x, in closed form:

            prod omega(x)^(k t) * prod over var of (1 + T_var)^(sum of k e c(x)),

        with omega the Teichmueller character and c(x) = wild_exponent(x).
        (t, {var: e}) is (t_i, {i: 1}) for i <= n; for i > n it is (t_sw -
        t_j, {0: 1, j: -1}) with j = 2n + 1 - i, by purity chi_i = sw *
        chi_j^(-1).  It multiplies only the constant by at most n + 1
        univariate series.

        Each wild exponent a is passed as a mod p^N, N the exponent
        precision, and this is exact: (1 + T)^a * (1 + T)^(p^N - a) is
        (1 + T)^(p^N), whose coefficient of T^m for 1 <= m < degree has
        v_p(C(p^N, m)) = N - v_p(m) > M, since v_p(m) <=
        v_p((degree - 1)!).  So that product is 1 in the truncated ring, and
        (1 + T)^(p^N - a) is the inverse of (1 + T)^a, which is unique; and
        as (1 + T)^a (1 + T)^b = (1 + T)^(a + b) in Z/p^M[[T]]/(deg >= D),
        summing the exponents of the factors first is exact.
        """
        n, p, ring = self.n, self.p, self.ring
        order, cmod = tame_order(p), p ** self._cprec
        const, wild = 1, [0] * (n + 1)
        for i, x, k in factors:
            if 1 <= i <= n:
                tame, coords = self.tame[i - 1], ((i, 1),)
            elif n < i <= 2 * n:
                j = 2 * n + 1 - i
                tame, coords = self.tame_sw - self.tame[j - 1], ((0, 1), (j, -1))
            else:
                raise BranchError("coordinate index out of range")
            if vp(x, p) != 0:
                raise BranchError("family characters evaluate at units only")
            # wild_exponent(x, p, cprec) reads x mod p^(cprec + s), s <= 2
            x_int = residue(x, p, self._cprec + 2)
            const = const * pow(teichmuller(x_int, p, ring.prec), k * tame % order,
                                ring.modulus) % ring.modulus
            c = wild_exponent(x_int, p, self._cprec)
            for var, e in coords:
                wild[var] += k * e * c
        out = ring.const(const)
        for var, a in enumerate(wild):
            if a % cmod:
                out = out * ring.one_plus_t_power(var, a % cmod)
        return out

    # -- specialization at an algebraic member

    def contains(self, lam: PureWeight) -> bool:
        if lam.n != self.n:
            return False
        order = tame_order(self.p)
        if (lam.sw - self.tame_sw) % order:
            return False
        return all((lam.entries[i] - self.tame[i]) % order == 0
                   for i in range(self.n))

    def specialize(self, x: FamSeries, lam: PureWeight) -> int:
        """Evaluate a family coefficient at lam, mod p^M."""
        if not self.contains(lam):
            raise BranchError("weight is not a member of the family")
        return x.specialize([residue(t, self.p, self.ring.prec)
                             for t in specialization_points(self.p, lam)])

    def reduce(self, x) -> int:
        """Reduce an exact rational mod p^M."""
        if vp(x, self.p) < 0:
            raise BranchError("value is not p-integral")
        return residue(x, self.p, self.ring.prec)


def _iw1_coordinates(g: PadicMatrix):
    """(torus diagonal, v_(0), [v_(1..n-1)], v_(n)1, v_(n)2) for g in Iw^1.

    g = nbar * diag(t) * n is factored once, by one lu_unit_lower
    (iwahori_coordinates): the diagonal is t, and the v values are
    v_basis_values at n, in closed form on one open-cell factorization.  No
    PadicMatrix is multiplied and no weight is built.  Returns None off
    Iw^1; raises BranchError if the open-cell factorization of n fails
    inside Iw^1.
    """
    try:
        _, t, nmat = iwahori_coordinates(g)
    except (BranchError, LinAlgError):
        return None
    if not in_n_beta(nmat, 1):
        return None
    base = v_basis_values(nmat)
    if base is None:
        raise BranchError("open-cell factorization failed inside Iw^1")
    return (t, *base)


def _w_at(coords, weight):
    """w at the point with these Iw^1 coordinates, the product of
    chi_i(x)^k over 4n + 1 factors (i, x, k): one formula for an algebraic
    weight (exact rationals) and a family, whose product sums the
    exponents of (1 + T_var), as (1 + T)^a (1 + T)^b = (1 + T)^(a + b)."""
    diag, v0, mids, vn1, vn2 = coords
    n = len(diag) // 2
    factors = [(n + 1, v0, 1), (n + 1, vn1, -1), (n, vn2, 1)]
    factors += [(i, d, 1) for i, d in enumerate(diag, start=1)]
    for i, m in enumerate(mids, start=1):
        factors += [(i, m, 1), (i + 1, m, -1)]
    return weight.product(factors)


def w_lambda(g: PadicMatrix, lam: PureWeight) -> Fraction:
    """The algebraic product character w_lam on Iw^1 (exact rational)."""
    coords = _iw1_coordinates(g)
    if coords is None:
        raise BranchError("element is not in Iw^1")
    return _w_at(coords, lam)


def w_family(g: PadicMatrix, omega: FamilyWeight) -> FamSeries:
    """The interpolated character w_chi on Iw^1, valued in the family ring."""
    coords = _iw1_coordinates(g)
    if coords is None:
        raise BranchError("element is not in Iw^1")
    return _w_at(coords, omega)


# ---------------------------------------------------------------------------
# locally polynomial test functions on Z_p^x


class LocPoly:
    """A locally polynomial test function on Z_p^x with rational values.

    pieces maps a unit class (residue mod p^level) to (j, c), the function
    c * z^j on that class; level 0 means a single class, 0.  Classes
    without a piece give 0.
    """

    __slots__ = ("p", "level", "pieces")

    def __init__(self, p: int, level: int, pieces: dict):
        self.p = p
        self.level = level
        self.pieces = pieces

    @classmethod
    def monomial(cls, p: int, j: int) -> "LocPoly":
        return cls(p, 0, {0: (j, Fraction(1))})

    def __call__(self, z) -> Fraction:
        z = Fraction(z)
        piece = self.pieces.get(residue(z, self.p, self.level))
        if piece is None:
            return Fraction(0)
        j, c = piece
        return c * z ** j

    def translated(self, factor) -> "LocPoly":
        """z -> f(factor * z), for factor a p-adic unit."""
        factor = Fraction(factor)
        mod = self.p ** self.level
        f_inv = pow(residue(factor, self.p, self.level), -1, mod)
        # the new function is supported where factor * z falls in class r
        return LocPoly(self.p, self.level,
                       {r * f_inv % mod: (j, c * factor ** j)
                        for r, (j, c) in self.pieces.items()})


# ---------------------------------------------------------------------------
# distributions and the interpolation maps


class FiniteDistribution:
    """A finite linear combination of Dirac evaluations at Iwahori points.

    Each base point is factored once, at construction, for all the maps
    below: its open-cell factorization with its dets (cells) and its Iw^1
    coordinates (coords, None off Iw^1); w there is formed once per weight.
    """

    def __init__(self, terms):
        self.terms = [(int(c), g) for c, g in terms]
        self._w = {}
        for _, g in self.terms:
            if not g.in_iwahori():
                raise BranchError("Dirac base point must lie in the Iwahori")
        self.cells = [open_cell_factorize(g) for _, g in self.terms]
        self.coords = [_iw1_coordinates(g) for _, g in self.terms]

    def w_values(self, weight) -> list:
        if weight not in self._w:
            self._w[weight] = [None if c is None else _w_at(c, weight) for c in self.coords]
        return self._w[weight]


def kappa_family(mu: FiniteDistribution, f: LocPoly,
                 omega: FamilyWeight) -> FamSeries:
    """The sum of c * v_Omega(f)(g) over the terms (c, g), where v_Omega(f)
    is w_chi * f(v_(n),2 / v_(n),1) on Iw^1 and 0 off it."""
    out = omega.ring.zero()
    for (c, _), coords, w in zip(mu.terms, mu.coords, mu.w_values(omega)):
        val = 0 if coords is None else f(coords[4] / coords[3])
        if val != 0:
            out = out + w * omega.ring.from_rational(c * val)
    return out


def kappa_lambda(mu: FiniteDistribution, f: LocPoly, lam: PureWeight) -> Fraction:
    """The same construction at the single weight lam (exact rational)."""
    return sum((Fraction(c) * w * f(coords[4] / coords[3])
                for (c, _), coords, w in zip(mu.terms, mu.coords, mu.w_values(lam))
                if coords is not None), Fraction(0))


def kappa_lambda_j(mu: FiniteDistribution, lam: PureWeight, j: int) -> Fraction:
    return sum((Fraction(c) * v_lambda_j(fac, lam, j)
                for (c, _), fac in zip(mu.terms, mu.cells)), Fraction(0))
