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

from fractions import Fraction
from functools import cached_property

from .famring import (FamilyRing, FamSeries, tame_order, teichmuller,
                      wild_base, wild_exponent)
from .padiclin import (LinAlgError, PadicMatrix, lu_unit_lower,
                       open_cell_factorize, residue, vp)
from .rootspin import GLWeight


class BranchError(Exception):
    pass


# ---------------------------------------------------------------------------
# weights and the critical range


class PureWeight:
    """A pure dominant weight with its purity weight and critical range."""

    __slots__ = ("weight", "sw")

    def __init__(self, entries):
        self.weight = entries if isinstance(entries, GLWeight) else GLWeight(entries)
        if not self.weight.is_dominant():
            raise BranchError("weight must be dominant")
        self.sw = self.weight.purity_weight()

    @property
    def n(self):
        return self.weight.n

    def entry(self, i: int) -> int:
        x = self.weight.entries[i]
        if x.denominator != 1:
            raise BranchError("branching needs an integral weight")
        return int(x)

    def power(self, i: int, x, k: int) -> Fraction:
        """lam_i(x)^k = x^(k lam_i), 1 <= i <= 2n."""
        return Fraction(x) ** (k * self.entry(i - 1))


def crit_range(lam: PureWeight):
    """Integers j with -lam_n <= j <= -lam_{n+1}."""
    n = lam.n
    lo, hi = -lam.entry(n - 1), -lam.entry(n)
    return range(lo, hi + 1)


def alpha_weight(n: int, i: int) -> GLWeight:
    """The basis weights: alpha_0 = (1,...,1), alpha_i = (1^i, 0..0, (-1)^i)
    for 1 <= i <= n-1, alpha_n = (1^n, 0^n)."""
    if i == 0:
        return GLWeight([1] * (2 * n))
    if i == n:
        return GLWeight([1] * n + [0] * n)
    return GLWeight([1] * i + [0] * (2 * n - 2 * i) + [-1] * i)


# ---------------------------------------------------------------------------
# classical branching vectors via the open cell


def v_lambda_j(fac, lam: PureWeight, j: int) -> Fraction:
    """The normalized branching vector at the point whose open-cell
    factorization is fac: lam(bbar) * det(h1)^(-j) * det(h2)^(sw + j).

    fac is open_cell_factorize(g); the value is 0 off the cell, where fac
    is None (the algebraic vector is only tested on Iw^1, where the
    extension by zero is never reached).
    """
    if j not in crit_range(lam):
        raise BranchError(f"{j} is not in the critical range")
    if fac is None:
        return Fraction(0)
    value = Fraction(1)
    for i, d in enumerate(fac.bbar.diagonal_entries()):
        e = lam.entry(i)
        if e:
            value *= Fraction(d) ** e
    for h, e in ((fac.h1, -j), (fac.h2, int(lam.sw) + j)):
        if e:
            value *= Fraction(h.det()) ** e
    return value


def v_lambda_all(g: PadicMatrix, lam: PureWeight) -> dict:
    """{j: v_lambda_j at g} for every j in the critical range, on one
    open-cell factorization of g; every value is 0 off the cell."""
    fac = open_cell_factorize(g)
    return {j: v_lambda_j(fac, lam, j) for j in crit_range(lam)}


def v_basis_values(g: PadicMatrix):
    """(v_(0), [v_(1), ..., v_(n-1)], v_(n)1, v_(n)2) at g.

    These are v_{alpha_0, -1} = det, v_{alpha_i, 0} for 0 < i < n, and
    v_{alpha_n, -1}, v_{alpha_n, 0}, all on one open-cell factorization.
    Returns None off the open cell.
    """
    n = g.size // 2
    fac = open_cell_factorize(g)
    if fac is None:
        return None
    alpha = [PureWeight(alpha_weight(n, i)) for i in range(n + 1)]
    return (v_lambda_j(fac, alpha[0], -1),
            [v_lambda_j(fac, alpha[i], 0) for i in range(1, n)],
            v_lambda_j(fac, alpha[n], -1),
            v_lambda_j(fac, alpha[n], 0))


# ---------------------------------------------------------------------------
# congruence subsets of the Iwahori


def in_n_beta(g: PadicMatrix, beta: int) -> bool:
    """g in N(p^beta Z_p) * u: unipotent upper congruent to u mod p^beta."""
    n2 = g.size
    u = PadicMatrix.open_orbit_rep(g.p, n2 // 2)
    m = g * u.inverse()
    return m.in_upper_unipotent(depth=0) and m.congruent_identity(beta)


def iwahori_coordinates(g: PadicMatrix):
    """(nbar, t, n) with g = nbar * t * n, nbar lower unipotent with
    p-divisible entries, t diagonal units, n upper unipotent."""
    if not g.in_iwahori():
        raise BranchError("element is not in the Iwahori subgroup")
    lo, up = lu_unit_lower(g)
    if not lo.transpose().in_upper_unipotent(depth=1):
        raise BranchError("Iwahori factorization failed on the lower part")
    t = up.diagonal_entries()
    tinv = PadicMatrix.diagonal(g.p, [1 / x for x in t])
    n = tinv * up
    return lo, PadicMatrix.diagonal(g.p, t), n


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
    return [b ** e - 1 for e in [int(lam.sw)] + [lam.entry(i) for i in range(lam.n)]]


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

    def power(self, i: int, x, k: int) -> FamSeries:
        """chi_{Omega,i}(x)^k for 1 <= i <= 2n and a unit x, in closed form:

            omega(x)^(k t) * prod over var of (1 + T_var)^(k e c(x)),

        with omega the Teichmueller character and c(x) = wild_exponent(x).
        (t, {var: e}) is (t_i, {i: 1}) for i <= n; for i > n it is (t_sw -
        t_j, {0: 1, j: -1}) with j = 2n + 1 - i, by purity chi_i = sw *
        chi_j^(-1).

        A negative exponent a is passed as a mod p^N, N the exponent
        precision, and this is exact: (1 + T)^a * (1 + T)^(p^N - a) is
        (1 + T)^(p^N), whose coefficient of T^m for 1 <= m < degree has
        v_p(C(p^N, m)) = N - v_p(m) > M, since v_p(m) <=
        v_p((degree - 1)!).  So that product is 1 in the truncated ring, and
        (1 + T)^(p^N - a) is the inverse of (1 + T)^a, which is unique.
        """
        n = self.n
        if 1 <= i <= n:
            tame, wild = self.tame[i - 1], {i: 1}
        elif n < i <= 2 * n:
            j = 2 * n + 1 - i
            tame, wild = self.tame_sw - self.tame[j - 1], {0: 1, j: -1}
        else:
            raise BranchError("coordinate index out of range")
        if vp(x, self.p) != 0:
            raise BranchError("family characters evaluate at units only")
        ring = self.ring
        # wild_exponent(x, p, cprec) reads x mod p^(cprec + s), s <= 2
        x_int = residue(x, self.p, self._cprec + 2)
        c = wild_exponent(x_int, self.p, self._cprec)
        out = ring.const(pow(teichmuller(x_int, self.p, ring.prec),
                             k * tame % tame_order(self.p), ring.modulus))
        for var, e in wild.items():
            out = out * ring.one_plus_t_power(var, k * e * c % self.p ** self._cprec)
        return out

    # -- specialization at an algebraic member

    def contains(self, lam: PureWeight) -> bool:
        if lam.n != self.n:
            return False
        order = tame_order(self.p)
        if (int(lam.sw) - self.tame_sw) % order:
            return False
        return all((lam.entry(i) - self.tame[i]) % order == 0
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

    g = nbar * t * n is factored once: the diagonal is that of t, and the
    v values are v_basis_values at n.  Returns None off Iw^1; raises
    BranchError if the open-cell factorization of n fails inside Iw^1.
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
    return (t.diagonal_entries(), *base)


def _w_at(coords, chi):
    """w at the point with these Iw^1 coordinates, for the torus character
    chi(i, x, k) = chi_i(x)^k, 1 <= i <= 2n: one formula for an algebraic
    weight (exact rationals) and a family (the family ring)."""
    diag, v0, mids, vn1, vn2 = coords
    n = len(diag) // 2
    out = chi(n + 1, v0, 1) * chi(n + 1, vn1, -1) * chi(n, vn2, 1)
    for i, d in enumerate(diag, start=1):
        out = out * chi(i, d, 1)
    for i, m in enumerate(mids, start=1):
        out = out * chi(i, m, 1) * chi(i + 1, m, -1)
    return out


def w_lambda(g: PadicMatrix, lam: PureWeight) -> Fraction:
    """The algebraic product character w_lam on Iw^1 (exact rational)."""
    coords = _iw1_coordinates(g)
    if coords is None:
        raise BranchError("element is not in Iw^1")
    return _w_at(coords, lam.power)


def w_family(g: PadicMatrix, omega: FamilyWeight) -> FamSeries:
    """The interpolated character w_chi on Iw^1, valued in the family ring."""
    coords = _iw1_coordinates(g)
    if coords is None:
        raise BranchError("element is not in Iw^1")
    return _w_at(coords, omega.power)


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

    Each base point is factored once, on first use, for all the maps
    below: its open-cell factorization (cells) and its Iw^1 coordinates
    (coords, None off Iw^1).
    """

    def __init__(self, terms):
        self.terms = [(int(c), g) for c, g in terms]
        for _, g in self.terms:
            if not g.in_iwahori():
                raise BranchError("Dirac base point must lie in the Iwahori")

    @cached_property
    def cells(self) -> list:
        return [open_cell_factorize(g) for _, g in self.terms]

    @cached_property
    def coords(self) -> list:
        return [_iw1_coordinates(g) for _, g in self.terms]


def kappa_family(mu: FiniteDistribution, f: LocPoly,
                 omega: FamilyWeight) -> FamSeries:
    """The sum of c * v_Omega(f)(g) over the terms (c, g), where v_Omega(f)
    is w_chi * f(v_(n),2 / v_(n),1) on Iw^1 and 0 off it."""
    out = omega.ring.zero()
    for (c, _), coords in zip(mu.terms, mu.coords):
        val = 0 if coords is None else f(coords[4] / coords[3])
        if val != 0:
            out = out + _w_at(coords, omega.power) * omega.ring.from_rational(val) * c
    return out


def kappa_lambda(mu: FiniteDistribution, f: LocPoly, lam: PureWeight) -> Fraction:
    """The same construction at the single weight lam (exact rational)."""
    return sum((Fraction(c) * _w_at(coords, lam.power) * f(coords[4] / coords[3])
                for (c, _), coords in zip(mu.terms, mu.coords) if coords is not None),
               Fraction(0))


def kappa_lambda_j(mu: FiniteDistribution, lam: PureWeight, j: int) -> Fraction:
    return sum((Fraction(c) * v_lambda_j(fac, lam, j)
                for (c, _), fac in zip(mu.terms, mu.cells)), Fraction(0))
