"""Truncated Iwasawa-algebra coefficients for weight families.

A family weight coordinate is a character x -> tame(omega(x)) *
(1 + T)^(log<x> / log b), where omega is the Teichmueller character, <x>
the 1-unit part, and b the standard topological generator (1 + p for odd
p, 5 for p = 2).  We model the coefficient ring as

    Z/p^M [[T_0, ..., T_{nvars-1}]] / (total degree >= degree)

at the one precision M of the family (FamilyRing says why no coefficient
needs more digits).  All arithmetic is exact on integers: the exponent
log<x> / log b is the discrete logarithm of <x> to the base b in the
finite group of 1-units, read off one p-adic digit at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .padiclin import residue, vp


class FamringError(Exception):
    pass


def teichmuller(x: int, p: int, prec: int) -> int:
    """The root-of-unity part of a unit, mod p^prec."""
    mod = p ** prec
    x %= mod
    if x % p == 0:
        raise FamringError("Teichmueller lift of a non-unit")
    if p == 2:
        return 1 if x % 4 == 1 else mod - 1
    return pow(x, p ** (prec - 1), mod)


def tame_order(p: int) -> int:
    """The order of the Teichmueller character: the roots of unity in Z_p
    are +-1 at p = 2 and the (p-1)-th roots otherwise."""
    return 2 if p == 2 else p - 1


def one_unit_part(x: int, p: int, prec: int) -> int:
    mod = p ** prec
    return x * pow(teichmuller(x, p, prec), -1, mod) % mod


def wild_base(p: int) -> int:
    return 5 if p == 2 else 1 + p


def wild_exponent(x: int, p: int, prec: int) -> int:
    """c(x) = log<x> / log(b) mod p^prec, an exact p-adic integer.

    With s = 1 (s = 2 at p = 2) and b = wild_base(p), the 1-units mod
    p^(prec+s) form a cyclic group of order p^prec generated by b, and
    b^(p^k) = 1 + p^(k+s) mod p^(k+s+1).  So <x> = b^c for a unique c mod
    p^prec, and the loop reads it off one digit at a time: if y = <x> b^(-c')
    with c' = c mod p^k, then y = 1 + d p^(k+s) mod p^(k+s+1), d the k-th
    digit of c.  So x is read modulo p^(prec+s): it must be given exactly
    or modulo p^(prec+s) or a larger power, else the top digits are wrong.
    """
    shift = 2 if p == 2 else 1
    mod = p ** (prec + shift)
    b_inv = pow(wild_base(p), -1, mod)
    y = one_unit_part(x, p, prec + shift)
    c = 0
    for k in range(prec):
        d = (y - 1) // p ** (k + shift) % p
        y = y * pow(b_inv, d * p ** k, mod) % mod
        c += d * p ** k
    return c


class FamilyRing:
    """Truncated power series ring over Z/p^prec in nvars variables.

    No step needs digits above p^prec.  Reduction mod p^prec is a ring
    homomorphism; besides ring operations there are only Teichmueller
    residues, which depend on x mod p^prec, and binomials C(c, k), k <
    degree, which depend on c mod p^(prec + v_p(k!)) (k! C(c, k) is an
    integer polynomial in c): exponent_precision supplies those digits of c,
    and wild_exponent reads s more digits of x to give them.
    """

    def __init__(self, p: int, prec: int, degree: int, nvars: int):
        self.p = p
        self.prec = prec
        self.modulus = p ** prec
        self.degree = degree
        self.nvars = nvars

    def zero(self) -> "FamSeries":
        return FamSeries(self, {})

    def const(self, c: int) -> "FamSeries":
        c = int(c) % self.modulus
        return FamSeries(self, {(0,) * self.nvars: c} if c else {})

    def from_rational(self, x) -> "FamSeries":
        if vp(x, self.p) < 0:
            raise FamringError("rational has p in the denominator")
        return self.const(residue(x, self.p, self.prec))

    def one_plus_t_power(self, i: int, exponent: int) -> "FamSeries":
        """(1 + T_i)^exponent for a p-adic integer exponent, given by a
        nonnegative representative.

        The exponent must be supplied modulo p^(prec + v_p((D-1)!));
        passing it modulo a larger power is always safe.
        """
        coeffs = {}
        e0 = [0] * self.nvars
        for k in range(self.degree):
            c = comb(exponent, k) % self.modulus
            if c:
                e = list(e0)
                e[i] = k
                coeffs[tuple(e)] = c
        return FamSeries(self, coeffs)

    def exponent_precision(self) -> int:
        """Precision to which (1+T)^c exponents should be computed: the
        precision plus v_p((degree-1)!), so every truncated binomial
        coefficient is well defined."""
        fact_v = sum(vp(k, self.p) for k in range(2, self.degree))
        return self.prec + fact_v + 1


class FamSeries:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: FamilyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = {e: c % ring.modulus for e, c in coeffs.items()
                       if c % ring.modulus}

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = (out.get(e, 0) + c) % self.ring.modulus
        return FamSeries(self.ring, out)

    __radd__ = __add__

    def _coerce(self, other) -> "FamSeries":
        if isinstance(other, FamSeries):
            if other.ring is not self.ring:
                raise FamringError("mixed family rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_rational(other)
        raise TypeError(f"cannot coerce {type(other)}")

    def __mul__(self, other):
        other = self._coerce(other)
        ring = self.ring
        out = {}
        deg = ring.degree
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) >= deg:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % ring.modulus
        return FamSeries(ring, out)

    __rmul__ = __mul__

    def specialize(self, values) -> int:
        """Evaluate at T_i = values[i], mod p^prec."""
        mod = self.ring.modulus
        total = 0
        for e, c in self.coeffs.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * pow(values[i], k, mod) % mod
            total = (total + term) % mod
        return total

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            mono = "*".join(f"T{i}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"{self.coeffs[e]}{'*' + mono if mono else ''}")
        return " + ".join(parts)
