"""Truncated Iwasawa-algebra coefficients for weight families.

A family weight coordinate is a character x -> tame(omega(x)) *
(1 + T)^(log<x> / log b), where omega is the Teichmueller character, <x>
the 1-unit part, and b the standard topological generator (1 + p for odd
p, 5 for p = 2).  We model the coefficient ring as

    Z/p^MM [[T_0, ..., T_{nvars-1}]] / (total degree >= degree)

with MM = target precision + guard digits, so that binomial coefficients
of p-adic exponents are well defined modulo the target precision.  All
reductions are exact integer arithmetic; logs are evaluated as exact
rational partial sums and reduced at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .padiclin import residue, vp


GUARD_DIGITS = 6  # MM - target precision


class FamringError(Exception):
    pass


def padic_log(x: int, p: int, prec: int) -> int:
    """log(x) mod p^prec for x = 1 mod p (mod 4 when p = 2)."""
    mod = p ** prec
    x %= mod
    y = x - 1
    if y % (p if p != 2 else 4) != 0:
        raise FamringError("logarithm needs a 1-unit")
    if y == 0:
        return 0
    total = Fraction(0)
    term_num = 1
    k = 1
    vy = vp(y, p)
    while True:
        # v_p(y^k / k) = k*vy - v_p(k); stop when that clears prec
        if k * vy - vp(k, p) >= prec and k > 1:
            break
        term_num *= y
        total += Fraction((-1) ** (k + 1) * term_num, k)
        k += 1
        if k > 8 * prec + 16:
            raise FamringError("log series failed to converge")
        term_num %= p ** (prec + 2 * k)
    if vp(total, p) < 0:
        raise FamringError("unexpected p in log denominator")
    return residue(total, p, prec)


def teichmuller(x: int, p: int, prec: int) -> int:
    """The root-of-unity part of a unit, mod p^prec."""
    mod = p ** prec
    x %= mod
    if x % p == 0:
        raise FamringError("Teichmueller lift of a non-unit")
    if p == 2:
        return 1 if x % 4 == 1 else mod - 1
    out = x
    for _ in range(prec - 1):
        out = pow(out, p, mod)
    return out


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
    """c(x) = log<x> / log(b) mod p^prec, an exact p-adic integer."""
    shift = 2 if p == 2 else 1
    big = prec + shift
    lx = padic_log(one_unit_part(x, p, big), p, big)
    lb = padic_log(wild_base(p), p, big)
    ps = p ** shift
    if lb % ps != 0 or lx % ps != 0:
        raise FamringError("wild logs have unexpected valuation")
    mod = p ** prec
    return (lx // ps) * pow(lb // ps, -1, mod) % mod


class FamilyRing:
    """Truncated power series ring over Z/p^MM in nvars variables."""

    def __init__(self, p: int, prec_exp: int, degree: int, nvars: int):
        self.p = p
        self.target_exp = prec_exp
        self.work_exp = prec_exp + GUARD_DIGITS
        self.modulus = p ** self.work_exp
        self.target_modulus = p ** prec_exp
        self.degree = degree
        self.nvars = nvars

    def zero(self) -> "FamSeries":
        return FamSeries(self, {})

    def one(self) -> "FamSeries":
        return self.const(1)

    def const(self, c: int) -> "FamSeries":
        c = int(c) % self.modulus
        return FamSeries(self, {(0,) * self.nvars: c} if c else {})

    def from_rational(self, x) -> "FamSeries":
        if vp(x, self.p) < 0:
            raise FamringError("rational has p in the denominator")
        return self.const(residue(x, self.p, self.work_exp))

    def one_plus_t_power(self, i: int, exponent: int) -> "FamSeries":
        """(1 + T_i)^exponent for a p-adic integer exponent.

        The exponent must be supplied modulo p^(work_exp + v_p((D-1)!));
        passing it modulo a larger power is always safe.
        """
        coeffs = {}
        e0 = [0] * self.nvars
        for k in range(self.degree):
            c = comb_int(exponent, k) % self.modulus
            if c:
                e = list(e0)
                e[i] = k
                coeffs[tuple(e)] = c
        return FamSeries(self, coeffs)

    def exponent_precision(self) -> int:
        """Precision to which (1+T)^c exponents should be computed: the
        working precision plus v_p((degree-1)!), so every truncated
        binomial coefficient is well defined."""
        fact_v = sum(vp(k, self.p) for k in range(2, self.degree))
        return self.work_exp + fact_v + 1


def comb_int(c: int, k: int) -> int:
    """c (c-1) ... (c-k+1) / k! for a nonnegative integer representative."""
    if k == 0:
        return 1
    num = 1
    for j in range(k):
        num *= c - j
    q, r = divmod(num, factorial(k))
    if r:
        raise FamringError("binomial was not integral")
    return q


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

    def __neg__(self):
        return FamSeries(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

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
        """Evaluate at T_i = values[i], mod p^work_exp."""
        mod = self.ring.modulus
        total = 0
        for e, c in self.coeffs.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * pow(values[i], k, mod) % mod
            total = (total + term) % mod
        return total

    def eq_target(self, other) -> bool:
        """Equality modulo the target precision p^M."""
        other = self._coerce(other)
        m = self.ring.target_modulus
        keys = set(self.coeffs) | set(other.coeffs)
        return all((self.coeffs.get(e, 0) - other.coeffs.get(e, 0)) % m == 0
                   for e in keys)

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
