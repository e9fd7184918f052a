"""Exact coefficient arithmetic for the local computations.

Two layers:

* ``CycNum`` -- elements of the cyclotomic field Q(zeta_M), stored as
  coefficient vectors reduced modulo the M-th cyclotomic polynomial, so
  equality is literal equality of vectors.  Different orders coexist and
  are promoted to a common field (lcm of the orders) on contact.

* ``SymElem`` -- fractions of Laurent polynomials over CycNum in named
  formal generators.  The generator ``Y`` carries the single relation
  Y^2 = p (it plays the role of p^(1/2)); everything else (``S`` for p^s,
  ``X1..X2n`` for Satake values, ``E`` for the Shalika central value,
  auxiliary unit symbols) is free.  Denominators are kept factored as
  products of terms (1 - unit monomial); these only ever arise from
  geometric series tails, so they stay sparse and equality can be decided
  by cross-multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class SymringError(Exception):
    pass


class VanishingDenominator(SymringError):
    """A denominator factor became zero under substitution."""


class DivergentSeries(SymringError):
    pass


class NonUnitDivision(SymringError):
    pass


# ---------------------------------------------------------------------------
# cyclotomic numbers


def _poly_divmod(num, den):
    """Quotient and remainder of dense Fraction coefficient lists."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int):
    """Dense coefficients of the m-th cyclotomic polynomial."""
    if m == 1:
        return (Fraction(-1), Fraction(1))
    # x^m - 1 divided by the product of all proper cyclotomic divisors
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod(num, list(cyclotomic_poly(d)))
            assert all(c == 0 for c in r)
            num = q
    return tuple(num)


def _reduce_mod_cyclotomic(coeffs, m):
    phi = list(cyclotomic_poly(m))
    deg = len(phi) - 1
    coeffs = list(coeffs)
    if len(coeffs) < deg:
        coeffs += [Fraction(0)] * (deg - len(coeffs))
        return coeffs
    _, r = _poly_divmod(coeffs, phi)
    r += [Fraction(0)] * (deg - len(r))
    return r[:deg]


class CycNum:
    """An element of Q(zeta_order), canonically reduced."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in _reduce_mod_cyclotomic(coeffs, order))

    # -- constructors

    @classmethod
    def from_rational(cls, x) -> "CycNum":
        return cls(1, [Fraction(x)])

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "CycNum":
        power %= order
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        return cls(order, coeffs)

    # -- coercion

    def promoted(self, order: int) -> "CycNum":
        if order == self.order:
            return self
        if order % self.order:
            raise SymringError(f"cannot embed Q(zeta_{self.order}) in Q(zeta_{order})")
        step = order // self.order
        out = [Fraction(0)] * (len(self.coeffs) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return CycNum(order, out)

    @staticmethod
    def _pair(a, b):
        b = _as_cyc(b)
        m = math.lcm(a.order, b.order)
        return a.promoted(m), b.promoted(m), m

    # -- predicates

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise SymringError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic

    def __add__(self, other):
        a, b, m = CycNum._pair(self, other)
        return CycNum(m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_cyc(other))

    def __mul__(self, other):
        a, b, m = CycNum._pair(self, other)
        return CycNum(m, _poly_mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CycNum(self.order, [1 / self.coeffs[0]])
        # extended euclid against the cyclotomic polynomial:
        # maintain s_k with s_k * self = r_k modulo Phi_M
        phi = list(cyclotomic_poly(self.order))
        r1 = list(self.coeffs)
        while len(r1) > 1 and r1[-1] == 0:
            r1.pop()
        r0 = phi
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            q, r = _poly_divmod(r0, r1)
            s_next = _poly_sub(s0, _poly_mul(q, s1))
            if len(r) == 1:
                if r[0] == 0:
                    if len(r1) == 1:
                        return CycNum(self.order, [c / r1[0] for c in s1])
                    raise SymringError(
                        "non-invertible element (shares a factor with the "
                        "cyclotomic polynomial)")
                return CycNum(self.order, [c / r[0] for c in s_next])
            r0, r1 = r1, r
            s0, s1 = s1, s_next

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, CycNum.from_rational(1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b, _ = CycNum._pair(self, other)
        return a.coeffs == b.coeffs

    def serial(self):
        """Canonical tag used for sorting denominator factors."""
        if self.is_rational():
            return (1, (str(self.coeffs[0]),))
        return (self.order, tuple(str(c) for c in self.coeffs))

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.order}^{i}" if i else str(c))
        return "(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# Laurent polynomials over CycNum, with Y^2 = p


def _as_cyc(c) -> CycNum:
    if isinstance(c, CycNum):
        return c
    return CycNum.from_rational(c)


class _Poly:
    """Sparse Laurent polynomial: {exponent monomial: CycNum}.

    Monomial keys are tuples of (name, exp) sorted by name, exp != 0; the
    Y-exponent is normalized to {0, 1} by folding Y^2 -> p into the
    coefficient.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        self.p = p
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, p, c) -> "_Poly":
        c = _as_cyc(c)
        return cls(p, {} if c.is_zero() else {(): c})

    @classmethod
    def monomial(cls, p, coeff, exps: dict) -> "_Poly":
        coeff = _as_cyc(coeff)
        if coeff.is_zero():
            return cls(p, {})
        key, coeff = _norm_mono(p, exps, coeff)
        return cls(p, {key: coeff})

    def is_zero(self):
        return not self.terms

    def copy(self):
        return _Poly(self.p, dict(self.terms))

    def _iadd_term(self, key, coeff):
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if isinstance(new, CycNum) and new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other):
        out = self.copy()
        for k, c in other.terms.items():
            out._iadd_term(k, c)
        return out

    def __neg__(self):
        return _Poly(self.p, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = _Poly(self.p, {})
        for k1, c1 in self.terms.items():
            e1 = dict(k1)
            for k2, c2 in other.terms.items():
                e = dict(e1)
                for name, ex in k2:
                    e[name] = e.get(name, 0) + ex
                key, coeff = _norm_mono(self.p, e, c1 * c2)
                if not coeff.is_zero():
                    out._iadd_term(key, coeff)
        return out

    def __eq__(self, other):
        if not isinstance(other, _Poly):
            return NotImplemented
        return self.terms == other.terms

    def serial(self):
        items = sorted(self.terms.items())
        return tuple((k, self.terms[k].serial()) for k, _ in items)

    def single_term(self):
        """(key, coeff) if the polynomial is a single monomial, else None."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            mono = "*".join(f"{n}^{e}" if e != 1 else n for n, e in k)
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)


def _norm_mono(p, exps: dict, coeff: CycNum):
    """Canonical (key, coeff) with Y-exponent folded to {0, 1}."""
    e = {n: x for n, x in exps.items() if x != 0}
    y = e.get("Y", 0)
    r = y % 2
    q = (y - r) // 2
    if q:
        coeff = coeff * Fraction(p) ** q
    if r:
        e["Y"] = r
    else:
        e.pop("Y", None)
    return tuple(sorted(e.items())), coeff


# ---------------------------------------------------------------------------
# SymElem


class SymElem:
    """A fraction num / prod(factors), factors of the form (1 - monomial)."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, num: _Poly, den=()):
        self.p = p
        self.num = num
        self.den = tuple(den)
        if num.is_zero():
            self.den = ()

    # -- constructors

    @classmethod
    def rational(cls, p, x) -> "SymElem":
        return cls(p, _Poly.const(p, Fraction(x)))

    @classmethod
    def from_cyc(cls, p, c: CycNum) -> "SymElem":
        return cls(p, _Poly.const(p, c))

    @classmethod
    def gen(cls, p, name: str, exp: int = 1) -> "SymElem":
        return cls(p, _Poly.monomial(p, 1, {name: exp}))

    @classmethod
    def monomial(cls, p, coeff, exps: dict) -> "SymElem":
        return cls(p, _Poly.monomial(p, coeff, exps))

    @classmethod
    def p_power(cls, p, e) -> "SymElem":
        """p^e for integer or half-integer e (halves go through Y)."""
        e = Fraction(e)
        if e.denominator == 1:
            return cls.rational(p, Fraction(p) ** int(e))
        if e.denominator != 2:
            raise SymringError(f"p^{e} is not representable (only half-integer exponents)")
        return cls.monomial(p, 1, {"Y": int(2 * e)})

    # -- predicates

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self == SymElem.rational(self.p, 1)

    def as_monomial(self):
        """(coeff, exps dict) if numerator is a single monomial and den empty."""
        st = self.num.single_term()
        if st is None or self.den:
            return None
        key, coeff = st
        return coeff, dict(key)

    # -- arithmetic

    def _check(self, other) -> "SymElem":
        if isinstance(other, (int, Fraction)):
            other = SymElem.rational(self.p, other)
        elif isinstance(other, CycNum):
            other = SymElem.from_cyc(self.p, other)
        if not isinstance(other, SymElem):
            raise TypeError(f"cannot combine SymElem with {type(other)}")
        if other.p != self.p:
            raise SymringError("mixed ambient primes")
        return other

    def __mul__(self, other):
        other = self._check(other)
        return SymElem(self.p, self.num * other.num,
                       _sorted_factors(self.den + other.den))

    __rmul__ = __mul__

    def __neg__(self):
        return SymElem(self.p, -self.num, self.den)

    def __add__(self, other):
        other = self._check(other)
        # common denominator: multiset max of the two factor lists
        common = _multiset_max(self.den, other.den)
        num_a = self.num
        for f in _multiset_diff(common, self.den):
            num_a = num_a * f
        num_b = other.num
        for f in _multiset_diff(common, other.den):
            num_b = num_b * f
        return SymElem(self.p, num_a + num_b, common)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._check(other) - self

    def inverse(self) -> "SymElem":
        st = self.num.single_term()
        if st is None:
            raise NonUnitDivision("can only invert elements with monomial numerator")
        key, coeff = st
        inv_exps = {n: -e for n, e in dict(key).items()}
        inv = _Poly.monomial(self.p, coeff.inverse(), inv_exps)
        num = inv
        for f in self.den:
            num = num * f
        return SymElem(self.p, num, ())

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, SymElem.rational(self.p, 1))

    def __eq__(self, other):
        try:
            other = self._check(other)
        except TypeError:
            return NotImplemented
        lhs = self.num
        for f in other.den:
            lhs = lhs * f
        rhs = other.num
        for f in self.den:
            rhs = rhs * f
        return lhs == rhs

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        dens = " * ".join(f"({f})" for f in self.den)
        return f"({self.num}) / [{dens}]"

    # -- substitution

    def substitute(self, assignment: dict) -> "SymElem":
        """Substitution homomorphism; values are SymElems (or scalars).

        Generators absent from ``assignment`` are left alone.  The Y-relation
        is re-enforced because all arithmetic passes through the normal form.
        """
        vals = {}
        for k, v in assignment.items():
            vals[k] = self._check(v)
        num = _subst_poly(self.num, vals, self.p)
        out = SymElem(self.p, num, ())
        for f in self.den:
            fv = _subst_poly(f, vals, self.p)
            felem = SymElem(self.p, fv, ())
            if felem.is_zero():
                raise VanishingDenominator(f"denominator factor vanished: {f}")
            st = fv.single_term()
            if st is not None:
                out = out * felem.inverse()
            elif _is_one_minus_monomial(fv):
                out = SymElem(out.p, out.num, _sorted_factors(out.den + (fv,)))
            else:
                raise NonUnitDivision(
                    f"substituted denominator factor is not invertible: {fv}")
        return out


def _is_one_minus_monomial(f: _Poly) -> bool:
    if len(f.terms) != 2:
        return False
    c0 = f.terms.get(())
    return c0 is not None and c0 == 1


def _power(base, k: int, one):
    """base^k for k >= 0 by square-and-multiply, starting from one."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _sorted_factors(factors):
    return tuple(sorted(factors, key=lambda f: f.serial()))


def _multiset_max(a, b):
    """Multiset maximum of two factor tuples, by polynomial equality."""
    return _sorted_factors(list(a) + _multiset_diff(b, a))


def _multiset_diff(a, b):
    """Factors of a not matched by factors of b."""
    out = list(a)
    for f in b:
        for i, g in enumerate(out):
            if f == g:
                out.pop(i)
                break
    return out


def _subst_poly(poly: _Poly, vals: dict, p: int) -> _Poly:
    out = SymElem.rational(p, 0)
    for key, coeff in poly.terms.items():
        term = SymElem.from_cyc(p, coeff)
        for name, e in key:
            if name in vals:
                v = vals[name]
                if e < 0 and v.as_monomial() is None:
                    raise NonUnitDivision(
                        f"generator {name} appears with negative exponent; "
                        f"assigned value is not a unit monomial")
                term = term * v ** e
            else:
                term = term * SymElem.gen(p, name, e)
        out = out + term
    if out.den:
        # substitution values were fractions; fold their factors back in
        raise NonUnitDivision("substitution produced nested fractions")
    return out.num


def geometric_tail(first_term: SymElem, ratio: SymElem) -> SymElem:
    """first_term / (1 - ratio), for ratio a unit monomial != 1."""
    mono = ratio.as_monomial()
    if mono is None:
        raise DivergentSeries("geometric ratio must be a unit monomial")
    if ratio == SymElem.rational(ratio.p, 1):
        raise DivergentSeries("divergent formal series: ratio = 1")
    if ratio.is_zero():
        return first_term
    factor = _Poly.const(ratio.p, 1) - ratio.num
    return SymElem(first_term.p, first_term.num,
                   _sorted_factors(first_term.den + (factor,)))
