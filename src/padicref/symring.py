"""Exact coefficient arithmetic for the local computations.

Two layers:

* ``CycNum`` -- elements of the cyclotomic field Q(zeta_M), stored as
  integer numerators over one positive denominator in the basis
  1, zeta, ..., zeta^(phi(M) - 1).  Reduction modulo the M-th cyclotomic
  polynomial adds integer rows of a per-order fold table, and the gcd is
  divided out, so the form is unique and equality is literal equality.
  Different orders coexist and are promoted to a common field (lcm of the
  orders) on contact; a rational factor (int, Fraction or order 1) only
  scales the numerators, with no promotion.  A sum of roots of unity is
  one ``root_sum`` over their exponents: one count vector, reduced once.
  Only nonzero rationals invert: identities between values that carry
  Gauss sums are checked by cross-multiplication, so no irrational value
  is ever divided by.

* ``SymElem`` -- fractions of Laurent polynomials over CycNum in named
  formal generators.  The generator ``Y`` carries the single relation
  Y^2 = p (it plays the role of p^(1/2)); everything else (``S`` for p^s,
  ``X1..X2n`` for Satake values, ``E`` for the Shalika central value,
  auxiliary unit symbols) is free.  Denominators are kept factored as
  products of terms (1 - unit monomial), unordered; all come from
  ``geometric_tail``, so they stay sparse, equality is decided by
  cross-multiplication and factors are matched by ``==``.  Only
  ``__repr__`` orders them, sorted by repr.  A constant factor scales the
  coefficients and keeps the keys.  Powers and substitution take unit
  monomials only, which is all the local theory needs (S -> p^(j + 1/2)).
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


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int):
    """Integer coefficients of the m-th cyclotomic polynomial, constant first."""
    # x^m - 1 divided by the product of all proper cyclotomic divisors; each
    # divisor is monic, so the long division stays in the integers
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi = cyclotomic_poly(d)
            q = [0] * (len(num) - len(phi) + 1)
            for i in range(len(q) - 1, -1, -1):
                q[i] = c = num[i + len(phi) - 1]
                for j, f in enumerate(phi):
                    num[i + j] -= c * f
            num = q
    return tuple(num)


@lru_cache(maxsize=None)
def _fold_table(m: int):
    """(phi(m), rows) with rows[k - phi(m)] = x^k mod Phi_m for phi(m) <= k < m.

    Phi_m is monic with integer coefficients, so every row is integral."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rows, row = [], [-c for c in phi[:deg]]
    for _ in range(deg, m):
        rows.append(tuple(row))
        row = [r - row[-1] * c for r, c in zip([0] + row[:-1], phi)]
    return deg, tuple(rows)


class CycNum:
    """An element of Q(zeta_order): sum(nums[i] zeta^i) / den, i < phi(order).

    The powers 1, zeta, ..., zeta^(phi - 1) are a Q-basis of the field, so
    every element has exactly one coefficient vector in it, and exactly one
    way to write that vector as integer numerators over a denominator
    den > 0 with gcd(den, *nums) = 1 (zero is nums = (0, ..., 0), den = 1).
    Equality is therefore literal equality of (nums, den) once both sides are
    promoted to the lcm of their orders.  Equal values of different orders
    compare equal but store different tuples, so there is no hash.

    Every value is built by ``_set``: it folds index i onto i mod order
    (zeta^order = 1), adds c * (x^k mod Phi_order) into the low phi slots for
    each c at k >= phi, and divides out the gcd.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set(order, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def _set(self, order, nums, den):
        if order == 1:  # a rational: its numerators sum, then gcd and sign
            c = sum(nums)
            g = -math.gcd(den, c) if den < 0 else math.gcd(den, c)
            self.order, self.nums, self.den = 1, (c // g,), den // g
            return
        deg, rows = _fold_table(order)
        if len(nums) > order:
            wrapped = [0] * order
            for i, c in enumerate(nums):
                wrapped[i % order] += c
            nums = wrapped
        out = list(nums[:deg]) + [0] * (deg - len(nums))
        for c, row in zip(nums[deg:], rows):
            if c:
                out = [x + c * r for x, r in zip(out, row)]
        g = math.gcd(den, *out)
        if den < 0:
            g = -g
        self.order = order
        self.nums = tuple(x // g for x in out) if g != 1 else tuple(out)
        self.den = den // g

    @classmethod
    def _make(cls, order, nums, den) -> "CycNum":
        out = object.__new__(cls)
        out._set(order, nums, den)
        return out

    # -- constructors

    @classmethod
    def from_rational(cls, x) -> "CycNum":
        if type(x) is int:
            return cls._make(1, (x,), 1)
        x = Fraction(x)
        return cls._make(1, (x.numerator,), x.denominator)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "CycNum":
        return cls._make(order, [0] * (power % order) + [1], 1)

    @classmethod
    def root_sum(cls, order: int, exponents) -> "CycNum":
        """The sum of zeta_order^e over the exponents e, with multiplicity:
        the count of each e mod order is one integer vector, reduced once."""
        counts = [0] * order
        for e in exponents:
            counts[e % order] += 1
        return cls._make(order, counts, 1)

    # -- coercion

    def promoted(self, order: int) -> "CycNum":
        if order == self.order:
            return self
        if order % self.order:
            raise SymringError(f"cannot embed Q(zeta_{self.order}) in Q(zeta_{order})")
        step = order // self.order
        out = [0] * (len(self.nums) * step)
        out[::step] = self.nums
        return CycNum._make(order, out, self.den)

    @staticmethod
    def _pair(a, b):
        b = _as_cyc(b)
        m = math.lcm(a.order, b.order)
        return a.promoted(m), b.promoted(m), m

    # -- predicates

    @property
    def coeffs(self):
        """The coefficient of each zeta^i as a reduced Fraction."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise SymringError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic

    def __add__(self, other):
        a, b, m = CycNum._pair(self, other)
        return CycNum._make(m, [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)],
                            a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._make(self.order, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-_as_cyc(other))

    def __mul__(self, other):
        if type(other) is int:
            return CycNum._make(self.order, [c * other for c in self.nums], self.den)
        a, x = (self, _as_cyc(other)) if self.order != 1 else (_as_cyc(other), self)
        if x.order != 1:
            a, b, _ = CycNum._pair(a, x)
            return _product(a, b)
        # a rational factor scales the numerators: no promotion, no convolution
        return CycNum._make(a.order, [c * x.nums[0] for c in a.nums], a.den * x.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """1 / self for a nonzero rational self; an irrational self raises
        NonUnitDivision (see the module docstring)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if not self.is_rational():
            raise NonUnitDivision(f"only rationals invert, not {self}")
        return CycNum._make(self.order, [self.den], self.nums[0])

    def __pow__(self, k: int):
        if k and self.is_rational():
            x = self.as_rational() ** k
            return CycNum._make(self.order, [x.numerator], x.denominator)
        if k < 0:
            return self.inverse() ** (-k)
        out, base = CycNum.from_rational(1), self
        while k:  # square and multiply
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b, _ = CycNum._pair(self, other)
        return a.nums == b.nums and a.den == b.den

    def __repr__(self):
        if self.is_rational():
            return str(self.as_rational())
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.order}^{i}" if i else str(c))
        return "(" + " + ".join(terms) + ")"


def _product(a: CycNum, b: CycNum) -> CycNum:
    """a * b for two values of the same order."""
    out = [0] * (len(a.nums) + len(b.nums) - 1)
    for i, x in enumerate(a.nums):
        if x:
            for j, y in enumerate(b.nums):
                out[i + j] += x * y
    return CycNum._make(a.order, out, a.den * b.den)


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
        # a constant factor keeps every key: no exponent arithmetic, no _norm_mono
        for poly, const in ((self, other), (other, self)):
            if len(const.terms) == 1 and () in const.terms:
                c = const.terms[()]
                return _Poly(self.p, {k: x * c for k, x in poly.terms.items()})
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
        coeff = coeff * (p ** q if q > 0 else Fraction(1, p ** -q))
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
        """The constant x: an int, a Fraction or a CycNum."""
        return cls(p, _Poly.const(p, x))

    @classmethod
    def gen(cls, p, name: str, exp: int = 1) -> "SymElem":
        return cls(p, _Poly.monomial(p, 1, {name: exp}))

    @classmethod
    def monomial(cls, p, coeff, exps: dict) -> "SymElem":
        return cls(p, _Poly.monomial(p, coeff, exps))

    @classmethod
    def p_power(cls, p, e) -> "SymElem":
        """p^e for integer or half-integer e (halves go through Y)."""
        if type(e) is int:
            return cls.rational(p, p ** e if e >= 0 else Fraction(1, p ** -e))
        e = Fraction(e)
        if e.denominator == 1:
            return cls.p_power(p, int(e))
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
        if isinstance(other, (int, Fraction, CycNum)):
            other = SymElem.rational(self.p, other)
        if not isinstance(other, SymElem):
            raise TypeError(f"cannot combine SymElem with {type(other)}")
        if other.p != self.p:
            raise SymringError("mixed ambient primes")
        return other

    def __mul__(self, other):
        other = self._check(other)
        return SymElem(self.p, self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __neg__(self):
        return SymElem(self.p, -self.num, self.den)

    def __add__(self, other):
        other = self._check(other)
        # common denominator: self's factors and the unmatched ones of other
        only_a = _multiset_diff(self.den, other.den)
        only_b = _multiset_diff(other.den, self.den)
        num_a = self.num
        for f in only_b:
            num_a = num_a * f
        num_b = other.num
        for f in only_a:
            num_b = num_b * f
        return SymElem(self.p, num_a + num_b, self.den + tuple(only_b))

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
        """(c x^e)^k = c^k x^(e k); only unit monomials have powers."""
        mono = self.as_monomial()
        if mono is None:
            raise NonUnitDivision(f"power of a non-monomial: {self}")
        coeff, exps = mono
        return SymElem.monomial(self.p, coeff ** k, {n: e * k for n, e in exps.items()})

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
        dens = " * ".join(f"({f})" for f in sorted(self.den, key=repr))
        return f"({self.num}) / [{dens}]"

    # -- substitution

    def substitute(self, assignment: dict) -> "SymElem":
        """Substitute unit monomials (SymElems or nonzero scalars) for
        generators, leaving the others alone.

        Each numerator term maps to one term, and each denominator factor
        1 - m is rebuilt by ``geometric_tail`` from the image of m.
        """
        vals = {name: self._check(v).as_monomial() for name, v in assignment.items()}
        if None in vals.values():
            raise NonUnitDivision(f"not every value is a unit monomial: {assignment}")
        out = SymElem(self.p, _subst(self.num, vals))
        for f in self.den:
            ratio = SymElem(self.p, _subst(_Poly.const(self.p, 1) - f, vals))
            if ratio.is_one():
                raise VanishingDenominator(f"denominator factor vanished: {f}")
            out = geometric_tail(out, ratio)
        return out


def _subst(poly: _Poly, vals: dict) -> _Poly:
    """poly with each generator in vals replaced by its (coeff, exps)."""
    out = _Poly(poly.p)
    for key, coeff in poly.terms.items():
        exps = {}
        for name, e in key:
            if name in vals:
                c, image = vals[name]
                coeff = coeff * c ** e
            else:
                image = {name: 1}
            for n, x in image.items():
                exps[n] = exps.get(n, 0) + x * e
        out._iadd_term(*_norm_mono(poly.p, exps, coeff))
    return out


def _multiset_diff(a, b):
    """Factors of a not matched by factors of b."""
    out = list(a)
    for f in b:
        for i, g in enumerate(out):
            if f == g:
                out.pop(i)
                break
    return out


def geometric_tail(first_term: SymElem, ratio: SymElem) -> SymElem:
    """first_term / (1 - ratio), for ratio a unit monomial != 1."""
    mono = ratio.as_monomial()
    if mono is None:
        raise DivergentSeries("geometric ratio must be a unit monomial")
    if ratio == SymElem.rational(ratio.p, 1):
        raise DivergentSeries("divergent formal series: ratio = 1")
    factor = _Poly.const(ratio.p, 1) - ratio.num
    return SymElem(first_term.p, first_term.num, first_term.den + (factor,))
