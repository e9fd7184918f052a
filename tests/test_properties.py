"""Property tests of the scalar layers: the ring axioms of CycNum, SymElem
and FamSeries, and the defining property of ``padiclin.residue``; and of
the integer elimination core of ``padiclin`` against plain ``Fraction``
Gaussian elimination, and of the unique stored form of ``PadicMatrix``.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import det
from padicref.famring import FamilyRing, FamSeries
from padicref.padiclin import LinAlgError, PadicMatrix, lu_unit_lower, residue, vp
from padicref.symring import (CycNum, NonUnitDivision, SymElem, _norm_mono, _Poly,
                              _product, cyclotomic_poly, geometric_tail)

PROPERTY = settings(derandomize=True, database=None, deadline=None)

ORDERS = (1, 3, 4, 8, 9, 12)
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
NONZERO = RATIONALS.filter(bool)


@st.composite
def cycnums(draw):
    order = draw(st.sampled_from(ORDERS))
    deg = len(cyclotomic_poly(order)) - 1
    return CycNum(order, draw(st.lists(RATIONALS, min_size=deg, max_size=deg)))


class TestCycNum:
    @PROPERTY
    @given(cycnums(), cycnums(), cycnums())
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a - a).is_zero()

    @PROPERTY
    @given(cycnums())
    def test_inverse(self, a):
        # only the nonzero rationals invert
        assume(not a.is_zero())
        if a.is_rational():
            assert a * a.inverse() == 1
        else:
            with pytest.raises(NonUnitDivision):
                a.inverse()

    @PROPERTY
    @given(cycnums())
    def test_promotion_keeps_the_value(self, a):
        assert a == a.promoted(2 * a.order)


P = 3


@st.composite
def sym_elems(draw):
    """A unit monomial in Y, S and X1, sometimes over a geometric-tail
    denominator (1 - c S^k)."""
    exps = draw(st.dictionaries(st.sampled_from(("Y", "S", "X1")),
                                st.integers(-2, 2), max_size=3))
    x = SymElem.monomial(P, draw(NONZERO), exps)
    if draw(st.booleans()):
        ratio = SymElem.monomial(P, draw(NONZERO), {"S": draw(st.integers(1, 2))})
        x = geometric_tail(x, ratio)
    return x


class TestSymElem:
    @PROPERTY
    @given(sym_elems(), sym_elems(), sym_elems())
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a - a).is_zero()


def _stored(c: CycNum):
    return c.order, c.nums, c.den


def _general_product(x: _Poly, y: _Poly) -> _Poly:
    """x * y by exponent arithmetic, _norm_mono and the promoted product."""
    out = _Poly(x.p, {})
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            exps = dict(k1)
            for name, e in k2:
                exps[name] = exps.get(name, 0) + e
            a, b, _ = CycNum._pair(c1, c2)
            key, coeff = _norm_mono(x.p, exps, _product(a, b))
            if not coeff.is_zero():
                out._iadd_term(key, coeff)
    return out


@st.composite
def polys(draw):
    """A sum of up to four monomials in Y, S and X1 over cycnums."""
    out = _Poly(P, {})
    for _ in range(draw(st.integers(0, 4))):
        exps = draw(st.dictionaries(st.sampled_from(("Y", "S", "X1")),
                                    st.integers(-2, 2), max_size=3))
        out = out + _Poly.monomial(P, draw(cycnums()), exps)
    return out


class TestScalarFastPaths:
    """A rational or constant factor skips promotion and key arithmetic, and
    must store exactly what the general path stores."""

    @PROPERTY
    @given(cycnums(), st.one_of(st.integers(-9, 9), RATIONALS,
                                RATIONALS.map(CycNum.from_rational)))
    def test_rational_factor(self, a, x):
        b, c, _ = CycNum._pair(a, x)
        general = _stored(_product(b, c))
        assert _stored(a * x) == _stored(x * a) == general

    @PROPERTY
    @given(polys(), cycnums())
    def test_constant_factor(self, poly, c):
        const = _Poly.const(P, c)
        for x, y in ((poly, const), (const, poly)):
            assert {k: _stored(v) for k, v in (x * y).terms.items()} \
                == {k: _stored(v) for k, v in _general_product(x, y).terms.items()}


RINGS = [FamilyRing(p, 8, 3, 2) for p in (2, 3, 5)]


def fam_series(ring):
    """Series of ring."""
    monos = [(i, j) for i in range(ring.degree) for j in range(ring.degree - i)]
    series = st.dictionaries(st.sampled_from(monos), st.integers(0, ring.modulus - 1))
    return series.map(lambda d: FamSeries(ring, d))


class TestFamSeries:
    @PROPERTY
    @given(st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(*[fam_series(ring)] * 3)))
    def test_distributivity(self, abc):
        a, b, c = abc
        assert a * (b + c) == a * b + a * c


class TestResidue:
    @PROPERTY
    @given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 6),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
    def test_defining_property(self, p, k, num, den):
        assume(den % p)
        x = Fraction(num, den)
        r = residue(x, p, k)
        assert 0 <= r < p ** k
        assert vp(x - r, p) >= k


# ---------------------------------------------------------------------------
# the elimination core against Fraction Gaussian elimination


def _ref_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def _ref_inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise LinAlgError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return [row[n:] for row in m]


def _ref_lu(rows):
    n = len(rows)
    u = [[Fraction(x) for x in row] for row in rows]
    lo = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if u[k][k] == 0:
            raise LinAlgError("zero pivot in LU")
        for i in range(k + 1, n):
            f = u[i][k] / u[k][k]
            lo[i][k] = f
            for j in range(k, n):
                u[i][j] -= f * u[k][j]
    return lo, u


def _ref_mul(a, b):
    return [[sum(Fraction(a[i][k]) * b[k][j] for k in range(len(b)))
             for j in range(len(b))] for i in range(len(a))]


def _outcome(fn, *args):
    """("ok", rows of the result) or ("raise", error class, message)."""
    try:
        out = fn(*args)
    except LinAlgError as exc:
        return ("raise", type(exc), str(exc))
    if isinstance(out, PadicMatrix):
        return ("ok", [list(row) for row in out.rows])
    if isinstance(out, tuple):
        return ("ok", [[list(row) for row in x.rows] if isinstance(x, PadicMatrix)
                       else x for x in out])
    return ("ok", out)


@st.composite
def padic_matrices(draw, p=None, n=None):
    """(p, rows): n x n, 1 <= n <= 6 unless given, entries 0 or u * p^v with a small
    unit u and -2 <= v <= 2; the shape is either plain, singular (one row
    a multiple of another, or a zero column) or has its leading k-minor
    forced to 0, k = n (the last one) included."""
    p = p or draw(st.sampled_from((2, 3, 5)))
    n = n or draw(st.integers(1, 6))
    unit = st.integers(-30, 30).filter(lambda u: u % p)
    entry = st.one_of(st.just(Fraction(0)), st.builds(
        lambda u, v: u * Fraction(p) ** v, unit, st.integers(-2, 2)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    shape = draw(st.sampled_from(("plain", "singular", "zero-minor")))
    if shape == "singular":
        if n > 1 and draw(st.booleans()):
            r, s = draw(st.permutations(range(n)))[:2]
            rows[r] = [draw(entry) * x for x in rows[s]]
        else:
            col = draw(st.integers(0, n - 1))
            for row in rows:
                row[col] = Fraction(0)
    elif shape == "zero-minor":
        k = draw(st.integers(1, n))
        if k == 1:
            rows[0][0] = Fraction(0)
        else:
            c = draw(entry)
            rows[k - 1][:k] = [c * x for x in rows[0][:k]]
    return p, rows


class TestEliminationCore:
    @PROPERTY
    @given(padic_matrices())
    def test_det_inverse_lu_match_fraction_elimination(self, pm):
        p, rows = pm
        g = PadicMatrix(p, rows)
        assert det(g) == _ref_det(rows)
        assert _outcome(PadicMatrix.inverse, g) == _outcome(_ref_inverse, rows)
        assert _outcome(lu_unit_lower, g) == _outcome(_ref_lu, rows)

    @PROPERTY
    @given(padic_matrices(), st.sampled_from((1, 2, -1, -6)))
    def test_stored_form_is_canonical_and_unique(self, pm, k):
        # den > 0, int entries, gcd 1 on every result; the matrix built from
        # Fraction rows, from int rows over their common denominator and
        # from a non-reduced int form k * rows / (k * d) is one value
        p, rows = pm
        g = PadicMatrix(p, rows)
        n, d = len(rows), math.lcm(*(x.denominator for row in rows for x in row))
        ints = [[int(x * d) for x in row] for row in rows]
        for m in (PadicMatrix(p, ints) * PadicMatrix.diagonal(p, [Fraction(1, d)] * n),
                  PadicMatrix.from_ints(p, k * d, [[k * x for x in row] for row in ints])):
            assert m == g and hash(m) == hash(g) and m.rows == tuple(map(tuple, rows))
        outs = [g, g * g]
        for fn in (PadicMatrix.inverse, lu_unit_lower):
            try:
                out = fn(g)
            except LinAlgError:
                continue
            outs += out if isinstance(out, tuple) else [out]
        for m in outs:
            entries = [x for row in m.nums for x in row]
            assert m.den > 0 and all(type(x) is int for x in entries)
            assert math.gcd(m.den, *entries) == 1

    @PROPERTY
    @given(padic_matrices().flatmap(lambda pm: st.tuples(
        st.just(pm), padic_matrices(pm[0], len(pm[1])))))
    def test_product_matches_fraction_product(self, pair):
        (p, a), (_, b) = pair
        assert (PadicMatrix(p, a) * PadicMatrix(p, b)).rows \
            == tuple(map(tuple, _ref_mul(a, b)))
