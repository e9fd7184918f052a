"""Property tests of the scalar layers: the ring axioms of CycNum, SymElem
and FamSeries, and the defining property of ``padiclin.residue``.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from padicref.famring import FamilyRing, FamSeries
from padicref.padiclin import residue, vp
from padicref.symring import CycNum, SymElem, cyclotomic_poly, geometric_tail

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
        assume(not a.is_zero())
        assert a * a.inverse() == 1

    @PROPERTY
    @given(cycnums(), cycnums())
    def test_conjugation_is_a_multiplicative_involution(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a
        z = CycNum.root_of_unity(a.order)
        assert z.conjugate() == z.inverse()

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


RINGS = [FamilyRing(p, 2, 3, 2) for p in (2, 3, 5)]


def fam_series(ring, unit=False):
    """Series of ring; with ``unit`` the constant term is prime to p."""
    monos = [(i, j) for i in range(ring.degree) for j in range(ring.degree - i)]
    coeffs = st.integers(0, ring.modulus - 1)
    series = st.dictionaries(st.sampled_from(monos), coeffs)
    if unit:
        series = st.builds(lambda d, c: {**d, (0, 0): c}, series,
                           coeffs.filter(lambda c: c % ring.p))
    return series.map(lambda d: FamSeries(ring, d))


class TestFamSeries:
    @PROPERTY
    @given(st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(*[fam_series(ring)] * 3)))
    def test_distributivity(self, abc):
        a, b, c = abc
        assert a * (b + c) == a * b + a * c

    @PROPERTY
    @given(st.sampled_from(RINGS).flatmap(lambda ring: fam_series(ring, True)))
    def test_inverse_of_a_unit(self, a):
        assert a * a.inverse() == a.ring.one()


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
