import math
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import make_rng
from padicref.symring import (CycNum, DivergentSeries, NonUnitDivision,
                              SymElem, VanishingDenominator, cyclotomic_poly,
                              geometric_tail)


def gens(p):
    return (SymElem.gen(p, "Y"), SymElem.gen(p, "S"), SymElem.gen(p, "E"),
            SymElem.gen(p, "X1"), SymElem.gen(p, "X2"))


class TestCycNum:
    def test_third_cyclotomic_relation(self):
        z = CycNum.root_of_unity(3)
        assert (1 + z + z * z).is_zero()

    def test_canonical_equality(self):
        z = CycNum.root_of_unity(3)
        assert z ** 2 == CycNum(3, [-1, -1])
        assert z ** 3 == 1

    def test_promotion_and_mixed_orders(self):
        z3, z4 = CycNum.root_of_unity(3), CycNum.root_of_unity(4)
        assert z3 * z4 == CycNum.root_of_unity(12, 7)

    def test_root_sum_adds_the_roots(self):
        # negative exponents, exponents past the order, repeats and the
        # empty sum (zero) against adding root_of_unity values one by one
        rng = make_rng("root-sum")
        for order in range(1, 61):
            exponents = [rng.randint(-3 * order, 3 * order)
                         for _ in range(rng.randint(0, 12))]
            total = CycNum.from_rational(0)
            for e in exponents:
                total = total + CycNum.root_of_unity(order, e)
            value = CycNum.root_sum(order, exponents)
            assert value.order == order and value == total
            assert CycNum.root_sum(order, []).is_zero()

    def test_inverse_fuzz(self):
        # rationals invert; an irrational value is refused
        rng = make_rng("cyc-inv")
        for order in (3, 4, 5, 8, 9, 12, 18):
            deg = len(cyclotomic_poly(order)) - 1
            for _ in range(25):
                c = CycNum(order, [rng.randint(-5, 5) for _ in range(deg)])
                if c.is_zero():
                    continue
                if c.is_rational():
                    assert c * c.inverse() == 1
                else:
                    with pytest.raises(NonUnitDivision):
                        c.inverse()

    def test_only_rationals_invert(self):
        for x in (Fraction(-3, 4), Fraction(5), Fraction(1, 7)):
            c = CycNum(12, [x, 0, 0, 0])
            assert c.inverse() == 1 / x and c ** -2 == x ** -2
        with pytest.raises(ZeroDivisionError):
            CycNum(12, [0, 0, 0, 0]).inverse()
        z = CycNum.root_of_unity(5, 2)
        for irrational in (z, z + 1, CycNum(8, [1, 1, 0, 0])):
            with pytest.raises(NonUnitDivision):
                irrational.inverse()
            with pytest.raises(NonUnitDivision):
                irrational ** -1
        with pytest.raises(NonUnitDivision):
            SymElem.monomial(3, z, {"Y": 1}).inverse()


    def test_equal_values_of_different_orders_are_unhashable(self):
        # equality crosses orders, so a hash by order and coefficients
        # would split equal values; CycNum defines none.  Nor does SymElem,
        # whose equality cross-multiplies the denominators.
        y = SymElem.gen(3, "Y")
        pairs = ((CycNum.root_of_unity(4, 1), CycNum.root_of_unity(8, 2)),
                 (CycNum.root_of_unity(3), CycNum.root_of_unity(6, 2)),
                 (y * y / y, y))
        for a, b in pairs:
            assert a == b
            with pytest.raises(TypeError):
                hash(a)


def _fraction_remainder(coeffs, m):
    """coeffs mod Phi_m by Fraction long division, padded to phi(m) slots."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    num = [Fraction(c) for c in coeffs]
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i]
        for j, f in enumerate(phi):
            num[i - deg + j] -= c * f
    return tuple(num[:deg] + [Fraction(0)] * (deg - len(num)))


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


class TestIntegerForm:
    def test_reduction_matches_fraction_long_division(self):
        rng = make_rng("cyc-fold")
        for m in range(1, 37):
            for _ in range(6):
                coeffs = [_random_rational(rng) for _ in range(rng.randint(0, 2 * m))]
                assert CycNum(m, coeffs).coeffs == _fraction_remainder(coeffs, m)

    def test_product_matches_fraction_long_division(self):
        rng = make_rng("cyc-fold-product")
        for m in range(1, 37):
            deg = len(cyclotomic_poly(m)) - 1
            a = [_random_rational(rng) for _ in range(deg)]
            b = [_random_rational(rng) for _ in range(deg)]
            conv = [Fraction(0)] * (2 * deg - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    conv[i + j] += x * y
            assert (CycNum(m, a) * CycNum(m, b)).coeffs == _fraction_remainder(conv, m)

    def test_stored_form_is_canonical(self):
        rng = make_rng("cyc-canonical")
        for m in range(1, 37):
            deg = len(cyclotomic_poly(m)) - 1
            x = CycNum(m, [_random_rational(rng) for _ in range(2 * m)])
            for value in (x, x * x, x + CycNum.root_of_unity(m, 5), -x):
                assert len(value.nums) == deg and value.den > 0
                assert math.gcd(value.den, *value.nums) == 1
            zero = x - x
            assert zero.is_zero() and (zero.nums, zero.den) == ((0,) * deg, 1)
        assert (CycNum(6, [0, 0, 0, 0]).nums, CycNum(6, []).den) == ((0, 0), 1)

    def test_repr_is_pinned(self):
        # repr orders the denominator factors of SymElem and spells the
        # values in failure messages; report bodies hold no SymElem repr
        # when every case passes
        cases = [
            (CycNum(1, [Fraction(-6, 8)]), "-3/4"),
            (CycNum(4, [Fraction(5, 3), 0]), "5/3"),
            (CycNum.root_of_unity(9) + Fraction(1, 2), "(1/2 + 1*z9^1)"),
            (CycNum(3, [0, 0, Fraction(2, -3)]), "(2/3 + 2/3*z3^1)"),
            (CycNum(5, [Fraction(3, -6), 0, 0, 0, Fraction(7, 4)]),
             "(-9/4 + -7/4*z5^1 + -7/4*z5^2 + -7/4*z5^3)"),
        ]
        for value, text in cases:
            assert repr(value) == text

    def test_powers_of_rationals_and_of_monomials(self):
        # negative powers only of rational coefficients, the only ones
        # that invert
        z = CycNum.root_of_unity(5, 2) * Fraction(-2, 3)
        half = CycNum(7, [Fraction(1, 2)])
        for k in (-3, -1, 0, 1, 2, 5):
            assert half ** k == Fraction(1, 2) ** k
            for coeff in (half, z) if k >= 0 else (half,):
                one = CycNum.from_rational(1)
                assert coeff ** k == _power_by_products(coeff, k, one)
                mono = SymElem.monomial(3, coeff, {"Y": 1, "X1": -2, "S": 1})
                assert mono ** k == _power_by_products(mono, k, SymElem.rational(3, 1))


def _power_by_products(x, k, one):
    out = one
    for _ in range(abs(k)):
        out = out * x
    return out if k >= 0 else out.inverse()


class TestAgainstSympy:
    def test_cyclotomic_poly(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for m in range(1, 61):
            ref = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
            assert cyclotomic_poly(m) == tuple(Fraction(int(c)) for c in ref)


class TestSymElem:
    def test_y_squared_is_p(self):
        y, *_ = gens(3)
        assert y * y == 3
        assert y ** -1 == y * Fraction(1, 3)
        assert SymElem.p_power(3, Fraction(5, 2)) == y * 9

    def test_shalika_relation_substitution(self):
        _, _, e, x1, x2 = gens(3)
        assert (x1 * x2).substitute({"X2": e / x1}) == e

    def test_identity_substitution(self):
        y, s, e, x1, _ = gens(3)
        elem = geometric_tail(y + x1 * 2, s * e) + SymElem.rational(3, 7)
        assert elem.substitute({"S": s, "E": e, "Y": y, "X1": x1}) == elem

    def test_geometric_tail_definition(self):
        _, s, _, _, x2 = gens(3)
        g = geometric_tail(SymElem.rational(3, 1), x2 / s)
        assert g * (1 - x2 / s) == 1
        y = SymElem.gen(3, "Y")
        g2 = geometric_tail(y, SymElem.rational(3, 3) * s ** -2)
        assert g2 * (1 - SymElem.rational(3, 3) * s ** -2) == y

    def test_divergent_tail(self):
        with pytest.raises(DivergentSeries):
            geometric_tail(SymElem.rational(3, 1), SymElem.rational(3, 1))

    def test_zero_ratio_is_refused(self):
        # zero is no unit monomial, so it is refused with the other
        # non-monomial ratios rather than summed as a one-term series
        with pytest.raises(DivergentSeries):
            geometric_tail(SymElem.rational(3, 1), SymElem.rational(3, 0))

    def test_vanishing_denominator_after_substitution(self):
        _, s, _, x1, _ = gens(3)
        elem = geometric_tail(SymElem.rational(3, 1), x1 / s)
        with pytest.raises(VanishingDenominator):
            elem.substitute({"X1": s})

    def test_non_unit_division(self):
        y, s, *_ = gens(3)
        with pytest.raises(NonUnitDivision):
            (y / (1 + s))

    def test_negative_exponent_substitution_needs_units(self):
        _, s, _, x1, _ = gens(3)
        with pytest.raises(NonUnitDivision):
            (x1 ** -1).substitute({"X1": 1 + s})

    def test_substitution_takes_unit_monomials_only(self):
        _, s, _, x1, _ = gens(3)
        for value in (1 + s, 0, SymElem.rational(3, 0), geometric_tail(s, x1)):
            with pytest.raises(NonUnitDivision):
                x1.substitute({"X1": value})

    def test_powers_take_unit_monomials_only(self):
        y, s, _, x1, _ = gens(3)
        for base in (1 + s, geometric_tail(y, x1 / s), SymElem.rational(3, 0)):
            for k in (-1, 0, 2):
                with pytest.raises(NonUnitDivision):
                    base ** k

    def test_denominator_factor_rebuilt_from_its_ratio(self):
        _, s, _, x1, _ = gens(3)
        sval = SymElem.p_power(3, Fraction(3, 2))
        got = geometric_tail(SymElem.rational(3, 1), x1 / s).substitute({"S": sval})
        want = geometric_tail(SymElem.rational(3, 1), x1 * SymElem.p_power(3, Fraction(-3, 2)))
        assert got == want and repr(got) == repr(want)

    def test_constant_ratio_survives_substitution(self):
        # the factor 1 - 1/3 = 2/3 has no generator; its ratio 1/3 must be
        # recovered as 1 - f, not read off f
        _, s, _, x1, _ = gens(3)
        g = geometric_tail(x1, SymElem.rational(3, Fraction(1, 3)))
        got = g.substitute({"X1": s})
        assert got == s * Fraction(3, 2)
        assert repr(got) == repr(geometric_tail(s, SymElem.rational(3, Fraction(1, 3))))

    def test_factor_order_is_canonical(self):
        y, s, e, x1, x2 = gens(3)
        a = geometric_tail(y, x1 / s)
        b = geometric_tail(e, x2 * s * Fraction(1, 9))
        assert len((a * b).den) == 2
        assert repr(a * b) == repr(b * a)
        assert repr(a + b) == repr(b + a)
        # one fraction over three denominator factors, whose factors are
        # made in every order by geometric_tail chains, products and sums
        ratios = (x1 / s, x2 * s * Fraction(1, 9), e / (x1 * x2))
        one, num = SymElem.rational(3, 1), y + x1 * 2
        tails = [geometric_tail(one, r) for r in ratios]
        results = []
        for order in permutations(range(3)):
            chain = num
            for i in order:
                chain = geometric_tail(chain, ratios[i])
            a, b, c = (tails[i] for i in order)
            results += [chain, num * a * b * c, y * a * b * c + x1 * 2 * c * b * a,
                        geometric_tail(y, ratios[order[0]]) * b * c
                        + geometric_tail(x1 * 2, ratios[order[1]]) * c * a]
        assert all(len(r.den) == 3 for r in results)
        assert all(r == results[0] for r in results)
        assert {repr(r) for r in results} == {repr(results[0])}

    def test_ring_axioms_random(self):
        rng = make_rng("symring-axioms")
        p = 3
        names = ["Y", "S", "E", "X1", "X2"]

        def rand_elem():
            out = SymElem.rational(p, 0)
            for _ in range(rng.randint(1, 3)):
                coeff = CycNum.root_of_unity(3, rng.randrange(3)) * rng.randint(-3, 3)
                exps = {name: rng.randint(-2, 2) for name in names
                        if rng.randrange(3) == 0}
                out = out + SymElem.monomial(p, coeff, exps)
            if rng.randrange(3) == 0:
                ratio = SymElem.monomial(p, 1, {"S": -1, f"X{rng.randint(1, 2)}": 1})
                out = geometric_tail(out, ratio)
            return out

        for _ in range(40):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a

    def test_normal_form_idempotence(self):
        # rebuilding an element from its own parts reproduces it exactly
        y = SymElem.gen(5, "Y")
        e = (y ** 3 + 2) * (y - 1)
        rebuilt = SymElem(e.p, e.num, e.den)
        assert rebuilt == e and repr(rebuilt) == repr(e)

    def test_equality_cross_multiplied(self):
        _, s, _, x1, _ = gens(3)
        g = geometric_tail(SymElem.rational(3, 1), x1 / s)
        lhs = g * 2
        rhs = g + g
        assert lhs == rhs
        assert not (g == g + 1)
