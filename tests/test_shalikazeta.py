import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (blocks, det, identity, longest_weyl, make_rng, permutation_matrix,
                     z_matrix)
from padicref import cli, shalikazeta
from padicref.padiclin import (LinAlgError, PadicMatrix, iwahori_bruhat_decompose,
                               unit_pivots_mod_p, vp)
from padicref.perms import all_perms, longest_perm
from padicref.princhecke import PSVector
from padicref.refine import SatakeParameter, hecke_eigenvalue, tau_element
from padicref.sampling import (random_glzp, random_iwahori, random_shalika_positive,
                               random_sparse_qp, random_upper_zp)
from padicref.princhecke import ps_evaluate_rows
from padicref.shalikazeta import (ComparisonMismatch, TruncationError,
                                  TwistCharacter, ZetaError,
                                  _conjugation_level, _root_pair_sum, _units,
                                  ag_intertwine_value,
                                  borel_part_character, chi_det_minus_wn,
                                  comparison_constant, ep_factor, gauss_sum,
                                  psi_orthogonality, qprime_factor,
                                  shalika_argument, shalika_support_bruhat,
                                  shalika_support_predicate, w_value_closed,
                                  zeta_iwahori_closed,
                                  zeta_iwahori_oracle, zeta_parahoric_closed,
                                  zeta_parahoric_oracle)
from padicref.symring import CycNum, SymElem, geometric_tail


# the scalar a = 1 as the one-term combination {(u, v): e} of u p^v = 1 with
# the exponent e = 0, at order 1: the coefficient zeta_1^0 = 1
AT_ONE = ({(1, 0): 0},)


def _conjugate(chi: TwistCharacter) -> TwistCharacter:
    """The complex conjugate character, a -> chi(a)^{-1}: the exponents negated."""
    return TwistCharacter(chi.p, chi.beta, chi.order,
                          {a: -e % chi.order for a, e in chi.exps.items()})


class TestCharacters:
    def test_enumeration_counts(self):
        assert len(TwistCharacter.enumerate_conductor(3, 1)) == 1
        assert len(TwistCharacter.enumerate_conductor(3, 2)) == 4
        assert TwistCharacter.enumerate_conductor(2, 1) == []
        assert len(TwistCharacter.enumerate_conductor(2, 2)) == 1
        assert len(TwistCharacter.enumerate_conductor(5, 1)) == 3
        # 2 is no primitive root mod 7: the generator search goes past it
        assert len(TwistCharacter.enumerate_conductor(5, 2)) == 16
        assert len(TwistCharacter.enumerate_conductor(7, 1)) == 5
        assert len(TwistCharacter.enumerate_conductor(7, 2)) == 36

    def test_two_adic_conductor_eight_is_rejected(self):
        with pytest.raises(ZetaError):
            TwistCharacter.enumerate_conductor(2, 3)

    def test_multiplicativity(self):
        for chi in TwistCharacter.enumerate_conductor(3, 2):
            m = 9
            for a in range(1, m):
                if a % 3 == 0:
                    continue
                for b in range(1, m):
                    if b % 3 == 0:
                        continue
                    assert chi.of(a) * chi.of(b) == chi.of(a * b % m)

    def test_chi_of_p_is_one(self):
        chi = TwistCharacter.enumerate_conductor(3, 1)[0]
        assert chi.of(Fraction(3)) == chi.of(1)
        assert chi.of(Fraction(2, 3)) == chi.of(2)


class TestGaussSums:
    def test_quadratic_mod_three(self):
        chi = TwistCharacter.enumerate_conductor(3, 1)[0]
        z = CycNum.root_of_unity(3)
        assert gauss_sum(chi) == z - z ** 2

    def test_mod_four(self):
        chi = TwistCharacter.enumerate_conductor(2, 2)[0]
        z = CycNum.root_of_unity(4)
        assert chi.of(3) == -1
        assert gauss_sum(chi) == z - z ** 3

    def test_magnitude(self):
        # tau(chi) tau(chibar) = chi(-1) p^beta
        for p, beta in ((3, 1), (3, 2), (2, 2), (5, 1), (5, 2), (7, 1), (7, 2)):
            for chi in TwistCharacter.enumerate_conductor(p, beta):
                assert gauss_sum(chi) * gauss_sum(_conjugate(chi)) \
                    == chi.of(-1 % p ** beta) * CycNum.from_rational(p ** beta)

    def test_no_cyclotomic_product(self, monkeypatch):
        # each Gauss sum is one count vector of exponents, reduced once
        products = []
        mul = CycNum.__mul__

        def counted_mul(a, b):
            products.append((a, b))
            return mul(a, b)
        monkeypatch.setattr(CycNum, "__mul__", counted_mul)
        for p, beta in ((2, 2), (3, 2), (5, 2), (7, 2)):
            for chi in TwistCharacter.enumerate_conductor(p, beta):
                gauss_sum(chi)
        assert products == []

    def test_root_pair_sum_is_the_sum_of_products(self):
        # the one formula behind Gauss sums, parahoric shells and Iwahori
        # balls: sum zeta_d^e zeta_m^a over the pairs (e, a), one root_sum at
        # lcm(d, m), against the products of two roots added one by one
        rng = make_rng("root-pair-sum")
        for d, m in ((1, 9), (2, 4), (6, 9), (4, 25), (20, 5), (3, 1), (1, 1)):
            for _ in range(4):
                pairs = [(rng.randint(-2 * d, 2 * d), rng.randint(-2 * m, 2 * m))
                         for _ in range(rng.randint(0, 8))]
                total = sum((CycNum.root_of_unity(d, e) * CycNum.root_of_unity(m, a)
                             for e, a in pairs), CycNum.from_rational(0))
                value = _root_pair_sum(d, m, pairs)
                assert value.order == math.lcm(d, m) and value == total

    def test_computed_once_per_character(self):
        chi = TwistCharacter.enumerate_conductor(5, 2)[3]
        assert chi.tau is None
        tau = gauss_sum(chi)
        assert chi.tau is tau and gauss_sum(chi) is tau
        # a fresh character object starts empty: enumerate builds new ones
        assert TwistCharacter.enumerate_conductor(5, 2)[3].tau is None

    def test_trivial_character_has_no_gauss_sum(self):
        with pytest.raises(ZetaError):
            gauss_sum(TwistCharacter.trivial(3))

    def test_psi_orthogonality(self):
        for p, beta in ((3, 1), (3, 2), (2, 2)):
            for m in range(1, p ** beta + 1):
                assert psi_orthogonality(p, beta, m)


def _ref_shalika_argument(k, x, beta):
    """shalika_argument by its product formula, (0 k; k w_n z^(2 beta) X k)."""
    p, n = k.p, k.size
    wz = PadicMatrix(p, [[p ** (2 * beta * i) * (i + j == n - 1) for j in range(n)]
                         for i in range(n)])
    return blocks(PadicMatrix.diagonal(p, [0] * n), k, k * wz, x * k)


class TestCellSupport:
    def test_argument_matches_the_product_formula(self):
        rng = make_rng("shalika-argument")
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for beta in (1, 2):
                    for _ in range(10):
                        k = random_glzp(rng, p, n)
                        if rng.randrange(3) == 0:
                            k = PadicMatrix(p, [[y / 7 for y in row] for row in k.rows])
                        x = PadicMatrix(p, [[rng.padic_rational(p, -2, 2) / rng.choice((1, 7))
                                             if rng.randrange(3) else 0
                                             for _ in range(n)] for _ in range(n)])
                        assert shalika_argument(k, x, beta) == _ref_shalika_argument(k, x, beta)

    def test_positive_example(self):
        # k the longest element, k^{-1} X in w_n z^{2 beta} M_n(Z_p)
        p, n, beta = 3, 2, 1
        wn = longest_weyl(p, n)
        k = wn
        x = k * wn * z_matrix(p, n, 2 * beta) * PadicMatrix(p, [[1, 2], [0, 4]])
        assert shalika_support_predicate(longest_perm(n), k, x, beta)
        assert shalika_support_bruhat(longest_perm(n), k, x, beta)

    def test_wrong_weyl_element_fails(self):
        p, n, beta = 3, 2, 1
        rng = make_rng("support-delta")
        for _ in range(40):
            k = random_glzp(rng, p, n)
            x = PadicMatrix(p, [[rng.padic_rational(p, -2, 2) for _ in range(n)]
                                for _ in range(n)])
            assert not shalika_support_predicate(tuple(range(n)), k, x, beta)
            assert not shalika_support_bruhat(tuple(range(n)), k, x, beta)

    def test_off_cell_k_fails(self):
        p, n, beta = 3, 2, 1
        k = identity(p, n)  # identity cell, not the big one
        x = longest_weyl(p, n) * z_matrix(p, n, 2 * beta)
        assert not shalika_support_predicate(longest_perm(n), k, x, beta)
        assert not shalika_support_bruhat(longest_perm(n), k, x, beta)

    def test_k_outside_gl_n_zp_is_refused(self):
        # a singular k, and an integral k with det = 3 = 0 mod p, read off
        # the inverse's integrality; neither escapes as a LinAlgError
        p, n, beta = 3, 2, 1
        x = longest_weyl(p, n) * z_matrix(p, n, 2 * beta)
        for k in ([[1, 2], [2, 4]], [[1, 1], [1, 4]]):
            for delta in (longest_perm(n), tuple(range(n))):
                with pytest.raises(ZetaError):
                    shalika_support_predicate(delta, PadicMatrix(p, k), x, beta)

    def test_predicate_matches_the_inverse_definition(self):
        # k in GL_n(Z_p) exactly when k and k^{-1} are integral, and k^{-1} X
        # by the inverse and one PadicMatrix product; the predicate reads both
        # off in_glzp and one Jordan solve.  k is a constructed positive (half
        # of them with one entry of row r of k^{-1} X moved to valuation
        # 2 beta r - 1), a random integral matrix (often of det divisible by
        # p), a singular one, or one of these divided by 7 (a unit) or by p
        def reference(delta, k, x, beta):
            try:
                kinv = k.inverse()
            except LinAlgError:
                raise ZetaError("singular") from None
            if not (k.is_integral() and kinv.is_integral()):
                raise ZetaError("outside GL_n(Z_p)")
            p, n = k.p, k.size
            if tuple(delta) != longest_perm(n) \
                    or not unit_pivots_mod_p(k.nums[::-1], p, pivot=False):
                return False
            kx = kinv * x
            return all(vp(y, p) >= 2 * beta * r + vp(kx.den, p)
                       for r, row in enumerate(kx.nums) for y in row)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ZetaError:
                return "refused"

        rng = make_rng("support-inverse-definition")
        seen = Counter()
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for beta in (1, 2):
                    for _ in range(60):
                        kind = rng.randrange(4)
                        if kind == 0:
                            k, x = random_shalika_positive(rng, p, n, beta)
                            if rng.randrange(2):  # k^{-1} X + p^(2 beta r - 1) E_rc
                                r, c = rng.randrange(n), rng.randrange(n)
                                t = Fraction(p) ** (2 * beta * r - 1)
                                x = PadicMatrix(p, [[y + t * kr[r] * (j == c)
                                                     for j, y in enumerate(xr)]
                                                    for xr, kr in zip(x.rows, k.rows)])
                        else:
                            k = PadicMatrix(p, [[rng.randrange(p ** 2) for _ in range(n)]
                                                for _ in range(n)])
                            if kind == 1:  # row 0 a multiple of the last row
                                k = PadicMatrix(p, [[rng.randrange(3) * y for y in k.nums[-1]]]
                                                + list(k.nums[1:]))
                            x = random_sparse_qp(rng, p, n)
                        if rng.randrange(4) == 0:
                            k = PadicMatrix(p, [[y / rng.choice((7, p)) for y in row]
                                                for row in k.rows])
                        delta = longest_perm(n) if rng.randrange(4) else rng.choice(all_perms(n))
                        got = outcome(shalika_support_predicate, delta, k, x, beta)
                        assert got == outcome(reference, delta, k, x, beta)
                        seen[got, det(k) == 0] += 1
        assert sum(seen.values()) >= 1000
        assert {(True, False), (False, False), ("refused", False), ("refused", True)} \
            <= set(seen)

    def test_predicate_matches_cell_membership(self):
        rng = make_rng("support-samples")
        for p in (2, 3):
            for n in (1, 2):
                for beta in (1, 2):
                    for _ in range(60):
                        delta = rng.choice(all_perms(n))
                        k = random_glzp(rng, p, n)
                        x = PadicMatrix(p, [[rng.padic_rational(p, -2, 2)
                                             if rng.randrange(3) else 0
                                             for _ in range(n)] for _ in range(n)])
                        assert shalika_support_predicate(delta, k, x, beta) \
                            == shalika_support_bruhat(delta, k, x, beta)

    def test_mod_p_cell_criterion_matches_the_bruhat_cell(self):
        # with X = 0 the predicate reads only the cell of k, by its lower-left
        # corner minors mod p; compare with the certified decomposition of k
        # and with the corner determinants.  k = u w i is planted with w = w0
        # half the time, so about half the k have a p-divisible corner, and
        # some k are divided by 7, a unit den
        rng = make_rng("support-mod-p-cell")
        seen, off_cell = set(), 0
        for p in (2, 3, 5):
            for n in (1, 2, 3, 4):
                zero, w0 = PadicMatrix.diagonal(p, [0] * n), longest_perm(n)
                for _ in range(40):
                    w = w0 if rng.randrange(2) else rng.choice(all_perms(n))
                    k = random_upper_zp(rng, p, n) * permutation_matrix(p, w) \
                        * random_iwahori(rng, p, n)
                    if rng.randrange(4) == 0:
                        k = PadicMatrix(p, [[x / 7 for x in row] for row in k.rows])
                    in_cell = iwahori_bruhat_decompose(k).w == w0
                    units = all(vp(det(k.block(n - i, n, 0, i)), p) == 0 for i in range(1, n))
                    assert shalika_support_predicate(w0, k, zero, 1) == in_cell == units
                    seen.add((p, n, in_cell, k.den % 7 == 0))
                    off_cell += not in_cell
        assert 0.35 < off_cell / (3 * 3 * 40) < 0.6
        for p in (2, 3, 5):
            for n in (2, 3, 4):
                assert {(p, n, True), (p, n, False)} <= {s[:3] for s in seen}
        assert any(s[3] for s in seen) and any(s[3] and not s[2] for s in seen)

    def test_borel_character_value(self):
        rng = make_rng("support-borel")
        p, n = 3, 2
        thetas = [SymElem.gen(p, f"X{i + 1}") for i in range(2 * n)]
        wn = longest_weyl(p, n)
        for beta in (1, 2):
            expected = SymElem.rational(p, 1)
            zv = z_matrix(p, n, 2 * beta).diagonal_valuations()
            for i in range(n):
                expected = expected * thetas[n + i] ** int(zv[i])
            for _ in range(40):
                k = random_upper_zp(rng, p, n) * wn * random_iwahori(rng, p, n)
                x = k * wn * z_matrix(p, n, 2 * beta) \
                    * PadicMatrix(p, [[rng.randrange(27) for _ in range(n)]
                                      for _ in range(n)])
                assert borel_part_character(thetas, k, x, beta) == expected

    def test_trivial_character_gives_one(self):
        p, n, beta = 3, 2, 1
        ones = [SymElem.rational(p, 1)] * (2 * n)
        wn = longest_weyl(p, n)
        x = wn * z_matrix(p, n, 2 * beta)
        assert borel_part_character(ones, wn, wn * x, beta).is_one()

    def test_borel_character_rejects_off_cell(self):
        p, n, beta = 3, 2, 1
        thetas = [SymElem.gen(p, f"X{i + 1}") for i in range(2 * n)]
        with pytest.raises(ZetaError):
            borel_part_character(thetas, identity(p, n),
                                 identity(p, n), beta)


class TestIntertwiningOracle:
    def test_normalisation_at_identity(self):
        for p in (2, 3):
            sat = SatakeParameter.generic(p, 1)
            f = PSVector.big_cell_vector(sat, tau_element(1))
            (value,) = ag_intertwine_value(f, identity(p, 2), 4, 1, AT_ONE)
            assert value.is_one()

    def test_support_lemma(self):
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, tau_element(1))
        g = PadicMatrix.diagonal(3, [Fraction(1, 3), 1])
        assert ag_intertwine_value(f, g, 4, 1, AT_ONE)[0].is_zero()

    def test_shalika_equivariance(self):
        rng = make_rng("ag-equivariance")
        p = 3
        sat = SatakeParameter.generic(p, 1)
        f = PSVector.big_cell_vector(sat, tau_element(1))
        g = PadicMatrix(p, [[2, 1], [3, 1]])
        (base,) = ag_intertwine_value(f, g, 5, 1, AT_ONE)
        eta = SymElem.gen(p, "E")
        for _ in range(6):
            a = Fraction(rng.unit(p)) * Fraction(p) ** rng.randint(-1, 1)
            x = Fraction(rng.randrange(p ** 3)) - 1
            (lhs,) = ag_intertwine_value(
                f, PadicMatrix.diagonal(p, [a, a])
                * PadicMatrix(p, [[1, x], [0, 1]]) * g, 5, 1, AT_ONE)
            den = x.denominator
            psi = SymElem.rational(p, CycNum.root_of_unity(den, x.numerator % den)) \
                if den > 1 else SymElem.rational(p, 1)
            assert lhs == eta ** int(vp(a, p)) * psi * base

    def test_uncertified_truncation_raises(self):
        # the twisted argument at x of valuation -2 and depth 2 has its
        # X-support concentrated in the shell at -2: too few shells must
        # refuse rather than silently drop it
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, tau_element(1))
        g = PadicMatrix.diagonal(3, [Fraction(2, 9), 1]) \
            * PadicMatrix(3, [[1, -1], [0, 1]]) * PadicMatrix.diagonal(3, [9, 1])
        with pytest.raises(TruncationError):
            ag_intertwine_value(f, g, 2, 1, AT_ONE)
        (value,) = ag_intertwine_value(f, g, 4, 1, AT_ONE)
        assert not value.is_zero()
        with pytest.raises(TruncationError):
            ag_intertwine_value(f, g, 1, 1, AT_ONE)

    def test_uncertified_truncation_raises_per_unit(self):
        # the same point for scalars u p^v of every unit and three
        # valuations at once: each scalar's outermost shells are certified
        # separately, so a scalar that alone would refuse makes the whole
        # call refuse, whatever the others
        p = 3
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        g0 = PadicMatrix(p, [[1, -1], [0, 1]]) * PadicMatrix.diagonal(p, [9, 1])
        g = PadicMatrix.diagonal(p, [Fraction(1, 9), 1]) * g0
        scalars = tuple((u, v) for v in (-1, 0, 1) for u in _units(p, 2))

        def alone(a, shells):
            u, v = a
            return ag_intertwine_value(
                f, PadicMatrix.diagonal(p, [Fraction(u) * Fraction(p) ** v, 1]) * g,
                shells, 1, AT_ONE)[0]

        refusing = []
        for a in scalars:
            try:
                alone(a, 2)
            except TruncationError:
                refusing.append(a)
                with pytest.raises(TruncationError):
                    ag_intertwine_value(f, g, 2, 1, ({a: 0},))
            else:
                assert ag_intertwine_value(f, g, 2, 1, ({a: 0},)) == (alone(a, 2),)
        assert refusing and len(refusing) < len(scalars)
        for a in refusing:
            with pytest.raises(TruncationError):
                ag_intertwine_value(f, g, 2, 1, AT_ONE + ({a: 0},))
        assert ag_intertwine_value(f, g, 4, 1, tuple({a: 0} for a in scalars)) \
            == tuple(alone(a, 4) for a in scalars)

    def test_a_refusing_scalar_refuses_its_combination(self):
        # at the point of the per-unit test with shells = 2, the scalars
        # u 3^-1 certify and u 3^0 refuse; each scalar certifies its own rims,
        # so a combination holding one refusing scalar refuses as a whole,
        # even 1 - 10 (exponents 0 and 1 at order 2), whose two terms have
        # equal rim sums (10 = 1 mod 3^shells) that cancel in the combination
        p = 3
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        g0 = PadicMatrix(p, [[1, -1], [0, 1]]) * PadicMatrix.diagonal(p, [9, 1])
        g = PadicMatrix.diagonal(p, [Fraction(1, 9), 1]) * g0
        certified = {(u, -1): u for u in _units(p, 2)}  # the signs (-1)^u
        (value,) = ag_intertwine_value(f, g, 2, 2, (certified,))
        assert value == sum(((-1) ** e * ag_intertwine_value(f, g, 2, 1, ({a: 0},))[0]
                             for a, e in certified.items()), SymElem.rational(p, 0))
        for combination in ({**certified, (2, 0): 0}, {(1, 0): 0, (10, 0): 1}):
            with pytest.raises(TruncationError):
                ag_intertwine_value(f, g, 2, 2, (certified, combination))
        # with more shells all certify, W depends on u mod 3^e(g) = 9 only,
        # and a combination over two valuations is the sum of its terms
        one, ten, both, mixed, two = ag_intertwine_value(
            f, g, 4, 2, ({(1, 0): 0}, {(10, 0): 0}, {(1, 0): 0, (10, 0): 1},
                         {(1, 0): 0, (2, 1): 1}, {(2, 1): 0}))
        assert one == ten and not one.is_zero() and both.is_zero()
        assert mixed == one - two and not two.is_zero()

    def test_certificate_is_on_twisted_sums(self):
        # the bottom row of g has the unit ratio 7, so F(Y) =
        # f[w(1 Y; 0 1) g] is nonzero on every outer shell: only the
        # twisted shell sums vanish there, and they certify the call
        p, shells = 3, 3
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        g = PadicMatrix(p, [[Fraction(1, 7), Fraction(2, 3)], [3, Fraction(3, 7)]])
        top, bottom = g.rows
        for y in (Fraction(1, p ** shells), Fraction(2, p ** (shells - 1))):
            assert not ps_evaluate_rows(
                f, (bottom, (top[0] + y * bottom[0], top[1] + y * bottom[1]))).is_zero()
        assert ag_intertwine_value(f, g, shells, 1, AT_ONE) \
            == (_fraction_intertwine(f, g, shells),)


def _fraction_intertwine(f, g, shells):
    # reference: the shell sum with Fraction rows valued at every point,
    # refused as the oracle refuses when an outermost shell does not vanish
    p = f.p
    c_g = _conjugation_level(g, PadicMatrix(p, [[0, 1], [0, 0]]))
    bottom, top = g.rows[1], g.rows[0]

    def value_at(x):
        return ps_evaluate_rows(
            f, (bottom, (top[0] + x * bottom[0], top[1] + x * bottom[1])))

    tail_start = max(c_g, 0)
    total = SymElem.rational(p, 0)
    for v in range(-shells, tail_start):
        level = max(c_g - v, -v, 1)
        shell, step = SymElem.rational(p, 0), Fraction(p) ** v
        for u in _units(p, level):
            val = value_at(u * step)
            if val.is_zero():
                continue
            if v < 0:
                val = val * CycNum.root_of_unity(p ** (-v), (-u) % p ** (-v))
            shell = shell + val
        if v < 2 - shells and not shell.is_zero():
            raise TruncationError("an outermost shell does not vanish")
        total = total + shell * Fraction(1, p ** (v + level))
    return total + value_at(Fraction(0)) * Fraction(1, p ** tail_start)


class TestIntegerShellPoints:
    def test_matches_the_fraction_reference(self):
        # the points of the zeta oracle, diag(u p^v, 1) g0, with v on both
        # sides of 0 (powers of p in the denominators), and a g whose
        # denominators are prime to p
        for p in (2, 3, 5):
            f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1),
                                         tau_element(1))
            for beta in (1, 2):
                g0 = PadicMatrix(p, [[1, -1], [0, 1]]) \
                    * PadicMatrix.diagonal(p, [Fraction(p) ** beta, 1])
                points = [PadicMatrix.diagonal(p, [Fraction(u) * Fraction(p) ** v, 1]) * g0
                          for v in sorted({-beta - 1, -beta, -1, 0}) for u in (1, p - 1)]
                points.append(PadicMatrix(p, [[Fraction(1, 7), Fraction(2, p)],
                                              [p, Fraction(3, 7)]]))
                shells = beta + 2
                for g in points:
                    assert ag_intertwine_value(f, g, shells, 1, AT_ONE) \
                        == (_fraction_intertwine(f, g, shells),)

    def test_twisted_sweep_matches_the_fraction_reference(self):
        # one sweep at g0 with the scalars a = u p^v of the zeta oracle
        # against the reference at diag(a, 1) g0, for v from its two
        # vanishing guards (v + beta < 0: zero because every ball's
        # psi-integral vanishes, v + r < shells) to 1: every unit mod
        # p^beta at p <= 3, a seeded pair at p = 5
        rng = make_rng("twisted-sweep")
        for p in (2, 3, 5):
            f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1),
                                         tau_element(1))
            for beta in (1, 2):
                g0 = PadicMatrix(p, [[1, -1], [0, 1]]) \
                    * PadicMatrix.diagonal(p, [Fraction(p) ** beta, 1])
                units = tuple(_units(p, beta))
                if p == 5:
                    first = rng.choice(units)
                    units = (first, rng.choice([u for u in units if u != first]))
                shells = beta + 2
                scalars = [(u, v) for v in range(-beta - 2, 2) for u in units]
                assert ag_intertwine_value(
                    f, g0, shells, 1, tuple({a: 0} for a in scalars)) == tuple(
                    _fraction_intertwine(
                        f, PadicMatrix.diagonal(p, [Fraction(u) * Fraction(p) ** v, 1]) * g0,
                        shells)
                    for u, v in scalars)

    def test_ball_sweep_matches_the_fraction_reference(self):
        # every cell vector of both cells and both sigma, at g0 with beta =
        # 2 (e = 2), the unit bottom ratio g of the certificate test, a g
        # with p-power denominators (e = 3 at p = 3), and a call too short
        # to certify, which both sides refuse; for a unit scalar a the
        # shells of X = a Y are those of Y, so both sides certify alike
        def outcome(fn, *args):
            try:
                return fn(*args)
            except TruncationError:
                return TruncationError

        for p in (2, 3):
            sat = SatakeParameter.generic(p, 1)
            shift = PadicMatrix(p, [[1, -1], [0, 1]]) * PadicMatrix.diagonal(p, [p ** 2, 1])
            points = [
                (shift, 4),
                (PadicMatrix(p, [[Fraction(1, 7), Fraction(2, 3)], [3, Fraction(3, 7)]]), 3),
                (PadicMatrix(p, [[Fraction(1, p), Fraction(2, p ** 3)],
                                 [p + 1, Fraction(5, p ** 2)]]), 4),
                (PadicMatrix.diagonal(p, [Fraction(1, p ** 2), 1]) * shift, 2)]
            scalars = (1, p ** 2 - 1)
            combinations = tuple({(a, 0): 0} for a in scalars)
            refused = nonzero = 0
            for g, shells in points:
                for w in all_perms(2):
                    for sigma in all_perms(2):
                        f = PSVector.cell_vector(sat, sigma, w)
                        swept = outcome(ag_intertwine_value, f, g, shells, 1, combinations)
                        reference = tuple(
                            outcome(_fraction_intertwine, f,
                                    PadicMatrix.diagonal(p, [a, 1]) * g, shells)
                            for a in scalars)
                        # one refusing scalar refuses the whole sweep
                        if any(r is TruncationError for r in reference):
                            assert swept is TruncationError
                            refused += 1
                        else:
                            assert swept == reference
                            nonzero += sum(not x.is_zero() for x in swept)
            # the short call refuses for all four vectors; of the 24 values
            # compared, 24 at p = 2 and 16 at p = 3 are nonzero
            assert (refused, nonzero) == (4, {2: 24, 3: 16}[p])

    def test_ball_sweep_work_bound(self, monkeypatch):
        # one value of f per ball: 1 + sum over j < n of phi(p^min(e, n - j))
        # with n = shells + c, 33 at p = 3, beta = 2, shells = 4, not p^n = 729
        p, beta, shells = 3, 2, 4
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        g0 = PadicMatrix(p, [[1, -1], [0, 1]]) * PadicMatrix.diagonal(p, [p ** beta, 1])
        c = _conjugation_level(g0, PadicMatrix(p, [[0, 1], [0, 0]]))
        e = _conjugation_level(g0, PadicMatrix(p, [[1, 0], [0, 0]]))
        n = shells + c
        calls = []

        def counted(*args):
            calls.append(args)
            return ps_evaluate_rows(*args)
        monkeypatch.setattr(shalikazeta, "ps_evaluate_rows", counted)
        ag_intertwine_value(f, g0, shells, 1, AT_ONE)
        phi = [0] + [(p - 1) * p ** (r - 1) for r in range(1, e + 1)]
        assert (c, e) == (2, 2)
        assert len(calls) == 1 + sum(phi[min(e, n - j)] for j in range(n)) == 33

    def test_one_root_per_ball_and_twisted_sum(self, monkeypatch):
        # the unit bottom ratio g of the certificate test (c = 0, e = 1, so
        # the ball at k = p^j t has r = j + 1) at the scalar p^3: v + r >=
        # shells on six nonzero balls of radius p^(r - shells), r = 3, 4, 5,
        # where psi is integrated.  Over each ball at once that builds one
        # root_sum; one per point of the balls would be sum p^(shells - r)
        # = 78 roots, above the bound 3 * 10 nonzero values
        p, shells, at_p3 = 3, 6, ({(1, 3): 0},)
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        g = PadicMatrix(p, [[Fraction(1, 7), Fraction(2, 3)], [3, Fraction(3, 7)]])
        (expected,) = ag_intertwine_value(f, g, shells + 1, 1, at_p3)
        roots, nonzero = [], []
        root_of_unity, root_sum = CycNum.root_of_unity, CycNum.root_sum

        def counted_root(order, power=1):
            roots.append((order, power))
            return root_of_unity(order, power)

        def counted_sum(order, exponents):
            roots.append((order, exponents))
            return root_sum(order, exponents)

        def counted_value(*args):
            value = ps_evaluate_rows(*args)
            nonzero.append(not value.is_zero())
            return value
        monkeypatch.setattr(CycNum, "root_of_unity", staticmethod(counted_root))
        monkeypatch.setattr(CycNum, "root_sum", staticmethod(counted_sum))
        monkeypatch.setattr(shalikazeta, "ps_evaluate_rows", counted_value)
        assert ag_intertwine_value(f, g, shells, 1, at_p3) == (expected,)
        # one scalar: two rim sums and the inner sum
        assert 0 < len(roots) and 0 < sum(nonzero) and len(roots) <= 3 * sum(nonzero)

    def test_refuses_a_zero_scalar(self):
        p = 3
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        # u = 0 is the scalar 0, alone, beside others, or inside a combination
        for combinations in (({(0, 0): 0},), ({(1, 0): 0}, {(Fraction(0), 0): 0}),
                             ({(1, 1): 0}, {(0, 0): 0}, {(2, 1): 0}),
                             ({(1, 1): 0, (0, 0): 0, (2, 1): 0},)):
            with pytest.raises(ZetaError) as exc:
                ag_intertwine_value(f, identity(p, 2), 4, 1, combinations)
            assert not isinstance(exc.value, TruncationError)


class TestWValue:
    def test_rank_one_collapses_to_one(self):
        for p in (2, 3):
            sat = SatakeParameter.generic(p, 1)
            for beta in (1, 2, 3):
                assert w_value_closed(sat, beta, 1).is_one()

    def test_n2_nonzero_unit_monomial(self):
        sat = SatakeParameter.generic(3, 2)
        val = w_value_closed(sat, 1, 2)
        mono = val.as_monomial()
        assert mono is not None and not mono[0].is_zero()

    def test_beta_scaling_log_linear(self):
        sat = SatakeParameter.generic(3, 2)
        v1, v2, v3 = (w_value_closed(sat, b, 2) for b in (1, 2, 3))
        assert v2 * v2 == v1 * v3

    def test_rejects_unnormalized(self):
        # swapping only the first two Satake values breaks the pairing
        sat = SatakeParameter.generic(3, 2)
        bad = sat.conjugate_by((1, 0, 2, 3))
        assert not bad.ag
        with pytest.raises(ZetaError):
            w_value_closed(bad, 1, 2)

    def test_matches_intertwining_oracle_at_rank_one(self):
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, tau_element(1))
        point = identity(3, 2)  # w_1 z^{2 beta} = 1 at n = 1
        assert ag_intertwine_value(f, point, 4, 1, AT_ONE) == (w_value_closed(sat, 1, 1),)


class TestZetaClosedForms:
    def test_iwahori_hand_formula(self):
        # n=1, p=3, beta=1, quadratic chi, w_base = 1
        p = 3
        chi = TwistCharacter.enumerate_conductor(p, 1)[0]
        sat = SatakeParameter.generic(p, 1)
        res = zeta_iwahori_closed(SymElem.rational(p, 1), chi, 1, 1, sat.eta)
        expected = SymElem.rational(p, Fraction(1, 1 - Fraction(1, 3))) \
            * Fraction(1, 3) * SymElem.gen(p, "S") * SymElem.gen(p, "Y") ** -1 \
            * SymElem.rational(p, gauss_sum(chi) * chi.of(2))
        assert res.value == expected

    def test_iwahori_scales_linearly(self):
        p = 3
        chi = TwistCharacter.enumerate_conductor(p, 1)[0]
        sat = SatakeParameter.generic(p, 1)
        w = SymElem.gen(p, "X1")
        assert zeta_iwahori_closed(w * 5, chi, 1, 1, sat.eta).value \
            == zeta_iwahori_closed(w, chi, 1, 1, sat.eta).value * 5

    def test_iwahori_needs_ramified(self):
        sat = SatakeParameter.generic(3, 1)
        with pytest.raises(ZetaError):
            zeta_iwahori_closed(SymElem.rational(3, 1),
                                TwistCharacter.trivial(3), 1, 1, sat.eta)

    def test_parahoric_rows(self):
        p = 3
        sat = SatakeParameter.generic(p, 1)
        s = SymElem.gen(p, "S")
        theta2 = sat.theta[1]
        # unramified row
        res = zeta_parahoric_closed(sat, TwistCharacter.trivial(p), 0)
        q = SymElem.rational(p, Fraction(1, 1 - p))
        q = geometric_tail(q * (1 - theta2 * s ** -1 * p), theta2 * s ** -1)
        expected = s * SymElem.gen(p, "Y") ** -1 * q
        assert res.value == expected
        # ramified row
        chi = TwistCharacter.enumerate_conductor(p, 1)[0]
        res = zeta_parahoric_closed(sat, chi, 1)
        q = SymElem.rational(p, Fraction(1, p) * Fraction(p, p - 1)) \
            * SymElem.rational(p, gauss_sum(chi))
        expected = s * SymElem.gen(p, "Y") ** -1 \
            * SymElem.rational(p, chi.of(-1 % p)) * q
        assert res.value == expected

    def test_chi_det_minus_wn_is_chi_of_the_determinant(self):
        # every character of conductor 4, 3, 9, 5 and 25, against the det of
        # the matrix -w_n
        for p, beta in ((2, 2), (3, 1), (3, 2), (5, 1), (5, 2)):
            for chi in TwistCharacter.enumerate_conductor(p, beta):
                for n in range(1, 7):
                    minus_wn = PadicMatrix.diagonal(p, [-1] * n) \
                        * permutation_matrix(p, longest_perm(n))
                    assert chi_det_minus_wn(chi, n) == chi.of(det(minus_wn))

    def test_unramified_n2_text(self):
        # the n = 2 unramified parahoric closed form and e_p at j = 0; the
        # X1 <-> X2 swap rebuilds the denominator factors in the other order
        sat = SatakeParameter.generic(3, 2)
        x1, x2 = sat.theta[:2]
        z = zeta_parahoric_closed(sat, TwistCharacter.trivial(3), 0).value
        swapped = z.substitute({"X1": x2, "X2": x1})
        assert swapped == z and repr(swapped) == repr(z) == (
            "(-1/12*E*S*X1^-1 + -1/12*E*S*X2^-1 + 1/4*E^2*X1^-1*X2^-1 + 1/36*S^2)"
            " / [(1 + -1*E*S^-1*X1^-1) * (1 + -1*E*S^-1*X2^-1)]")
        assert repr(ep_factor(sat, TwistCharacter.trivial(3), 0)) == (
            "(1 + 1/3*E^-2*X1*X2 + -1/3*E^-1*X1*Y + -1/3*E^-1*X2*Y)"
            " / [(1 + -1/3*E*X1^-1*Y) * (1 + -1/3*E*X2^-1*Y)]")


class TestZetaOracles:
    def test_iwahori_oracle_matches_closed(self):
        # the central cross-check, smallest configuration
        p = 3
        sat = SatakeParameter.generic(p, 1)
        f = PSVector.big_cell_vector(sat, tau_element(1))
        chi = TwistCharacter.enumerate_conductor(p, 1)[0]
        oracle = zeta_iwahori_oracle(f, chi, 1, 4)
        closed = zeta_iwahori_closed(w_value_closed(sat, 1, 1), chi, 1, 1, sat.eta)
        assert oracle.value == closed.value

    def test_iwahori_oracle_conjugate_symmetry(self):
        p = 3
        sat = SatakeParameter.generic(p, 1)
        f = PSVector.big_cell_vector(sat, tau_element(1))
        chi = TwistCharacter.enumerate_conductor(p, 2)[0]
        v1 = zeta_iwahori_oracle(f, chi, 2, 4).value
        v2 = zeta_iwahori_oracle(f, _conjugate(chi), 2, 4).value
        # conjugating the twist conjugates the cyclotomic part: both are
        # monomial multiples of Gauss sums over the same support
        g1 = zeta_iwahori_closed(w_value_closed(sat, 2, 1), chi, 2, 1, sat.eta)
        g2 = zeta_iwahori_closed(w_value_closed(sat, 2, 1), _conjugate(chi),
                                 2, 1, sat.eta)
        assert v1 == g1.value and v2 == g2.value

    def test_zero_vector(self):
        p = 3
        sat = SatakeParameter.generic(p, 1)
        zero = PSVector(sat, tau_element(1), {})
        chi = TwistCharacter.enumerate_conductor(p, 1)[0]
        assert zeta_iwahori_oracle(zero, chi, 1, 4).value.is_zero()

    def test_conjugation_levels_of_g0(self):
        # g0^-1 E12 g0 = (0 p^-beta; 0 0) and g0^-1 E11 g0 = (1 -p^-beta; 0 0):
        # both levels are beta, so the Iwahori oracle averages over the
        # units mod p^beta alone
        for p in (2, 3, 5):
            for beta in (1, 2):
                g0 = PadicMatrix(p, [[1, -1], [0, 1]]) \
                    * PadicMatrix.diagonal(p, [Fraction(p) ** beta, 1])
                assert _conjugation_level(g0, PadicMatrix(p, [[0, 1], [0, 0]])) == beta
                assert _conjugation_level(g0, PadicMatrix(p, [[1, 0], [0, 0]])) == beta

    def test_combinations_match_the_per_scalar_route(self):
        # each zeta shell's combination {(u, v): exps[u]} of chi's exponents
        # at chi's order, at g0, against the sum of chi(u) W(diag(u p^v, 1) g0)
        # over one-term combinations, chi(u) a CycNum root of unity, for every
        # character of conductor p^beta and every shell of the oracle
        shells, nonzero = 4, 0
        for p in (2, 3, 5):
            f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
            for beta in (1, 2):
                g0 = PadicMatrix(p, [[1, -1], [0, 1]]) \
                    * PadicMatrix.diagonal(p, [Fraction(p) ** beta, 1])
                units, shell_range = tuple(_units(p, beta)), range(-beta - 2, 5 + shells)
                scalars = [(u, v) for v in shell_range for u in units]
                single = dict(zip(scalars, ag_intertwine_value(
                    f, g0, shells, 1, tuple({a: 0} for a in scalars))))
                for chi in TwistCharacter.enumerate_conductor(p, beta):
                    combined = ag_intertwine_value(
                        f, g0, shells, chi.order,
                        tuple({(u, v): chi.exps[u] for u in units} for v in shell_range))
                    for v, value in zip(shell_range, combined):
                        assert value == sum((single[u, v] * chi.of(u) for u in units),
                                            SymElem.rational(p, 0))
                        nonzero += not value.is_zero()
        assert nonzero == 25

    def test_oracle_product_bound(self):
        # each zeta shell is one combination, so an oracle makes one SymElem
        # product per nonzero ball and shell, not one per unit, and one more
        # that divides the sum by phi(p^beta): the 20 units of conductor 25
        # cost what the 6 of conductor 9 cost (a product per unit and shell
        # in the average takes 157 and 423)
        product = SymElem.__mul__

        def products(p):
            f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
            chi = TwistCharacter.enumerate_conductor(p, 2)[0]
            calls = []

            def counted(*args):
                calls.append(args)
                return product(*args)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(SymElem, "__mul__", counted)
                patch.setattr(SymElem, "__rmul__", counted)
                zeta_iwahori_oracle(f, chi, 2, 4)
            return len(calls)
        assert products(3) == products(5) == 19

    def test_iwahori_oracle_refuses_an_unramified_character(self):
        p = 3
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        with pytest.raises(ZetaError) as exc:
            zeta_iwahori_oracle(f, TwistCharacter.trivial(p), 1, 4)
        assert not isinstance(exc.value, TruncationError)

    def test_parahoric_oracle_both_rows(self):
        for p in (2, 3):
            sat = SatakeParameter.generic(p, 1)
            chars = [TwistCharacter.trivial(p)]
            for beta in (1, 2):
                chars += TwistCharacter.enumerate_conductor(p, beta)
            for chi in chars:
                oracle = zeta_parahoric_oracle(sat, chi, 3)
                closed = zeta_parahoric_closed(sat, chi, chi.beta)
                assert oracle.value == closed.value


class TestCertifyTail:
    """The Iwahori oracle's tail certificate on synthetic shell values: the
    intertwining is patched to return W(diag(u p^v, 1) g0) = chi(u)^{-1} w(v)
    for each scalar a = u p^v, summed over each combination with the
    coefficients zeta_order^e, so the combination of zeta shell v is
    phi(p^beta) w(v), and the shell, divided by phi(p^beta), is exactly w(v)."""

    p, beta = 3, 1

    def _oracle(self, monkeypatch, w):
        p = self.p
        chi = TwistCharacter.enumerate_conductor(p, self.beta)[0]
        calls = []

        def fake(f, g, shells, order, combinations):
            calls.append(sorted({v for combination in combinations for _, v in combination}))
            m = p ** self.beta
            return tuple(
                sum((w(v) * SymElem.rational(p, CycNum.root_of_unity(order, e)
                                             * chi.of(pow(u, -1, m)))
                     for (u, v), e in combination.items()), SymElem.rational(p, 0))
                for combination in combinations)

        monkeypatch.setattr(shalikazeta, "ag_intertwine_value", fake)
        f = PSVector.big_cell_vector(SatakeParameter.generic(p, 1), tau_element(1))
        return lambda: zeta_iwahori_oracle(f, chi, self.beta, 4), calls

    def test_geometric_shells(self, monkeypatch):
        # a tail that never vanishes is refused once v passes 3 + shells
        # (shells = 4), however regular its ratio
        x, zero = SymElem.gen(self.p, "X1"), SymElem.rational(self.p, 0)
        run, calls = self._oracle(
            monkeypatch, lambda v: x ** v if v >= -self.beta else zero)
        with pytest.raises(TruncationError):
            run()
        assert calls == [list(range(-self.beta - 2, 5 + 4))]

    def test_vanishing_shells(self, monkeypatch):
        # shells -beta..0 are nonzero: the four zero shells 1..4 certify,
        # from the one call that covers every zeta shell
        x, zero = SymElem.gen(self.p, "X1"), SymElem.rational(self.p, 0)
        run, calls = self._oracle(
            monkeypatch, lambda v: x ** v if -self.beta <= v <= 0 else zero)
        s_inv = SymElem.gen(self.p, "S", -1) * SymElem.gen(self.p, "Y")
        assert run().value == sum((x ** v * s_inv ** v for v in range(-self.beta, 1)),
                                  zero)
        assert calls == [list(range(-self.beta - 2, 5 + 4))]


class TestInterpolationFactors:
    def test_ramified_over_qprime(self):
        for n in (1, 2):
            sat = SatakeParameter.generic(3, n)
            alpha_n = hecke_eigenvalue(sat, tau_element(n), n)
            for beta in (1, 2):
                for chi in TwistCharacter.enumerate_conductor(3, beta):
                    for j in (-1, 0, 2):
                        assert ep_factor(sat, chi, j) \
                            == alpha_n ** (-beta) * qprime_factor(chi, j, n)

    def test_gauss_power_once_per_character_and_rank(self, monkeypatch):
        # ep_factor and qprime_factor read one tau(chi)^n: the euler-factors
        # suite raises each Gauss sum to each rank n once, for every j
        made, powers = [], []
        enumerate_conductor, power = TwistCharacter.enumerate_conductor, CycNum.__pow__

        def recorded(p, beta):
            chars = enumerate_conductor(p, beta)
            made.extend(chars)
            return chars

        def counted(self, k):
            powers.append((self, k))
            return power(self, k)
        monkeypatch.setattr(TwistCharacter, "enumerate_conductor", staticmethod(recorded))
        monkeypatch.setattr(CycNum, "__pow__", counted)
        cases = cli.suite_euler_factors(cli.SuiteConfig(), make_rng("gauss-power"))
        assert all(case["outcome"] == "pass" for case in cases)
        taus = [chi.tau for chi in made if chi.is_ramified]
        ranks = [k for base, k in powers if any(base is tau for tau in taus)]
        assert len(taus) == 5 and sorted(ranks) == [1] * 5 + [2] * 5

    def test_unramified_pole(self):
        # theta_2 = p^(1/2) makes the factor 1 - theta_2 / p^(j + 1/2) vanish
        # at j = 0
        p = 3
        sat = SatakeParameter(p, [SymElem.gen(p, "X1"), SymElem.gen(p, "Y")],
                              SymElem.gen(p, "E"))
        with pytest.raises(ZetaError):
            ep_factor(sat, TwistCharacter.trivial(p), 0)

    def test_qprime_needs_ramified(self):
        with pytest.raises(ZetaError):
            qprime_factor(TwistCharacter.trivial(3), 0, 1)

    def test_unramified_unit_relation(self):
        # e_p(1, j) equals the parahoric Q at s = j + 1/2 up to the unit
        # monomial prod(-p^(j-1/2)/theta_i) times (1-q)^n
        for n in (1, 2):
            p = 3
            sat = SatakeParameter.generic(p, n)
            triv = TwistCharacter.trivial(p)
            for j in (-1, 0, 1):
                sval = SymElem.p_power(p, Fraction(2 * j + 1, 2))
                ep = ep_factor(sat, triv, j)
                closed = zeta_parahoric_closed(sat, triv, 0).value.substitute({"S": sval})
                prefactor = sval ** n * SymElem.p_power(p, Fraction(-n * n, 2))
                unit = SymElem.rational(p, Fraction(1 - p) ** n)
                for i in range(n, 2 * n):
                    unit = unit * (SymElem.p_power(p, Fraction(2 * j - 1, 2))
                                   * sat.theta[i].inverse() * (-1))
                assert ep * prefactor == closed * unit


class TestComparison:
    # comparison_constant returns the two routes of the first pair; their
    # ratio is the constant, compared here by multiplication

    def test_single_pair_trivially_constant(self):
        sat = SatakeParameter.generic(3, 1)
        chi = TwistCharacter.enumerate_conductor(3, 1)[0]
        route_i, route_p = comparison_constant(sat, [(chi, 0)])
        assert not route_i.is_zero() and not route_p.is_zero()

    def test_rank_one_ratio_is_formal_unit(self):
        # the local volume factors collapse: the ratio is exactly the
        # formal Iwahori-route unit
        sat = SatakeParameter.generic(3, 1)
        chi = TwistCharacter.enumerate_conductor(3, 1)[0]
        route_i, route_p = comparison_constant(sat, [(chi, 0), (chi, -1)])
        assert route_i == SymElem.gen(3, "UB") * route_p

    def test_constancy_across_conductors(self):
        sat = SatakeParameter.generic(3, 1)
        chis = TwistCharacter.enumerate_conductor(3, 1) \
            + TwistCharacter.enumerate_conductor(3, 2)
        pairs = [(chi, j) for chi in chis for j in (0, -1)]
        route_i, route_p = comparison_constant(sat, pairs)
        assert route_i == SymElem.gen(3, "UB") * route_p

    def test_n2_symbolic(self):
        sat = SatakeParameter.generic(3, 2)
        chi = TwistCharacter.enumerate_conductor(3, 1)[0]
        route_i, route_p = comparison_constant(sat, [(chi, j) for j in (-1, 0, 1)])
        assert route_i == SymElem.gen(3, "UB") * Fraction(9, 16) * route_p

    def test_trivial_route_constancy(self):
        for n in (1, 2):
            sat = SatakeParameter.generic(3, n)
            triv = TwistCharacter.trivial(3)
            comparison_constant(sat, [(triv, j) for j in (-1, 0, 1)])

    def test_mismatch_is_reported(self):
        # a deliberately inconsistent suite: a ramified pair and a trivial
        # one, whose routes carry different normalisations
        sat = SatakeParameter.generic(3, 1)
        chi = TwistCharacter.enumerate_conductor(3, 1)[0]
        triv = TwistCharacter.trivial(3)
        with pytest.raises(ComparisonMismatch):
            comparison_constant(sat, [(chi, 0), (triv, 0)])
