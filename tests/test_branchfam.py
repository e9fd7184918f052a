from fractions import Fraction

import pytest

from conftest import det, identity, longest_weyl, make_rng, random_iwh1
from padicref.branchfam import (BranchError, FamilyWeight, FiniteDistribution,
                                LocPoly, PureWeight,
                                crit_range, in_iw_beta, in_iwh_beta, in_n_beta,
                                iwahori_coordinates, kappa_family, kappa_lambda,
                                kappa_lambda_j, v_basis_values, v_lambda_all,
                                v_lambda_j, w_family, w_lambda)
from padicref.famring import (FamilyRing, FamSeries, one_unit_part, tame_order,
                              teichmuller, wild_base, wild_exponent)
from padicref.padiclin import PadicMatrix, open_cell_factorize, vp
from padicref.sampling import random_glzp, random_iw_beta, random_n_beta


def v_at(g, lam, j):
    """The classical branching vector v_{lam,j} at g."""
    return v_lambda_j(open_cell_factorize(g), lam, j)


def dirac(g):
    return FiniteDistribution([(1, g)])


def alpha_weight(n, i):
    """The basis weights: alpha_0 = (1,...,1), alpha_i = (1^i, 0..0, (-1)^i)
    for 1 <= i <= n-1, alpha_n = (1^n, 0^n)."""
    if i == 0:
        return (1,) * (2 * n)
    if i == n:
        return (1,) * n + (0,) * n
    return (1,) * i + (0,) * (2 * n - 2 * i) + (-1,) * i


class TestCritRange:
    def test_rank_one_modular_weight(self):
        assert list(crit_range(PureWeight([4, 0]))) == [-4, -3, -2, -1, 0]

    def test_singleton(self):
        assert list(crit_range(PureWeight([2, 1, 1, 0]))) == [-1]

    def test_regular_weight(self):
        assert list(crit_range(PureWeight([2, 1, -1, -2]))) == [-1, 0, 1]

    def test_half_integral_weight_is_refused_at_construction(self):
        # pure and dominant, with purity weight 0, but not integral
        with pytest.raises(BranchError):
            PureWeight([Fraction(1, 2), Fraction(-1, 2)])
        lam = PureWeight([Fraction(4), 0])
        assert lam.entries == (4, 0) and {type(x) for x in (*lam.entries, lam.sw)} == {int}

    def test_every_refusal_is_a_branch_error(self):
        # odd length, impure, non-dominant, half-integral
        for entries in ((1, 0, -1), (3, 1, 0, -1), (0, 1, -1, 0),
                        (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))):
            with pytest.raises(BranchError):
                PureWeight(entries)

    def test_alpha_weights(self):
        assert alpha_weight(2, 0) == (1, 1, 1, 1)
        assert alpha_weight(2, 1) == (1, 0, 0, -1)
        assert alpha_weight(2, 2) == (1, 1, 0, 0)
        assert list(crit_range(PureWeight(alpha_weight(2, 2)))) == [-1, 0]


class TestMembership:
    def test_u_in_every_depth(self):
        u = PadicMatrix.open_orbit_rep(3, 2)
        for beta in (1, 2, 3):
            assert in_n_beta(u, beta)

    def test_identity_not_in_n1(self):
        assert not in_n_beta(identity(3, 4), 1)

    def test_congruent_to_u(self):
        rng = make_rng("membership")
        for _ in range(30):
            beta = rng.randint(1, 2)
            g = random_n_beta(rng, 3, 2, beta)
            assert in_n_beta(g, beta)
            assert in_iw_beta(g, beta)

    def test_iwahori_coordinates_recompose(self):
        rng = make_rng("iw-coords")
        for _ in range(30):
            g = random_iw_beta(rng, 3, 4, 1)
            nbar, t, n = iwahori_coordinates(g)
            assert nbar * PadicMatrix.diagonal(3, t) * n == g
            # n upper unipotent, nbar lower unipotent with p-divisible entries
            assert all(x == (i == j) for i, row in enumerate(n.rows) for j, x in enumerate(row)
                       if j <= i)
            assert all(x == (i == j) if j >= i else vp(x, 3) >= 1
                       for i, row in enumerate(nbar.rows) for j, x in enumerate(row))

    def test_iwh_membership(self):
        rng = make_rng("iwh")
        h = random_iwh1(rng, 3, 2)
        assert in_iwh_beta(h, 1)
        assert not in_iwh_beta(longest_weyl(3, 4), 1)


class TestClassicalVectors:
    def test_normalisation_at_u(self):
        lam = PureWeight([4, 0])
        assert v_at(PadicMatrix.open_orbit_rep(3, 1), lam, -2) == 1
        lam2 = PureWeight([2, 1, -1, -2])
        assert v_at(PadicMatrix.open_orbit_rep(3, 2), lam2, 0) == 1

    def test_critical_range_enforced(self):
        lam = PureWeight([4, 0])
        with pytest.raises(BranchError):
            v_at(PadicMatrix.open_orbit_rep(3, 1), lam, 1)

    def test_unit_congruence_rank_one_exhaustive(self):
        # all residue classes of the depth-beta cell, p in {2, 3}
        for p in (2, 3):
            lam = PureWeight([4, 0])
            for beta in (1, 2):
                for y in range(p ** (beta + 2)):
                    g = PadicMatrix(p, [[1, 1 + p ** beta * y], [0, 1]])
                    for j in crit_range(lam):
                        val = v_at(g, lam, j)
                        assert val != 0
                        assert val == 1 or vp(val - 1, p) >= beta

    def test_unit_congruence_n2_sampled(self):
        rng = make_rng("branch-n2")
        lam = PureWeight([2, 1, -1, -2])
        for p in (2, 3):
            for _ in range(60):
                beta = rng.randint(1, 2)
                g = random_n_beta(rng, p, 2, beta)
                for j in crit_range(lam):
                    val = v_at(g, lam, j)
                    assert val != 0
                    assert val == 1 or vp(val - 1, p) >= beta

    def test_h_equivariance(self):
        rng = make_rng("branch-equivariance")
        p = 3
        lam = PureWeight([2, 1, -1, -2])
        sw = int(lam.sw)
        for _ in range(20):
            g = random_iw_beta(rng, p, 4, 1)
            h = random_iwh1(rng, p, 2)
            h1, h2 = h.block(0, 2, 0, 2), h.block(2, 4, 2, 4)
            for j in crit_range(lam):
                lhs = v_at(g * h, lam, j)
                rhs = Fraction(det(h1)) ** (-j) * Fraction(det(h2)) ** (sw + j) \
                    * v_at(g, lam, j)
                assert lhs == rhs

    def test_basis_values_are_the_basis_vectors(self):
        # the closed forms of v_basis_values against v_lambda_j at the basis
        # weights, on and off N^beta, at n = 1, 2, 3
        rng = make_rng("branch-basis")
        for p in (2, 3):
            for n in (1, 2, 3):
                alpha = [PureWeight(alpha_weight(n, i)) for i in range(n + 1)]
                samples = [random_n_beta(rng, p, n, 1) for _ in range(4)] \
                    + [random_iw_beta(rng, p, 2 * n, 1) for _ in range(4)]
                for g in samples:
                    v0, mids, vn1, vn2 = v_basis_values(g)
                    assert v0 == v_at(g, alpha[0], -1) == det(g)
                    assert mids == [v_at(g, alpha[i], 0) for i in range(1, n)]
                    assert (vn1, vn2) == (v_at(g, alpha[n], -1), v_at(g, alpha[n], 0))
        assert v_basis_values(identity(3, 4)) is None

    def test_product_formula(self):
        # the weight-j vector is the predicted product of the basis vectors
        rng = make_rng("branch-product")
        p = 3
        lam = PureWeight([3, 1, -1, -3])
        n = 2
        for _ in range(25):
            g = random_n_beta(rng, p, n, 1)
            base = v_basis_values(g)
            assert base is not None
            v0, mids, vn1, vn2 = base
            for j in crit_range(lam):
                expected = v0 ** lam.entries[n]
                for i in range(1, n):
                    expected *= mids[i - 1] ** (lam.entries[i - 1] - lam.entries[i])
                expected *= vn1 ** (-lam.entries[n] - j) * vn2 ** (lam.entries[n - 1] + j)
                assert v_at(g, lam, j) == expected

    def test_all_j_matches_each_j(self):
        # one factorization for the whole critical range gives the values
        # of the per-j evaluation, on and off the open cell
        rng = make_rng("branch-all-j")
        for p in (2, 3):
            for n, lam in ((1, PureWeight([4, 0])),
                           (2, PureWeight([2, 1, -1, -2]))):
                samples = [random_n_beta(rng, p, n, 1) for _ in range(6)] \
                    + [random_glzp(rng, p, 2 * n) for _ in range(6)]
                for g in samples:
                    values = v_lambda_all(g, lam)
                    assert list(values) == list(crit_range(lam))
                    for j in crit_range(lam):
                        assert values[j] == v_at(g, lam, j)

    def test_all_j_vanish_off_the_open_cell(self):
        lam = PureWeight([2, 1, -1, -2])
        for g in (identity(3, 4), longest_weyl(3, 4)):
            assert set(v_lambda_all(g, lam).values()) == {0}


class TestWCharacter:
    def test_trivial_weight(self):
        rng = make_rng("w-trivial")
        lam = PureWeight([0, 0, 0, 0])
        for _ in range(10):
            g = random_iw_beta(rng, 3, 4, 1)
            assert w_lambda(g, lam) == 1

    def test_explicit_interpolation_identity(self):
        # w_lam(g) * (v2/v1)^j = v_{lam,j}(g) on Iw^1
        rng = make_rng("w-interp")
        lam = PureWeight([5, 2, 0, -3])
        for _ in range(20):
            g = random_iw_beta(rng, 3, 4, 1)
            for j in crit_range(lam):
                f = LocPoly.monomial(3, j)
                assert kappa_lambda(dirac(g), f, lam) == v_at(g, lam, j)

    def test_outside_iw1_rejected(self):
        lam = PureWeight([1, 0])
        # in Iw but not Iw^1; not in Iw
        for g in (identity(3, 2), PadicMatrix.diagonal(3, [3, 1])):
            with pytest.raises(BranchError):
                w_lambda(g, lam)


class TestLocPoly:
    def test_translated_level_zero(self):
        # one piece everywhere: z -> (u z)^j
        for p in (2, 3, 5):
            for j in (-2, 0, 3):
                for u in (Fraction(1), Fraction(-1), Fraction(7, 11),
                          Fraction(p + 1)):
                    f = LocPoly.monomial(p, j).translated(u)
                    assert f.level == 0 and list(f.pieces) == [0]
                    for z in (Fraction(1), Fraction(13, 4 * p + 1),
                              Fraction(-2 * p - 1)):
                        assert f(z) == u ** j * z ** j


class TestFamilyRing:
    def test_log_and_teichmuller(self):
        assert teichmuller(2, 3, 4) == 80
        assert pow(teichmuller(2, 3, 4), 2, 81) == 1
        assert wild_exponent(4, 3, 6) == 1
        assert wild_exponent(16, 3, 6) == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_wild_exponent_is_the_exact_discrete_log(self, p):
        # b^c(x) = <x> mod p^(prec+s), and c is a homomorphism mod p^prec
        rng = make_rng(f"wild-exp-{p}")
        s, b = (2 if p == 2 else 1), wild_base(p)

        def unit():  # a unit with 33 random p-adic digits
            return rng.unit(p) + p * sum(rng.randrange(p ** 8) * p ** (8 * i)
                                         for i in range(4))

        for prec in range(1, 31):
            mod = p ** prec
            for _ in range(4):
                x, y = unit(), unit()
                cx, cy = wild_exponent(x, p, prec), wild_exponent(y, p, prec)
                assert pow(b, cx, p ** (prec + s)) == one_unit_part(x, p, prec + s)
                assert wild_exponent(x * y, p, prec) % mod == (cx + cy) % mod

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_teichmuller_is_the_root_of_unity_lift(self, p):
        # omega(u) = u mod p (mod 4 when p = 2) and omega(u)^(p-1) = 1, the
        # square for p = 2
        rng = make_rng(f"teich-{p}")
        prec, q = 6, (4 if p == 2 else p)
        order = tame_order(p)
        for _ in range(25):
            u = rng.unit(p)
            t = teichmuller(u, p, prec)
            assert (t - u) % q == 0
            assert pow(t, order, p ** prec) == 1

    def test_binomial_series(self):
        ring = FamilyRing(3, 8, 4, 1)
        s = ring.one_plus_t_power(0, 5)
        assert s.coeffs[(1,)] == 5
        assert s.coeffs[(2,)] == 10
        assert s.coeffs[(3,)] == 10


def family_fixture(p, n, prec=8, degree=4):
    entries = {1: [2 * p, -2 * p], 2: [2 * p, p, -p, -2 * p]}[n]
    lam = PureWeight(entries)
    order = tame_order(p)
    tame = [lam.entries[i] % order for i in range(n)]
    omega = FamilyWeight(p, n, prec, degree, tame=tame,
                         tame_sw=int(lam.sw) % order)
    return lam, omega


FIXTURES = ((2, 1), (2, 2), (3, 1), (3, 2))


def chi_sw(omega, x):
    """The purity character sw(x) = chi_n(x) chi_{n+1}(x)."""
    return omega.product([(omega.n, x, 1)]) * omega.product([(omega.n + 1, x, 1)])


class TestFamilyWeight:
    def test_specialization_reproduces_powers(self):
        # every coordinate, both signs, at each fixture family's member
        for p, n in FIXTURES:
            lam, omega = family_fixture(p, n)
            for i in range(1, 2 * n + 1):
                for k in (1, -1):
                    for x in (Fraction(1 + p), Fraction(7), Fraction(5, 7)):
                        got = omega.specialize(omega.product([(i, x, k)]), lam)
                        assert got == omega.reduce(x ** (k * lam.entries[i - 1]))

    def test_opposite_powers_are_inverse(self):
        # exactly, in the working ring: the closed form of a negative power
        # is the inverse series
        for p, n in FIXTURES:
            _, omega = family_fixture(p, n)
            for i in range(1, 2 * n + 1):
                for x in (Fraction(1 + p), Fraction(7), Fraction(5, 7)):
                    assert omega.product([(i, x, 1)]) * omega.product([(i, x, -1)]) \
                        == omega.ring.const(1)

    def test_purity_relation(self):
        lam, omega = family_fixture(3, 2)
        x = Fraction(5)
        for i in (1, 2):
            product = omega.product([(i, x, 1)]) \
                * omega.product([(2 * omega.n + 1 - i, x, 1)])
            assert product == chi_sw(omega, x)

    def test_membership_check(self):
        lam, omega = family_fixture(3, 1)
        assert omega.contains(lam)
        assert not omega.contains(PureWeight([5, -5]))

    def test_product_adds_the_exponents_exactly(self):
        # one constant times one (1 + T_var)^(sum of exponents) per variable
        # is the product of the single powers in the truncated ring
        rng = make_rng("family-product")
        for p, n in FIXTURES:
            _, omega = family_fixture(p, n)
            for _ in range(5):
                factors = [(rng.randint(1, 2 * n), Fraction(rng.unit(p), rng.unit(p)),
                            rng.choice((1, -1, 2))) for _ in range(4 * n + 1)]
                expected = omega.ring.const(1)
                for factor in factors:
                    expected = expected * omega.product([factor])
                assert omega.product(factors) == expected

    def test_w_family_work_bound(self, monkeypatch):
        # w_family multiplies one constant by at most n + 1 univariate
        # series, whatever the 4n + 1 factors of its formula
        rng = make_rng("w-family-work")
        mul, calls = FamSeries.__mul__, []

        def counted(self, other):
            calls.append(other)
            return mul(self, other)
        for p in (2, 3):
            for n in (1, 2):
                _, omega = family_fixture(p, n)
                for _ in range(3):
                    g = random_iw_beta(rng, p, 2 * n, 1)
                    monkeypatch.setattr(FamSeries, "__mul__", counted)
                    w_family(g, omega)
                    monkeypatch.undo()
                    assert len(calls) <= n + 1
                    calls.clear()

    def test_w_family_specializes_to_w_lambda(self):
        rng = make_rng("w-family")
        for p in (2, 3):
            lam, omega = family_fixture(p, 2)
            for _ in range(6):
                g = random_iw_beta(rng, p, 4, 1)
                fam = w_family(g, omega)
                assert omega.specialize(fam, lam) == omega.reduce(w_lambda(g, lam))

    def test_w_family_translation_action(self):
        # w_chi(g h) = det(h_2)^(chi_n + chi_{n+1}) w_chi(g) for h in Iw_H^1
        rng = make_rng("w-action")
        lam, omega = family_fixture(3, 2)
        for _ in range(6):
            g = random_iw_beta(rng, 3, 4, 1)
            h = random_iwh1(rng, 3, 2)
            det2 = det(h.block(2, 4, 2, 4))
            factor = chi_sw(omega, det2)
            assert w_family(g * h, omega) == factor * w_family(g, omega)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_values_do_not_depend_on_the_precision(self, p):
        # a family at precision M is the reduction of the same family at
        # M + 6: no coefficient needs digits above p^M
        rng = make_rng(f"precision-{p}")
        for n in (1, 2):
            for prec in (1, 2, 8):
                _, lo = family_fixture(p, n, prec)
                _, hi = family_fixture(p, n, prec + 6)

                def reduced(series):
                    return FamSeries(lo.ring, series.coeffs)

                for i in range(1, 2 * n + 1):
                    for k in (1, -1, 3):
                        for x in (Fraction(1 + p), Fraction(7), Fraction(11, 13)):
                            assert lo.product([(i, x, k)]) \
                                == reduced(hi.product([(i, x, k)]))
                for _ in range(3):
                    g = random_iw_beta(rng, p, 2 * n, 1)
                    assert w_family(g, lo) == reduced(w_family(g, hi))


class TestDistributionMaps:
    def test_dirac_at_u_normalisation(self):
        p = 3
        lam, omega = family_fixture(p, 1)
        u = PadicMatrix.open_orbit_rep(p, 1)
        mu = FiniteDistribution([(1, u)])
        for j in (0, -2):
            f = LocPoly.monomial(p, j)
            assert kappa_lambda(mu, f, lam) == 1
            assert kappa_lambda_j(mu, lam, j) == 1
            assert omega.specialize(kappa_family(mu, f, omega), lam) == 1

    def test_two_route_agreement_exact(self):
        rng = make_rng("diagram-exact")
        p = 3
        lam, omega = family_fixture(p, 1)
        for _ in range(25):
            mu = FiniteDistribution(
                [(1, random_iw_beta(rng, p, 2, 1)),
                 (-1, random_iw_beta(rng, p, 2, 1))])
            for j in (-2, 0, 2):
                f = LocPoly.monomial(p, j)
                assert kappa_lambda(mu, f, lam) == kappa_lambda_j(mu, lam, j)

    def test_family_route_mod_p_M(self):
        rng = make_rng("diagram-family")
        for p, n in ((3, 1), (3, 2), (2, 1), (2, 2)):
            lam, omega = family_fixture(p, n)
            for _ in range(4):
                mu = FiniteDistribution(
                    [(rng.randint(-3, 3), random_iw_beta(rng, p, 2 * n, 1))
                     for _ in range(2)])
                js = list(crit_range(lam))
                for j in (js[0], js[-1]):
                    f = LocPoly.monomial(p, j)
                    fam = kappa_family(mu, f, omega)
                    assert omega.specialize(fam, lam) \
                        == omega.reduce(kappa_lambda(mu, f, lam))

    def test_v_family_equivariance(self):
        rng = make_rng("v-equivariance")
        lam, omega = family_fixture(3, 2)
        f = LocPoly(3, 1, {1: (2, Fraction(1))})  # z^2 on 1 + 3 Z_3
        for _ in range(5):
            g = random_iw_beta(rng, 3, 4, 1)
            h = random_iwh1(rng, 3, 2)
            det1 = det(h.block(0, 2, 0, 2))
            det2 = det(h.block(2, 4, 2, 4))
            lhs = chi_sw(omega, det2) \
                * kappa_family(dirac(g), f.translated(Fraction(det2) / Fraction(det1)), omega)
            assert lhs == kappa_family(dirac(g * h), f, omega)

    def test_pushforward_support(self):
        # a Dirac at depth beta integrates to zero against anything
        # vanishing on 1 + p^beta Z_p
        rng = make_rng("pushforward")
        p, beta = 3, 2
        lam, omega = family_fixture(p, 2)
        for _ in range(6):
            g = random_iw_beta(rng, p, 4, beta)
            mu = FiniteDistribution([(1, g)])
            off_class = 1 + p  # not congruent to 1 mod p^2
            f_off = LocPoly(p, beta, {off_class: (1, Fraction(1))})
            assert kappa_family(mu, f_off, omega) == omega.ring.zero()
            f_on = LocPoly(p, beta, {1: (0, Fraction(1))})
            assert kappa_family(mu, f_on, omega) == w_family(g, omega)

    def test_dirac_outside_iwahori_rejected(self):
        with pytest.raises(BranchError):
            FiniteDistribution([(1, PadicMatrix.diagonal(3, [3, 1]))])

    def test_off_iw1_vanishes(self):
        lam, omega = family_fixture(3, 1)
        f = LocPoly.monomial(3, 0)
        # in Iw but not Iw^1: the Dirac integrates to zero
        g = identity(3, 2)
        assert kappa_family(dirac(g), f, omega) == omega.ring.zero()
        assert kappa_lambda(dirac(g), f, lam) == 0
        # not in Iw
        for g in (g, PadicMatrix.diagonal(3, [3, 1])):
            with pytest.raises(BranchError):
                w_family(g, omega)
