import math
from fractions import Fraction

import pytest

from padicref import refine
from padicref.perms import all_perms, compose, longest_perm
from padicref.refine import (RefineError, SatakeParameter, delta_theta_tau,
                             gspin_factorization, hecke_eigenvalue,
                             integral_eigenvalue, is_spin, monomial_valuation,
                             noncritical_slope, normalize_satake,
                             shalika_admissible, spin_census, tau_element,
                             u_p_eigenvalue)
from padicref.rootspin import wg0_members
from padicref.symring import SymElem


def sym(p, name):
    return SymElem.gen(p, name)


class TestSatake:
    def test_generic_is_regular_and_related(self):
        sat = SatakeParameter.generic(3, 2)
        assert sat.is_regular()
        for i in range(2):
            assert sat.theta[i] * sat.theta[2 + i] == sat.eta

    def test_relation_enforced(self):
        # the flag is read off theta and eta: X1 X2 != E
        p = 3
        assert not SatakeParameter(p, [sym(p, "X1"), sym(p, "X2")], sym(p, "E")).ag
        assert SatakeParameter(p, [sym(p, "X1"), sym(p, "E") / sym(p, "X1")], sym(p, "E")).ag


class TestEigenvalues:
    def test_rank_one_formula(self):
        sat = SatakeParameter.generic(3, 1)
        assert hecke_eigenvalue(sat, (0, 1), 1) == sym(3, "Y") * sym(3, "E") / sym(3, "X1")
        assert hecke_eigenvalue(sat, (1, 0), 1) == sym(3, "Y") * sym(3, "X1")

    def test_full_reversal_hand_expansion(self):
        # n = 2, sigma the full reversal: alpha_{p,2} picks up theta at
        # sigma(4), sigma(3) with p-powers Y^3, Y^1
        sat = SatakeParameter.generic(3, 2)
        expected = SymElem.monomial(3, 1, {"Y": 4}) \
            * sat.theta[longest_perm(4)[3]] * sat.theta[longest_perm(4)[2]]
        assert hecke_eigenvalue(sat, longest_perm(4), 2) == expected

    def test_one_y_factor_is_the_per_j_product(self):
        # the definition, one factor Y^(2n - 2j + 1) theta_sigma(2n-j) per j,
        # against the single Y^(r(2n-r)) prefactor, for every sigma and r
        for n in (1, 2, 3):
            sat, n2 = SatakeParameter.generic(5, n), 2 * n
            for sigma in all_perms(n2):
                for r in range(1, n2):
                    expected = SymElem.rational(5, 1)
                    for j in range(1, r + 1):
                        expected = expected * SymElem.monomial(5, 1, {"Y": n2 - 2 * j + 1}) \
                            * sat.theta[sigma[n2 - j]]
                    assert hecke_eigenvalue(sat, sigma, r) == expected

    def test_u_p_is_the_product(self):
        sat = SatakeParameter.generic(2, 2)
        for sigma in [(0, 1, 2, 3), (2, 3, 1, 0)]:
            prod = SymElem.rational(2, 1)
            for r in (1, 2, 3):
                prod = prod * hecke_eigenvalue(sat, sigma, r)
            assert u_p_eigenvalue(sat, sigma) == prod

    def test_multiplicative_over_torus_monoid(self):
        # alpha_p agrees with the character value at the full torus element
        # t_p = diag(p^{2n-1}, ..., 1), twisted by the longest element
        p = 3
        sat = SatakeParameter.generic(p, 2)
        for sigma in all_perms(4)[:8]:
            direct = SymElem.rational(p, 1)
            for k in range(4):
                power = k  # conjugated torus entry has valuation k at slot k
                if power:
                    direct = direct * SymElem.monomial(p, 1, {"Y": (4 - 1 - 2 * k) * -power}) \
                        * sat.theta[sigma[k]] ** power
            assert u_p_eigenvalue(sat, sigma) == direct

    def test_integral_normalisation(self):
        sat = SatakeParameter.generic(3, 1)
        lam0 = (0, 0)
        assert integral_eigenvalue(sat, (0, 1), 1, lam0) == hecke_eigenvalue(sat, (0, 1), 1)
        k = 5
        lam = (k, 0)
        assert integral_eigenvalue(sat, (0, 1), 1, lam) \
            == SymElem.rational(3, 3 ** k) * hecke_eigenvalue(sat, (0, 1), 1)
        with pytest.raises(RefineError):
            integral_eigenvalue(sat, (0, 1), 1, (0, k))

    def test_integral_valuation_nonnegative(self):
        # numeric specialization with valuations (-k-1/2, 1/2): both
        # refinements have non-negative normalised slope
        k = 4
        sat = SatakeParameter.generic(3, 1)
        lam = (k, 0)
        vals = {"X1": Fraction(-2 * k - 1, 2), "E": Fraction(0)}
        for sigma in all_perms(2):
            v = monomial_valuation(integral_eigenvalue(sat, sigma, 1, lam), vals, 3)
            assert v >= 0


class TestSpin:
    def test_census(self):
        for n, total, spin in ((1, 2, 2), (2, 24, 8), (3, 720, 48)):
            sat = SatakeParameter.generic(3, n)
            refs, spins = all_perms(2 * n), spin_census(sat)
            assert (len(refs), len(spins)) == (total, spin)
            assert spins == [s for s in refs if is_spin(sat, s)]

    def test_census_of_weyl_conjugates(self):
        # (theta^c, sigma) has the eigenvalues of (theta, c o sigma), so every
        # Weyl conjugate has 2^n n! spin refinements, the c-translates
        for n in (1, 2):
            sat = SatakeParameter.generic(3, n)
            spin = set(spin_census(sat))
            for c in all_perms(2 * n):
                conj = sat.conjugate_by(c)
                spins = spin_census(conj)
                assert len(spins) == 2 ** n * math.factorial(n)
                assert spins == [s for s in all_perms(2 * n) if is_spin(conj, s)]
                assert {compose(c, s) for s in spins} == spin

    def test_rank_one_all_spin(self):
        sat = SatakeParameter.generic(2, 1)
        assert all(is_spin(sat, s) for s in all_perms(2))

    def test_requires_regular(self):
        p = 3
        x = sym(p, "X1")
        sat = SatakeParameter(p, [x, x], x * x)
        with pytest.raises(RefineError):
            is_spin(sat, (0, 1))

    def test_spin_iff_purity_cell(self):
        # the tau-twisted pattern lies in W_G^0 exactly for spin refinements
        for n in (1, 2):
            sat = SatakeParameter.generic(3, n)
            w0 = wg0_members(n)
            for sigma in all_perms(2 * n):
                assert is_spin(sat, sigma) == (delta_theta_tau(sigma) in w0)


class TestGSpinFactorization:
    def test_values_and_center(self):
        sat = SatakeParameter.generic(3, 1)
        gs = gspin_factorization(sat, (0, 1))
        assert gs == {1: sym(3, "Y") * sym(3, "E") / sym(3, "X1")}
        assert sat.eta == sym(3, "E")
        # diag(p, p) acts by the product of all Satake values
        assert sat.theta[0] * sat.theta[1] == sym(3, "E")

    def test_not_spin_outcome(self):
        sat = SatakeParameter.generic(3, 2)
        non_spin = next(s for s in all_perms(4) if not is_spin(sat, s))
        assert gspin_factorization(sat, non_spin) is None

    def test_transfer_route_agrees(self):
        # the transfer gives back every GL eigenvalue, and they satisfy the
        # spin relations alpha_{p,n+s} = eta^s alpha_{p,n-s}
        for n in (1, 2):
            sat = SatakeParameter.generic(3, n)
            for sigma in all_perms(2 * n):
                gs = gspin_factorization(sat, sigma)
                assert (gs is not None) == is_spin(sat, sigma)
                if gs is None:
                    continue
                assert gs == {r: hecke_eigenvalue(sat, sigma, r) for r in range(1, 2 * n)}
                for s in range(1, n):
                    assert gs[n + s] == sat.eta ** s * gs[n - s]

    def test_wrong_transfer_is_refused(self, monkeypatch):
        # one transferred eigenvalue off by eta: the certificate must fail
        right = refine.jvee_cochar

        def wrong(nu):
            c = right(nu)
            return (c[0] + 1,) + c[1:] if sum(nu) == 2 else c

        monkeypatch.setattr(refine, "jvee_cochar", wrong)
        sat = SatakeParameter.generic(3, 2)
        sigma = spin_census(sat)[0]
        with pytest.raises(RefineError, match="U_p,2"):
            gspin_factorization(sat, sigma)


class TestShalikaAdmissible:
    def test_ag_convention(self):
        sat = SatakeParameter.generic(3, 2)
        nu = shalika_admissible(sat.theta, sat.eta)
        assert nu is not None
        for i, j in nu.items():
            assert sat.theta[i] * sat.theta[j] == sat.eta
        # the canonical pairing i <-> n+i is itself admissible
        for i in range(2):
            assert sat.theta[i] * sat.theta[2 + i] == sat.eta

    def test_free_symbols_have_none(self):
        p = 3
        theta = [SymElem.gen(p, f"X{i + 1}") for i in range(4)]
        free = SatakeParameter(p, theta, SymElem.gen(p, "E"))
        assert shalika_admissible(free.theta, free.eta) is None

    def test_asgari_shahidi_convention(self):
        sat = SatakeParameter.generic(3, 2)
        tau = tau_element(2)
        theta_tau = tuple(sat.theta[tau[i]] for i in range(4))
        nu = shalika_admissible(theta_tau, sat.eta)
        assert nu is not None
        for i in range(2):
            assert theta_tau[i] * theta_tau[4 - 1 - i] == sat.eta


class TestNormalization:
    def test_already_normalized(self):
        # the tau-pattern refinement needs no reordering at all
        sat = SatakeParameter.generic(3, 2)
        assert is_spin(sat, tau_element(2))
        sat2, conj = normalize_satake(sat, tau_element(2))
        assert conj == (0, 1, 2, 3)
        assert all(a == b for a, b in zip(sat2.theta, sat.theta))

    def test_eigenvalues_reproduced(self):
        sat = SatakeParameter.generic(3, 2)
        for sigma in all_perms(4):
            if not is_spin(sat, sigma):
                with pytest.raises(RefineError):
                    normalize_satake(sat, sigma)
                continue
            sat2, conj = normalize_satake(sat, sigma)
            for r in range(1, 4):
                assert hecke_eigenvalue(sat2, tau_element(2), r) \
                    == hecke_eigenvalue(sat, sigma, r)

    def test_conjugator_in_twisted_subgroup(self):
        tau = tau_element(2)
        w0 = wg0_members(2)
        twisted = {compose(tau, compose(w, tau)) for w in w0}
        sat = SatakeParameter.generic(3, 2)
        for sigma in all_perms(4):
            if not is_spin(sat, sigma):
                continue
            _, conj = normalize_satake(sat, sigma)
            assert conj in twisted


class TestNonCriticalSlope:
    def test_ordinary_true(self):
        # ordinary assignment: all normalised slopes vanish
        sat = SatakeParameter.generic(3, 2)
        tau = tau_element(2)
        lam = (2, 1, -1, -2)
        vals = {"X1": Fraction(7, 2), "X2": Fraction(3, 2), "E": Fraction(0)}
        for r in (1, 2, 3):
            assert monomial_valuation(integral_eigenvalue(sat, tau, r, lam), vals, 3) == 0
        assert noncritical_slope(sat, tau, lam, vals)
        # pushing the central value up by 3 crosses the r = 1 bound
        steep = dict(vals, E=Fraction(3))
        assert not noncritical_slope(sat, tau, lam, steep)

    def test_rank_one_boundary(self):
        k = 4
        sat = SatakeParameter.generic(3, 1)
        lam = (k, 0)
        # alpha^circ = p^k Y E / X1: slope = k + 1/2 + v(E) - v(X1)
        for target, expected in ((0, True), (k, True), (k + 1, False), (k + 2, False)):
            vals = {"X1": Fraction(1, 2), "E": Fraction(target - k)}
            assert noncritical_slope(sat, (0, 1), lam, vals) is expected
