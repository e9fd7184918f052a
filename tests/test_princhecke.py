import pytest

from conftest import make_rng, random_iwahori
from padicref.padiclin import PadicMatrix
from padicref.perms import all_perms, identity_perm, longest_perm
from padicref.princhecke import (PSVector, eigenvector_check, hecke_apply,
                                 hecke_coset_matrices, ps_evaluate,
                                 ps_evaluate_rows, t_p_r, torus_character_value)
from padicref.refine import Refinement, SatakeParameter, hecke_eigenvalue, tau_element
from padicref.symring import SymElem


class TestEvaluation:
    def test_normalisation_at_weyl_point(self):
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, identity_perm(2))
        assert ps_evaluate(f, PadicMatrix.longest_weyl(3, 2)).is_one()

    def test_vanishes_off_cell(self):
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, identity_perm(2))
        assert ps_evaluate(f, PadicMatrix.identity(3, 2)).is_zero()
        g = PadicMatrix(3, [[1, 2], [3, 1]])  # identity cell
        assert ps_evaluate(f, g).is_zero()

    def test_off_support_zero_survives_use(self):
        # the off-support value is one shared zero; using it in sums and
        # in PSVector.__add__ must leave it zero
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, identity_perm(2))
        zero = ps_evaluate_rows(f, ((1, 2), (3, 1)))
        assert zero == SymElem.rational(3, 0)
        assert ps_evaluate_rows(f, PadicMatrix.identity(3, 2).rows) is zero
        one = SymElem.rational(3, 1)
        assert zero + one == one and one + zero == one
        assert zero + zero == zero and zero * one == zero
        g = PSVector.cell_vector(sat, identity_perm(2), (0, 1))
        assert (f + g).coefficient((0, 1)) == one
        assert f.coefficient((0, 1)) is zero
        assert zero.is_zero() and zero == SymElem.rational(3, 0)

    def test_twisted_torus_value(self):
        # f^sigma at t' w_{2n} (with t' = w t_{p,r} w) gives exactly the
        # Hecke eigenvalue monomial
        for p in (2, 3):
            for n in (1, 2):
                sat = SatakeParameter.generic(p, n)
                w = PadicMatrix.longest_weyl(p, 2 * n)
                for sigma in all_perms(2 * n)[: 6]:
                    f = PSVector.big_cell_vector(sat, sigma)
                    for r in range(1, 2 * n):
                        tprime = w * t_p_r(p, 2 * n, r) * w
                        val = ps_evaluate(f, tprime * w)
                        assert val == hecke_eigenvalue(Refinement(sat, sigma), r)

    def test_right_iwahori_invariance(self):
        rng = make_rng("ps-invariance")
        sat = SatakeParameter.generic(2, 2)
        f = PSVector.cell_vector(sat, identity_perm(4), (1, 0, 3, 2)) \
            + PSVector.big_cell_vector(sat, identity_perm(4)).scale(SymElem.gen(2, "X1"))
        base = PadicMatrix.permutation(2, (2, 0, 3, 1)) * t_p_r(2, 4, 2)
        reference = ps_evaluate(f, base)
        for _ in range(25):
            i = random_iwahori(rng, 2, 4)
            assert ps_evaluate(f, base * i) == reference


class TestHeckeAction:
    def test_coset_count(self):
        assert len(hecke_coset_matrices(2, 4, 1)) == 2 ** 3
        assert len(hecke_coset_matrices(2, 4, 2)) == 2 ** 4
        assert len(hecke_coset_matrices(3, 2, 1)) == 3

    def test_rank_one_eigenvector_two_cosets(self):
        # p = 2: the U_{p,1} sum has exactly two cosets
        sat = SatakeParameter.generic(2, 1)
        for sigma in all_perms(2):
            assert eigenvector_check(sat, sigma, 1)

    def test_rank_one_p3(self):
        sat = SatakeParameter.generic(3, 1)
        for sigma in all_perms(2):
            assert eigenvector_check(sat, sigma, 1)

    def test_linearity(self):
        sat = SatakeParameter.generic(2, 2)
        f1 = PSVector.cell_vector(sat, identity_perm(4), (1, 0, 2, 3))
        f2 = PSVector.big_cell_vector(sat, identity_perm(4)).scale(SymElem.gen(2, "X1"))
        lhs = hecke_apply(f1 + f2, 2)
        rhs = hecke_apply(f1, 2) + hecke_apply(f2, 2)
        assert lhs == rhs

    def test_commutativity_on_sample_vector(self):
        sat = SatakeParameter.generic(2, 2)
        g = PSVector.cell_vector(sat, identity_perm(4), (1, 0, 2, 3)) \
            + PSVector.big_cell_vector(sat, identity_perm(4)).scale(SymElem.gen(2, "E"))
        assert hecke_apply(hecke_apply(g, 1), 2) == hecke_apply(hecke_apply(g, 2), 1)

    def test_intertwined_cell_vectors(self):
        # F_delta = f at the (0 w_n; delta w_n 0) cell
        sat = SatakeParameter.generic(3, 2)
        f = PSVector.intertwined_cell_vector(sat, tau_element(2), longest_perm(2))
        point = PadicMatrix(3, [[0, 0, 0, 1], [0, 0, 1, 0],
                                [1, 0, 0, 0], [0, 1, 0, 0]])
        assert ps_evaluate(f, point).is_one()

    def test_eigenvector_subset_n2(self):
        sat = SatakeParameter.generic(2, 2)
        for sigma in [identity_perm(4), longest_perm(4), tau_element(2)]:
            for r in (1, 2, 3):
                assert eigenvector_check(sat, sigma, r)
