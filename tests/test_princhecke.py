from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from conftest import identity, longest_weyl, make_rng, permutation_matrix
from padicref.padiclin import PadicMatrix, bruhat_cell_valuations
from padicref.perms import all_perms, longest_perm
from padicref.princhecke import (PSVector, _right_pi, _right_s, eigenvector_check,
                                 hecke_apply, ps_evaluate_rows, torus_character_value)
from padicref.refine import SatakeParameter, hecke_eigenvalue, tau_element
from padicref.sampling import random_iwahori
from padicref.symring import SymElem


class TestEvaluation:
    def test_normalisation_at_weyl_point(self):
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, (0, 1))
        assert ps_evaluate_rows(f, longest_weyl(3, 2).rows).is_one()

    def test_vanishes_off_cell(self):
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, (0, 1))
        assert ps_evaluate_rows(f, identity(3, 2).rows).is_zero()
        g = PadicMatrix(3, [[1, 2], [3, 1]])  # identity cell
        assert ps_evaluate_rows(f, g.rows).is_zero()

    def test_off_support_zero_survives_use(self):
        # the off-support value is one shared zero; using it in sums and
        # in PSVector.__add__ must leave it zero
        sat = SatakeParameter.generic(3, 1)
        f = PSVector.big_cell_vector(sat, (0, 1))
        zero = ps_evaluate_rows(f, ((1, 2), (3, 1)))
        assert zero == SymElem.rational(3, 0)
        assert ps_evaluate_rows(f, identity(3, 2).rows) is zero
        one = SymElem.rational(3, 1)
        assert zero + one == one and one + zero == one
        assert zero + zero == zero and zero * one == zero
        g = PSVector.cell_vector(sat, (0, 1), (0, 1))
        assert (f + g).coefficient((0, 1)) == one
        assert f.coefficient((0, 1)) is zero
        assert zero.is_zero() and zero == SymElem.rational(3, 0)

    def test_twisted_torus_value(self):
        # f^sigma at t' w_{2n} (with t' = w t_{p,r} w) gives exactly the
        # Hecke eigenvalue monomial
        for p in (2, 3):
            for n in (1, 2):
                sat = SatakeParameter.generic(p, n)
                w = longest_weyl(p, 2 * n)
                for sigma in all_perms(2 * n)[: 6]:
                    f = PSVector.big_cell_vector(sat, sigma)
                    for r in range(1, 2 * n):
                        t_p_r = PadicMatrix.diagonal(p, [p] * r + [1] * (2 * n - r))
                        tprime = w * t_p_r * w
                        val = ps_evaluate_rows(f, (tprime * w).rows)
                        assert val == hecke_eigenvalue(sat, sigma, r)

    def test_right_iwahori_invariance(self):
        rng = make_rng("ps-invariance")
        sat = SatakeParameter.generic(2, 2)
        f = PSVector.cell_vector(sat, (0, 1, 2, 3), (1, 0, 3, 2)) \
            + PSVector.big_cell_vector(sat, (0, 1, 2, 3)).scale(SymElem.gen(2, "X1"))
        base = permutation_matrix(2, (2, 0, 3, 1)) \
            * PadicMatrix.diagonal(2, [2, 2, 1, 1])
        reference = ps_evaluate_rows(f, base.rows)
        for _ in range(25):
            i = random_iwahori(rng, 2, 4)
            assert ps_evaluate_rows(f, (base * i).rows) == reference


def hecke_coset_matrices(p, m, r):
    """The single cosets of Iw t_{p,r} Iw, U_{p,r}'s definition: the
    representatives (1_r m'; 0 1) t_{p,r} = (p 1_r, m'; 0, 1), m' running
    over the matrices with entries in {0, ..., p-1}, as int rows."""
    cols = m - r
    bottom = tuple(tuple(int(k == r + i) for k in range(m)) for i in range(cols))
    return [tuple(tuple(p * (k == i) for k in range(r)) + mp[i * cols:(i + 1) * cols]
                  for i in range(r)) + bottom
            for mp in product(range(p), repeat=r * cols)]


def permuted(rho, rows):
    """The rows of rho * g: row rho(j) of the product is row j of g."""
    return [rows[rho.index(i)] for i in range(len(rows))]


def per_coset_hecke_apply(f, r):
    """U_{p,r} f summed coset by coset: the value at each Weyl
    representative rho is the sum of f over the single-coset matrices with
    rows permuted by rho."""
    m = f.size
    coeffs = {}
    for rho in all_perms(m):
        total = SymElem.rational(f.p, 0)
        for rows in hecke_coset_matrices(f.p, m, r):
            total = total + ps_evaluate_rows(f, permuted(rho, rows))
        coeffs[rho] = total
    return PSVector(f.satake, f.sigma, coeffs)


@lru_cache(maxsize=None)
def coset_cells(p, m, r):
    """{rho: Counter of (cell, vals)} over the single cosets permuted by
    rho: f's value at a matrix depends only on that pair, so the per-coset
    sum is the sum of count * value over the groups."""
    cosets = hecke_coset_matrices(p, m, r)
    return {rho: Counter(bruhat_cell_valuations(p, permuted(rho, rows)) for rows in cosets)
            for rho in all_perms(m)}


def grouped_hecke_apply(f, r):
    """per_coset_hecke_apply, by the (cell, vals) groups of coset_cells."""
    coeffs = {}
    for rho, groups in coset_cells(f.p, f.size, r).items():
        total = SymElem.rational(f.p, 0)
        for (cell, vals), count in groups.items():
            if cell in f.coeffs:
                total = total + torus_character_value(f.satake, f.sigma, vals) \
                    * f.coeffs[cell] * count
        coeffs[rho] = total
    return PSVector(f.satake, f.sigma, coeffs)


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
        f1 = PSVector.cell_vector(sat, (0, 1, 2, 3), (1, 0, 2, 3))
        f2 = PSVector.big_cell_vector(sat, (0, 1, 2, 3)).scale(SymElem.gen(2, "X1"))
        lhs = hecke_apply(f1 + f2, 2)
        rhs = hecke_apply(f1, 2) + hecke_apply(f2, 2)
        assert lhs == rhs

    def test_commutativity_on_sample_vector(self):
        sat = SatakeParameter.generic(2, 2)
        g = PSVector.cell_vector(sat, (0, 1, 2, 3), (1, 0, 2, 3)) \
            + PSVector.big_cell_vector(sat, (0, 1, 2, 3)).scale(SymElem.gen(2, "E"))
        assert hecke_apply(hecke_apply(g, 1), 2) == hecke_apply(hecke_apply(g, 2), 1)

    def test_intertwined_cell_vectors(self):
        # F_delta = f at the (0 w_n; delta w_n 0) cell
        sat = SatakeParameter.generic(3, 2)
        f = PSVector.intertwined_cell_vector(sat, tau_element(2), longest_perm(2))
        point = PadicMatrix(3, [[0, 0, 0, 1], [0, 0, 1, 0],
                                [1, 0, 0, 0], [0, 1, 0, 0]])
        assert ps_evaluate_rows(f, point.rows).is_one()

    def test_eigenvector_subset_n2(self):
        sat = SatakeParameter.generic(2, 2)
        for sigma in [(0, 1, 2, 3), longest_perm(4), tau_element(2)]:
            for r in (1, 2, 3):
                assert eigenvector_check(sat, sigma, r)

    @pytest.mark.parametrize("p", [2, 3])
    def test_grouped_table_matches_the_per_coset_sum(self, p):
        # vectors on several cells, other than the big cell, which the
        # eigenvector checks never read: the test's grouped reference and
        # hecke_apply both equal the sum over the single cosets
        sat = SatakeParameter.generic(p, 2)
        sigma = (1, 3, 0, 2)
        two_cells = PSVector.cell_vector(sat, sigma, (1, 0, 3, 2)) \
            + PSVector.big_cell_vector(sat, sigma).scale(SymElem.gen(p, "X2"))
        vectors = [PSVector.cell_vector(sat, sigma, (2, 0, 3, 1)),
                   PSVector.intertwined_cell_vector(sat, sigma, (1, 0)),
                   two_cells.scale(SymElem.gen(p, "X1"))]
        for f in vectors:
            for r in (1, 2, 3):
                expected = per_coset_hecke_apply(f, r)
                assert grouped_hecke_apply(f, r) == expected
                assert hecke_apply(f, r) == expected
        sat1 = SatakeParameter.generic(p, 1)
        for sigma in all_perms(2):
            for w in all_perms(2):
                f = PSVector.cell_vector(sat1, sigma, w)
                assert hecke_apply(f, 1) == per_coset_hecke_apply(f, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_presentation_matches_the_coset_sum_on_every_cell(self, p):
        for n, sigma in ((1, (1, 0)), (2, (1, 3, 0, 2))):
            sat = SatakeParameter.generic(p, n)
            for w in all_perms(2 * n):
                f = PSVector.cell_vector(sat, sigma, w)
                for r in range(1, 2 * n):
                    assert hecke_apply(f, r) == grouped_hecke_apply(f, r), (n, w, r)

    @pytest.mark.parametrize("p", [3, 11])
    def test_eigenvector_at_rank_three(self, p):
        # GL(6): 720 cells, past any coset enumeration at r = 3
        sat = SatakeParameter.generic(p, 3)
        for sigma in (tuple(range(6)), longest_perm(6), tau_element(3)):
            for r in range(1, 6):
                assert eigenvector_check(sat, sigma, r)


class TestPresentationRules:
    """Each rule of hecke_apply against the sum defining it, valued with
    ps_evaluate_rows at every Weyl representative rho."""

    @staticmethod
    def cell_vectors(p):
        for n, sigma in ((1, (1, 0)), (2, (1, 3, 0, 2))):
            sat = SatakeParameter.generic(p, n)
            for w in all_perms(2 * n):
                yield PSVector.cell_vector(sat, sigma, w)

    @pytest.mark.parametrize("p", [2, 3])
    def test_pi_is_one_coset(self, p):
        # Pi = (0 1_{m-1}; p 0) normalizes Iw: (f * Pi)(rho) = f(rho Pi)
        for f in self.cell_vectors(p):
            m = f.size
            pi = [tuple(int(k == i + 1) for k in range(m)) for i in range(m - 1)]
            pi.append(tuple(p * (k == 0) for k in range(m)))
            chi = [torus_character_value(f.satake, f.sigma, [int(k == j) for k in range(m)])
                   for j in range(m)]
            g = _right_pi(f, chi)
            for rho in all_perms(m):
                assert g.coefficient(rho) == ps_evaluate_rows(f, permuted(rho, pi))

    @pytest.mark.parametrize("p", [2, 3])
    def test_simple_reflection_is_p_cosets(self, p):
        # Iw s_i Iw = union of (1 + a E_{i,i+1}) s_i Iw over a mod p
        for f in self.cell_vectors(p):
            m = f.size
            for i in range(m - 1):
                s = tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, m))
                cosets = [(PadicMatrix(p, [[int(k == j) + a * ((j, k) == (i, i + 1))
                                            for k in range(m)] for j in range(m)])
                           * permutation_matrix(p, s)).nums for a in range(p)]
                g = _right_s(f, i)
                for rho in all_perms(m):
                    expected = SymElem.rational(p, 0)
                    for rows in cosets:
                        expected = expected + ps_evaluate_rows(f, permuted(rho, rows))
                    assert g.coefficient(rho) == expected
