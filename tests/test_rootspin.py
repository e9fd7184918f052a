import math
from fractions import Fraction
from itertools import product

import pytest

from padicref.perms import all_perms, compose
from padicref.rootspin import (RootDataError, WeylGSpin,
                               act_cochar_gl, all_weyl_gspin, delta_b, is_pure,
                               jmap_weight, jmap_weyl, jvee_cochar, jvee_weyl,
                               wg0_members)
from padicref.symring import SymElem


def _long_transposition(n: int, i: int) -> tuple:
    """The transposition of i and 2n - 1 - i in S_2n."""
    w = list(range(2 * n))
    w[i], w[2 * n - 1 - i] = w[2 * n - 1 - i], w[i]
    return tuple(w)


def _pair(mu: tuple, cochar: tuple) -> Fraction:
    """The pairing of a GSpin weight with a GSpin cocharacter."""
    return sum(a * Fraction(b) for a, b in zip(mu, cochar))


class TestWeights:
    def test_jmap_basis_examples(self):
        assert jmap_weight((0, 1, 0)) == (1, 0, 0, -1)
        w = jmap_weight((1, 0))
        assert w == (0, 1)
        assert w[0] + w[-1] == 1

    def test_image_is_pure_with_unique_preimage(self):
        # exhaustive over small coordinates: every pure weight has exactly
        # one preimage
        for n in (1, 2, 3):
            seen = set()
            rng_vals = range(-4, 5)
            if n == 3:
                rng_vals = range(-2, 3)
            for coords in product(rng_vals, repeat=n + 1):
                lam = jmap_weight(coords)
                assert is_pure(lam)
                # the preimage is read off: sw on f_0, the first n entries
                assert (lam[0] + lam[-1], *lam[:n]) == coords
                seen.add(lam)
            # distinct inputs give distinct images (injectivity)
            assert len(seen) == len(rng_vals) ** (n + 1)


class TestWeylGSpin:
    def test_group_sizes(self):
        for n in (1, 2, 3):
            assert len(all_weyl_gspin(n)) == 2 ** n * math.factorial(n)

    def test_composition_against_action(self):
        # the product law is "b first, then a" on weights and on
        # cocharacters, including the f_0 coordinate
        for n in (1, 2, 3):
            elems = all_weyl_gspin(n)
            for a in elems:
                for b in elems:
                    c = a * b
                    for i in range(n + 1):
                        mu = tuple(1 if k == i else 0 for k in range(n + 1))
                        nu = tuple(1 if k == i else 0 for k in range(n + 1))
                        assert c.act_weight(mu) == a.act_weight(b.act_weight(mu))
                        assert c.act_cochar(nu) == a.act_cochar(b.act_cochar(nu))

    def test_products_are_hashable_group_elements(self):
        # equal products hash alike: keyed by a * b, the dict has one key
        # per element of the group
        for n in (1, 2, 3):
            elems = all_weyl_gspin(n)
            products = {a * b: (a, b) for a in elems for b in elems}
            assert all(type(c) is WeylGSpin for c in products)
            assert len(products) == 2 ** n * math.factorial(n)
            assert set(products) == set(elems)

    def test_repr(self):
        assert repr(WeylGSpin((1, 0), (1, -1))) \
            == "WeylGSpin(perm=(1, 0), signs=(1, -1))"
        for n in (1, 2, 3):
            for w in all_weyl_gspin(n):
                assert repr(w) == f"WeylGSpin(perm={w.perm}, signs={w.signs})"

    def test_pairing_invariance(self):
        for w in all_weyl_gspin(2):
            for i in range(3):
                mu = tuple(1 if k == i else 0 for k in range(3))
                for j in range(3):
                    nu = tuple(1 if k == j else 0 for k in range(3))
                    moved = w.act_weight(mu)
                    assert _pair(moved, w.act_cochar(nu)) == _pair(mu, nu)


class TestTransfer:
    def test_identity(self):
        assert jmap_weyl(WeylGSpin((0, 1), (1, 1))) == (0, 1, 2, 3)

    def test_sign_change_is_long_transposition(self):
        for n in (1, 2, 3):
            for i in range(n):
                signs = tuple(-1 if k == i else 1 for k in range(n))
                assert jmap_weyl(WeylGSpin(tuple(range(n)), signs)) \
                    == _long_transposition(n, i)

    def test_image_sizes(self):
        assert {len(wg0_members(n)) for n in (1, 2, 3)} == {2, 8, 48}
        for n in (1, 2, 3):
            assert {jmap_weyl(w) for w in all_weyl_gspin(n)} == wg0_members(n)

    def test_homomorphism_exhaustive(self):
        for n in (1, 2, 3):
            elems = all_weyl_gspin(n)
            for a in elems:
                for b in elems:
                    assert jmap_weyl(a * b) == compose(jmap_weyl(a), jmap_weyl(b))

    def test_weight_equivariance(self):
        for n in (1, 2, 3):
            for w in all_weyl_gspin(n):
                sig = jmap_weyl(w)
                for i in range(n + 1):
                    mu = tuple(1 if k == i else 0 for k in range(n + 1))
                    assert jmap_weight(w.act_weight(mu)) \
                        == act_cochar_gl(jmap_weight(mu), sig)

    def test_dual_equivariance(self):
        for n in (1, 2, 3):
            for w in all_weyl_gspin(n):
                sig = jmap_weyl(w)
                for k in range(2 * n):
                    nu = tuple(1 if t == k else 0 for t in range(2 * n))
                    assert jvee_cochar(act_cochar_gl(nu, sig)) \
                        == jvee_weyl(sig).act_cochar(jvee_cochar(nu))

    def test_pairing_adjunction(self):
        # the definition of jvee, against its formula, at every rank the
        # report accepts
        for n in (1, 2, 3):
            for i in range(n + 1):
                mu = tuple(1 if k == i else 0 for k in range(n + 1))
                for k in range(2 * n):
                    nu = tuple(1 if t == k else 0 for t in range(2 * n))
                    gl_pair = sum(a * b for a, b in zip(jmap_weight(mu), nu))
                    assert _pair(mu, jvee_cochar(nu)) == gl_pair

    def test_jvee_rejects_outsiders(self):
        outside = (1, 0, 2, 3)  # swaps a non-mirrored pair
        assert outside not in wg0_members(2)
        with pytest.raises(RootDataError):
            jvee_weyl(outside)

    def test_inverse(self):
        for n in (1, 2, 3):
            for w in all_weyl_gspin(n):
                assert jvee_weyl(jmap_weyl(w)) == w

    def test_formula_inverts_the_table_on_all_of_s2n(self):
        # every sigma of S_2n: the preimage under jmap_weyl if it has one,
        # else a RootDataError
        for n in (1, 2, 3, 4):
            table = {jmap_weyl(w): w for w in all_weyl_gspin(n)}
            for sigma in all_perms(2 * n):
                if sigma in table:
                    assert jvee_weyl(sigma) == table[sigma]
                else:
                    with pytest.raises(RootDataError):
                        jvee_weyl(sigma)
            assert len(table) == 2 ** n * math.factorial(n)


class TestWG0:
    def test_n1_everything_is_pure(self):
        assert wg0_members(1) == set(all_perms(2))

    def test_exact_sequence(self):
        # 1 -> {+-1}^n -> W_G^0 -> S_n -> 1, split by the transfer of S_n,
        # kernel generated by the long transpositions
        for n in (2, 3):
            kernel = {jmap_weyl(w) for w in all_weyl_gspin(n)
                      if w.perm == tuple(range(n))}
            gens = [_long_transposition(n, i) for i in range(n)]
            generated = {tuple(range(2 * n))}
            frontier = list(generated)
            while frontier:
                new = []
                for g in frontier:
                    for h in gens:
                        c = compose(g, h)
                        if c not in generated:
                            generated.add(c)
                            new.append(c)
                frontier = new
            assert kernel == generated
            assert len(kernel) == 2 ** n
            split = {jmap_weyl(WeylGSpin(s, (1,) * n)) for s in all_perms(n)}
            assert len(split) == len(all_perms(n))
            assert all(s in wg0_members(n) for s in split)


class TestDeltaB:
    def test_hand_values(self):
        assert delta_b(3, [1, 0]) == SymElem.rational(3, Fraction(1, 3))
        assert delta_b(3, [0, 0]).is_one()
        assert delta_b(3, [1, 0], half=True) == SymElem.gen(3, "Y") * Fraction(1, 3)

    def test_tp_product_identity(self):
        # delta_B(t_p)^beta = delta_B(diag(p^(n beta), 1)) * delta_B(diag(z^beta, z^beta))
        for p in (2, 3):
            for n in (1, 2, 3):
                for beta in (1, 2):
                    tp = [2 * n - 1 - k for k in range(2 * n)]
                    lhs = delta_b(p, tp) ** beta
                    z = [n - 1 - i for i in range(n)]
                    first = delta_b(p, [n * beta] * n + [0] * n)
                    second = delta_b(p, [beta * v for v in z + z])
                    assert lhs == first * second
