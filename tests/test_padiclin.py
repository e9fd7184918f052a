from fractions import Fraction

import pytest

from conftest import (make_rng, random_lower_triangular_q,
                      random_upper_triangular_q)
from padicref import padiclin
from padicref.padiclin import (INF, LinAlgError, PadicMatrix,
                               bruhat_cell_valuations, iwahori_bruhat_decompose,
                               iwahori_factorize_unit, open_cell_factorize,
                               opposite_parahoric_cell, ul_factorize,
                               vol_big_cell, vol_iwahori, vp)
from padicref.perms import all_perms, block_perm, compose, longest_perm
from padicref.sampling import (random_glzp, random_iw_beta, random_iwahori,
                               random_n_beta, random_upper_zp)


def _planted(rng, p, size, kind):
    """(w, vp(diag b), rows of b * w * i) for random b upper triangular, w
    and i in Iw; kind "int" gives int rows, "unit-7" puts a factor 7 into
    some denominators of b."""
    lo = 0 if kind == "int" else -2
    b = random_upper_triangular_q(rng, p, size, lo, 2)
    if kind == "unit-7":
        b = PadicMatrix(p, [[x / 7 if rng.randrange(2) else x for x in row]
                            for row in b.rows])
    w = rng.choice(all_perms(size))
    g = b * PadicMatrix.permutation(p, w) * random_iwahori(rng, p, size)
    rows = g.rows
    if kind == "int":
        rows = [[int(x) for x in row] for row in rows]
    return w, tuple(vp(x, p) for x in b.diagonal_entries()), rows


def _wrong_ul(which):
    """ul_factorize with one entry of factor ``which`` (0: the unit upper
    U0, 1: the lower L0) moved by p, keeping both shapes and every
    congruence mod p."""
    real = padiclin.ul_factorize

    def wrong(mat):
        factors = list(real(mat))
        rows = [list(row) for row in factors[which].rows]
        if which:
            rows[-1][0] += mat.p
        else:
            rows[0][-1] += mat.p
        factors[which] = PadicMatrix(mat.p, rows)
        return tuple(factors)

    return wrong


class TestValuation:
    def test_basic(self):
        assert vp(18, 3) == 2
        assert vp(Fraction(2, 27), 3) == -3
        assert vp(0, 3) is INF

    def test_input_types(self):
        assert vp(-40, 2) == 3
        assert vp(Fraction(0), 5) is INF
        assert vp(Fraction(9, 4), 2) == -2
        assert vp(Fraction(7, 25), 5) == -2
        assert vp("18/7", 3) == 2

    def test_unit_part(self):
        from padicref.padiclin import unit_part
        assert unit_part(Fraction(18, 5), 3) == Fraction(2, 5)


class TestBruhat:
    def test_longest_weyl_is_its_own_cell(self):
        g = PadicMatrix.longest_weyl(3, 4)
        dec = iwahori_bruhat_decompose(g)
        assert dec.w == longest_perm(4)
        assert dec.b == PadicMatrix.identity(3, 4)
        assert dec.i == PadicMatrix.identity(3, 4)

    def test_two_by_two_hand_check(self):
        # antidiag(1,1) * diag(p,1): cell is the transposition, torus (1, p)
        g = PadicMatrix(3, [[0, 1], [3, 0]])
        dec = iwahori_bruhat_decompose(g)
        assert dec.w == (1, 0)
        assert [vp(x, 3) for x in dec.b.diagonal_entries()] == [0, 1]
        # a tie in the bottom row pivots on the leftmost column, and a
        # column of least valuation wins over a column to its left
        assert bruhat_cell_valuations(3, [[1, 0], [1, 1]]) == ((1, 0), (0, 0))
        assert bruhat_cell_valuations(3, [[1, 0], [3, 1]]) == ((0, 1), (0, 0))

    def test_singular_input(self):
        with pytest.raises(LinAlgError):
            iwahori_bruhat_decompose(PadicMatrix(3, [[1, 1], [1, 1]]))

    def test_round_trip_sampling(self):
        # constructive sampling oracle: b * w * i recovers w
        rng = make_rng("bruhat-roundtrip")
        counts = {2: 8000, 4: 2000}
        for size, total in counts.items():
            perms = all_perms(size)
            for _ in range(total):
                p = 3 if rng.randrange(2) else 2
                w = rng.choice(perms)
                g = random_upper_triangular_q(rng, p, size) \
                    * PadicMatrix.permutation(p, w) * random_iwahori(rng, p, size)
                assert iwahori_bruhat_decompose(g).w == w

    def test_cell_constant_on_orbits(self):
        rng = make_rng("bruhat-orbits")
        for _ in range(60):
            p = 3
            w = rng.choice(all_perms(4))
            g = random_upper_triangular_q(rng, p, 4) \
                * PadicMatrix.permutation(p, w) * random_iwahori(rng, p, 4)
            left = random_upper_triangular_q(rng, p, 4)
            right = random_iwahori(rng, p, 4)
            assert iwahori_bruhat_decompose(left * g).w == w
            assert iwahori_bruhat_decompose(g * right).w == w

    def test_light_path_matches_full(self):
        # Planted inputs g = b * w * i (b upper triangular, i in Iw): the
        # core must return w and vp(diag b), which needs no elimination to
        # know, and the full path must agree.  Then 400 random inputs,
        # where every invertible one must get a certified decomposition.
        # Both cover p-power Fractions, plain int rows and denominators
        # with a unit factor 7, at sizes 2..6 and p = 2, 3, 5.
        planted = make_rng("bruhat-planted")
        for p in (2, 3, 5):
            for size in range(2, 7):
                for kind in ("p-power", "int", "unit-7"):
                    w, vals, rows = _planted(planted, p, size, kind)
                    assert bruhat_cell_valuations(p, rows) == (w, vals)
                    dec = iwahori_bruhat_decompose(PadicMatrix(p, rows))
                    assert dec.w == w
                    assert dec.b.diagonal_valuations() == list(vals)
        rng = make_rng("bruhat-light")
        seen = set()
        for _ in range(400):
            p = rng.choice((2, 3, 5))
            size = rng.choice((2, 2, 3, 4, 5, 6))
            kind = rng.choice(("p-power", "int", "unit-7"))

            def entry():
                if not rng.randrange(4):
                    return 0
                if kind == "int":
                    return rng.randrange(p ** 3) - p
                x = rng.padic_rational(p, -2, 2)
                return x / 7 if kind == "unit-7" and rng.randrange(2) else x

            rows = [[entry() for _ in range(size)] for _ in range(size)]
            m = PadicMatrix(p, rows)
            if m.det() == 0:
                continue
            dec = iwahori_bruhat_decompose(m)
            cell, vals = bruhat_cell_valuations(p, rows)
            assert cell == dec.w
            assert list(vals) == [int(v) for v in dec.b.diagonal_valuations()]
            seen.add((p, size, kind))
        assert len(seen) == 3 * 5 * 3

    def test_certificate_rejects_a_wrong_core(self, monkeypatch):
        # a wrong cell or a wrong valuation vector from the core must not
        # come back as a decomposition
        rng = make_rng("bruhat-certificate")
        for p, size in ((2, 2), (3, 3), (5, 3), (3, 4)):
            w, vals, rows = _planted(rng, p, size, "p-power")
            g = PadicMatrix(p, rows)
            for wrong in all_perms(size):
                if wrong == w:
                    continue
                monkeypatch.setattr(padiclin, "bruhat_cell_valuations",
                                    lambda p, rows, wrong=wrong: (wrong, vals))
                with pytest.raises(LinAlgError):
                    iwahori_bruhat_decompose(g)
            for k in range(size):
                shifted = vals[:k] + (vals[k] + 1,) + vals[k + 1:]
                monkeypatch.setattr(padiclin, "bruhat_cell_valuations",
                                    lambda p, rows, shifted=shifted: (w, shifted))
                with pytest.raises(LinAlgError):
                    iwahori_bruhat_decompose(g)
            monkeypatch.undo()
            assert iwahori_bruhat_decompose(g).w == w

    def test_light_path_singular_input(self):
        with pytest.raises(LinAlgError):
            bruhat_cell_valuations(3, [[1, 1], [1, 1]])
        with pytest.raises(LinAlgError):
            bruhat_cell_valuations(2, [[Fraction(1, 2), 1], [1, 2]])


class TestOppositeParahoric:
    def test_identity(self):
        assert opposite_parahoric_cell(PadicMatrix.identity(3, 3), 1) == (0,)

    def test_constructed_coset(self):
        rng = make_rng("opposite")
        p, n, r = 3, 3, 1
        delta_wn = compose((1, 0, 2), longest_perm(n))  # not in W_{1,2}
        for _ in range(50):
            b = random_upper_triangular_q(rng, p, n)
            jbar = random_iwahori(rng, p, n).transpose()  # opposite parahoric ⊇ opposite Iwahori
            g = b * PadicMatrix.permutation(p, delta_wn) * jbar
            assert opposite_parahoric_cell(g, r) == tuple(sorted(delta_wn[:r]))

    def test_disjointness(self):
        # cells of B Jbar_r and B (delta w_n) Jbar_r differ when
        # delta w_n is not in the block Weyl subgroup
        rng = make_rng("opposite-disjoint")
        p, n, r = 3, 2, 1
        delta_wn = compose((1, 0), longest_perm(n))  # = identity; pick delta = w_n
        assert delta_wn == (0, 1)
        delta_wn = longest_perm(n)  # delta = identity: delta*w_n = w_n not in W_{1,1}
        for _ in range(40):
            b1 = random_upper_triangular_q(rng, p, n)
            j1 = random_iwahori(rng, p, n).transpose()
            lhs = opposite_parahoric_cell(b1 * j1, r)
            rhs = opposite_parahoric_cell(
                b1 * PadicMatrix.permutation(p, delta_wn) * j1, r)
            assert lhs != rhs


class TestUnitFactorization:
    def test_zero_matrix(self):
        r, s = iwahori_factorize_unit(PadicMatrix(3, [[0, 0], [0, 0]]), 1)
        assert r == PadicMatrix.identity(3, 2)
        assert s == PadicMatrix.identity(3, 2)

    def test_rank_one(self):
        x = PadicMatrix(3, [[2]])
        r, s = iwahori_factorize_unit(x, 1)
        assert r == PadicMatrix.identity(3, 1)
        assert s == PadicMatrix(3, [[7]])

    def test_random_congruence(self):
        rng = make_rng("unit-factor")
        for _ in range(100):
            p = 3 if rng.randrange(2) else 2
            beta = rng.randint(1, 2)
            x = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(2)]
                                for _ in range(2)])
            r, s = iwahori_factorize_unit(x, beta)
            product = r * s
            expected = PadicMatrix(p, [[
                (1 if i == j else 0) + Fraction(p) ** beta
                * (PadicMatrix.longest_weyl(p, 2) * x).rows[i][j]
                for j in range(2)] for i in range(2)])
            assert product == expected
            assert r.congruent_identity(beta) and s.congruent_identity(beta)

    def test_certificate_rejects_a_wrong_ul_factor(self, monkeypatch):
        # a wrong UL factor must raise, never come back as a factorization
        rng = make_rng("unit-certificate")
        for p, n in ((2, 2), (3, 2), (3, 3), (5, 3)):
            x = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                                for _ in range(n)])
            for which in (0, 1):
                monkeypatch.setattr(padiclin, "ul_factorize", _wrong_ul(which))
                with pytest.raises(LinAlgError):
                    iwahori_factorize_unit(x, 1)
            monkeypatch.undo()
            iwahori_factorize_unit(x, 1)


class TestOpenCell:
    def test_open_orbit_representative(self):
        u = PadicMatrix.open_orbit_rep(3, 2)
        fac = open_cell_factorize(u)
        assert fac.bbar == PadicMatrix.identity(3, 4)
        assert fac.h1 == PadicMatrix.identity(3, 2)
        assert fac.h2 == PadicMatrix.identity(3, 2)

    def test_big_cell_congruence(self):
        # (1, w_n + p^beta X; 0, 1) factors with bbar, h = 1 mod p^beta
        rng = make_rng("open-bigcell")
        for _ in range(60):
            p = 3 if rng.randrange(2) else 2
            beta = rng.randint(1, 2)
            n = 2
            wn = PadicMatrix.longest_weyl(p, n)
            x = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                                for _ in range(n)])
            top = PadicMatrix(p, [[wn.rows[i][j] + Fraction(p) ** beta * x.rows[i][j]
                                   for j in range(n)] for i in range(n)])
            zero = PadicMatrix(p, [[0] * n for _ in range(n)])
            g = PadicMatrix.from_blocks(PadicMatrix.identity(p, n), top,
                                        zero, PadicMatrix.identity(p, n))
            fac = open_cell_factorize(g)
            assert fac is not None
            assert fac.bbar.congruent_identity(beta)
            assert fac.h1.congruent_identity(beta)
            assert fac.h2.congruent_identity(beta)

    def test_character_value_well_defined(self):
        # recovered character value matches the constructed one for pure
        # weights with small entries
        rng = make_rng("open-character")
        p, n = 3, 2
        lam = (3, 1, -1, -3)
        sw = 0
        j = -1
        for _ in range(200):
            bbar = PadicMatrix.from_blocks(
                random_lower_triangular_q(rng, p, n),
                PadicMatrix(p, [[0] * n for _ in range(n)]),
                PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                                for _ in range(n)]),
                random_lower_triangular_q(rng, p, n))
            h1 = random_glzp(rng, p, n)
            h2 = random_glzp(rng, p, n)
            g = bbar * PadicMatrix.open_orbit_rep(p, n) \
                * PadicMatrix.block_diag(h1, h2)
            fac = open_cell_factorize(g)
            assert fac is not None

            def value(bb, a1, a2):
                out = Fraction(1)
                for k, d in enumerate(bb.diagonal_entries()):
                    out *= Fraction(d) ** lam[k]
                return out * Fraction(a1.det()) ** (-j) * Fraction(a2.det()) ** (sw + j)

            assert value(fac.bbar, fac.h1, fac.h2) == value(bbar, h1, h2)

    def test_certificate_rejects_a_wrong_ul_factor(self, monkeypatch):
        # a wrong UL factor must give None, never a wrong factorization
        rng = make_rng("open-certificate")
        for p, n in ((2, 2), (3, 2), (2, 3)):
            g = random_n_beta(rng, p, n, 1) * random_iw_beta(rng, p, 2 * n, 1)
            for which in (0, 1):
                monkeypatch.setattr(padiclin, "ul_factorize", _wrong_ul(which))
                assert open_cell_factorize(g) is None
            monkeypatch.undo()
            assert open_cell_factorize(g) is not None

    def test_off_cell_is_distinguished_outcome(self):
        # block antidiagonal matrices have singular A-block: not in the cell
        p, n = 3, 1
        g = PadicMatrix(p, [[0, 1], [1, 0]])
        assert open_cell_factorize(g) is None

    def test_succeeds_on_congruence_products(self):
        # N^beta(Z_p) * Iw^beta stays inside the open cell, and the pure
        # character value is a 1-unit of depth beta at N^beta points
        rng = make_rng("open-nbeta")
        p, n = 3, 2
        lam = (2, 1, -1, -2)
        for _ in range(80):
            beta = rng.randint(1, 2)
            g = random_n_beta(rng, p, n, beta)
            extra = random_iw_beta(rng, p, 2 * n, beta)
            assert open_cell_factorize(g * extra) is not None
            fac = open_cell_factorize(g)
            assert fac is not None
            value = Fraction(1)
            for k, d in enumerate(fac.bbar.diagonal_entries()):
                value *= Fraction(d) ** lam[k]
            value *= Fraction(fac.h1.det()) ** 1 * Fraction(fac.h2.det()) ** (0 - 1)
            assert vp(value - 1, p) >= beta


class TestMeasures:
    def test_iwahori_volume(self):
        assert vol_iwahori(3, 1) == 1
        assert vol_iwahori(3, 2) == Fraction(12, 48)

    def test_big_cell_volume(self):
        assert vol_big_cell(3, 1) == 1
        assert vol_big_cell(3, 2) == Fraction(3, 4)
        assert vol_big_cell(2, 2) == Fraction(2, 3)
