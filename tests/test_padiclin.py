import math
from fractions import Fraction

import pytest

from conftest import (blocks, det, identity, longest_weyl, make_rng, permutation_matrix,
                     random_lower_triangular_q, random_upper_triangular_q, z_matrix)
from padicref import branchfam, padiclin
from padicref.branchfam import PureWeight, v_lambda_all, w_lambda
from padicref.padiclin import (INF, LinAlgError, PadicMatrix,
                               bruhat_cell_valuations, certified_bruhat_cell,
                               iwahori_bruhat_decompose,
                               lu_unit_lower, open_cell_factorize, unit_part,
                               vol_big_cell, vol_iwahori, vp)
from padicref.perms import all_perms, longest_perm
from padicref.sampling import (random_glzp, random_iw_beta, random_iwahori,
                               random_n_beta, random_shalika_positive, random_sparse_qp,
                               random_upper_zp)


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
    g = b * permutation_matrix(p, w) * random_iwahori(rng, p, size)
    rows = g.rows
    if kind == "int":
        rows = [[int(x) for x in row] for row in rows]
    return w, tuple(vp(x, p) for x in b.diagonal_entries()), rows


def _wrong_lu(p, which):
    """The forward (LU) elimination of the int rows m with one entry of its
    result moved by p times the first pivot (which 0: a multiplier, an
    entry of the unit lower factor; 1: an entry of the upper part), keeping
    every congruence mod p.  The open cell runs its LU step this way."""
    real = padiclin._eliminate

    def wrong(m, pivot, jordan=False):
        det = real(m, pivot, jordan)
        if not pivot:
            n = len(m)
            if which:
                m[0][n - 1] += p * m[0][0]
            else:
                m[n - 1][0] += p * m[0][0]
        return det

    return wrong


def _congruent_identity(m, beta):
    """m = 1 mod p^beta, read off the int rows over m.den."""
    least = beta + vp(m.den, m.p)
    return all(vp(x - m.den * (i == j), m.p) >= least
               for i, row in enumerate(m.nums) for j, x in enumerate(row))


def _open_cell_point(rng, p, n, kind):
    """A point of the open cell of GL_2n: kind "int" is N^1 Iw^1, "den" is
    bbar * u * diag(h1 / 7, h2) with bbar over p-power and 7 denominators,
    and "swap" is the same with zero (0, 0) entries in A = P h1 and in
    B = P w_n h2."""
    if kind == "int":
        return random_n_beta(rng, p, n, 1) * random_iw_beta(rng, p, 2 * n, 1)
    zero, wn = PadicMatrix.diagonal(p, [0] * n), longest_weyl(p, n)

    def corner_zero(h):
        return PadicMatrix(p, [[0 if i == j == 0 else x for j, x in enumerate(row)]
                               for i, row in enumerate(h.rows)])

    while True:
        h1, h2 = random_glzp(rng, p, n), random_glzp(rng, p, n)
        if kind == "swap":
            h1, h2 = corner_zero(h1), wn * corner_zero(wn * h2)
        if det(h1) and det(h2):
            break
    bbar = blocks(
        random_lower_triangular_q(rng, p, n), zero,
        PadicMatrix(p, [[rng.padic_rational(p) / rng.choice((1, 7)) for _ in range(n)]
                        for _ in range(n)]),
        random_lower_triangular_q(rng, p, n))
    h = blocks(h1 * PadicMatrix.diagonal(p, [Fraction(1, 7)] * n), zero, zero, h2)
    return bbar * PadicMatrix.open_orbit_rep(p, n) * h


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
        assert vp(Fraction("18/7"), 3) == 2

    def test_inexact_input_is_refused(self):
        # 0.1 is stored as 3602879701896397 / 2^55: read exactly it would
        # have valuation -55 at 2, so neither vp nor a matrix accepts it
        for bad in (0.1, 2.0, "18/7"):
            with pytest.raises(LinAlgError):
                vp(bad, 2)
            with pytest.raises(LinAlgError):
                PadicMatrix(3, [[bad, 0], [0, 1]])

    def test_unit_part(self):
        assert unit_part(Fraction(18, 5), 3) == Fraction(2, 5)


def _assert_canonical(m):
    """m is stored as int rows over den > 0 with gcd(den, every entry) = 1."""
    entries = [x for row in m.nums for x in row]
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for x in entries)
    assert math.gcd(m.den, *entries) == 1
    assert len(m.nums) == m.size and all(len(row) == m.size for row in m.nums)


class TestStoredForm:
    def test_constructor_gives_the_canonical_form(self):
        g = PadicMatrix(3, [[Fraction(1, 6), 2], [Fraction(-4, 9), 0]])
        assert (g.den, g.nums) == (18, ((3, 36), (-8, 0)))
        assert g.rows == ((Fraction(1, 6), 2), (Fraction(-4, 9), 0))
        assert PadicMatrix(3, [[4, -6], [0, 8]]).den == 1
        assert PadicMatrix(3, [[Fraction(4, 2), 1], [0, 1]]).nums == ((2, 1), (0, 1))
        with pytest.raises(LinAlgError):
            PadicMatrix(3, [[1, 2], [3]])

    def test_every_result_is_canonical(self):
        rng = make_rng("stored-form")
        for p in (2, 3):
            for size in (2, 4):
                g = random_upper_triangular_q(rng, p, size) \
                    * permutation_matrix(p, rng.choice(all_perms(size))) \
                    * random_lower_triangular_q(rng, p, size)
                h = random_glzp(rng, p, size)
                up, lo = (random_upper_triangular_q(rng, p, size),
                          random_lower_triangular_q(rng, p, size))
                results = [g, h, g * h, g.inverse(),
                           g.block(0, size // 2, 0, size // 2),
                           PadicMatrix.open_orbit_rep(p, size),
                           *iwahori_bruhat_decompose(g)[::2], *lu_unit_lower(lo * up)]
                fac = open_cell_factorize(random_n_beta(rng, p, size // 2, 1)
                                          * random_iw_beta(rng, p, size, 1))
                results += [fac.bbar, fac.h1, fac.h2]
                for m in results:
                    _assert_canonical(m)

    def test_fraction_rows_and_scaled_int_rows_agree(self):
        # the same matrix reached from Fraction rows, from int rows over a
        # common denominator and from a non-reduced int form is one value
        rng = make_rng("stored-agree")
        for _ in range(50):
            p = rng.choice((2, 3, 5))
            size = rng.randint(1, 4)
            rows = [[rng.padic_rational(p, -2, 2) / rng.choice((1, 7)) for _ in range(size)]
                    for _ in range(size)]
            d = math.lcm(*(x.denominator for row in rows for x in row))
            k = rng.choice((1, 2, -3))
            ints = [[int(x * d) for x in row] for row in rows]
            forms = [PadicMatrix(p, rows),
                     PadicMatrix(p, ints) * PadicMatrix.diagonal(p, [Fraction(1, d)] * size),
                     PadicMatrix.from_ints(p, k * d, [[k * x for x in row] for row in ints])]
            for m in forms:
                _assert_canonical(m)
                assert m == forms[0] and hash(m) == hash(forms[0])
                assert m.rows == tuple(map(tuple, rows))
            assert forms[0] != PadicMatrix(p + 2 if p == 3 else 3, rows)

    def test_repr_is_pinned(self):
        # failure witnesses of the report embed this text
        g = PadicMatrix(3, [[Fraction(1, 3), 2], [0, Fraction(-5, 2)]])
        assert repr(g) == "PadicMatrix(p=3, [['1/3', '2'], ['0', '-5/2']])"
        assert repr(identity(2, 1)) == "PadicMatrix(p=2, [['1']])"

    def test_predicates_read_the_ints(self):
        p = 3
        half = PadicMatrix(p, [[Fraction(1, 2), 0], [3, 1]])  # den 2, a unit at 3
        assert half.is_integral() and half.in_glzp() and half.in_iwahori()
        third = PadicMatrix(p, [[1, Fraction(1, 3)], [0, 1]])
        assert not third.is_integral() and not third.in_glzp()
        assert PadicMatrix(p, [[Fraction(5, 2), 0], [0, 1]]).diagonal_valuations() == [0, 0]
        assert PadicMatrix(p, [[Fraction(9, 2), 0], [0, Fraction(1, 3)]]) \
            .diagonal_valuations() == [2, -1]

    def test_glzp_test_matches_the_det_definition(self, monkeypatch):
        # in GL_n(Z_p) means integral with a unit det; in_glzp reads it off
        # nums mod p by one elimination over F_p, and runs no Bareiss step
        rng = make_rng("glzp-det")
        cases = []
        for _ in range(1500):
            p, size = rng.choice((2, 3, 5)), rng.randint(1, 4)
            rows = [[rng.randint(-3 * p, 3 * p) for _ in range(size)] for _ in range(size)]
            kind = rng.choice(("int", "den", "singular"))
            if kind == "singular":  # the last row a combination of the others mod p
                c = [rng.randrange(p) for _ in range(size - 1)]
                rows[-1] = [sum(ci * row[j] for ci, row in zip(c, rows)) + p * rng.randint(-2, 2)
                            for j in range(size)]
            den = rng.choice((p, p * p, 7 * p)) if kind == "den" else rng.choice((1, 7))
            g = PadicMatrix.from_ints(p, den, rows)
            cases.append((kind, g, g.is_integral() and vp(det(g), p) == 0))
        seen = {(kind, want) for kind, _, want in cases}
        assert {("int", True), ("int", False), ("den", False), ("singular", False)} <= seen
        assert ("singular", True) not in seen

        def refuse(*args, **kwargs):
            raise AssertionError("in_glzp ran a Bareiss elimination")
        monkeypatch.setattr(padiclin, "_eliminate", refuse)
        assert [g.in_glzp() for _, g, _ in cases] == [want for _, _, want in cases]

    def test_iwahori_test_needs_no_det(self):
        # an integral matrix with p-divisible lower entries is upper
        # triangular mod p, so its det is a unit exactly when its diagonal is
        rng = make_rng("iwahori-det-free")
        seen = []

        def entry(p, i, j):
            x = rng.randint(-2 * p, 2 * p)
            if j < i and rng.randrange(5):  # below the diagonal, mostly in pZ_p
                x *= p
            return Fraction(x, rng.choice((1,) * 8 + (7, p)))

        for _ in range(3000):
            p = rng.choice((2, 3, 5))
            size = rng.randint(1, 4)
            g = PadicMatrix(p, [[entry(p, i, j) for j in range(size)] for i in range(size)])
            lower_in_pzp = all(vp(x, p) >= 1 for i, row in enumerate(g.rows) for x in row[:i])
            assert g.in_iwahori() == (g.in_glzp() and lower_in_pzp)
            seen.append(g.in_iwahori())
        assert 300 < seen.count(True) < 2700


class TestBruhat:
    def test_longest_weyl_is_its_own_cell(self):
        g = longest_weyl(3, 4)
        dec = iwahori_bruhat_decompose(g)
        assert dec.w == longest_perm(4)
        assert dec.b == identity(3, 4)
        assert dec.i == identity(3, 4)

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
        for entry in (iwahori_bruhat_decompose, certified_bruhat_cell):
            with pytest.raises(LinAlgError):
                entry(PadicMatrix(3, [[1, 1], [1, 1]]))

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
                    * permutation_matrix(p, w) * random_iwahori(rng, p, size)
                assert iwahori_bruhat_decompose(g).w == w

    def test_cell_constant_on_orbits(self):
        rng = make_rng("bruhat-orbits")
        for _ in range(60):
            p = 3
            w = rng.choice(all_perms(4))
            g = random_upper_triangular_q(rng, p, 4) \
                * permutation_matrix(p, w) * random_iwahori(rng, p, 4)
            left = random_upper_triangular_q(rng, p, 4)
            right = random_iwahori(rng, p, 4)
            assert iwahori_bruhat_decompose(left * g).w == w
            assert iwahori_bruhat_decompose(g * right).w == w

    def test_light_path_matches_full(self):
        # Planted inputs g = b * w * i (b upper triangular, i in Iw): the
        # core must return w and vp(diag b), which needs no elimination to
        # know, and the full path and the certified cell must agree.  Then
        # 400 random inputs, where every invertible one must get a certified
        # decomposition and a certified cell.
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
                    assert certified_bruhat_cell(PadicMatrix(p, rows)) == (w, vals)
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
            if det(m) == 0:
                continue
            dec = iwahori_bruhat_decompose(m)
            cell, vals = bruhat_cell_valuations(p, rows)
            assert cell == dec.w
            assert list(vals) == [int(v) for v in dec.b.diagonal_valuations()]
            assert certified_bruhat_cell(m) == (cell, vals)
            seen.add((p, size, kind))
        assert len(seen) == 3 * 5 * 3

    def test_certificate_rejects_a_wrong_core(self, monkeypatch):
        # a wrong cell or a wrong valuation vector from the core must not
        # come back as a decomposition, nor as a certified cell
        rng = make_rng("bruhat-certificate")
        for p, size in ((2, 2), (3, 3), (5, 3), (3, 4)):
            w, vals, rows = _planted(rng, p, size, "p-power")
            g = PadicMatrix(p, rows)
            for entry in (iwahori_bruhat_decompose, certified_bruhat_cell):
                for wrong in all_perms(size):
                    if wrong == w:
                        continue
                    monkeypatch.setattr(padiclin, "bruhat_cell_valuations",
                                        lambda p, rows, ops=None, wrong=wrong: (wrong, vals))
                    with pytest.raises(LinAlgError):
                        entry(g)
                for k in range(size):
                    shifted = vals[:k] + (vals[k] + 1,) + vals[k + 1:]
                    monkeypatch.setattr(padiclin, "bruhat_cell_valuations",
                                        lambda p, rows, ops=None, shifted=shifted:
                                        (w, shifted))
                    with pytest.raises(LinAlgError):
                        entry(g)
                monkeypatch.undo()
            assert iwahori_bruhat_decompose(g).w == w
            assert certified_bruhat_cell(g) == (w, vals)

    def test_certificate_rejects_a_wrong_lu_factor(self, monkeypatch):
        # det i = det ybar = 1 is proven, with no det, by the L factor that
        # b and i are read off being unit lower triangular.  Scale the last
        # diagonal entry of L by s and that of U by 1/s: L U, b upper
        # triangular and b * w * i = g still hold, and the core is made to
        # report the valuations of that b.  s = p leaves i integral with
        # det i = p, s = 1/p makes i non-integral; both must raise.  Only
        # the decomposition reads an LU; the certified cell is tested
        # against wrong column operations below
        rng = make_rng("bruhat-lu-certificate")
        lu, core = padiclin._lu_rows, padiclin.bruhat_cell_valuations

        def scaled_last(d, rows, s):
            # rows / d with its last diagonal entry times s
            out = [[x * s.denominator for x in row] for row in rows]
            out[-1][-1] = rows[-1][-1] * s.numerator
            return d * s.denominator, out

        for p, size in ((2, 2), (3, 3), (5, 3), (3, 4)):
            w, _, rows = _planted(rng, p, size, "p-power")
            g = PadicMatrix(p, rows)
            for s in (Fraction(p), Fraction(1, p)):
                def wrong_lu(nums, den, s=s):
                    dl, lo, du, up = lu(nums, den)
                    return (*scaled_last(dl, lo, s), *scaled_last(du, up, 1 / s))

                def wrong_core(p, rows, s=s):
                    cell, vals = core(p, rows)
                    return cell, (vals[0] - vp(s, p),) + vals[1:]
                monkeypatch.setattr(padiclin, "_lu_rows", wrong_lu)
                monkeypatch.setattr(padiclin, "bruhat_cell_valuations", wrong_core)
                with pytest.raises(LinAlgError):
                    iwahori_bruhat_decompose(g)
            monkeypatch.undo()
            assert iwahori_bruhat_decompose(g).w == w

    def test_cell_certificate_rejects_planted_errors(self, monkeypatch):
        # the core runs with its column operations kept, then its answer or
        # its operations I are changed by one planted error: a wrong cell
        # (seen by the zero pattern and the valuations), and four that one
        # check alone sees: a shifted valuation; column 0 of I times p with
        # its valuation shifted to match (P stays b' w, but I is not in Iw);
        # one wrong multiplier, p times the bottom pivot column subtracted
        # from another column (I stays in Iw, but b' = P w^{-1} gets an
        # entry below its diagonal); and column j of I added to column k,
        # j < k with cell[j] > cell[k], with cell[k] set to cell[j] (I stays
        # in Iw and P matches the cell, which is no permutation)
        rng = make_rng("bruhat-cell-certificate")
        core = padiclin.bruhat_cell_valuations

        def not_a_permutation(p, cell, vals, ops):
            j, k = next((j, k) for k in range(len(cell)) for j in range(k)
                        if cell[j] > cell[k])
            for row in ops:
                row[k] += row[j]
            return cell[:k] + (cell[j],) + cell[k + 1:], vals

        def other_cell(p, cell, vals, ops):
            return cell[1:] + cell[:1], vals

        def shifted_valuation(p, cell, vals, ops):
            return cell, vals[:-1] + (vals[-1] + 1,)

        def op_outside_iw(p, cell, vals, ops):
            for row in ops:
                row[0] *= p
            return cell, tuple(v + (i == cell[0]) for i, v in enumerate(vals))

        def wrong_multiplier(p, cell, vals, ops):
            j = cell.index(len(cell) - 1)
            k = (j + 1) % len(cell)
            for row in ops:
                row[k] -= p * row[j]
            return cell, vals

        for p, size, kind in ((2, 2, "int"), (3, 3, "p-power"), (5, 3, "unit-7"),
                              (3, 4, "int"), (2, 5, "p-power"), (3, 6, "unit-7")):
            w = tuple(range(size))
            while w == tuple(range(size)):  # off the identity cell: w has an inversion
                w, vals, rows = _planted(rng, p, size, kind)
            g = PadicMatrix(p, rows)
            for error in (other_cell, shifted_valuation, op_outside_iw, wrong_multiplier,
                          not_a_permutation):
                def patched(p, rows, ops=None, error=error):
                    return error(p, *core(p, rows, ops=ops), ops)
                monkeypatch.setattr(padiclin, "bruhat_cell_valuations", patched)
                with pytest.raises(LinAlgError):
                    certified_bruhat_cell(g)
            monkeypatch.undo()
            assert certified_bruhat_cell(g) == (w, vals)

    def test_light_path_singular_input(self):
        with pytest.raises(LinAlgError):
            bruhat_cell_valuations(3, [[1, 1], [1, 1]])
        with pytest.raises(LinAlgError):
            bruhat_cell_valuations(2, [[Fraction(1, 2), 1], [1, 2]])


class TestUnitFactorization:
    """lu_unit_lower of 1 + p^beta X w_n (X integral), the shape of the LU
    step in open_cell_factorize: both factors are congruent to 1 mod
    p^beta."""

    def test_zero_matrix(self):
        one = identity(3, 2)  # X = 0
        assert lu_unit_lower(one) == (one, one)

    def test_rank_one(self):
        r, s = lu_unit_lower(PadicMatrix(3, [[7]]))  # 1 + 3 * 2
        assert r == identity(3, 1)
        assert s == PadicMatrix(3, [[7]])

    def test_random_congruence(self):
        rng = make_rng("unit-factor")
        for _ in range(100):
            p = 3 if rng.randrange(2) else 2
            beta = rng.randint(1, 2)
            x = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(2)]
                                for _ in range(2)])
            mat = PadicMatrix(p, [[
                (1 if i == j else 0) + Fraction(p) ** beta
                * (x * longest_weyl(p, 2)).rows[i][j]
                for j in range(2)] for i in range(2)])
            r, s = lu_unit_lower(mat)
            assert r * s == mat
            assert r.rows[0] == (1, 0) and r.rows[1][1] == 1 and s.rows[1][0] == 0
            assert _congruent_identity(r, beta) and _congruent_identity(s, beta)


class TestOpenCell:
    def test_open_orbit_representative(self):
        u = PadicMatrix.open_orbit_rep(3, 2)
        fac = open_cell_factorize(u)
        assert fac.bbar == identity(3, 4)
        assert fac.h1 == identity(3, 2)
        assert fac.h2 == identity(3, 2)

    def test_big_cell_congruence(self):
        # (1, w_n + p^beta X; 0, 1) factors with bbar, h = 1 mod p^beta
        rng = make_rng("open-bigcell")
        for _ in range(60):
            p = 3 if rng.randrange(2) else 2
            beta = rng.randint(1, 2)
            n = 2
            wn = longest_weyl(p, n)
            x = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                                for _ in range(n)])
            top = PadicMatrix(p, [[wn.rows[i][j] + Fraction(p) ** beta * x.rows[i][j]
                                   for j in range(n)] for i in range(n)])
            zero = PadicMatrix(p, [[0] * n for _ in range(n)])
            g = blocks(identity(p, n), top, zero, identity(p, n))
            fac = open_cell_factorize(g)
            assert fac is not None
            assert all(_congruent_identity(m, beta) for m in (fac.bbar, fac.h1, fac.h2))

    def test_character_value_well_defined(self):
        # recovered character value matches the constructed one for pure
        # weights with small entries
        rng = make_rng("open-character")
        p, n = 3, 2
        lam = (3, 1, -1, -3)
        sw = 0
        j = -1
        for _ in range(200):
            bbar = blocks(
                random_lower_triangular_q(rng, p, n),
                PadicMatrix(p, [[0] * n for _ in range(n)]),
                PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                                for _ in range(n)]),
                random_lower_triangular_q(rng, p, n))
            h1 = random_glzp(rng, p, n)
            h2 = random_glzp(rng, p, n)
            zero = PadicMatrix.diagonal(p, [0] * n)
            g = bbar * PadicMatrix.open_orbit_rep(p, n) \
                * blocks(h1, zero, zero, h2)
            fac = open_cell_factorize(g)
            assert fac is not None

            def value(bb, a1, a2):
                out = Fraction(1)
                for k, d in enumerate(bb.diagonal_entries()):
                    out *= Fraction(d) ** lam[k]
                return out * Fraction(det(a1)) ** (-j) * Fraction(det(a2)) ** (sw + j)

            assert value(fac.bbar, fac.h1, fac.h2) == value(bbar, h1, h2)

    def test_certificate_rejects_a_wrong_ul_factor(self, monkeypatch):
        # a wrong factor of the LU step (of qa qb M^T) must give None, never
        # a wrong factorization
        rng = make_rng("open-certificate")
        for p, n in ((2, 2), (3, 2), (2, 3)):
            g = random_n_beta(rng, p, n, 1) * random_iw_beta(rng, p, 2 * n, 1)
            for which in (0, 1):
                monkeypatch.setattr(padiclin, "_eliminate", _wrong_lu(p, which))
                assert open_cell_factorize(g) is None
            monkeypatch.undo()
            assert open_cell_factorize(g) is not None

    def test_carried_determinants(self):
        # dets, read off the eliminations of A, B and the LU step, equals
        # (det h1, det h2) computed afresh: at p = 2, 3, 5 and sizes 2, 4, 6,
        # on int points, on points over a denominator, and on points whose
        # A and B blocks have a zero (0, 0) entry, so that inverting them
        # swaps rows and det differs in sign from the last pivot
        rng = make_rng("open-dets")
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for kind in ("int", "den", "swap") if n > 1 else ("int", "den"):
                    for _ in range(4):
                        g = _open_cell_point(rng, p, n, kind)
                        if kind != "int":
                            assert g.den != 1
                        if kind == "swap":
                            assert g.nums[0][0] == 0 == g.nums[0][n]
                        fac = open_cell_factorize(g)
                        assert fac.dets == (det(fac.h1), det(fac.h2))

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
            value *= Fraction(det(fac.h1)) ** 1 * Fraction(det(fac.h2)) ** (0 - 1)
            assert vp(value - 1, p) >= beta


class TestWorkBound:
    """Eliminations and PadicMatrix products per sampled point, counted on
    fixed seeded samples: the open cell with its determinants runs three
    eliminations (the solves with A^T and B^T, the LU step) and the Bruhat
    decomposition one (its LU), and neither multiplies PadicMatrix values:
    both certificates are integer products.  An Iw^1 point adds one LU (its
    Iwahori coordinates) and builds no weight."""

    def _count(self, monkeypatch):
        counts = {"eliminate": 0, "mul": 0}
        eliminate, mul = padiclin._eliminate, PadicMatrix.__mul__

        def counted_eliminate(*args, **kwargs):
            counts["eliminate"] += 1
            return eliminate(*args, **kwargs)

        def counted_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)
        monkeypatch.setattr(padiclin, "_eliminate", counted_eliminate)
        monkeypatch.setattr(PadicMatrix, "__mul__", counted_mul)
        return counts

    def test_open_cell_work_bound(self, monkeypatch):
        rng = make_rng("open-cell-work")
        lam = {1: PureWeight([4, 0]), 2: PureWeight([2, 1, -1, -2])}
        points = [(n, random_n_beta(rng, p, n, 1) * random_iw_beta(rng, p, 2 * n, 1))
                  for p in (2, 3) for n in (1, 2) for _ in range(5)]
        counts = self._count(monkeypatch)
        for n, g in points:
            before = dict(counts)
            # one factorization, its determinants and every v_lambda_j
            assert all(v != 0 for v in v_lambda_all(g, lam[n]).values())
            assert counts["eliminate"] - before["eliminate"] <= 3
            assert counts["mul"] == before["mul"]

    def test_iw1_point_work_bound(self, monkeypatch):
        # w at an Iw^1 point: one lu_unit_lower (g = nbar t n), one open cell
        # (of n), so four eliminations, no PadicMatrix product and no weight
        rng = make_rng("iw1-work")
        lam = {1: PureWeight([4, 0]), 2: PureWeight([2, 1, -1, -2]),
               3: PureWeight([3, 2, 1, -1, -2, -3])}
        points = [(n, random_iw_beta(rng, p, 2 * n, 1))
                  for p in (2, 3) for n in (1, 2, 3) for _ in range(3)]
        counts = self._count(monkeypatch)
        counts.update(lu=0, cell=0, weight=0)

        def counted(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(branchfam, "lu_unit_lower", counted("lu", branchfam.lu_unit_lower))
        monkeypatch.setattr(branchfam, "open_cell_factorize",
                            counted("cell", branchfam.open_cell_factorize))
        monkeypatch.setattr(PureWeight, "__init__", counted("weight", PureWeight.__init__))
        for n, g in points:
            before = dict(counts)
            assert w_lambda(g, lam[n]) != 0
            assert {key: counts[key] - before[key] for key in counts} == \
                {"eliminate": 4, "mul": 0, "lu": 1, "cell": 1, "weight": 0}

    def test_certified_cell_work_bound(self, monkeypatch):
        # the certified cell reads no LU: one core call with its column
        # operations, then exactly one int product and no elimination
        rng = make_rng("bruhat-cell-work")
        points = [PadicMatrix(p, _planted(rng, p, size, kind)[2])
                  for p in (2, 3) for size in (2, 4, 6) for kind in ("int", "p-power")]
        counts = self._count(monkeypatch)
        counts.update(lu=0, imul=0)
        lu, imul = padiclin._lu_rows, padiclin.imul

        def counted_lu(*args):
            counts["lu"] += 1
            return lu(*args)

        def counted_imul(*args):
            counts["imul"] += 1
            return imul(*args)
        monkeypatch.setattr(padiclin, "_lu_rows", counted_lu)
        monkeypatch.setattr(padiclin, "imul", counted_imul)
        for g in points:
            before = dict(counts)
            certified_bruhat_cell(g)
            assert {key: counts[key] - before[key] for key in counts} == \
                {"eliminate": 0, "mul": 0, "lu": 0, "imul": 1}

    def test_bruhat_work_bound(self, monkeypatch):
        rng = make_rng("bruhat-work")
        points = [PadicMatrix(p, _planted(rng, p, size, kind)[2])
                  for p in (2, 3) for size in (2, 4) for kind in ("int", "p-power")]
        counts = self._count(monkeypatch)
        for g in points:
            before = dict(counts)
            iwahori_bruhat_decompose(g)
            assert counts["eliminate"] - before["eliminate"] <= 1
            assert counts["mul"] == before["mul"]


def _ref_n_beta(rng, p, n, beta):
    """random_n_beta by its product formula, (a, (w_n + p^beta y) b; 0, b)."""
    a, b = (PadicMatrix(p, [[1 if i == j else (p ** beta * rng.randrange(p ** 2) if j > i
                                               else 0) for j in range(n)] for i in range(n)])
            for _ in range(2))
    y = [[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)]
    top = PadicMatrix(p, [[int(i + j == n - 1) + p ** beta * y[i][j] for j in range(n)]
                          for i in range(n)])
    return blocks(a, top * b, PadicMatrix.diagonal(p, [0] * n), b)


def _ref_iw_beta(rng, p, n2, beta):
    """random_iw_beta by its product formula, nbar * t * random_n_beta."""
    nbar = PadicMatrix(p, [[1 if i == j else (p * rng.randrange(p ** 2) if j < i else 0)
                            for j in range(n2)] for i in range(n2)])
    t = PadicMatrix.diagonal(p, [rng.unit(p) for _ in range(n2)])
    return nbar * t * _ref_n_beta(rng, p, n2 // 2, beta)


def _ref_shalika_positive(rng, p, n, beta):
    """random_shalika_positive by its product formula: k = u w_n i and x = k
    w_n z^(2 beta) a."""
    wn = longest_weyl(p, n)
    k = random_upper_zp(rng, p, n) * wn * random_iwahori(rng, p, n)
    a = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)])
    return k, k * wn * z_matrix(p, n, 2 * beta) * a


class TestIntRowSamplers:
    """The samplers assemble int rows; the product formulas above, or the
    entrywise draws, are the reference.  Equal rng states after every draw
    pin the draw order."""

    @pytest.mark.parametrize("sampler, reference", [(random_n_beta, _ref_n_beta),
                                                    (random_iw_beta, _ref_iw_beta)])
    def test_matches_the_product_formula(self, sampler, reference):
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for beta in (1, 2):
                    size = n if sampler is random_n_beta else 2 * n
                    rng, ref = make_rng(f"int-rows-{p}-{n}-{beta}"), \
                        make_rng(f"int-rows-{p}-{n}-{beta}")
                    for _ in range(5):
                        assert sampler(rng, p, size, beta) == reference(ref, p, size, beta)
                        assert rng.state == ref.state

    def test_shalika_positive_matches_the_product_formula(self):
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for beta in (1, 2):
                    rng, ref = make_rng(f"positive-{p}-{n}-{beta}"), \
                        make_rng(f"positive-{p}-{n}-{beta}")
                    for _ in range(5):
                        assert random_shalika_positive(rng, p, n, beta) == \
                            _ref_shalika_positive(ref, p, n, beta)
                        assert rng.state == ref.state

    def test_sparse_qp_matches_the_entrywise_draws(self):
        # 500 draws, each against the entry-by-entry Fraction expression
        draws = 0
        for p in (2, 3, 5):
            for n in (1, 2, 3, 4):
                rng, ref = make_rng(f"sparse-{p}-{n}"), make_rng(f"sparse-{p}-{n}")
                for _ in range(42):
                    assert random_sparse_qp(rng, p, n) == PadicMatrix(p, [[
                        ref.padic_rational(p, -2, 2) if ref.randrange(3) else 0
                        for _ in range(n)] for _ in range(n)])
                    assert rng.state == ref.state
                    draws += 1
        assert draws >= 500


class TestMeasures:
    def test_iwahori_volume(self):
        assert vol_iwahori(3, 1) == 1
        assert vol_iwahori(3, 2) == Fraction(12, 48)

    def test_big_cell_volume(self):
        assert vol_big_cell(3, 1) == 1
        assert vol_big_cell(3, 2) == Fraction(3, 4)
        assert vol_big_cell(2, 2) == Fraction(2, 3)
