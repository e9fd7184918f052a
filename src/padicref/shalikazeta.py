"""Shalika-model values and twisted local zeta integrals.

Closed forms (any n):

* ``w_value_closed``: the value of the intertwined eigenvector of a
  tau-normalized spin refinement at diag(w_n z^(2 beta), 1) -- a nonzero
  unit monomial, which witnesses that spin refinements are Shalika.
* ``zeta_iwahori_closed``: the Iwahori-level Friedberg-Jacquet integral
  against a ramified character of conductor p^beta.
* ``zeta_parahoric_closed``: the parahoric-level integral for the
  new-vector normalisation, with both a ramified and an unramified row.
* ``ep_factor`` / ``qprime_factor``: the interpolation factors these
  values assemble into.

Identities between closed forms (e_p against Q', and in
``comparison_constant`` the Iwahori route against the parahoric one) are
checked by cross-multiplication: no closed form has a reciprocal, and no
value carrying a Gauss sum tau(chi)^n is divided by.

Brute-force oracles (n = 1): the Shalika intertwining
``ag_intertwine_value``, integrated exactly ball by ball over the balls of
constancy of F(Y) = f[w(1 Y; 0 1) g] (translation by p^c Z_p, scaling by
1 + p^e Z_p; psi^{-1}(a Y) integrates over a ball at once), so one sweep
values finite combinations sum zeta_d^(e_a) W(diag(a, 1) g), whose
coefficients are given by their exponents e_a, one root_sum per nonzero
ball; and shell-sum versions of both zeta integrals.  The Iwahori one
takes ramified characters only and reads each zeta shell off one sweep at
g0, as the combination {u p^v: exps[u]} of chi's exponent table over the
units u at d = chi's order, and divides by phi(p^beta) once.
Truncations certify themselves: for each scalar, the twisted sums over the
balls of the two outermost Y-shells must vanish exactly, and the Iwahori
zeta tail must vanish exactly on four consecutive shells, else the
computation refuses to return.

A twisting character is an exponent table, chi(a) = zeta_d^exps[a mod
p^beta] for d its order, so a Gauss sum, each chi-average of the parahoric
oracle and each ball of an Iwahori zeta shell is a sum of terms zeta_d^e
zeta_m^a: one ``CycNum.root_sum`` over lcm(d, m) (``_root_pair_sum``),
with no cyclotomic product.

All zeta values are functions of p^s through the formal generator S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .padiclin import (INF, PadicMatrix, certified_bruhat_cell, imul,
                       iwahori_bruhat_decompose, jordan_solve, residue, unit_part,
                       unit_pivots_mod_p, vol_big_cell, vol_iwahori, vp)
from .perms import block_perm, compose, longest_perm
from .princhecke import PSVector, ps_evaluate_rows, torus_character_value
from .refine import (SatakeParameter, hecke_eigenvalue, is_spin, tau_element,
                     u_p_eigenvalue)
from .rootspin import delta_b
from .symring import CycNum, SymElem, geometric_tail


class ZetaError(Exception):
    pass


class TruncationError(ZetaError):
    """An oracle could not certify its truncation; increase shells."""


@dataclass
class ZetaResult:
    value: SymElem


# ---------------------------------------------------------------------------
# twisting characters


def _units(p: int, level: int):
    """The units of Z/p^level, as the integers 0 < u < p^level prime to p."""
    return (u for u in range(1, p ** level) if u % p)


class TwistCharacter:
    """A finite-order character of Q_p^x with chi(p) = 1, as an exponent
    table: chi(a) = zeta_order^exps[a mod p^beta] for each unit a.

    ``beta`` is the conductor exponent (0 for the trivial character, whose
    table is empty); ``order`` is the order of chi.  ``tau`` and
    ``tau_powers`` hold what ``gauss_sum`` and ``gauss_power`` computed.
    """

    __slots__ = ("p", "beta", "order", "exps", "label", "tau", "tau_powers")

    def __init__(self, p: int, beta: int, order: int, exps: dict, label: str = ""):
        self.p = p
        self.beta = beta
        self.order = order
        self.exps = exps
        self.label = label
        self.tau = None
        self.tau_powers = {}

    @classmethod
    def trivial(cls, p: int) -> "TwistCharacter":
        return cls(p, 0, 1, {}, label="1")

    @classmethod
    def enumerate_conductor(cls, p: int, beta: int):
        """All characters of conductor exactly p^beta (beta <= 2 at p = 2)."""
        if beta == 0:
            return [cls.trivial(p)]
        if p == 2:
            if beta > 2:
                raise ZetaError("2-adic conductors above 4 are not implemented")
            if beta == 1:
                return []
            return [cls(2, 2, 2, {1: 0, 3: 1}, label="chi4")]
        m = p ** beta
        order = m // p * (p - 1)
        # (Z/p^beta)^x is cyclic: logs off the first unit with order distinct powers
        for g in _units(p, beta):
            logs = {pow(g, j, m): j for j in range(order)}
            if len(logs) == order:
                break
        out = []
        for k in range(1, order):
            if beta >= 2 and k % p == 0:
                continue  # factors through level beta - 1
            common = math.gcd(k, order)
            d = order // common
            exps = {a: (k // common) * j % d for a, j in logs.items()}
            out.append(cls(p, beta, d, exps, label=f"chi{p}^{beta}[{k}]"))
        return out

    @property
    def is_ramified(self) -> bool:
        return self.beta >= 1

    def exponent(self, a) -> int:
        """The e with chi(a) = zeta_order^e, for a unit a."""
        if self.beta == 0:
            return 0
        if vp(a, self.p) != 0:
            raise ZetaError("argument is not a unit")
        return self.exps[residue(a, self.p, self.beta)]

    def of(self, x) -> CycNum:
        """chi(x) for nonzero rational x; chi(p) = 1 throughout."""
        return CycNum.root_of_unity(self.order, self.exponent(unit_part(x, self.p)))

    def __repr__(self):
        return f"TwistCharacter({self.label or (self.p, self.beta)})"


def _root_pair_sum(d: int, m: int, pairs) -> CycNum:
    """The sum of zeta_d^e zeta_m^a over the pairs (e, a), as one root_sum:
    with L = lcm(d, m), each term is zeta_L^(e L / d + a L / m)."""
    big = math.lcm(d, m)
    return CycNum.root_sum(big, (e * (big // d) + a * (big // m) for e, a in pairs))


def gauss_sum(chi: TwistCharacter) -> CycNum:
    """tau(chi) = sum over units c mod p^beta of chi(c) zeta_{p^beta}^c,
    computed once per character object, as one ``_root_pair_sum``."""
    if chi.beta < 1:
        raise ZetaError("the trivial character has no Gauss sum here")
    if chi.tau is None:
        chi.tau = _root_pair_sum(chi.order, chi.p ** chi.beta,
                                 ((e, c) for c, e in chi.exps.items()))
    return chi.tau


def gauss_power(chi: TwistCharacter, n: int) -> CycNum:
    """tau(chi)^n, computed once per character object and n."""
    if n not in chi.tau_powers:
        chi.tau_powers[n] = gauss_sum(chi) ** n
    return chi.tau_powers[n]


def psi_orthogonality(p: int, beta: int, mult: int) -> bool:
    """sum over u mod p^beta of zeta_{p^beta}^{mult*u} vanishes exactly
    when p^beta does not divide mult (the Fourier-vanishing step used by
    the support reductions).  The sum is one root_sum: the count of each
    exponent mult*u mod p^beta, reduced once."""
    m = p ** beta
    return CycNum.root_sum(m, (mult * u for u in range(m))).is_zero() == (mult % m != 0)


# ---------------------------------------------------------------------------
# cell support of the Shalika integrand


def shalika_argument(k: PadicMatrix, x: PadicMatrix, beta: int) -> PadicMatrix:
    """(0 1; 1 0)(1 X; 0 1) diag(k, k) diag(w_n z^(2 beta), 1) = (0 k; k w_n
    z^(2 beta) X k), on int rows over x.den k.den: column c of k w_n
    z^(2 beta) is column n-1-c of k times p^(2 beta (n-1-c)), and X k is
    one int product."""
    p, n, d = k.p, k.size, x.den
    scale = [d * p ** (2 * beta * (n - 1 - c)) for c in range(n)]
    top = [[0] * n + [d * y for y in row] for row in k.nums]
    bottom = [[row[n - 1 - c] * scale[c] for c in range(n)] + xk
              for row, xk in zip(k.nums, imul(x.nums, k.nums))]
    return PadicMatrix.from_ints(p, d * k.den, top + bottom)


def shalika_support_predicate(delta: tuple, k: PadicMatrix, x: PadicMatrix,
                              beta: int) -> bool:
    """Direct support conditions: delta is the longest element, k lies in
    the big Iwahori cell of GL_n(Z_p), and k^{-1} X lands in
    w_n z^(2 beta) M_n(Z_p): its row r has valuation >= 2 beta r.

    The cell of k is read mod p.  If k = b w i, b in B(Q_p), i in Iw, then
    b = k i^{-1} w^{-1} lies in GL_n(Z_p), so in B(Z_p), and Iw reduces
    into Bbar, the upper triangular group of GL_n(F_p): kbar = k mod p lies
    in Bbar w Bbar.  Bruhat cells of GL_n(F_p) are disjoint, so the Iwahori
    cell of k is the Bruhat cell of kbar (Iwahori-Matsumoto).  kbar = b w0
    b' exactly when w0 kbar = (w0 b w0) b' is an LU factorization without
    pivoting, i.e. when the leading i x i minors of w0 kbar, up to sign the
    lower-left i x i corner minors of kbar, are nonzero; at i = n that is
    det kbar, a unit.  k.nums = den k, den a unit, scales each minor by a
    unit, so one elimination over F_p on its rows, reversed, without
    pivoting decides (padiclin.unit_pivots_mod_p).  k^{-1} X = k.den (q
    k.nums^{-1} x.nums) / (q x.den), k.den and q = +-det k.nums units, so
    one jordan_solve of (k.nums | x.nums) gives its row valuations.
    """
    if beta < 1:
        raise ZetaError("depth must be >= 1")
    if not k.in_glzp():  # a singular k too
        raise ZetaError("k must lie in GL_n(Z_p)")
    p, n = k.p, k.size
    if tuple(delta) != longest_perm(n):
        return False
    if not unit_pivots_mod_p(k.nums[::-1], p, pivot=False):
        return False
    least = vp(x.den, p)
    return all(vp(y, p) >= 2 * beta * r + least
               for r, row in enumerate(jordan_solve(k.nums, x.nums)[1]) for y in row)


def shalika_support_bruhat(delta: tuple, k: PadicMatrix, x: PadicMatrix,
                           beta: int) -> bool:
    """Independent membership test on the assembled 2n x 2n matrix: its
    certified Bruhat cell must be (0 w_n; delta w_n 0) = nu_delta w_{2n}."""
    n = k.size
    cell = certified_bruhat_cell(shalika_argument(k, x, beta))[0]
    return cell == compose(block_perm(tuple(delta), n), longest_perm(2 * n))


def borel_part_character(theta_values, k: PadicMatrix, x: PadicMatrix,
                         beta: int) -> SymElem:
    """Theta of the Borel part of the assembled matrix, for an unramified
    character Theta given by its 2n values at p.

    Requires the support conditions for delta = w_n; the result always
    equals Theta(diag(1, z^(2 beta))), which is asserted.
    """
    p, n = k.p, k.size
    g = shalika_argument(k, x, beta)
    dec = iwahori_bruhat_decompose(g)
    if dec.w != compose(block_perm(longest_perm(n), n), longest_perm(2 * n)):
        raise ZetaError("argument lies outside the expected cell")
    value = SymElem.rational(p, 1)
    for val, t in zip(theta_values, dec.b.diagonal_valuations()):
        if t:
            value = value * val ** int(t)
    expected = SymElem.rational(p, 1)
    for i in range(n - 1):  # vp(z^(2 beta))_i = 2 beta (n - 1 - i)
        expected = expected * theta_values[n + i] ** (2 * beta * (n - 1 - i))
    if value != expected:
        raise ZetaError("Borel part disagrees with Theta(diag(1, z^(2 beta)))")
    return value


# ---------------------------------------------------------------------------
# the Ash-Ginzburg intertwining, n = 1, by exact shell integration


def _conjugation_level(g: PadicMatrix, elem: PadicMatrix) -> int:
    """Least c >= 0 with 1 + t g^{-1} elem g in Iw for all t in p^c Z_p:
    entries on and below the diagonal need valuation >= 1, those above >= 0."""
    e = g.inverse() * elem * g
    shift = vp(e.den, g.p)
    return max([0] + [int(i >= j) - v + shift for i in range(2) for j in range(2)
                      if (v := vp(e.nums[i][j], g.p)) is not INF])


def ag_intertwine_value(f: PSVector, g: PadicMatrix, shells: int, order: int,
                        combinations) -> tuple:
    """The Shalika intertwining W, n = 1, at finite combinations of the
    points diag(a, 1) g: for each dict {(u, v): e} of integer exponents e at
    scalars a = u p^v, u an integer prime to p (else, as for a = 0,
    ZetaError), the sum of zeta_order^e W(diag(a, 1) g), as a tuple.

        W(h) = integral over k in Z_p^x, X in Q_p of
            f[w(1 X; 0 1)(k 0; 0 k) h] psi^{-1}(X) eta^{-1}(k),  w = (0 1; 1 0)

    with vol(Z_p^x) = vol(Z_p) = 1; the k-factor is the central scalar k*1_2
    and eta is unramified, so the k-integral contributes 1.

    One sweep of F(Y) = f[w(1 Y; 0 1) g] serves every scalar.  As
    (1 X; 0 1) diag(a, 1) = diag(a, 1)(1 X/a; 0 1), w diag(a, 1) =
    diag(1, a) w and dX = p^-v dY for X = a Y, the definition of the
    induced representation alone (no support lemma, no Gauss sum) gives

        W(diag(a, 1) g) = chi(diag(1, p^v)) p^-v * integral of F(Y) psi^{-1}(a Y) dY,

    chi = delta_B^(1/2) theta^sigma the unramified inducing character.  The
    weight chi(diag(1, p^v)) p^-v is a character of v: it is step^v, with
    step = chi(diag(1, p)) / p.

    The same definition makes F constant on balls.  F is invariant under
    translation by p^c Z_p, c the conjugation level of g at E12 = (0 1; 0 0),
    and under Y -> u Y for u in 1 + p^e Z_p, e the conjugation level of g
    at E11 = (1 0; 0 0): (1 uY; 0 1) = diag(u, 1)(1 Y; 0 1) diag(u^-1, 1)
    and w diag(u, 1) = diag(1, u) w; f is trivial on diag(1, u) in B(Z_p)
    and right Iw-invariant, and g^-1 diag(u^-1, 1) g = 1 + (u^-1 - 1)
    g^-1 E11 g lies in Iw.  Here e >= 1, as g^-1 E11 g has trace 1.  So
    with Y_k = k p^-shells and n = shells + c, F is constant on the balls
    Y_k + p^(r - shells) Z_p that partition p^-shells Z_p: p^c Z_p (k = 0,
    r = n), and for j < n and each unit t mod p^min(e, n - j) the ball at
    k = p^j t with r = j + min(e, n - j), inside the shell v(Y) = j - shells.
    F is valued once per ball: 1 + sum over j < n of phi(p^min(e, n - j))
    values (33 at g0, p = 3, beta = 2, shells = 4, for p^n = 729 points Y_k).

    On the ball at k, a Y runs over a Y_k + p^(v + r - shells) Z_p, so
    psi^{-1}(a Y) integrates to psi^{-1}(a Y_k) p^(shells - r) if v + r >=
    shells, and else to 0, a nontrivial character integrated over a ball:
    every W is a finite exact sum over the balls where F is nonzero.  By
    linearity the scalars of one valuation v in a combination are integrated
    at once: a nonzero ball gives F(Y_k) vol(ball) times the sum of
    zeta_order^e psi^{-1}(u p^v Y_k), a sum of roots of unity of order
    dividing L = lcm(order, p^m / q), q = gcd(k, p^m), m = max(shells - v,
    0), so one count vector of exponents (``_root_pair_sum``).  Yet each
    scalar certifies the truncation on its own, whatever the rest of its
    combination: its sums (e = 0, order 1) over the balls of the shells
    -shells and -shells + 1 must vanish, else TruncationError.  F itself
    need not vanish there: where the bottom row of g has a unit ratio,
    w(1 Y; 0 1) g lies in the big cell for every large |Y|.

    Each ball is valued on ints: with g = (top; bottom) / D in the stored
    form of PadicMatrix, z w(1 Y_k; 0 1) g for the central scalar z =
    D p^shells has the rows p^shells bottom and p^shells top + k bottom,
    and ps_evaluate_rows values f there.  f(z h) = chi(z) f(h), and chi(z)
    depends on z only through s = shells + v_p(D), so each nonzero ball
    value is multiplied by one chi(z)^-1, the inducing character at the
    valuations (-s, -s).
    """
    if f.size != 2:
        raise ZetaError("the intertwining oracle is implemented for n = 1")
    if shells < 2:
        raise TruncationError("shells must be >= 2 to certify the truncation")
    p = f.p
    if any(u % p == 0 for combination in combinations for u, _ in combination):
        raise ZetaError("the scalars must be u p^v with u an integer prime to p")
    c = _conjugation_level(g, PadicMatrix(p, [[0, 1], [0, 0]]))
    e = _conjugation_level(g, PadicMatrix(p, [[1, 0], [0, 0]]))
    d, (top, bottom) = g.den, g.nums
    scale = p ** shells
    bottom_s, (top0, top1) = [x * scale for x in bottom], [x * scale for x in top]
    s = shells + vp(d, p)
    unscale = torus_character_value(f.satake, f.sigma, (-s, -s))
    n = shells + c
    # the balls k + p^r Z mod p^n on which F is constant, by least member k
    balls = [(0, n)] + [(p ** j * t, j + min(e, n - j))
                        for j in range(n) for t in _units(p, min(e, n - j))]
    # (k, r, F(Y_k) vol(ball)) where F is nonzero: on the shells -shells, 1 - shells, inside
    rims, inner = ([], []), []
    for k, r in balls:
        val = ps_evaluate_rows(f, (bottom_s, (top0 + k * bottom[0], top1 + k * bottom[1])))
        if not val.is_zero():
            (rims[vp(k, p)] if k % p ** 2 else inner).append(
                (k, r, val * unscale * Fraction(p) ** (shells - r)))
    zero = SymElem.rational(p, 0)

    def twisted(balls, v, order, terms):
        # the integral of F(Y) sum zeta_order^e psi^{-1}(u p^v Y) over the terms
        # (u, e): F(Y_k) vol(ball) sum zeta_order^e zeta_(p^m / q)^(-u k / q),
        # q = gcd(k, p^m)
        total, pm = zero, p ** max(shells - v, 0)
        for k, r, val in balls:
            if v + r >= shells:
                q = math.gcd(k, pm)
                coeff = _root_pair_sum(order, pm // q, ((e, -u * k // q) for u, e in terms))
                if not coeff.is_zero():
                    total = total + val * coeff
        return total

    step = torus_character_value(f.satake, f.sigma, (0, 1)) * Fraction(1, p)
    values = []
    for combination in combinations:
        by_valuation = {}
        for (u, v), e in combination.items():
            if not all(twisted(rim, v, 1, ((u, 0),)).is_zero() for rim in rims):
                raise TruncationError("outermost Y-shells do not vanish; increase shells")
            by_valuation.setdefault(v, []).append((u, e))
        total = zero
        for v, terms in by_valuation.items():
            value = twisted(inner, v, order, terms)
            if not value.is_zero():
                total = total + value * step ** v
        values.append(total)
    return tuple(values)


# ---------------------------------------------------------------------------
# closed forms


def w_value_closed(satake: SatakeParameter, beta: int, n: int) -> SymElem:
    """Value of the normalized spin eigenvector at diag(w_n z^(2 beta), 1):

        vol(B_n(Z_p) w_n Iw_n) * p^(beta n^2) * delta_B(t_p)^beta
            * eta(det z^beta)^{-1} * (alpha_p / alpha_{p,n})^beta,

    a nonzero unit monomial.  The Satake parameter must be tau-normalized
    (pattern tau = diag(1, w_n)); use refine.normalize_satake first.
    """
    if satake.n != n:
        raise ZetaError("size mismatch")
    p = satake.p
    tau = tau_element(n)
    if not (satake.ag and is_spin(satake, tau)):
        raise ZetaError("w_value_closed needs a tau-normalized spin parameter")
    upsilon2 = vol_big_cell(p, n)
    tp_vals = list(range(2 * n - 1, -1, -1))
    value = SymElem.rational(p, upsilon2 * Fraction(p) ** (beta * n * n))
    value = value * delta_b(p, tp_vals) ** beta
    value = value * satake.eta ** (-beta * (n * (n - 1) // 2))
    value = value * (u_p_eigenvalue(satake, tau) / hecke_eigenvalue(satake, tau, n)) ** beta
    return value


def chi_det_minus_wn(chi: TwistCharacter, n: int) -> CycNum:
    """chi(det(-w_n)): det(-w_n) = (-1)^n sgn(w_n), and the reversal w_n of
    n points has n(n-1)/2 inversions, so det(-w_n) = (-1)^(n(n+1)/2)."""
    return chi.of((-1) ** (n * (n + 1) // 2))


def zeta_iwahori_closed(w_base: SymElem, chi: TwistCharacter, beta: int,
                        n: int, eta: SymElem) -> ZetaResult:
    """Iwahori-level zeta value for ramified chi of conductor p^beta:

        Upsilon' * eta(det z^beta) * p^(-beta(n^2+n)/2) * p^(beta n (s-1/2))
            * tau(chi)^n * chi(det(-w_n)) * w_base

    with Upsilon' = vol(Iw_n) (1 - 1/p)^{-n} p^((n^2-n)/2).  The unramified
    case has no Iwahori-level closed form; use the parahoric one.
    """
    if not chi.is_ramified or chi.beta != beta:
        raise ZetaError("the Iwahori closed form needs conductor exactly p^beta >= p")
    p = chi.p
    upsilon1 = vol_iwahori(p, n) * Fraction(p - 1, p) ** (-n) \
        * Fraction(p) ** ((n * n - n) // 2)
    value = SymElem.rational(p, upsilon1)
    value = value * eta ** (beta * (n * (n - 1) // 2))
    value = value * SymElem.p_power(p, Fraction(-beta * (n * n + n), 2))
    value = value * SymElem.gen(p, "S", beta * n) \
        * SymElem.monomial(p, 1, {"Y": -beta * n})
    value = value * SymElem.rational(p, gauss_power(chi, n))
    value = value * SymElem.rational(p, chi_det_minus_wn(chi, n))
    value = value * w_base
    return ZetaResult(value)


def _euler_quotient(c: SymElem, tops, bottoms) -> SymElem:
    """c * prod(1 - t) / prod(1 - b) for unit monomials c, t and b != 1."""
    for t in tops:
        c = c * (1 - t)
    for b in bottoms:
        c = geometric_tail(c, b)
    return c


def zeta_parahoric_closed(satake: SatakeParameter, chi: TwistCharacter,
                          beta_prime: int) -> ZetaResult:
    """Parahoric-level zeta value for the new-vector normalisation:

        q^(beta n (s - n/2)) * chi(det(-w_n)) * Q

    where beta = max(1, beta_prime).  Q has two rows: for ramified chi it
    is the constant p^(-beta n) (p/(p-1))^n tau(chi)^n, with no Euler
    factors; for trivial chi it is (1 - p)^(-n) times
    prod over i = n+1..2n of (1 - theta_i p / p^s) / (1 - theta_i / p^s).
    """
    p, n = satake.p, satake.n
    if chi.beta != beta_prime:
        raise ZetaError("conductor exponent mismatch")
    beta = max(1, beta_prime)
    c = SymElem.gen(p, "S", beta * n) \
        * SymElem.p_power(p, Fraction(-beta * n * n, 2)) \
        * SymElem.rational(p, chi_det_minus_wn(chi, n))
    if chi.is_ramified:
        c = c * SymElem.rational(p, Fraction(p) ** (-beta * n)
                                 * Fraction(p, p - 1) ** n) \
            * SymElem.rational(p, gauss_power(chi, n))
        return ZetaResult(c)
    bottoms = [theta * SymElem.gen(p, "S", -1) for theta in satake.theta[n:]]
    return ZetaResult(_euler_quotient(c * Fraction(1, 1 - p) ** n,
                                      [b * p for b in bottoms], bottoms))


# ---------------------------------------------------------------------------
# oracles (n = 1)


def zeta_iwahori_oracle(f: PSVector, chi: TwistCharacter, beta: int,
                        shells: int) -> ZetaResult:
    """Shell-sum evaluation of the twisted zeta integral at n = 1:

        integral over x in Q_p^x of
            W(diag(x, 1) u^{-1} t_p^beta) chi(x) |x|^(s-1/2) d^x x

    with W the Shalika intertwining of f and vol(Z_p^x) = 1.  The twisted
    vector is invariant under the depth-p^beta subgroup only, so the
    support extends down to v(x) = -beta; the two shells below that are
    computed and must vanish exactly.  The tail is certified once four
    consecutive shells, the last at some v(x) >= 3, vanish exactly; if
    none do by v(x) = 4 + shells, an uncertified truncation is reported.
    chi must be ramified of conductor p^beta, as for zeta_iwahori_closed.
    """
    if f.size != 2:
        raise ZetaError("the zeta oracle is implemented for n = 1")
    if not chi.is_ramified or chi.beta != beta:
        raise ZetaError("the Iwahori oracle needs conductor exactly p^beta >= p")
    # the guard shells reach v(x) = -beta - 2: keep at least that many shells
    shells = max(shells, beta + 2)
    p = f.p
    g0 = PadicMatrix(p, [[1, -1], [0, 1]]) * PadicMatrix.diagonal(
        p, [Fraction(p) ** beta, 1])
    # g0^-1 E11 g0 = (1 -p^-beta; 0 0), so e(g0) = beta: W(diag(u p^v, 1) g0)
    # depends on u mod p^beta only, like chi, and averaging over those is exact
    v_min = -beta - 2
    # one sweep at g0 gives every zeta shell v, phi(p^beta) times the average
    # of W(diag(u p^v, 1) g0) chi(u) over the units u mod p^beta, which are
    # the keys of chi's exponent table, as one combination of its exponents
    shell = ag_intertwine_value(f, g0, shells, chi.order,
                                [{(u, v): e for u, e in chi.exps.items()}
                                 for v in range(v_min, 5 + shells)])

    for v in (v_min, v_min + 1):
        if not shell[v - v_min].is_zero():
            raise TruncationError(
                "zeta shell below the twisted support does not vanish")

    s_inv = SymElem.gen(p, "S", -1) * SymElem.gen(p, "Y")
    total = SymElem.rational(p, 0)
    zeros = 0
    for v in range(-beta, 5 + shells):
        value = shell[v - v_min]
        zeros = zeros + 1 if value.is_zero() else 0
        total = total + value * s_inv ** v
        if v >= 3 and zeros >= 4:
            return ZetaResult(total * Fraction(1, len(chi.exps)))
    raise TruncationError("the zeta tail does not vanish; increase shells")


def zeta_parahoric_oracle(satake: SatakeParameter, chi: TwistCharacter,
                          shells: int) -> ZetaResult:
    """Shell-sum evaluation of the parahoric integral at n = 1.

    After the support reduction shared with the closed-form derivation
    (whose Fourier-vanishing steps are re-verified by psi_orthogonality),
    the integral is p^(beta(s-1/2)) chi(det w_1) times

        integral over t in O - 0 of
            theta_2 |.|^(s-1) (t) chi(t p^{-beta}) psi(-t p^{-beta}) dt

    with the additive measure normalised so each sphere {v(t) = k} has
    volume p^{-k}.  The factor chi(det w_1) is chi(1) = 1, as w_1 is the
    1 x 1 identity, so it is not formed.  Shells below v = beta are finite
    exact sums; from v = beta on, psi is trivial on the shell, so the
    integrand is constant on units and the tail is an exact geometric
    series of ratio theta_2 / p^s.  The value is therefore exact and never
    depends on shells, which is only checked to be at least 1.
    """
    if satake.n != 1:
        raise ZetaError("the parahoric oracle is implemented for n = 1")
    if shells < 1:
        raise TruncationError("shells must be >= 1")
    p = satake.p
    beta = max(1, chi.beta)
    for mult in range(1, p ** beta):
        if not psi_orthogonality(p, beta, mult):
            raise ZetaError("psi-orthogonality re-verification failed")

    def shell(v: int) -> CycNum:
        # the average of chi(u) psi(-u p^(v - beta)) over the units u: one root_sum
        units = tuple(_units(p, max(chi.beta, beta - v, 1)))
        total = _root_pair_sum(chi.order, p ** (beta - v),
                               ((chi.exponent(u), -u) for u in units))
        return total * Fraction(1, len(units))

    # shell v has weight theta_2^v (p^{-s} p)^v p^{-v} = ratio^v
    ratio = satake.theta[1] * SymElem.gen(p, "S", -1)
    total = SymElem.rational(p, 0)
    for v in range(beta):
        total = total + SymElem.rational(p, shell(v)) * ratio ** v
    # from v = beta on psi is trivial: shell(beta) starts a geometric tail
    total = total + geometric_tail(SymElem.rational(p, shell(beta)) * ratio ** beta,
                                   ratio)
    prefactor = SymElem.gen(p, "S", beta) * SymElem.monomial(p, 1, {"Y": -beta})
    return ZetaResult(prefactor * total)


# ---------------------------------------------------------------------------
# interpolation factors


def ep_factor(satake: SatakeParameter, chi: TwistCharacter, j: int) -> SymElem:
    """The interpolation factor at p for a tau-normalized spin parameter.

    Ramified chi of conductor p^beta:
        (p^(n j + (n^2-n)/2) / alpha_{p,n})^beta * tau(chi)^n.
    Trivial chi:
        prod over i = n+1..2n of (1 - p^{-1} a_i^{-1}) / (1 - a_i),
    with a_i = theta_i(p) / p^(j + 1/2).
    """
    p, n = satake.p, satake.n
    if chi.is_ramified:
        beta = chi.beta
        top = SymElem.p_power(p, n * j + (n * n - n) // 2)
        return (top / hecke_eigenvalue(satake, tau_element(n), n)) ** beta \
            * SymElem.rational(p, gauss_power(chi, n))
    a = [theta * SymElem.p_power(p, Fraction(-2 * j - 1, 2))
         for theta in satake.theta[n:]]
    if any(ai.is_one() for ai in a):
        raise ZetaError("pole in the unramified interpolation factor")
    return _euler_quotient(SymElem.rational(p, 1),
                           [ai.inverse() * Fraction(1, p) for ai in a], a)


def qprime_factor(chi: TwistCharacter, j: int, n: int) -> SymElem:
    """Q'(pi, chi, j) = p^(beta(n j + (n^2-n)/2)) tau(chi)^n, with p^beta
    the conductor of chi."""
    if not chi.is_ramified:
        raise ZetaError("Q' is the ramified-twist factor")
    p, beta = chi.p, chi.beta
    return SymElem.p_power(p, beta * (n * j + (n * n - n) // 2)) \
        * SymElem.rational(p, gauss_power(chi, n))


# ---------------------------------------------------------------------------
# route comparison


class ComparisonMismatch(ZetaError):
    pass


def comparison_constant(satake: SatakeParameter, pairs):
    """The Iwahori-route and parahoric-route local interpolation values
    (route_i, route_p) of the first (chi, j), once their ratio is checked
    to be one and the same for every (chi, j) in the suite.

    The ratio is compared by cross-multiplication, route_i_k * route_p_0
    == route_i_0 * route_p_k, so no value carrying a Gauss sum is divided
    by; a vanishing route_p has no ratio and is reported as a mismatch.
    The suite must be all-ramified or the singleton/trivial-character
    family (mixed suites compare different normalisations).  The global
    volume constant of the Iwahori route is carried as the formal unit
    generator UB; the parahoric route's is normalised to 1, so only the
    ratio of the two is meaningful, and its constancy is the content.

    The paper's integral normalisations alpha_circ = lambda(t) alpha of the
    U_p-eigenvalues enter each route as lambda(t)^beta alpha_circ^(-beta) =
    alpha^(-beta), so no weight lambda is needed:
        route_i = UB (delta_B(t_B) alpha_p)^(-beta) Z_Iw,
        route_p = (delta_B(t_Q) alpha_{p,n})^(-beta) Z_par.
    """
    p, n = satake.p, satake.n
    tau = tau_element(n)
    upsilon_b = SymElem.gen(p, "UB")
    scale_b = delta_b(p, range(2 * n - 1, -1, -1)) * u_p_eigenvalue(satake, tau)
    scale_q = delta_b(p, [1] * n + [0] * n) * hecke_eigenvalue(satake, tau, n)
    routes, closed = [], {}
    for chi, j in pairs:
        s_value = SymElem.p_power(p, Fraction(2 * j + 1, 2))
        beta = max(1, chi.beta)
        if chi not in closed:  # both closed forms are free of j: once per character
            closed[chi] = (zeta_iwahori_closed(w_value_closed(satake, beta, n), chi, beta, n,
                                               satake.eta).value if chi.is_ramified else None,
                           zeta_parahoric_closed(satake, chi, chi.beta).value)
        zeta_i, zeta_p = closed[chi]
        if chi.is_ramified:
            route_i = upsilon_b * scale_b ** (-beta) * zeta_i.substitute({"S": s_value})
        else:
            route_i = upsilon_b * ep_factor(satake, chi, j)
        route_p = scale_q ** (-beta) * zeta_p.substitute({"S": s_value})
        if route_p.is_zero():
            raise ComparisonMismatch(f"the parahoric route vanishes at {(chi, j)}")
        routes.append((route_i, route_p, (chi, j)))
    (first_i, first_p, first), *rest = routes
    for route_i, route_p, pair in rest:
        if route_i * first_p != first_i * route_p:
            raise ComparisonMismatch("interpolation routes disagree between "
                                     f"{first} and {pair}")
    return first_i, first_p
