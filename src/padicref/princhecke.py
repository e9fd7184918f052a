"""Iwahori-fixed vectors of unramified principal series and the U_{p,r}.

A vector is stored by its coefficients over the Bruhat cells: f is
sum_w c_w f_w, where f_w is the unique Iwahori-invariant function
supported on B(Q_p) w Iw with f_w(w) = 1.  Evaluation anywhere reduces to
the Bruhat decomposition g = b * w * i: the value is

    delta_B^(1/2)(b) * theta^sigma(b) * c_w

with both characters read off the diagonal valuations of b (the inducing
character is unramified).  U_{p,r} = [Iw t_{p,r} Iw] acts on the right
through the Iwahori-Matsumoto presentation t_{p,r} = P_r Pi^r: r steps of
Pi and r(m-r) simple reflections, each a closed rule on the coefficients
whatever p is (``hecke_apply``), so no single coset is enumerated.
"""

from __future__ import annotations

from functools import lru_cache

from .padiclin import bruhat_cell_valuations
from .perms import block_perm, compose, longest_perm
from .refine import SatakeParameter, hecke_eigenvalue
from .rootspin import delta_b
from .symring import SymElem


class PrincipalSeriesError(Exception):
    pass


@lru_cache(maxsize=None)
def _zero(p: int) -> SymElem:
    """The zero of the coefficient ring at p, built once and shared.

    Nothing mutates a SymElem, so one instance stands for every zero:
    PSVector.coefficient off the support and ps_evaluate_rows off the cell,
    which is most of the zeta oracle's evaluations (on the benchmark's
    p = 3, beta = 2 oracle workload, 32 of its 33 calls).
    """
    return SymElem.rational(p, 0)


class PSVector:
    __slots__ = ("satake", "sigma", "coeffs")

    def __init__(self, satake: SatakeParameter, sigma: tuple, coeffs: dict):
        self.satake = satake
        self.sigma = tuple(sigma)
        self.coeffs = {w: c for w, c in coeffs.items() if not c.is_zero()}

    @property
    def p(self):
        return self.satake.p

    @property
    def size(self):
        return 2 * self.satake.n

    @classmethod
    def cell_vector(cls, satake: SatakeParameter, sigma: tuple, w: tuple) -> "PSVector":
        return cls(satake, sigma, {tuple(w): SymElem.rational(satake.p, 1)})

    @classmethod
    def big_cell_vector(cls, satake: SatakeParameter, sigma: tuple) -> "PSVector":
        """f^sigma, supported on the big cell and normalised at w_{2n}."""
        return cls.cell_vector(satake, sigma, longest_perm(2 * satake.n))

    @classmethod
    def intertwined_cell_vector(cls, satake: SatakeParameter, sigma: tuple,
                                delta: tuple) -> "PSVector":
        """F_delta^sigma = f_{nu_delta w_{2n}}^sigma for delta in S_n."""
        n = satake.n
        w = compose(block_perm(delta, n), longest_perm(2 * n))
        return cls.cell_vector(satake, sigma, w)

    def coefficient(self, w: tuple) -> SymElem:
        return self.coeffs.get(tuple(w), _zero(self.p))

    def __add__(self, other: "PSVector") -> "PSVector":
        if self.sigma != other.sigma:
            raise PrincipalSeriesError("vectors live in different inductions")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, _zero(self.p)) + c
        return PSVector(self.satake, self.sigma, out)

    def scale(self, c: SymElem) -> "PSVector":
        return PSVector(self.satake, self.sigma,
                        {w: v * c for w, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, PSVector):
            return NotImplemented
        if self.sigma != other.sigma:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(w) == other.coefficient(w) for w in keys)

    def __repr__(self):
        return f"PSVector(sigma={self.sigma}, support={sorted(self.coeffs)})"


def torus_character_value(satake: SatakeParameter, sigma: tuple,
                          valuations) -> SymElem:
    """(delta_B^(1/2) theta^sigma)(t) from the valuation vector of t."""
    out = delta_b(satake.p, valuations, half=True)
    for k, v in enumerate(valuations):
        if v:
            out = out * satake.theta[sigma[k]] ** int(v)
    return out


def ps_evaluate_rows(f: PSVector, rows) -> SymElem:
    """Value of f at the matrix with these rows, via its Bruhat cell."""
    cell, vals = bruhat_cell_valuations(f.p, rows)
    c = f.coeffs.get(cell)
    if c is None:
        return _zero(f.p)
    return torus_character_value(f.satake, f.sigma, vals) * c


def _right_pi(f: PSVector, chi: list) -> PSVector:
    """f * Pi: f_w -> chi[w(0)] f_{w c}, c(j) = j + 1 mod m, where chi[j] =
    (delta_B^(1/2) theta^sigma)(p at place j), built once by hecke_apply."""
    return PSVector(f.satake, f.sigma,
                    {w[1:] + w[:1]: chi[w[0]] * c for w, c in f.coeffs.items()})


def _right_s(f: PSVector, i: int) -> PSVector:
    """f * T_{s_i}: f_w -> f_{w s_i} if w(i) < w(i+1), else (p-1) f_w + p f_{w s_i}."""
    out = {}
    for w, c in f.coeffs.items():
        ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        for v, d in [(ws, c)] if w[i] < w[i + 1] else [(w, c * (f.p - 1)), (ws, c * f.p)]:
            out[v] = out[v] + d if v in out else d
    return PSVector(f.satake, f.sigma, out)


def hecke_apply(f: PSVector, r: int) -> PSVector:
    """U_{p,r} f = f * [Iw t Iw], t = t_{p,r}, by the Iwahori-Matsumoto
    presentation (Publ. Math. IHES 25, 1965); m = 2n.

    Pi = (0 1_{m-1}; p 0) sends e_j to e_{j-1} and e_0 to p e_{m-1}, so Pi^r
    scales e_0..e_{r-1} by p and moves e_j to e_{j-r}: t = P_r Pi^r, with
    P_r: j -> j + r mod m.  Pi normalizes Iw, so l(Pi) = 0; t has
    p^(r(m-r)) single cosets, so l(t) = r(m-r) = l(P_r), whose inversions
    are the pairs a < m-r <= b.  When lengths add, Iw x Iw y Iw = Iw xy Iw
    and the products of coset representatives meet each coset once, so
    [Iw t Iw] = T_{P_r} T_Pi^r, and T_{P_r} = T_{s_1} ... T_{s_L} for any
    reduced word.  The right action reverses products: (f * A) * B sums
    f(g Y X) over Y in B and X in A, so it is f * [BA].  Hence Pi acts
    first, then the letters from the last; the loop's letters, read
    backwards, are r(m-r) with product P_r, so they are a reduced word.

    Each rule is read off (f_w * x)(rho) = sum of f_w(rho X), rho Weyl.
    rho Pi = d rho c^{-1}, d = diag with p at place rho(m-1): rho = w c
    (``_right_pi``).  The cosets of s_i are u_a s_i Iw, u_a = 1 + a E_{i,i+1},
    a mod p.  If rho(i) < rho(i+1), rho u_a rho^{-1} is in N(Z_p): the sum is
    p f_w(rho s_i).  Else a = 0 gives f_w(rho s_i) and a unit a gives u_a s_i
    = (1 + a^{-1} E_{i+1,i}) y, y in Iw, whose first factor rho carries into
    N(Z_p): (p - 1) f_w(rho).  Take rho = w s_i and w (``_right_s``).
    """
    m = f.size
    if not 1 <= r <= m - 1:
        raise PrincipalSeriesError("Hecke index out of range")
    chi = [torus_character_value(f.satake, f.sigma, [int(k == j) for k in range(m)])
           for j in range(m)]
    for _ in range(r):
        f = _right_pi(f, chi)
    for k in range(r):
        for i in range(m - r + k - 1, k - 1, -1):
            f = _right_s(f, i)
    return f


def eigenvector_check(satake: SatakeParameter, sigma: tuple, r: int) -> bool:
    """U_{p,r} f^sigma = alpha_sigma(U_{p,r}) f^sigma, exactly."""
    f = PSVector.big_cell_vector(satake, sigma)
    return hecke_apply(f, r) == f.scale(hecke_eigenvalue(satake, sigma, r))
