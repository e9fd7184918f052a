"""Iwahori-fixed vectors of unramified principal series and the U_{p,r}.

A vector is stored by its coefficients over the Bruhat cells: f is
sum_w c_w f_w, where f_w is the unique Iwahori-invariant function
supported on B(Q_p) w Iw with f_w(w) = 1.  Evaluation anywhere reduces to
the Bruhat decomposition g = b * w * i: the value is

    delta_B^(1/2)(b) * theta^sigma(b) * c_w

with both characters read off the diagonal valuations of b (the inducing
character is unramified).  The Hecke operator U_{p,r} acts by the single
coset decomposition over (1_r m; 0 1) t_{p,r} with m modulo p, and a
vector is reassembled from its values at the (2n)! Weyl representatives.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .padiclin import PadicMatrix, bruhat_cell_valuations
from .perms import all_perms, block_perm, compose, inverse_perm, longest_perm
from .refine import Refinement, SatakeParameter, hecke_eigenvalue
from .rootspin import delta_b
from .symring import SymElem


class PrincipalSeriesError(Exception):
    pass


@lru_cache(maxsize=None)
def _zero(p: int) -> SymElem:
    """The zero of the coefficient ring at p, built once and shared.

    Nothing mutates a SymElem after construction, so one instance can
    stand for every zero value; the integration oracles meet one at almost
    every point they evaluate.
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


def hecke_coset_matrices(p: int, m: int, r: int):
    """The single-coset representatives (1_r m'; 0 1) t_{p,r}.

    These are the block matrices (p 1_r, m'; 0, 1) with m' running over
    residue matrices with entries in {0, ..., p-1}.
    """
    cols = m - r
    reps = []
    for entries in product(range(p), repeat=r * cols):
        rows = []
        for i in range(r):
            row = [0] * m
            row[i] = p
            for j in range(cols):
                row[r + j] = entries[i * cols + j]
            rows.append(row)
        for i in range(cols):
            row = [0] * m
            row[r + i] = 1
            rows.append(row)
        reps.append(PadicMatrix(p, rows))
    return reps


def hecke_apply(f: PSVector, r: int) -> PSVector:
    """U_{p,r} f, reassembled from its values at Weyl representatives."""
    m = f.size
    if not 1 <= r <= m - 1:
        raise PrincipalSeriesError("Hecke index out of range")
    p = f.p
    cosets = hecke_coset_matrices(p, m, r)
    coeffs = {}
    zero = _zero(p)
    for rho in all_perms(m):
        rho_inv = inverse_perm(rho)
        total = zero
        for cm in cosets:
            total = total + ps_evaluate_rows(
                f, [cm.rows[rho_inv[i]] for i in range(m)])
        if not total.is_zero():
            coeffs[rho] = total
    return PSVector(f.satake, f.sigma, coeffs)


def eigenvector_check(satake: SatakeParameter, sigma: tuple, r: int) -> bool:
    """U_{p,r} f^sigma = alpha_sigma(U_{p,r}) f^sigma, exactly."""
    f = PSVector.big_cell_vector(satake, sigma)
    lhs = hecke_apply(f, r)
    alpha = hecke_eigenvalue(Refinement(satake, sigma), r)
    return lhs == f.scale(alpha)
