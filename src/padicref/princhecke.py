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
The single-coset matrices depend on (p, 2n, r) only: their cells and
valuations are reduced once per process and grouped by (cell,
valuations), and as the value above depends on a matrix only through
that pair, each group adds its count times one value.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from .padiclin import bruhat_cell_valuations
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
    stand for every zero value.  Most uses start the per-rho totals of
    hecke_apply; the rest are PSVector.coefficient off the support and
    ps_evaluate_rows off the cell (364, 34 and 10 of 408 in a default
    `padicref run`).
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
    """The single-coset representatives (1_r m'; 0 1) t_{p,r}, as tuples
    of int rows.

    These are the block matrices (p 1_r, m'; 0, 1) with m' running over
    residue matrices with entries in {0, ..., p-1}.
    """
    cols = m - r
    bottom = tuple(tuple(int(k == r + i) for k in range(m)) for i in range(cols))
    return [tuple(tuple(p * (k == i) for k in range(r)) + mp[i * cols:(i + 1) * cols]
                  for i in range(r)) + bottom
            for mp in product(range(p), repeat=r * cols)]


@lru_cache(maxsize=None)
def _hecke_cells(p: int, m: int, r: int) -> dict:
    """{rho: Counter of (cell, vals)} over the single-coset matrices with
    their rows permuted by rho, the Bruhat data hecke_apply sums over."""
    cosets = hecke_coset_matrices(p, m, r)
    return {rho: Counter(bruhat_cell_valuations(p, [rows[i] for i in inverse_perm(rho)])
                         for rows in cosets)
            for rho in all_perms(m)}


def hecke_apply(f: PSVector, r: int) -> PSVector:
    """U_{p,r} f, reassembled from its values at Weyl representatives.

    The value at rho, the sum of f over the rho-permuted single-coset
    matrices, is the sum of count * value over their (cell, vals) groups.
    """
    m = f.size
    if not 1 <= r <= m - 1:
        raise PrincipalSeriesError("Hecke index out of range")
    coeffs = {}
    for rho, groups in _hecke_cells(f.p, m, r).items():
        total = _zero(f.p)
        for (cell, vals), count in groups.items():
            c = f.coeffs.get(cell)
            if c is not None:
                total = total + torus_character_value(f.satake, f.sigma, vals) * c * count
        if not total.is_zero():
            coeffs[rho] = total
    return PSVector(f.satake, f.sigma, coeffs)


def eigenvector_check(satake: SatakeParameter, sigma: tuple, r: int) -> bool:
    """U_{p,r} f^sigma = alpha_sigma(U_{p,r}) f^sigma, exactly."""
    f = PSVector.big_cell_vector(satake, sigma)
    lhs = hecke_apply(f, r)
    alpha = hecke_eigenvalue(Refinement(satake, sigma), r)
    return lhs == f.scale(alpha)
