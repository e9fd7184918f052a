"""Satake data and the classification of Iwahori p-refinements.

A refinement of an unramified principal series with regular Satake
parameter theta = (theta_1, ..., theta_2n) is labelled by a permutation
sigma in S_2n, and is that sigma: the functions below take the pair
(satake, sigma), as PSVector does.  Its Hecke eigenvalues are

    alpha_{p,r} = prod_{j=1}^{r} p^{(2n-2j+1)/2} * theta_{sigma(2n+1-j)}(p).

Spin refinements are those with alpha_{p,n+s} = eta(p)^s * alpha_{p,n-s}
for 0 <= s <= n-1; there are 2^n n! of them among the (2n)!.  Spin is
decided by these eigenvalue relations (is_spin).  Factoring through the
GSpin(2n+1) Hecke algebra via the cocharacter transfer of rootspin is
decided on the Weyl side (gspin_factorization: the refinement's pattern
lies in W_G^0) and certified eigenvalue by eigenvalue through the
transfer.  The two classifications are computed independently, and the
report's gspin-exact cases compare them.

Everything is symbolic: theta values default to free unit monomials with
only the Shalika relation theta_i * theta_{n+i} = eta imposed, so
regularity is automatic and all identities are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .padiclin import vp
from .perms import all_perms, block_perm, compose, longest_perm
from .rootspin import RootDataError, jvee_cochar, jvee_weyl
from .symring import SymElem


class RefineError(Exception):
    pass


class SatakeParameter:
    """theta: 2n unit values; eta: the Shalika central value."""

    __slots__ = ("p", "theta", "eta")

    def __init__(self, p: int, theta, eta: SymElem):
        self.p = p
        self.theta = tuple(theta)
        self.eta = eta
        if len(self.theta) % 2:
            raise RefineError("need an even number of Satake values")

    @property
    def n(self):
        return len(self.theta) // 2

    @property
    def ag(self) -> bool:
        """Whether the Ash-Ginzburg relation theta_i * theta_{n+i} = eta holds
        exactly for 1 <= i <= n."""
        n = self.n
        return all(self.theta[i] * self.theta[n + i] == self.eta for i in range(n))

    @classmethod
    def generic(cls, p: int, n: int) -> "SatakeParameter":
        """Free symbols X1..Xn and eta = E, with the other half E/X_i by the
        Ash-Ginzburg relation."""
        eta = SymElem.gen(p, "E")
        theta = [SymElem.gen(p, f"X{i + 1}") for i in range(n)]
        theta += [eta / theta[i] for i in range(n)]
        return cls(p, theta, eta)

    def is_regular(self) -> bool:
        m = len(self.theta)
        return all(self.theta[i] != self.theta[j]
                   for i in range(m) for j in range(i + 1, m))

    def conjugate_by(self, c: tuple) -> "SatakeParameter":
        """Reindexed tuple theta'_j = theta_{c(j)} (no relation assumed)."""
        return SatakeParameter(self.p, tuple(self.theta[c[j]] for j in range(len(c))),
                               self.eta)

    def __repr__(self):
        return f"SatakeParameter(n={self.n}, ag={self.ag})"


# ---------------------------------------------------------------------------
# eigenvalues


def hecke_eigenvalue(satake: SatakeParameter, sigma: tuple, r: int) -> SymElem:
    """alpha_{p,r} as an exact monomial (Y carries the half p-powers): the
    product over 1 <= j <= r of Y^(2n - 2j + 1) theta_sigma(2n-j), taken
    as the one factor Y^(r(2n-r)), since those Y exponents sum to r(2n - r),
    times the r thetas."""
    n2 = 2 * satake.n
    if not 1 <= r <= n2 - 1:
        raise RefineError("Hecke index out of range")
    out = SymElem.monomial(satake.p, 1, {"Y": r * (n2 - r)})
    for j in range(1, r + 1):
        out = out * satake.theta[sigma[n2 - j]]
    return out


def u_p_eigenvalue(satake: SatakeParameter, sigma: tuple) -> SymElem:
    """alpha_p = alpha_{p,1} ... alpha_{p,2n-1}."""
    out = SymElem.rational(satake.p, 1)
    for r in range(1, 2 * satake.n):
        out = out * hecke_eigenvalue(satake, sigma, r)
    return out


def integral_eigenvalue(satake: SatakeParameter, sigma: tuple, r: int,
                        lam: tuple) -> SymElem:
    """alpha^circ_{p,r} = p^(lam_1 + ... + lam_r) * alpha_{p,r}."""
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise RefineError("integral normalisation needs a dominant weight")
    e = sum(lam[:r])
    return SymElem.p_power(satake.p, e) * hecke_eigenvalue(satake, sigma, r)


def monomial_valuation(e: SymElem, vals: dict, p: int) -> Fraction:
    """Valuation of a unit monomial under an assignment of generator
    valuations; Y defaults to 1/2."""
    mono = e.as_monomial()
    if mono is None:
        raise RefineError("valuation needs a monomial")
    coeff, exps = mono
    total = Fraction(vp(coeff.as_rational(), p))
    table = dict(vals)
    table.setdefault("Y", Fraction(1, 2))
    for name, k in exps.items():
        if name not in table:
            raise RefineError(f"no valuation assigned to generator {name}")
        total += Fraction(table[name]) * k
    return total


# ---------------------------------------------------------------------------
# spin classification


def is_spin(satake: SatakeParameter, sigma: tuple) -> bool:
    """alpha_{p,n+s} = eta^s alpha_{p,n-s} for all 0 <= s <= n-1."""
    if not satake.is_regular():
        raise RefineError("spin classification needs a regular Satake parameter")
    n, eta = satake.n, satake.eta
    for s in range(1, n):
        if (hecke_eigenvalue(satake, sigma, n + s)
                != eta ** s * hecke_eigenvalue(satake, sigma, n - s)):
            return False
    return True


def tau_element(n: int) -> tuple:
    """tau = diag(1_n, w_n) in S_{2n}."""
    return block_perm(longest_perm(n), n)


def delta_theta_tau(sigma: tuple) -> tuple:
    """Pattern relative to the Asgari-Shahidi reordering theta^tau: the
    permutation c with theta^tau[c(i)] = theta[sigma(i)].

    As theta^tau[c(i)] = theta[tau(c(i))], a regular theta forces
    tau o c = sigma, and tau = diag(1_n, w_n) is an involution, so
    c = tau o sigma.
    """
    return compose(tau_element(len(sigma) // 2), sigma)


def gspin_factorization(satake: SatakeParameter, sigma: tuple):
    """{r: alpha_{p,r}} for 1 <= r <= 2n-1 when the pattern of sigma is in
    W_G^0, else None.

    GSpin membership is decided on the Weyl side: (satake, sigma) factors
    through GSpin(2n+1) exactly when delta_theta_tau(sigma) * w_2n has a
    preimage omega under jmap_weyl.  The eigenvalues are then certified through the
    transfer: for each 1 <= r <= 2n-1 the cocharacter of U_{p,r} is pushed
    through jvee, acted on by omega, and paired against the GSpin Satake
    values (y_0 = eta, y_i = theta_i), with the p-power prefactor
    Y^(r(2n-r)) from the half-sum of positive roots; RefineError unless
    each result is alpha_{p,r}.  Spin itself is the eigenvalue relation
    tested by is_spin, and the report compares the two classifications.
    """
    n, n2 = satake.n, 2 * satake.n
    try:
        omega = jvee_weyl(compose(delta_theta_tau(sigma), longest_perm(n2)))
    except RootDataError:
        return None
    ys = (satake.eta,) + satake.theta[:n]
    values = {}
    for r in range(1, n2):
        nu = tuple(1 if k < r else 0 for k in range(n2))
        c = omega.act_cochar(jvee_cochar(nu))
        value = SymElem.monomial(satake.p, 1, {"Y": r * (n2 - r)})
        for y, e in zip(ys, c):
            if e:
                value = value * y ** int(e)
        if value != hecke_eigenvalue(satake, sigma, r):
            raise RefineError(f"the transfer of U_p,{r} disagrees with "
                              f"alpha_p,{r} at sigma={sigma}")
        values[r] = value
    return values


def shalika_admissible(theta, eta: SymElem):
    """A pairing nu with theta_i * theta_{nu(i)} = eta, or None.

    Searches for a perfect matching on {0, ..., 2n-1} along edges where
    the product of the two values is eta; the two sides of the matching
    are the blocks X_1, X_2 of the induced decomposition.
    """
    theta = list(theta)
    m = len(theta)
    pairs = [[theta[i] * theta[j] == eta for j in range(m)] for i in range(m)]

    def match(rem):
        if not rem:
            return {}
        i = rem[0]
        rest = rem[1:]
        for j in rest:
            if pairs[i][j]:
                sub = match(tuple(x for x in rest if x != j))
                if sub is not None:
                    sub[i] = j
                    return sub
        return None

    return match(tuple(range(m)))


def normalize_satake(satake: SatakeParameter, sigma: tuple):
    """Reorder theta so that the refinement's pattern becomes tau.

    Returns (satake', conjugator); satake' is a Weyl conjugate of the
    input satisfying the Ash-Ginzburg relation, and (satake', tau) has the
    eigenvalues of (satake, sigma).
    """
    if not is_spin(satake, sigma):
        raise RefineError("only spin refinements can be tau-normalized")
    tau = tau_element(satake.n)
    c = compose(sigma, tau)
    sat = satake.conjugate_by(c)
    if not sat.ag:
        raise RefineError("normalization failed to restore the Shalika relation")
    for r in range(1, 2 * satake.n):
        if hecke_eigenvalue(sat, tau, r) != hecke_eigenvalue(satake, sigma, r):
            raise RefineError("normalization changed the eigenvalues")
    return sat, c


def noncritical_slope(satake: SatakeParameter, sigma: tuple, lam: tuple,
                      valuations: dict) -> bool:
    """v_p(alpha^circ_{p,r}) < lam_r - lam_{r+1} + 1 for 1 <= r <= 2n-1."""
    for r in range(1, 2 * satake.n):
        v = monomial_valuation(integral_eigenvalue(satake, sigma, r, lam),
                               valuations, satake.p)
        if not v < lam[r - 1] - lam[r] + 1:
            return False
    return True


def spin_census(satake: SatakeParameter):
    """The spin refinements sigma of satake, in all_perms order."""
    return [sigma for sigma in all_perms(2 * satake.n) if is_spin(satake, sigma)]
