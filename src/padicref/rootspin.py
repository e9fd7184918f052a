"""Root data and Weyl combinatorics for GL(2n) and GSpin(2n+1).

Weights of the GL(2n) torus are int tuples of length 2n, on which S_{2n}
acts by moving coordinates: sigma sends e_i to e_{sigma(i)}, so
(sigma lam)_{sigma(i)} = lam_i (act_cochar_gl).  A weight is pure when
lam_i + lam_{2n+1-i} is a single constant sw (is_pure).  On the GSpin
side weights and cocharacters are coordinate tuples (c0, c1, ..., cn)
in the bases f_0, ..., f_n and f_0^*, ..., f_n^*, with Weyl group
{+-1}^n x| S_n: signed permutations (perm, signs), composed by
(a*b).perm = a.perm o b.perm, (a*b).signs[i] = b.signs[i] * a.signs[b.perm[i]],
and acting through the explicit formulas of WeylGSpin.

The transfer map jmap embeds the GSpin lattice into the pure GL weights
(f_i -> e_i - e_{2n-i+1}, f_0 -> e_{n+1} + ... + e_{2n}) and induces an
isomorphism of the GSpin Weyl group onto the purity-preserving subgroup
W_G^0 of S_{2n}: (perm, signs) goes to the sigma with sigma(i) = perm(i)
and sigma(2n-1-i) = 2n-1-perm(i) where signs[i] = +1, and these two
values swapped where signs[i] = -1 (0-indexed).  jvee is its inverse,
and also the induced map on cocharacters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .perms import all_perms, compose
from .symring import SymElem


class RootDataError(Exception):
    pass


# ---------------------------------------------------------------------------
# weights


def is_pure(lam: tuple) -> bool:
    """lam_i + lam_{2n+1-i} is one constant over i (length 2n)."""
    m = len(lam)
    return len({lam[i] + lam[m - 1 - i] for i in range(m // 2)}) == 1


# ---------------------------------------------------------------------------
# the GSpin Weyl group


@dataclass(frozen=True, slots=True)
class WeylGSpin:
    """(perm, signs): apply the sign changes first, then the permutation.

    The group law is a*b = "b first, then a": the permutations compose,
    (a*b).perm[i] = a.perm[b.perm[i]], and the signs multiply along the
    way, (a*b).signs[i] = b.signs[i] * a.signs[b.perm[i]].  The action on
    the weight lattice Z f_0 + ... + Z f_n is
        f_0 -> f_0 + sum_{signs[i] = -1} f_{perm(i)+1},
        f_i -> signs[i-1] * f_{perm(i-1)+1}         (1 <= i <= n),
    and on the cocharacter lattice
        f_0^* -> f_0^*,
        f_i^* -> f_{perm(i-1)+1}^*                   if signs[i-1] = +1,
        f_i^* -> f_0^* - f_{perm(i-1)+1}^*           if signs[i-1] = -1.
    """

    perm: tuple
    signs: tuple

    @property
    def n(self):
        return len(self.perm)

    def act_weight(self, mu: tuple) -> tuple:
        out = [mu[0]] * (self.n + 1)
        for i, (k, s) in enumerate(zip(self.perm, self.signs)):
            out[k + 1] = mu[i + 1] if s == 1 else mu[0] - mu[i + 1]
        return tuple(out)

    def act_cochar(self, nu: tuple) -> tuple:
        out = [nu[0]] * (self.n + 1)
        for i, (k, s) in enumerate(zip(self.perm, self.signs)):
            out[k + 1] = s * nu[i + 1]
            if s == -1:
                out[0] += nu[i + 1]
        return tuple(out)

    def __mul__(self, other: "WeylGSpin") -> "WeylGSpin":
        """self after other, by the group law above."""
        return WeylGSpin(compose(self.perm, other.perm),
                         tuple(s * self.signs[k]
                               for k, s in zip(other.perm, other.signs)))


def all_weyl_gspin(n: int):
    out = []
    for perm in all_perms(n):
        for signs in product((1, -1), repeat=n):
            out.append(WeylGSpin(perm, signs))
    return out


# ---------------------------------------------------------------------------
# transfer maps


def jmap_weight(mu: tuple) -> tuple:
    """f_i -> e_i - e_{2n-i+1}, f_0 -> e_{n+1} + ... + e_{2n}."""
    n = len(mu) - 1
    lam = [0] * (2 * n)
    for i in range(1, n + 1):
        lam[i - 1] += mu[i]
        lam[2 * n - i] -= mu[i]
    for k in range(n, 2 * n):
        lam[k] += mu[0]
    return tuple(lam)


def jmap_weyl(omega: WeylGSpin) -> tuple:
    """The permutation sigma of S_{2n} acting on pure weights like omega:
    sigma(i) = perm(i) and sigma(2n-1-i) = 2n-1-perm(i) when signs[i] = +1,
    the two values swapped when signs[i] = -1 (0-indexed)."""
    m = 2 * omega.n - 1
    sigma = [None] * (m + 1)
    for i, (k, s) in enumerate(zip(omega.perm, omega.signs)):
        sigma[i], sigma[m - i] = (k, m - k) if s == 1 else (m - k, k)
    return tuple(sigma)


def wg0_members(n: int) -> set:
    """All sigma in S_{2n} preserving purity of a generic pure weight, the
    regular (2n-1, 2n-3, ..., 1-2n): distinct entries force faithfulness."""
    if n > 4:
        raise RootDataError("exhaustive enumeration limited to n <= 4")
    lam = tuple(2 * n - 1 - 2 * k for k in range(2 * n))
    return {sigma for sigma in all_perms(2 * n) if is_pure(act_cochar_gl(lam, sigma))}


def jvee_weyl(sigma: tuple) -> WeylGSpin:
    """Inverse of jmap_weyl, read off its formula with m = 2n - 1: sigma is in
    W_G^0 exactly when sigma(m-i) = m - sigma(i) for every i < n, and then
    signs[i] = +1, perm(i) = sigma(i) when sigma(i) < n, and signs[i] = -1,
    perm(i) = m - sigma(i) otherwise; raises for sigma outside W_G^0."""
    m, n = len(sigma) - 1, len(sigma) // 2
    if len(sigma) % 2 or sorted(sigma) != list(range(m + 1)) \
            or any(sigma[m - i] != m - sigma[i] for i in range(n)):
        raise RootDataError(f"{sigma} is not in W_G^0")
    return WeylGSpin(tuple(k if k < n else m - k for k in sigma[:n]),
                     tuple(1 if k < n else -1 for k in sigma[:n]))


def jvee_cochar(nu: tuple) -> tuple:
    """The GSpin cocharacter sum over i of <jmap(f_i), nu> f_i^*: the f_0^*
    coordinate is nu_{n+1} + ... + nu_{2n}, the f_i^* one nu_i - nu_{2n+1-i}."""
    m = len(nu)
    if m % 2:
        raise RootDataError("cocharacter must have even length")
    n = m // 2
    return (sum(nu[n:]),) + tuple(nu[i] - nu[m - 1 - i] for i in range(n))


def act_cochar_gl(nu: tuple, sigma: tuple) -> tuple:
    """Left action of S_{2n} on GL weights and cocharacters: sigma sends
    e_i to e_{sigma(i)}, so the coordinate at position sigma(i) of the
    image is the old coordinate at i."""
    out = [None] * len(sigma)
    for k in range(len(sigma)):
        out[sigma[k]] = nu[k]
    return tuple(out)


# ---------------------------------------------------------------------------
# modulus character


def delta_b(p: int, valuations, half: bool = False) -> SymElem:
    """delta_B(t) = prod |t_k|^(m+1-2k) for t = diag with given valuations.

    With half=True returns delta_B^(1/2); half-integer powers of p go
    through the Y generator.
    """
    vals = list(valuations)
    exponent = -sum(v * (len(vals) - 1 - 2 * k) for k, v in enumerate(vals))
    return SymElem.p_power(p, Fraction(exponent, 2) if half else exponent)
