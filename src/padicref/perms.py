"""Permutations as image tuples (0-indexed): w maps j to w[j].

The matrix of w has a 1 in row w[j], column j, so matrix products match
``compose(a, b)`` = "apply b first, then a".  The one sign the local
theory reads is sgn(w_n) = (-1)^(n(n-1)/2) of the longest element, so that
formula stands where it is used and there is no general sign function.
"""

from __future__ import annotations

from itertools import permutations


def longest_perm(n: int) -> tuple:
    return tuple(range(n - 1, -1, -1))


def compose(a: tuple, b: tuple) -> tuple:
    """a after b: (a∘b)(j) = a[b[j]]."""
    return tuple(a[x] for x in b)


def all_perms(n: int):
    """All of S_n in lexicographic order (deterministic)."""
    return [tuple(w) for w in permutations(range(n))]


def block_perm(delta: tuple, n: int) -> tuple:
    """The element diag(1_n, delta) of S_{2n} for delta in S_n."""
    return tuple(list(range(n)) + [n + d for d in delta])
