"""Permutations as image tuples (0-indexed): w maps j to w[j].

The matrix of w has a 1 in row w[j], column j, so matrix products match
``compose(a, b)`` = "apply b first, then a".
"""

from __future__ import annotations

from itertools import permutations


def longest_perm(n: int) -> tuple:
    return tuple(range(n - 1, -1, -1))


def compose(a: tuple, b: tuple) -> tuple:
    """a after b: (a∘b)(j) = a[b[j]]."""
    return tuple(a[x] for x in b)


def perm_sign(a: tuple) -> int:
    seen = [False] * len(a)
    sign = 1
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def all_perms(n: int):
    """All of S_n in lexicographic order (deterministic)."""
    return [tuple(w) for w in permutations(range(n))]


def block_perm(delta: tuple, n: int) -> tuple:
    """The element diag(1_n, delta) of S_{2n} for delta in S_n."""
    return tuple(list(range(n)) + [n + d for d in delta])
