"""
Petal permutations and the torus-knot synthesizer.

A petal permutation is a permutation of odd degree p = 2n+1, the plain
tuple of loop heights (a_1, ..., a_p) read around the single multi-crossing
of a petal diagram; check_petal_permutation checks one, its entries with
braid.check_permutation, and each function here that takes one calls it
first.  Stabilization at k adds two loops
while multiplying the represented braid closure by the round-trip band U_k.
The base permutation is the (n, n+1) torus knot, the closure of
delta^(n+1) = delta U_2...U_n: the first n-1 subscripts of band_indices(n, s),
the band form conjugate to delta^s.  One stabilization per later subscript
yields a petal permutation of T(n, s) with length 2s - 2*floor(s/n) + 1.
"""
from __future__ import annotations

from .braid import band_indices, check_pair, check_permutation

GENERIC = "generic"
BRAIDED = "braided"
STRONGLY_BRAIDED = "strongly_braided"


def check_petal_permutation(entries: tuple[int, ...]) -> None:
    """Raise ValueError unless entries is a permutation of odd degree at least 3."""
    if len(entries) < 3 or len(entries) % 2 == 0:
        raise ValueError(f"petal permutation length must be odd >= 3, got {len(entries)}")
    check_permutation(entries)


def classify(pp: tuple[int, ...]) -> str:
    """The strongest of strongly_braided > braided > generic that applies.

    Braided means the first entry is n+1 while later odd entries stay at or
    below n and even entries at or above n+2; strongly braided pins the odd
    entries to exactly (n+1, n, ..., 1).
    """
    check_petal_permutation(pp)
    n = len(pp) // 2
    odd, even = pp[0::2], pp[1::2]
    if odd[0] != n + 1 or any(a > n for a in odd[1:]) or any(a < n + 2 for a in even):
        return GENERIC
    if all(a == n + 1 - i for i, a in enumerate(odd)):
        return STRONGLY_BRAIDED
    return BRAIDED


def base_petal(n: int) -> tuple[int, ...]:
    """The strongly braided permutation (n+1, 2n+1, n, 2n, ..., 2, n+2, 1).

    Its petal grid diagram is a closed braid diagram of the (n, n+1) torus
    knot, the closure of delta^(n+1).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return tuple(a for i in range(n) for a in (n + 1 - i, 2 * n + 1 - i)) + (1,)


def stabilize(pp: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Add two loops at height k: bump entries above k and replace k by (k+1, p+2, k)."""
    check_petal_permutation(pp)
    p = len(pp)
    if not 1 <= k <= p // 2:
        raise ValueError(f"need 1 <= k <= {p // 2}, got {k}")
    out: list[int] = []
    for a in pp:
        if a == k:
            out.extend((k + 1, p + 2, k))
        elif a > k:
            out.append(a + 1)
        else:
            out.append(a)
    return tuple(out)


def length_bound(n: int, s: int) -> int:
    """The length 2s - 2*floor(s/n) + 1 that synthesize(n, s) realizes."""
    return 2 * s - 2 * (s // n) + 1


def synthesize(n: int, s: int) -> tuple[int, ...]:
    """A strongly braided petal permutation of T(n, s) realizing length_bound(n, s)."""
    check_pair(n, s)
    pp = base_petal(n)
    for k in sorted(band_indices(n, s)[n - 1 :], reverse=True):
        pp = stabilize(pp, k)
    return pp
