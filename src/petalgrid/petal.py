"""
Petal permutations and the torus-knot synthesizer.

A petal permutation is a permutation of odd degree p = 2n+1 read around the
single multi-crossing of a petal diagram.  Stabilization at k adds two loops
while multiplying the represented braid closure by the round-trip band U_k,
so starting from the base permutation for the (n, n+1) torus knot and
stabilizing along the subscripts of the band product conjugate to delta^s
yields a petal permutation of T(n, s) with length 2s - 2*floor(s/n) + 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .braid import band_indices, check_pair
from .perm import Permutation, interleave

GENERIC = "generic"
BRAIDED = "braided"
STRONGLY_BRAIDED = "strongly_braided"


@dataclass(frozen=True)
class PetalPermutation:
    """A permutation of odd degree at least 3, as loop heights around the crossing."""

    entries: tuple[int, ...]

    def __post_init__(self):
        Permutation(self.entries)  # bijectivity
        if len(self.entries) < 3 or len(self.entries) % 2 == 0:
            raise ValueError(f"petal permutation length must be odd >= 3, got {len(self.entries)}")

    @staticmethod
    def from_parts(odd: tuple[int, ...], even: tuple[int, ...]) -> PetalPermutation:
        return PetalPermutation(interleave(odd, even))

    @property
    def p(self) -> int:
        return len(self.entries)

    @property
    def half(self) -> int:
        """n with p = 2n+1."""
        return (self.p - 1) // 2

    @property
    def odd_part(self) -> tuple[int, ...]:
        return self.entries[0::2]

    @property
    def even_part(self) -> tuple[int, ...]:
        return self.entries[1::2]


def classify(pp: PetalPermutation) -> str:
    """The strongest of strongly_braided > braided > generic that applies.

    Braided means the first entry is n+1 while later odd entries stay at or
    below n and even entries at or above n+2; strongly braided pins the odd
    entries to exactly (n+1, n, ..., 1).
    """
    n = pp.half
    odd, even = pp.odd_part, pp.even_part
    if odd[0] != n + 1 or any(a > n for a in odd[1:]) or any(a < n + 2 for a in even):
        return GENERIC
    if all(a == n + 1 - i for i, a in enumerate(odd)):
        return STRONGLY_BRAIDED
    return BRAIDED


def base_petal(n: int) -> PetalPermutation:
    """The strongly braided permutation (n+1,n,...,1) o+ (2n+1,2n,...,n+2).

    Its petal grid diagram is a closed braid diagram of the (n, n+1) torus
    knot, the closure of delta^(n+1).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    odd = tuple(range(n + 1, 0, -1))
    even = tuple(range(2 * n + 1, n + 1, -1))
    return PetalPermutation.from_parts(odd, even)


def stabilize(pp: PetalPermutation, k: int) -> PetalPermutation:
    """Add two loops at height k: bump entries above k and replace k by (k+1, p+2, k)."""
    p = pp.p
    if not 1 <= k <= pp.half:
        raise ValueError(f"need 1 <= k <= {pp.half}, got {k}")
    out: list[int] = []
    for a in pp.entries:
        if a == k:
            out.extend((k + 1, p + 2, k))
        elif a > k:
            out.append(a + 1)
        else:
            out.append(a)
    return PetalPermutation(tuple(out))


def u_indices(n: int, s: int) -> list[int]:
    """Band subscripts to stabilize along for T(n, s), sorted descending.

    With s = nm + k, the multiset is m-1 copies of each of 2..n plus
    ceil(n*i/k) for i = 1..k-1, in total s - n - m subscripts.
    """
    check_pair(n, s)
    m, k = divmod(s, n)
    out = list(range(2, n + 1)) * (m - 1) + band_indices(n, k)
    out.sort(reverse=True)
    return out


def length_bound(n: int, s: int) -> int:
    """The length 2s - 2*floor(s/n) + 1 that synthesize(n, s) realizes."""
    return 2 * s - 2 * (s // n) + 1


def synthesize(n: int, s: int) -> PetalPermutation:
    """A strongly braided petal permutation of T(n, s) realizing length_bound(n, s)."""
    bands = u_indices(n, s)  # validates the pair before base_petal sees n
    pp = base_petal(n)
    for k in bands:
        pp = stabilize(pp, k)
    return pp


def petal_to_json(pp: PetalPermutation, n: int, s: int) -> dict:
    return {
        "n": n,
        "s": s,
        "length": pp.p,
        "petal_permutation": list(pp.entries),
        "odd": list(pp.odd_part),
        "even": list(pp.even_part),
    }
