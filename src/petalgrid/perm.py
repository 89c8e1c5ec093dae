"""
Exact permutation calculus on {1, ..., n}.

A permutation sending i to a_i is stored as the 1-indexed image tuple
(a_1, ..., a_n).  Permutations act from the left, so composition satisfies
(p * q)(i) = p(q(i)).  Everything here is an immutable value; composition
allocates a new tuple.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}, stored by its 1-indexed images.

    >>> p = Permutation((2, 3, 1))
    >>> p(1), p(3)
    (2, 1)
    >>> p * p.inverse() == Permutation.identity(3)
    True
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, a in enumerate(self.images, start=1):
            inv[a - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(a == i for i, a in enumerate(self.images, start=1))

    def inversions(self) -> int:
        """Number of pairs i < j with p(i) > p(j); the Coxeter length."""
        images = self.images
        return sum(
            1
            for i in range(len(images))
            for j in range(i + 1, len(images))
            if images[i] > images[j]
        )

    def is_single_cycle(self) -> bool:
        """Whether the permutation is one n-cycle (so a braid closure is a knot)."""
        seen = 1
        j = self.images[0]
        while j != 1:
            j = self.images[j - 1]
            seen += 1
        return seen == self.n


def interleave(p1: Sequence[int], p2: Sequence[int]) -> tuple[int, ...]:
    """Interleave a (k+1)-sequence with a k-sequence, alternating starting with p1.

    >>> interleave((1, 2, 3, 4), (5, 6, 7))
    (1, 5, 2, 6, 3, 7, 4)
    >>> interleave((1,), ())
    (1,)
    """
    if len(p1) != len(p2) + 1:
        raise ValueError(
            f"length mismatch: first sequence must be one longer ({len(p1)} vs {len(p2)})"
        )
    out: list[int] = []
    for a, b in zip(p1, p2):
        out.append(a)
        out.append(b)
    out.append(p1[-1])
    return tuple(out)


@dataclass(frozen=True)
class IndexSubset:
    """A subset of {1, ..., n}, stored as a strictly increasing member tuple."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if any(not 1 <= m <= self.n for m in self.members):
            raise ValueError(f"members must lie in 1..{self.n}: {self.members}")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError(f"members must be strictly increasing: {self.members}")

    @staticmethod
    def of(n: int, members: Iterable[int]) -> IndexSubset:
        return IndexSubset(n, tuple(sorted(set(members))))

    @staticmethod
    def bottom(n: int, k: int) -> IndexSubset:
        """The k lowest indices {1, ..., k}."""
        return IndexSubset(n, tuple(range(1, k + 1)))

    @staticmethod
    def top(n: int, k: int) -> IndexSubset:
        """The k highest indices {n-k+1, ..., n}."""
        return IndexSubset(n, tuple(range(n - k + 1, n + 1)))

    def __len__(self) -> int:
        return len(self.members)

    def complement(self) -> IndexSubset:
        inside = set(self.members)
        return IndexSubset(self.n, tuple(i for i in range(1, self.n + 1) if i not in inside))


def order_bijection(a: IndexSubset, b: IndexSubset) -> Permutation:
    """The permutation sending b to a and the complements likewise, order-preservingly.

    The i-th smallest member of b maps to the i-th smallest member of a, and
    the complements correspond the same way, so order_bijection(b, a) is the
    inverse.
    """
    if a.n != b.n:
        raise ValueError("degree mismatch")
    if len(a) != len(b):
        raise ValueError(f"size mismatch: |A|={len(a)}, |B|={len(b)}")
    images = [0] * a.n
    for src, dst in zip(b.members, a.members):
        images[src - 1] = dst
    for src, dst in zip(b.complement().members, a.complement().members):
        images[src - 1] = dst
    return Permutation(tuple(images))


def residue_perm(n: int, k: int) -> Permutation:
    """The permutation i -> k*i mod n (representatives in 1..n, so n is fixed).

    >>> residue_perm(7, 3).images
    (3, 6, 2, 5, 1, 4, 7)
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if math.gcd(n, k) != 1:
        raise ValueError("not coprime")
    return Permutation(tuple((k * i - 1) % n + 1 for i in range(1, n + 1)))
