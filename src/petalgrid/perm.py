"""
Exact permutation calculus on {1, ..., n}.

A permutation sending i to a_i is stored as the 1-indexed image tuple
(a_1, ..., a_n).  Permutations act from the left, so composition satisfies
(p * q)(i) = p(q(i)).  Everything here is an immutable value; composition
allocates a new tuple.
"""
from __future__ import annotations

import math
from operator import attrgetter


class _Value:
    """Base of the immutable value classes.

    A subclass names its fields in __slots__ and sets them in its __init__
    with object.__setattr__.  Two values are equal, and hash alike, when they
    are of the same class and their fields are equal; they do not order.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The field tuple, or the field itself when there is one: either way a
        # key that is equal exactly when all fields are.
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])


class Permutation(_Value):
    """A bijection of {1, ..., n}, stored by its 1-indexed images.

    >>> p = Permutation((2, 3, 1))
    >>> p(1), p(3)
    (2, 1)
    >>> p * p.inverse() == Permutation.identity(3)
    True
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

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

    def is_single_cycle(self) -> bool:
        """Whether the permutation is one n-cycle (so a braid closure is a knot)."""
        seen = 1
        j = self.images[0]
        while j != 1:
            j = self.images[j - 1]
            seen += 1
        return seen == self.n


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
