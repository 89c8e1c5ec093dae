"""
The immutable value base, the permutation check, and residue permutations.

A permutation sending i to a_i is the plain 1-indexed image tuple
(a_1, ..., a_n).  The values that hold one (the two columns of a grid
diagram, the factors of a normal form), permutation_braid and
petal.check_petal_permutation check it with check_permutation; the library
composes no permutations.
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


def check_permutation(images: tuple[int, ...]) -> None:
    """Raise ValueError unless images is a permutation of 1..n for some n >= 1."""
    n = len(images)
    if n < 1:
        raise ValueError("degree must be at least 1")
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {images}")


def is_single_cycle(images: tuple[int, ...]) -> bool:
    """Whether the permutation is one n-cycle (so a braid closure is a knot).

    >>> is_single_cycle((2, 3, 1)), is_single_cycle((2, 1, 3))
    (True, False)
    """
    check_permutation(images)
    seen = 1
    j = images[0]
    while j != 1:
        j = images[j - 1]
        seen += 1
    return seen == len(images)


def residue_perm(n: int, k: int) -> tuple[int, ...]:
    """The permutation i -> k*i mod n (representatives in 1..n, so n is fixed).

    >>> residue_perm(7, 3)
    (3, 6, 2, 5, 1, 4, 7)
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if math.gcd(n, k) != 1:
        raise ValueError("not coprime")
    return tuple((k * i - 1) % n + 1 for i in range(1, n + 1))
