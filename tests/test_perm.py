import random

import pytest
from oracles import IndexSubset, order_bijection

from petalgrid.perm import Permutation, residue_perm


def test_compose_involution_and_inverse():
    swap = Permutation((2, 1))
    assert swap * swap == Permutation.identity(2)

    rotate = Permutation((5, 1, 2, 3, 4))
    assert rotate * rotate.inverse() == Permutation.identity(5)
    assert rotate * rotate == Permutation((4, 5, 1, 2, 3))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation((2, 1)) * Permutation((1, 2, 3))


def test_compose_inverse_is_identity_randomized():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 12)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert p * p.inverse() == Permutation.identity(n)
        assert p.inverse() * p == Permutation.identity(n)


def test_order_bijection_examples():
    a = IndexSubset.of(7, (2, 4, 6))
    b = IndexSubset.of(7, (1, 2, 5))
    assert order_bijection(a, b) == Permutation((2, 4, 1, 3, 6, 5, 7))

    same = IndexSubset.of(4, (1, 2))
    assert order_bijection(same, same) == Permutation.identity(4)

    top = IndexSubset.of(7, (5, 6, 7))
    low = IndexSubset.of(7, (1, 2, 3))
    assert order_bijection(top, low) == Permutation((5, 6, 7, 1, 2, 3, 4))


def test_order_bijection_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        order_bijection(IndexSubset.of(5, (1,)), IndexSubset.of(5, (1, 2)))


def test_order_bijection_order_preserving_and_inverse():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 11)
        k = rng.randint(0, n)
        a = IndexSubset.of(n, rng.sample(range(1, n + 1), k))
        b = IndexSubset.of(n, rng.sample(range(1, n + 1), k))
        p = order_bijection(a, b)
        for src, dst in zip(b.members, a.members):
            assert p(src) == dst
        assert order_bijection(b, a) * p == Permutation.identity(n)


def test_residue_perm_examples():
    assert residue_perm(7, 3) == Permutation((3, 6, 2, 5, 1, 4, 7))
    assert residue_perm(5, 1) == Permutation.identity(5)
    assert residue_perm(5, 2) == Permutation((2, 4, 1, 3, 5))


def test_residue_perm_rejects_noncoprime():
    with pytest.raises(ValueError, match="not coprime"):
        residue_perm(6, 3)


def test_residue_perm_sends_band_indices_to_bottom():
    import math

    for n in range(3, 13):
        for k in range(2, n):
            if math.gcd(n, k) != 1:
                continue
            p = residue_perm(n, k)
            a = {-(-n * i // k) for i in range(1, k)}
            assert {p(x) for x in a} == set(range(1, k))
            assert p(n) == n
