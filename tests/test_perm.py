import random

import pytest
from oracles import IndexSubset, compose, identity, inverse, order_bijection, residue_perm

from petalgrid.braid import check_permutation, is_single_cycle


def test_compose_involution_and_inverse():
    swap = (2, 1)
    assert compose(swap, swap) == identity(2)

    rotate = (5, 1, 2, 3, 4)
    assert compose(rotate, inverse(rotate)) == identity(5)
    assert compose(rotate, rotate) == (4, 5, 1, 2, 3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((2, 1), (1, 2, 3))


def test_compose_inverse_is_identity_randomized():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 12)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = tuple(images)
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)


def test_check_permutation_messages():
    for images in ((1,), (2, 3, 1), identity(9)):
        check_permutation(images)
    for images, message in (
        ((), "degree must be at least 1"),
        ((1, 1, 2), "not a permutation of 1..3: (1, 1, 2)"),
        ((0, 1), "not a permutation of 1..2: (0, 1)"),
        ((1, 2, 4), "not a permutation of 1..3: (1, 2, 4)"),
    ):
        with pytest.raises(ValueError) as caught:
            check_permutation(images)
        assert str(caught.value) == message


def test_is_single_cycle():
    assert is_single_cycle((1,)) and is_single_cycle((2, 3, 1)) and is_single_cycle((6, 1, 2, 3, 4, 5))
    assert not is_single_cycle((2, 1, 3)) and not is_single_cycle((2, 1, 4, 3)) and not is_single_cycle(identity(3))
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        is_single_cycle(())


def test_order_bijection_examples():
    a = IndexSubset.of(7, (2, 4, 6))
    b = IndexSubset.of(7, (1, 2, 5))
    assert order_bijection(a, b) == (2, 4, 1, 3, 6, 5, 7)

    same = IndexSubset.of(4, (1, 2))
    assert order_bijection(same, same) == identity(4)

    top = IndexSubset.of(7, (5, 6, 7))
    low = IndexSubset.of(7, (1, 2, 3))
    assert order_bijection(top, low) == (5, 6, 7, 1, 2, 3, 4)


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
            assert p[src - 1] == dst
        assert compose(order_bijection(b, a), p) == identity(n)


def test_residue_perm_examples():
    assert residue_perm(7, 3) == (3, 6, 2, 5, 1, 4, 7)
    assert residue_perm(5, 1) == identity(5)
    assert residue_perm(5, 2) == (2, 4, 1, 3, 5)


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
            assert {p[x - 1] for x in a} == set(range(1, k))
            assert p[n - 1] == n
