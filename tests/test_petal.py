import hashlib
import json
import math
import random

import pytest

from petalgrid.braid import band_indices, conjugate_band_braid
from petalgrid.grid import build_petal_grid
from petalgrid.petal import (
    BRAIDED,
    GENERIC,
    STRONGLY_BRAIDED,
    base_petal,
    check_petal_permutation,
    classify,
    stabilize,
    synthesize,
)


def test_petal_permutation_validation():
    # The length is checked before the entries, and every function that
    # takes a petal permutation checks it first, with the same messages.
    cases = (
        ((1, 2, 3, 4), "petal permutation length must be odd >= 3, got 4"),
        ((1,), "petal permutation length must be odd >= 3, got 1"),
        ((), "petal permutation length must be odd >= 3, got 0"),
        ((1, 1, 2, 2), "petal permutation length must be odd >= 3, got 4"),
        ((1, 1, 2), "not a permutation of 1..3: (1, 1, 2)"),
        ((2, 3, 4), "not a permutation of 1..3: (2, 3, 4)"),
    )
    checks = (check_petal_permutation, classify, lambda pp: stabilize(pp, 1), build_petal_grid)
    for entries, message in cases:
        for check in checks:
            with pytest.raises(ValueError) as caught:
                check(entries)
            assert str(caught.value) == message, (check, entries)
    for check in checks:
        check((2, 3, 1))


def test_classify_examples():
    assert classify((5, 9, 4, 8, 3, 7, 2, 6, 1)) == STRONGLY_BRAIDED
    assert classify((5, 7, 4, 6, 3, 8, 2, 9, 1)) == STRONGLY_BRAIDED
    assert classify((5, 8, 3, 7, 4, 9, 1, 6, 2)) == BRAIDED
    assert classify((4, 8, 3, 7, 2, 6, 1, 5, 9)) == GENERIC
    assert classify((9, 4, 8, 3, 7, 2, 6, 1, 5)) == GENERIC


def test_base_petal():
    assert base_petal(2) == (3, 5, 2, 4, 1)
    assert base_petal(4) == (5, 9, 4, 8, 3, 7, 2, 6, 1)
    assert base_petal(5) == (6, 11, 5, 10, 4, 9, 3, 8, 2, 7, 1)
    assert classify(base_petal(7)) == STRONGLY_BRAIDED
    with pytest.raises(ValueError):
        base_petal(1)


def test_stabilize_examples():
    pp = (6, 11, 5, 10, 4, 9, 3, 8, 2, 7, 1)
    assert stabilize(pp, 3) == (7, 12, 6, 11, 5, 10, 4, 13, 3, 9, 2, 8, 1)

    pp = (4, 8, 3, 7, 2, 6, 1, 9, 5)
    assert stabilize(pp, 3) == (5, 9, 4, 11, 3, 8, 2, 7, 1, 10, 6)

    with pytest.raises(ValueError):
        stabilize(pp, 5)


def test_stabilize_grows_by_two_and_stays_bijective():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.choice((5, 7, 9, 11))
        entries = list(range(1, p + 1))
        rng.shuffle(entries)
        pp = tuple(entries)
        out = stabilize(pp, rng.randint(1, p // 2))
        assert len(out) == p + 2
        check_petal_permutation(out)


def test_stabilize_preserves_strongly_braided():
    rng = random.Random(31)
    for _ in range(100):
        pp = base_petal(rng.randint(2, 10))
        for _ in range(rng.randint(1, 4)):
            pp = stabilize(pp, rng.randint(1, len(pp) // 2))
            assert classify(pp) == STRONGLY_BRAIDED


def test_band_indices():
    # The band form's subscripts in word order; synthesize stabilizes along
    # those after the first n-1 (the base petal), largest first.
    cases = {
        (5, 8): ([2, 3, 4, 5, 2, 4], [4, 2]),
        (5, 6): ([2, 3, 4, 5], []),
        (5, 9): ([2, 3, 4, 5, 2, 3, 4], [4, 3, 2]),
        (5, 7): ([2, 3, 4, 5, 3], [3]),
        (3, 11): ([2, 3, 2, 3, 2, 3, 2], [3, 3, 2, 2, 2]),
    }
    for (n, s), (subscripts, stabilizations) in cases.items():
        assert band_indices(n, s) == subscripts, (n, s)
        assert sorted(band_indices(n, s)[n - 1 :], reverse=True) == stabilizations, (n, s)
    assert band_indices(61, 150) == list(range(2, 62)) * 2 + band_indices(61, 28)
    with pytest.raises(ValueError, match="not coprime"):
        synthesize(6, 9)


def test_band_indices_count():
    for n in range(2, 12):
        for s in range(n + 1, 30):
            if math.gcd(n, s) != 1:
                continue
            assert len(band_indices(n, s)) == s - s // n - 1


def test_synthesize_golden():
    assert synthesize(2, 3) == (3, 5, 2, 4, 1)
    s57 = synthesize(5, 7)
    assert s57[0::2] == (7, 6, 5, 4, 3, 2, 1)
    assert s57[1::2] == (12, 11, 10, 13, 9, 8)
    s58 = synthesize(5, 8)
    assert s58[0::2] == (8, 7, 6, 5, 4, 3, 2, 1)
    assert s58[1::2] == (13, 12, 14, 11, 10, 15, 9)
    s59 = synthesize(5, 9)
    assert s59[0::2] == (9, 8, 7, 6, 5, 4, 3, 2, 1)
    assert s59[1::2] == (14, 13, 15, 12, 16, 11, 17, 10)


def test_construction_digest():
    # The petal permutation (n < s) and the band form of every coprime pair
    # 2 <= n, s <= 60 with n != s, 2,084 rows, hashed together: both read
    # band_indices, and this digest was taken when each derived its own.
    rows = []
    for n in range(2, 61):
        for s in range(2, 61):
            if n != s and math.gcd(n, s) == 1:
                entries = list(synthesize(n, s)) if n < s else None
                rows.append([n, s, entries, list(conjugate_band_braid(n, s).letters)])
    assert len(rows) == 2084
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "36c47c16d1aee77eec1afb69d422b380d8fecde8eebf11b2412f9efa8a2b6697"


def test_synthesize_length_and_class_sweep():
    for n in range(2, 30):
        for s in range(n + 1, 31):
            if math.gcd(n, s) != 1:
                continue
            pp = synthesize(n, s)
            assert len(pp) == 2 * s - 2 * (s // n) + 1
            assert classify(pp) == STRONGLY_BRAIDED


def test_synthesize_sharp_range_realizes_2s_minus_1():
    for n in range(2, 16):
        for s in range(n + 1, 2 * n):
            if math.gcd(n, s) != 1:
                continue
            assert len(synthesize(n, s)) == 2 * s - 1
