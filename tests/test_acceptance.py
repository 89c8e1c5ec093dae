"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.
"""
import math
import random
import time
from contextlib import contextmanager

from oracles import positive_words_agree_with_bfs, strongly_braided_stabilization_holds
from petalgrid import selftest
from petalgrid.braid import conjugate_band_braid, torus_conjugacy_witness
from petalgrid.grid import build_petal_grid, validate_petal_grid
from petalgrid.invariants import (
    alexander_from_closure,
    alexander_from_grid,
    certify,
    torus_alexander,
)
from petalgrid.petal import STRONGLY_BRAIDED, classify, stabilize, synthesize

SEED = selftest.DEFAULT_SEED

CERTIFICATION_PAIRS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6), (5, 7)]


@contextmanager
def criterion(num: int, name: str, budget: float):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} {name}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"
    print(f"\nACCEPTANCE {num} {name}: PASS ({dt:.2f}s, budget {budget}s)")


def coprime_pairs(n_max: int, s_max: int, s_min=None):
    for n in range(2, n_max + 1):
        hi = s_max(n) if callable(s_max) else s_max
        for s in range(n + 1, hi + 1):
            if s > (s_min or 0) and math.gcd(n, s) == 1:
                yield n, s


def test_criterion_1_golden_permutations():
    with criterion(1, "golden-permutations", budget=1.0):
        assert synthesize(2, 3).entries == (3, 5, 2, 4, 1)
        assert synthesize(5, 7).entries == (7, 12, 6, 11, 5, 10, 4, 13, 3, 9, 2, 8, 1)
        assert synthesize(5, 8).entries == (8, 13, 7, 12, 6, 14, 5, 11, 4, 10, 3, 15, 2, 9, 1)
        assert synthesize(5, 9).entries == (
            9, 14, 8, 13, 7, 15, 6, 12, 5, 16, 4, 11, 3, 17, 2, 10, 1,
        )


def test_criterion_2_bound_realization():
    with criterion(2, "bound-realization", budget=10.0):
        count = 0
        for n, s in coprime_pairs(29, 30):
            pp = synthesize(n, s)
            assert pp.p == 2 * s - 2 * (s // n) + 1, (n, s)
            assert classify(pp) == STRONGLY_BRAIDED, (n, s)
            report = validate_petal_grid(build_petal_grid(pp))
            assert report.valid, (n, s, report.violations)
            count += 1
        assert count > 200


def test_criterion_3_sharpness_range():
    with criterion(3, "sharpness-range", budget=5.0):
        for n in range(2, 16):
            for s in range(n + 1, 2 * n):
                if math.gcd(n, s) != 1:
                    continue
                assert synthesize(n, s).p == 2 * s - 1, (n, s)


def test_criterion_4_conjugacy_witnesses():
    with criterion(4, "conjugacy-witnesses", budget=60.0):
        count = 0
        for n, s in coprime_pairs(11, 12):
            assert torus_conjugacy_witness(n, s).verified, (n, s)
            count += 1
        assert count == 34


def test_criterion_5_identity_suite():
    with criterion(5, "identity-suite", budget=60.0):
        rng = random.Random(SEED)
        suites = [
            selftest.suite_band_relations(rng, 200, 9),
            selftest.suite_routing_composition(rng, 200, 9),
            selftest.suite_split_exchange(rng, 200, 9),
            selftest.suite_braid_splitting(rng, 200, 9),
            selftest.suite_band_conjugation(rng, 200, 9),
            selftest.suite_band_to_delta(rng, 200, 9),
        ]
        for suite in suites:
            assert suite.cases >= 200, suite.name
            assert suite.passed, (suite.name, suite.failures[:3])


def test_criterion_6_knot_certification():
    with criterion(6, "knot-certification", budget=30.0 * len(CERTIFICATION_PAIRS)):
        for n, s in CERTIFICATION_PAIRS:
            t0 = time.monotonic()
            report = certify(n, s)
            seconds = time.monotonic() - t0
            assert seconds < 30.0, (n, s, seconds)
            assert report["all_match"], (n, s, report)
            expected = str(torus_alexander(n, s))
            for key in ("alexander_from_grid", "alexander_from_braid", "alexander_closed_form"):
                assert report[key] == expected, (n, s, key, report[key])


def test_criterion_7_property_suites():
    with criterion(7, "property-suites", budget=120.0):
        rng = random.Random(SEED)

        rewrites = selftest.suite_normal_form_rewrites(rng, 1000, max_n=8)
        assert rewrites.cases == 1000 and rewrites.passed, rewrites.failures[:3]

        for n in (3, 4):
            for length in range(1, 7):
                positive_words_agree_with_bfs(n, length)

        for _ in range(500):
            n = rng.randint(2, 12)
            pp = synthesize(n, n + 1)
            for _ in range(rng.randint(0, 3)):
                pp = stabilize(pp, rng.randint(1, pp.half))
            k = rng.randint(1, pp.half)
            assert strongly_braided_stabilization_holds(pp, k), (n, k, pp.entries)

        produced = []
        for n, s in CERTIFICATION_PAIRS:
            produced += [
                alexander_from_grid(build_petal_grid(synthesize(n, s))),
                alexander_from_closure(conjugate_band_braid(n, s)),
                torus_alexander(n, s),
            ]
        for n, s in coprime_pairs(11, 12):
            produced.append(torus_alexander(n, s))
        assert len(produced) > 50
        for p in produced:
            assert p.coeffs == p.coeffs[::-1]
            assert abs(sum(p.coeffs)) == 1
