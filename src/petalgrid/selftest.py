"""
The suites `petalgrid selftest` runs: band-relations (the band identities
the normal form decides), residue-conjugacy (residue permutations and
conjugacy witnesses), normal-form-rewrites (one braid relation leaves the
normal form unchanged), and knot-certification (`certify(n, s)` on every
coprime 2 <= n < s <= 20).  The lemma algebra of the paper's proof is
checked by the test suite, not here.  Suites return structured results
rather than raising, so the command can render a pass/fail table.
"""
from __future__ import annotations

import math
import random

from .braid import (
    BraidWord,
    ascending_run,
    band_indices,
    delta,
    descending_run,
    half_twist,
    induced_permutation,
    left_normal_form,
    round_trip,
    round_trip_product,
    sigma,
    torus_conjugacy_witness,
    words_equal,
)
from .invariants import certify
from .perm import residue_perm

DEFAULT_SEED = 70311


class SuiteResult:
    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, detail: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(detail)


def _random_subset(rng: random.Random, pool: list[int], size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(pool, size)))


def _random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    letters = []
    for _ in range(length):
        g = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            g = -g
        letters.append(g)
    return BraidWord(n, tuple(letters))


def suite_band_relations(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """D/E/U band identities: shifts, commutation, merged products, full twist.

    Each of the five sub-identities gets its own `trials` random instances.
    """
    res = SuiteResult("band-relations")
    for _ in range(trials):  # generator shifts through the runs
        n = rng.randint(3, max_n)
        k = rng.randint(3, n)
        i = rng.randint(1, k - 2)
        ok = words_equal(
            sigma(n, i) * descending_run(n, k), descending_run(n, k) * sigma(n, i + 1)
        ) and words_equal(
            sigma(n, i + 1) * ascending_run(n, k), ascending_run(n, k) * sigma(n, i)
        )
        res.check(ok, f"shift through run failed at n={n}, k={k}, i={i}")
    for _ in range(trials):  # band commutes with low generators
        n = rng.randint(3, max_n)
        k = rng.randint(3, n)
        i = rng.randint(1, k - 2)
        res.check(
            words_equal(round_trip(n, k) * sigma(n, i), sigma(n, i) * round_trip(n, k)),
            f"band does not commute with generator at n={n}, k={k}, i={i}",
        )
    for _ in range(trials):  # band commutes with strictly lower bands
        n = rng.randint(3, max_n)
        k = rng.randint(3, n)
        j = rng.randint(2, k - 1)
        u = round_trip(n, k)
        ok = all(
            words_equal(u * other, other * u)
            for other in (descending_run(n, j), ascending_run(n, j), round_trip(n, j))
        )
        res.check(ok, f"band does not commute with lower band at n={n}, k={k}, j={j}")
    for _ in range(trials):  # band products merge into run products
        n = rng.randint(3, max_n)
        members = _random_subset(rng, list(range(2, n + 1)), rng.randint(1, n - 1))
        merged = BraidWord.identity(n)
        for a in members:
            merged = merged * descending_run(n, a)
        for a in reversed(members):
            merged = merged * ascending_run(n, a)
        res.check(
            words_equal(round_trip_product(n, members), merged),
            f"band product does not merge at n={n}, A={members}",
        )
    for _ in range(trials):  # the full band product is the full twist
        n = rng.randint(2, max_n)
        full = round_trip_product(n, tuple(range(2, n + 1)))
        res.check(
            words_equal(full, half_twist(n) ** 2) and words_equal(full, delta(n) ** n),
            f"U_2...U_n != Delta^2 at n={n}",
        )
    return res


def suite_residue_conjugacy(max_n: int) -> SuiteResult:
    """The residue permutation and its conjugacy witness, all coprime 2 <= k < n."""
    res = SuiteResult("residue-conjugacy")
    for n in range(3, max_n + 1):
        for k in range(2, n):
            if math.gcd(n, k) != 1:
                continue
            pk = residue_perm(n, k)
            a_members = band_indices(n, k)
            res.check(
                sorted(pk(a) for a in a_members) == list(range(1, k)),
                f"band indices do not map to the bottom at n={n}, k={k}",
            )
            dperm = induced_permutation(delta(n))
            conjugated = dperm.inverse() * pk * dperm
            res.check(
                sorted(conjugated(a) for a in a_members) == list(range(n - k + 2, n + 1)),
                f"conjugated band indices do not map to the top at n={n}, k={k}",
            )
            res.check(
                torus_conjugacy_witness(n, k).verified,
                f"conjugacy equality failed at n={n}, k={k}",
            )
    for n in range(2, max_n + 1):
        central = delta(n) ** n
        ok = all(
            words_equal(central * sigma(n, i), sigma(n, i) * central) for i in range(1, n)
        )
        res.check(ok, f"delta^n is not central at n={n}")
    return res


def _rewrite_once(rng: random.Random, w: BraidWord) -> BraidWord | None:
    """Apply one braid relation (commutation or triple move) at a random spot."""
    spots: list[tuple[str, int]] = []
    ls = w.letters
    for i in range(len(ls) - 1):
        if abs(abs(ls[i]) - abs(ls[i + 1])) >= 2:
            spots.append(("swap", i))
    for i in range(len(ls) - 2):
        a, b, c = ls[i], ls[i + 1], ls[i + 2]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            spots.append(("triple", i))
    if not spots:
        return None
    kind, i = rng.choice(spots)
    out = list(ls)
    if kind == "swap":
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        out[i], out[i + 1], out[i + 2] = out[i + 1], out[i], out[i + 1]
    return BraidWord(w.n, tuple(out))


def suite_normal_form_rewrites(rng: random.Random, trials: int, max_n: int = 8) -> SuiteResult:
    """The normal form is unchanged by single applications of the braid relations."""
    res = SuiteResult("normal-form-rewrites")
    done = 0
    while done < trials:
        n = rng.randint(3, max_n)
        w = _random_word(rng, n, rng.randint(2, 40))
        rewritten = _rewrite_once(rng, w)
        if rewritten is None:
            continue
        res.check(
            left_normal_form(w) == left_normal_form(rewritten),
            f"normal form changed under rewrite: n={n}, word={w.letters}",
        )
        done += 1
    return res


def suite_certification(max_s: int) -> SuiteResult:
    """The full certificate, both pipelines, for every coprime pair 2 <= n < s <= max_s."""
    res = SuiteResult("knot-certification")
    for s in range(3, max_s + 1):
        for n in range(2, s):
            if math.gcd(n, s) != 1:
                continue
            report = certify(n, s)
            res.check(report["all_match"], f"certification failed at n={n}, s={s}: {report}")
    return res


def run_all() -> list[SuiteResult]:
    rng = random.Random(DEFAULT_SEED)
    return [
        suite_band_relations(rng, 200, 9),
        suite_residue_conjugacy(9),
        suite_normal_form_rewrites(rng, 200, 8),
        suite_certification(20),
    ]
