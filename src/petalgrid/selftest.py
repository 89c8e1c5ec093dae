"""
Randomized verification suites for the word identities behind the synthesizer.

Each suite draws seeded random instances and checks one family of word
equalities through the normal-form engine, so a single run re-derives every
algebraic fact the petal-permutation construction relies on.  The functions
return structured results rather than raising, so callers can render a
pass/fail table.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .braid import (
    BraidWord,
    ascending_run,
    band_indices,
    delta,
    descending_run,
    decompose_permutation_braid,
    half_twist,
    induced_permutation,
    left_normal_form,
    permutation_braid,
    round_trip,
    round_trip_product,
    sigma,
    split,
    subset_braid,
    tau,
    torus_conjugacy_witness,
    words_equal,
)
from .grid import build_petal_grid, validate_petal_grid
from .invariants import certify
from .perm import IndexSubset, Permutation, residue_perm
from .petal import STRONGLY_BRAIDED, classify, length_bound, synthesize

DEFAULT_SEED = 70311


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, detail: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(detail)


def _random_subset(rng: random.Random, pool: list[int], size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(pool, size)))


def _random_word(rng: random.Random, n: int, length: int, signed: bool = True) -> BraidWord:
    letters = []
    for _ in range(length):
        g = rng.randint(1, n - 1)
        if signed and rng.random() < 0.5:
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
            words_equal(round_trip_product(IndexSubset(n, members)), merged),
            f"band product does not merge at n={n}, A={members}",
        )
    for _ in range(trials):  # the full band product is the full twist
        n = rng.randint(2, max_n)
        full = round_trip_product(IndexSubset.of(n, range(2, n + 1)))
        res.check(
            words_equal(full, half_twist(n) ** 2) and words_equal(full, delta(n) ** n),
            f"U_2...U_n != Delta^2 at n={n}",
        )
    return res


def suite_routing_composition(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """Top-to-subset routing composes with subset-to-bottom routing."""
    res = SuiteResult("routing-composition")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        a = IndexSubset(n, _random_subset(rng, list(range(1, n + 1)), k))
        low, top = IndexSubset.bottom(n, k), IndexSubset.top(n, k)
        lhs = subset_braid(top, a) * subset_braid(a, low)
        res.check(
            words_equal(lhs, subset_braid(top, low)),
            f"routing composition failed at n={n}, A={a.members}",
        )
    return res


def suite_split_exchange(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """The routing braid exchanges the two blocks of a stacked pair."""
    res = SuiteResult("split-exchange")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n - 1)
        low, top = IndexSubset.bottom(n, k), IndexSubset.top(n, k)
        x = subset_braid(top, low)
        alpha = _random_word(rng, k, rng.randint(0, 6)) if k >= 2 else BraidWord.identity(k)
        beta = (
            _random_word(rng, n - k, rng.randint(0, 6))
            if n - k >= 2
            else BraidWord.identity(n - k)
        )
        res.check(
            words_equal(x * split(alpha, beta), split(beta, alpha) * x),
            f"split exchange failed at n={n}, k={k}",
        )
        res.check(
            words_equal(delta(n) ** k * split(alpha, beta), split(beta, alpha) * delta(n) ** k),
            f"delta-power exchange failed at n={n}, k={k}",
        )
    return res


def suite_braid_splitting(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """Any permutation braid splits as a stacked pair times a routing braid."""
    res = SuiteResult("braid-splitting")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        p1, p2, a = decompose_permutation_braid(p, k)
        expected_a = tuple(sorted(p.inverse()(i) for i in range(1, k + 1)))
        ok = a.members == expected_a and words_equal(
            permutation_braid(p), split(p1, p2) * subset_braid(IndexSubset.bottom(n, k), a)
        )
        res.check(ok, f"splitting failed at n={n}, k={k}, p={p.images}")
    return res


def suite_band_conjugation(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """Band products against routing braids and embedded full twists."""
    res = SuiteResult("band-conjugation")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        a = IndexSubset(n, _random_subset(rng, list(range(1, n + 1)), k))
        low, top = IndexSubset.bottom(n, k), IndexSubset.top(n, k)
        twist = split(half_twist(k), BraidWord.identity(n - k))
        d_prod = BraidWord.identity(n)
        e_prod = BraidWord.identity(n)
        for m in a.members:
            d_prod = d_prod * descending_run(n, m)
        for m in reversed(a.members):
            e_prod = e_prod * ascending_run(n, m)
        res.check(
            words_equal(d_prod, subset_braid(a, low) * twist),
            f"descending product form failed at n={n}, A={a.members}",
        )
        res.check(
            words_equal(e_prod, twist * subset_braid(low, a)),
            f"ascending product form failed at n={n}, A={a.members}",
        )
        res.check(
            words_equal(
                round_trip_product(a),
                subset_braid(a, low) * twist * twist * subset_braid(low, a),
            ),
            f"band product form failed at n={n}, A={a.members}",
        )
        res.check(
            words_equal(delta(n) ** k, subset_braid(top, low) * twist * twist),
            f"delta power factorization failed at n={n}, k={k}",
        )
    return res


def suite_band_to_delta(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """U(A) equals the negatively routed conjugate of a delta power."""
    res = SuiteResult("band-to-delta")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        a = IndexSubset(n, _random_subset(rng, list(range(1, n + 1)), k))
        low, top = IndexSubset.bottom(n, k), IndexSubset.top(n, k)
        rhs = subset_braid(a, top, barred=True) * delta(n) ** k * subset_braid(low, a)
        res.check(
            words_equal(round_trip_product(a), rhs),
            f"band-to-delta failed at n={n}, A={a.members}",
        )
    return res


def suite_residue_conjugacy(max_n: int) -> SuiteResult:
    """The residue-permutation conjugacy and its ingredients, all coprime 2 <= k < n."""
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
            xk = permutation_braid(pk)
            _, _, a_found = decompose_permutation_braid(pk, k - 1)
            res.check(
                list(a_found.members) == a_members,
                f"splitting subset is not the band index set at n={n}, k={k}",
            )
            alpha = tau(xk).inverse() * delta(n) ** (k - 1) * xk
            res.check(
                induced_permutation(alpha).is_identity(),
                f"tau(X)^-1 delta^(k-1) X is not pure at n={n}, k={k}",
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


def suite_torus_witness(max_n: int, max_s: int) -> SuiteResult:
    """The full conjugacy witness for every coprime torus pair in range."""
    res = SuiteResult("torus-witness")
    for n in range(2, max_n + 1):
        for s in range(n + 1, max_s + 1):
            if math.gcd(n, s) != 1:
                continue
            res.check(
                torus_conjugacy_witness(n, s).verified,
                f"torus witness failed at n={n}, s={s}",
            )
    return res


def suite_synthesis(max_s: int) -> SuiteResult:
    """Length bound, strong braidedness, and grid validity of every synthesis."""
    res = SuiteResult("synthesis-length")
    for n in range(2, max_s):
        for s in range(n + 1, max_s + 1):
            if math.gcd(n, s) != 1:
                continue
            pp = synthesize(n, s)
            ok = (
                pp.p == length_bound(n, s)
                and classify(pp) == STRONGLY_BRAIDED
                and validate_petal_grid(build_petal_grid(pp)).valid
            )
            res.check(ok, f"synthesis checks failed at n={n}, s={s}")
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


def suite_certification(pairs: list[tuple[int, int]] | None = None) -> SuiteResult:
    """The full certificate: length, grid, strong braidedness, witness, Alexander."""
    res = SuiteResult("knot-certification")
    for n, s in pairs or [(2, 3), (2, 5), (3, 4), (3, 5)]:
        report = certify(n, s)
        res.check(report["all_match"], f"certification failed at n={n}, s={s}: {report}")
    return res


def suite_injected_fault() -> SuiteResult:
    """Deliberately false identity; must fail (negative control)."""
    res = SuiteResult("injected-fault")
    res.check(
        words_equal(round_trip(3, 2), half_twist(3) ** 2),
        "expected failure: a single band is not the full twist",
    )
    return res


def run_all(
    max_n: int = 9,
    max_s: int = 20,
    trials: int = 200,
    seed: int = DEFAULT_SEED,
    inject_fault: bool = False,
) -> list[SuiteResult]:
    rng = random.Random(seed)
    results = [
        suite_band_relations(rng, trials, max_n),
        suite_routing_composition(rng, trials, max_n),
        suite_split_exchange(rng, trials, max_n),
        suite_braid_splitting(rng, trials, max_n),
        suite_band_conjugation(rng, trials, max_n),
        suite_band_to_delta(rng, trials, max_n),
        suite_residue_conjugacy(max_n),
        suite_torus_witness(max_n, max_s),
        suite_synthesis(max_s),
        suite_normal_form_rewrites(rng, min(trials, 500), min(max_n, 8)),
        suite_certification(),
    ]
    if inject_fault:
        results.append(suite_injected_fault())
    return results
