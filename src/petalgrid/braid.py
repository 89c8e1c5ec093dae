"""
Braid words in B_n and a Garside left normal form deciding word equality.

A braid word is a sequence of nonzero integers: the letter g encodes the
Artin generator sigma_{|g|} raised to the power sign(g).  Words multiply by
concatenation and invert by reversing and negating letters.

The induced permutation of a word records, for each right endpoint i, the
left endpoint of the strand ending there; it is a homomorphism onto S_n for
the left-action convention, i.e. induced(v w) = induced(v) * induced(w).

Positive words in which no pair of strands crosses twice (permutation
braids) are in bijection with permutations, which makes the left-greedy
normal form Delta^p F_1 ... F_r computable factor by factor: each F_i is a
non-identity, non-Delta permutation, and each adjacent pair is left-weighted
(no crossing of F_{i+1} can move into F_i).  Two words are equal in B_n
exactly when their normal forms coincide.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .perm import IndexSubset, Permutation, order_bijection, residue_perm


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_n."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("braid index must be nonnegative")
        for g in self.letters:
            if g == 0 or not 1 <= abs(g) <= self.n - 1:
                raise ValueError(f"letter {g} out of range for braid index {self.n}")

    @staticmethod
    def identity(n: int) -> BraidWord:
        return BraidWord(n, ())

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("index mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def __pow__(self, e: int) -> BraidWord:
        if e >= 0:
            return BraidWord(self.n, self.letters * e)
        return self.inverse() ** (-e)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(-g for g in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


def sigma(n: int, i: int) -> BraidWord:
    """The generator sigma_i as a one-letter word in B_n."""
    return BraidWord(n, (i,))


def delta(n: int) -> BraidWord:
    """The descending cycle sigma_{n-1} sigma_{n-2} ... sigma_1."""
    return BraidWord(n, tuple(range(n - 1, 0, -1)))


def half_twist(n: int) -> BraidWord:
    """The half twist sigma_1 (sigma_2 sigma_1) ... (sigma_{n-1} ... sigma_1)."""
    letters: list[int] = []
    for k in range(2, n + 1):
        letters.extend(range(k - 1, 0, -1))
    return BraidWord(n, tuple(letters))


def descending_run(n: int, k: int) -> BraidWord:
    """The band word sigma_{k-1} ... sigma_2 sigma_1; empty when k = 1."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for braid index {n}")
    return BraidWord(n, tuple(range(k - 1, 0, -1)))


def ascending_run(n: int, k: int) -> BraidWord:
    """The band word sigma_1 sigma_2 ... sigma_{k-1}; empty when k = 1."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for braid index {n}")
    return BraidWord(n, tuple(range(1, k)))


def round_trip(n: int, k: int) -> BraidWord:
    """The round-trip band on the lowest k strands: descending then ascending run."""
    return descending_run(n, k) * ascending_run(n, k)


def round_trip_product(subset: IndexSubset) -> BraidWord:
    """The product of round-trip bands over the subset members, in increasing order."""
    word = BraidWord.identity(subset.n)
    for k in subset.members:
        word = word * round_trip(subset.n, k)
    return word


def induced_permutation(w: BraidWord) -> Permutation:
    """The permutation of strand endpoints; signs of letters are ignored."""
    images = list(range(1, w.n + 1))
    for g in w.letters:
        i = abs(g)
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def permutation_braid(p: Permutation) -> BraidWord:
    """The positive word with induced permutation p in which no strands cross twice.

    The word is emitted by a fixed descending-pass adjacent-transposition
    sort, so it is deterministic; its length equals the inversion count
    of p, hence the word is reduced and no pair of strands crosses twice.
    """
    q = list(p.images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(p.n - 1, 0, -1):
            if q[i - 1] > q[i]:
                q[i - 1], q[i] = q[i], q[i - 1]
                swaps.append(i)
                changed = True
    return BraidWord(p.n, tuple(reversed(swaps)))


def subset_braid(a: IndexSubset, b: IndexSubset, barred: bool = False) -> BraidWord:
    """The permutation braid routing heights b to heights a order-preservingly.

    With barred=True, returns instead the inverse of subset_braid(b, a):
    the same strand routing with every crossing negative.
    """
    if barred:
        return subset_braid(b, a).inverse()
    return permutation_braid(order_bijection(a, b))


def split(alpha: BraidWord, beta: BraidWord) -> BraidWord:
    """Stack beta on top of alpha: beta's letter indices shift up by alpha.n."""
    k = alpha.n
    shifted = tuple(g + k if g > 0 else g - k for g in beta.letters)
    return BraidWord(k + beta.n, alpha.letters + shifted)


def tau(w: BraidWord) -> BraidWord:
    """Conjugation by the descending cycle: delta^-1 w delta.

    On generators tau shifts the index up by one, which is used as a
    letterwise fast path whenever every letter index is at most n-2;
    otherwise the conjugated word is returned literally and callers
    reduce it via the normal form.
    """
    if all(abs(g) <= w.n - 2 for g in w.letters):
        return BraidWord(w.n, tuple(g + 1 if g > 0 else g - 1 for g in w.letters))
    return delta(w.n).inverse() * w * delta(w.n)


# --- Garside left normal form ------------------------------------------------
#
# Factors are raw 1-indexed image tuples during computation.  The two local
# moves are: slide a crossing from the head of the right factor into the tail
# of the left factor (left-weighting), and flip a factor by the half twist
# when a delta power passes through it.


def _flip(f: tuple[int, ...], n: int) -> tuple[int, ...]:
    # Delta F Delta^-1 on permutations: reverse positions and values.
    return tuple(n + 1 - f[n - 1 - i] for i in range(n))


def _left_weight(
    f: tuple[int, ...], g: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Move crossings from the head of g into f until the pair is left-weighted.

    A slide at position s is legal when s starts g (s appears after s+1 in
    g's images) but does not finish f (f(s) < f(s+1)).
    """
    fl = list(f)
    gl = list(g)
    ginv = [0] * n
    for pos, v in enumerate(gl):
        ginv[v - 1] = pos
    s = 0  # 0-based position; tests generator index s+1
    changed = False
    while s < n - 1:
        if ginv[s] > ginv[s + 1] and fl[s] < fl[s + 1]:
            fl[s], fl[s + 1] = fl[s + 1], fl[s]
            p1, p2 = ginv[s], ginv[s + 1]
            gl[p1], gl[p2] = gl[p2], gl[p1]
            ginv[s], ginv[s + 1] = p2, p1
            changed = True
            s = max(0, s - 1)
        else:
            s += 1
    if not changed:
        return f, g
    return tuple(fl), tuple(gl)


def _is_id(f: tuple[int, ...]) -> bool:
    return all(v == i + 1 for i, v in enumerate(f))


def _append_factor(factors: list[tuple[int, ...]], g: tuple[int, ...], n: int) -> None:
    # Append one permutation-braid factor and comb it leftwards.
    if _is_id(g):
        return
    factors.append(g)
    j = len(factors) - 2
    while j >= 0:
        f2, g2 = _left_weight(factors[j], factors[j + 1], n)
        if f2 == factors[j]:
            break
        factors[j] = f2
        if _is_id(g2):
            del factors[j + 1]
        else:
            factors[j + 1] = g2
        j -= 1


@dataclass(frozen=True)
class NormalForm:
    """Left-greedy Garside form Delta^delta_power F_1 ... F_r."""

    n: int
    delta_power: int
    factors: tuple[Permutation, ...]

    def __post_init__(self):
        w0 = tuple(range(self.n, 0, -1))
        for f in self.factors:
            if f.is_identity() or f.images == w0:
                raise ValueError("normal form factors must be proper")
        for f, g in zip(self.factors, self.factors[1:]):
            f2, _ = _left_weight(f.images, g.images, self.n)
            if f2 != f.images:
                raise ValueError("normal form factors are not left-weighted")

    def canonical_length(self) -> int:
        return len(self.factors)

    def is_trivial(self) -> bool:
        return self.delta_power == 0 and not self.factors


def left_normal_form(w: BraidWord) -> NormalForm:
    """The unique left-greedy normal form of the word.

    Negative letters are rewritten as Delta^-1 times a permutation braid
    before the greedy pass, so the delta power may be negative.
    """
    n = w.n
    w0 = tuple(range(n, 0, -1))
    power = 0
    factors: list[tuple[int, ...]] = []

    for g in w.letters:
        i = abs(g)
        transp = list(range(1, n + 1))
        transp[i - 1], transp[i] = transp[i], transp[i - 1]
        if g > 0:
            f = tuple(transp)
        else:
            # sigma_i^-1 = Delta^-1 P with P the braid of pi_Delta o tau_i;
            # carrying Delta^-1 to the front flips every existing factor.
            f = tuple(w0[j - 1] for j in transp)
            factors = [_flip(x, n) for x in factors]
            power -= 1
        _append_factor(factors, f, n)
        while factors and factors[0] == w0:
            del factors[0]
            power += 1
    return NormalForm(n, power, tuple(Permutation(f) for f in factors))


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether the two words represent the same element of B_n."""
    if w1.n != w2.n:
        raise ValueError("index mismatch")
    return left_normal_form(w1) == left_normal_form(w2)


def decompose_permutation_braid(
    p: Permutation, k: int
) -> tuple[BraidWord, BraidWord, IndexSubset]:
    """Split the permutation braid of p as a stacked pair times a routing braid.

    Returns (P1, P2, A) with P1 in B_k, P2 in B_{n-k} and A = p^-1({1..k}),
    such that the braid of p equals split(P1, P2) * subset_braid(L, A) for
    L = {1..k}.
    """
    n = p.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for degree {n}")
    pinv = p.inverse()
    a = IndexSubset.of(n, (pinv(i) for i in range(1, k + 1)))
    low = IndexSubset.bottom(n, k)
    q = p * order_bijection(a, low)
    # q preserves {1..k}, so it splits into block permutations.
    p1 = permutation_braid(Permutation(q.images[:k]))
    if k < n:
        p2 = permutation_braid(Permutation(tuple(v - k for v in q.images[k:])))
    else:
        p2 = BraidWord.identity(0)
    return p1, p2, a


# --- Conjugacy of delta powers to band products ------------------------------


@dataclass(frozen=True)
class ConjugacyWitness:
    """An explicit conjugator with both sides checked by normal form."""

    n: int
    conjugator: BraidWord
    rhs: BraidWord
    verified: bool


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def check_pair(n: int, s: int) -> None:
    """Raise ValueError unless 2 <= n < s and n, s are coprime."""
    if not 2 <= n < s:
        raise ValueError(f"need 2 <= n < s, got n={n}, s={s}")
    if math.gcd(n, s) != 1:
        raise ValueError("not coprime")


def band_indices(n: int, k: int) -> list[int]:
    """The band subscripts ceil(n*i/k) for i = 1..k-1."""
    return [ceil_div(n * i, k) for i in range(1, k)]


def conjugate_band_braid(n: int, s: int) -> BraidWord:
    """The band form delta (U_2...U_n)^m U_{a_1}...U_{a_{k-1}} for s = nm + k.

    With a_i = ceil(n*i/k); for s < n this is delta U_{a_1}...U_{a_{s-1}}.
    """
    m, k = divmod(s, n)
    return (
        delta(n)
        * round_trip_product(IndexSubset.of(n, range(2, n + 1))) ** m
        * round_trip_product(IndexSubset.of(n, band_indices(n, k)))
    )


def torus_conjugacy_witness(n: int, k: int) -> ConjugacyWitness:
    """Conjugate delta^k in B_n to its band form conjugate_band_braid(n, k).

    Any coprime n, k >= 2 with n != k is accepted, since T(n, k) = T(k, n).
    The conjugator is the permutation braid of the residue permutation
    i -> k*i mod n, empty when k = 1 mod n.  The closure of either side is
    the (n, k) torus knot; verification is by normal-form equality of
    conjugator^-1 delta^k conjugator and the band form.
    """
    check_pair(min(n, k), max(n, k))
    conj = permutation_braid(residue_perm(n, k % n))
    rhs = conjugate_band_braid(n, k)
    lhs = conj.inverse() * delta(n) ** k * conj
    return ConjugacyWitness(n, conj, rhs, words_equal(lhs, rhs))


# --- Text and JSON forms ------------------------------------------------------

_LETTER_RE = re.compile(r"s(\d+)(\^-1)?$")


def parse_word(n: int, text: str) -> BraidWord:
    """Parse the textual syntax `s1 s2^-1 s1` into a word in B_n."""
    letters: list[int] = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise ValueError(f"cannot parse braid letter {token!r}")
        i = int(m.group(1))
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter index {i} out of range for braid index {n}")
        letters.append(-i if m.group(2) else i)
    return BraidWord(n, tuple(letters))


def format_word(w: BraidWord) -> str:
    if not w.letters:
        return "<empty>"
    return " ".join(f"s{abs(g)}" if g > 0 else f"s{abs(g)}^-1" for g in w.letters)


def word_to_json(w: BraidWord) -> dict:
    return {"n": w.n, "letters": list(w.letters)}
