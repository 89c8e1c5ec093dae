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

The word reaches the normal form as a product of same-sign runs, each a
permutation braid or the inverse of one.  A letter slides left past the
runs it commutes with, and joins the first run of its sign that it adds a
crossing to, or cancels (sigma_i sigma_i^-1 = 1) against a run of the other
sign that ends in its inverse.  sigma_i commutes with a permutation braid
whose permutation fixes i and i+1: both products are reduced words of one
permutation, so the same permutation braid.  Only braid relations are used,
so the product of the runs is the word in B_n, and the normal form of a
braid is unique (Thurston; Epstein et al., Word Processing in Groups, ch.
9): however the word is cut, the result is the same.  The cut only decides
the work: fewer runs are fewer factors to comb in.
"""
from __future__ import annotations

import math
import re

from .perm import IndexSubset, Permutation, _Value, residue_perm


class BraidWord(_Value):
    """A word in the Artin generators of B_n."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...]):
        if n < 0:
            raise ValueError("braid index must be nonnegative")
        # A letter is in range when 0 < |g| < n; the scan for the first bad
        # one runs only once one is known to be there.
        if letters and (0 in letters or min(letters) <= -n or max(letters) >= n):
            g = next(g for g in letters if g == 0 or not -n < g < n)
            raise ValueError(f"letter {g} out of range for braid index {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

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
    letters: list[int] = []
    for k in subset.members:
        letters += round_trip(subset.n, k).letters
    return BraidWord(subset.n, tuple(letters))


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


# --- Garside left normal form ------------------------------------------------
#
# Factors are raw 1-indexed image tuples during computation.  A word is cut
# into same-sign runs whose induced permutations stay simple (no two strands
# cross twice): each letter extends the last run, or slides left past the
# runs it commutes with to join a run of its sign or cancel a crossing of a
# run of the other sign, or starts a new run (_simple_runs).  Each run enters
# as one factor: a positive run Y as the permutation braid of Y, a negative
# run Y^-1 as the permutation braid of Y^-1 Delta followed by Delta^-1.
# Appending a factor combs it leftwards: each pair is left-weighted by one
# insertion pass, which moves every crossing that can leave the head of the
# right factor into the tail of the left one.  Every Delta^+-1 is carried to
# the right end: a negative run's Delta^-1, and each Delta that combing fills
# a factor up to.  Delta F = _conjugate_by_delta(F) Delta, so only the
# factors a Delta passes are conjugated: those after a Delta formed by
# combing, which combing has just rewritten.  Delta^2 is central, so the
# Deltas gathered at the right end are only counted, with their signs; a
# factor that enters while the count is odd is conjugated as it enters, and
# all factors once at the end if it is odd.  A negative run costs a nearly
# full factor Y^-1 Delta that combing must move crossing by crossing, so
# every letter the cut joins or cancels saves combing work.


def _left_weight(
    f: tuple[int, ...], g: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Move crossings from the head of g into f until the pair is left-weighted.

    Position s holds the pair (f(s), g^-1(s)).  A slide at s swaps the pairs
    at s and s+1; it is legal when s starts g (g^-1(s) > g^-1(s+1)) but does
    not finish f (f(s) < f(s+1)).  A slide changes no pair to the right of the
    one that moved, so the slides are done as one insertion pass: the pair at
    i moves left past every neighbour it may slide over, and i is never
    revisited.  The inputs are returned unchanged when nothing slides.
    """
    ginv = [0] * n
    for pos, v in enumerate(g):
        ginv[v - 1] = pos
    fl = f
    for i in range(1, n):
        x = fl[i]
        y = ginv[i]
        if fl[i - 1] < x and ginv[i - 1] > y:
            if fl is f:
                fl = list(f)
            j = i - 1
            while j and fl[j - 1] < x and ginv[j - 1] > y:
                j -= 1
            fl.insert(j, fl.pop(i))
            ginv.insert(j, ginv.pop(i))
    if fl is f:
        return f, g
    gl = [0] * n
    for v, pos in enumerate(ginv, 1):
        gl[pos] = v
    return tuple(fl), tuple(gl)


def _conjugate_by_delta(f: tuple[int, ...], n: int) -> tuple[int, ...]:
    # Delta^-1 F Delta: the generator sigma_i becomes sigma_{n-i}.
    return tuple([n + 1 - f[n - 1 - i] for i in range(n)])


def _append_factor(
    factors: list[tuple[int, ...]],
    g: tuple[int, ...],
    w0: tuple[int, ...],
    identity: tuple[int, ...],
) -> int:
    """Append one permutation-braid factor, comb it leftwards, carry any Delta right.

    w0 and identity are the images of Delta and of the identity.  Returns the
    number of Deltas carried to the right end, 0 or 1: g itself when it is
    Delta, or a factor that combing fills up to Delta, which is deleted after
    the factors behind it are conjugated by Delta.
    """
    if g == w0:
        return 1
    if g == identity:
        return 0
    n = len(g)
    factors.append(g)
    j = len(factors) - 2
    while j >= 0:
        f2, g2 = _left_weight(factors[j], factors[j + 1], n)
        if f2 == factors[j]:
            break
        if g2 == identity:
            del factors[j + 1]
        else:
            factors[j + 1] = g2
        if f2 == w0:
            del factors[j]
            factors[j:] = [_conjugate_by_delta(f, n) for f in factors[j:]]
            return 1
        factors[j] = f2
        j -= 1
    return 0


def _simple_runs(w: BraidWord) -> list[tuple[bool, list[int]]]:
    """Cut the word into same-sign runs with simple induced permutations.

    Each run is (negative, images): images is the permutation of its letters
    with their signs dropped, and the run is that permutation braid, or when
    negative the same word with every letter inverted.  The product of the
    runs in order is the word in B_n.  A letter sigma_i^+-1 that has the last
    run's sign and adds an inversion to it extends it.  Any other letter
    looks at the runs from the last one leftwards:

    - a run of its sign that it adds an inversion to takes it (join);
    - a run of the other sign whose strands at i and i+1 have crossed ends
      in the inverse letter, and gives that crossing back (cancel); a run
      emptied so is dropped;
    - a run whose permutation fixes i and i+1 commutes with the letter,
      which passes it (slide): sigma_i P and P sigma_i are reduced words of
      one permutation, so one permutation braid, and the mirror sigma_j ->
      sigma_j^-1 carries this to negative runs.  That covers every run that
      uses none of sigma_{i-1}, sigma_i, sigma_{i+1}, and more: other
      strands may cross strands i and i+1 in it;
    - any other run stops the slide, and the letter starts a new run at the
      end.

    A run of the letter's sign either takes it or stops it, so a slide only
    passes runs of the other sign, and a one-sign word is cut as it always
    was: into maximal runs, each letter extending the last or starting the
    next.  A slide reads at most every run, O(1) each, per letter: no more
    than combing a factor in through every factor before it.

    >>> _simple_runs(BraidWord(6, (1, -4, 2, -5)))  # sigma_2 slides past sigma_4^-1 and joins
    [(False, [2, 3, 1, 4, 5, 6]), (True, [1, 2, 3, 5, 6, 4])]
    >>> _simple_runs(BraidWord(5, (1, 4, -1)))  # sigma_1^-1 cancels
    [(False, [1, 2, 3, 5, 4])]
    """
    n = w.n
    identity = list(range(1, n + 1))
    runs: list[tuple[bool, list[int]]] = []
    last_negative, last = False, [0] * n  # the last run; no letter extends [0] * n
    for g in w.letters:
        i = abs(g)
        # Extending the last run is most letters of a one-sign word; the
        # slide loop below would take it too, at about twice the cost.
        if (g < 0) == last_negative and last[i - 1] < last[i]:
            last[i - 1], last[i] = last[i], last[i - 1]
            continue
        negative = g < 0
        k = len(runs) - 1
        while k >= 0:
            sign, im = runs[k]
            if (im[i - 1] > im[i]) != (sign == negative):
                break  # it joins or cancels here
            k = k - 1 if im[i - 1] == i and im[i] == i + 1 else -1  # it slides past or stops
        if k < 0:
            sign, im = negative, identity[:]
            runs.append((sign, im))
        im[i - 1], im[i] = im[i], im[i - 1]
        if sign != negative and im == identity:
            del runs[k]
        last_negative, last = runs[-1] if runs else (False, [0] * n)
    return runs


class NormalForm(_Value):
    """Left-greedy Garside form Delta^delta_power F_1 ... F_r."""

    __slots__ = ("n", "delta_power", "factors")

    def __init__(self, n: int, delta_power: int, factors: tuple[Permutation, ...]):
        w0 = tuple(range(n, 0, -1))
        for f in factors:
            if f.is_identity() or f.images == w0:
                raise ValueError("normal form factors must be proper")
        for f, g in zip(factors, factors[1:]):
            f2, _ = _left_weight(f.images, g.images, n)
            if f2 != f.images:
                raise ValueError("normal form factors are not left-weighted")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta_power", delta_power)
        object.__setattr__(self, "factors", factors)

    def canonical_length(self) -> int:
        return len(self.factors)


def left_normal_form(w: BraidWord) -> NormalForm:
    """The unique left-greedy normal form of the word.

    The word is cut into same-sign runs whose induced permutations stay
    simple (_simple_runs).  A positive run Y is one factor; a negative run
    Y^-1 is the factor Y^-1 Delta, whose images are the run's reversed,
    followed by Delta^-1.  Every Delta^+-1 is carried to the right end and
    counted there with its sign: a negative run's Delta^-1, and each Delta
    formed while combing a factor in.  A run that enters while the count is
    odd is conjugated by Delta first, sigma_i -> sigma_{n-i}, and so are all
    factors at the end when the count is odd; the count is the delta power.

    >>> nf = left_normal_form(half_twist(4).inverse())
    >>> nf.delta_power, nf.factors
    (-1, ())
    >>> left_normal_form(BraidWord(3, (1, 2, 2))).factors
    (Permutation(images=(2, 3, 1)), Permutation(images=(1, 3, 2)))
    """
    n = w.n
    w0 = tuple(range(n, 0, -1))
    identity = w0[::-1]
    power = 0
    factors: list[tuple[int, ...]] = []
    for negative, im in _simple_runs(w):
        f = tuple(im[::-1] if negative else im)
        if power % 2:
            f = _conjugate_by_delta(f, n)
        power += _append_factor(factors, f, w0, identity) - negative
    if power % 2:
        factors = [_conjugate_by_delta(f, n) for f in factors]
    return NormalForm(n, power, tuple([Permutation(f) for f in factors]))


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether the two words represent the same element of B_n."""
    if w1.n != w2.n:
        raise ValueError("index mismatch")
    return left_normal_form(w1) == left_normal_form(w2)


# --- Conjugacy of delta powers to band products ------------------------------


class ConjugacyWitness(_Value):
    """An explicit conjugator with both sides checked by normal form."""

    __slots__ = ("n", "conjugator", "rhs", "verified")

    def __init__(self, n: int, conjugator: BraidWord, rhs: BraidWord, verified: bool):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "conjugator", conjugator)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "verified", verified)


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
