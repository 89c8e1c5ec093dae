"""
Braid words in B_n and a Garside left normal form deciding word equality.

A braid word is a sequence of nonzero integers: the letter g encodes the
Artin generator sigma_{|g|} raised to the power sign(g).  Words multiply by
concatenation and invert by reversing and negating letters.

The induced permutation of a word records, for each right endpoint i, the
left endpoint of the strand ending there, as a 1-indexed image tuple; it is
a homomorphism onto S_n for the left action: the image of i under
induced(v w) is the image of induced(w)[i-1] under induced(v).

Positive words in which no pair of strands crosses twice (permutation
braids) are in bijection with permutations, which makes the left-greedy
normal form Delta^p F_1 ... F_r computable factor by factor: each F_i is a
non-identity, non-Delta permutation, and each adjacent pair is left-weighted
(no crossing of F_{i+1} can move into F_i).  Two words are equal in B_n
exactly when their normal forms coincide.

The word reaches the normal form as a product of same-sign runs, each a
permutation braid or the inverse of one.  A letter slides left past runs,
and joins the first run of its sign that it adds a crossing to, or cancels
(sigma_i sigma_i^-1 = 1) against a run of the other sign that ends in its
inverse.  sigma_i passes a permutation braid P whose strands at i and i+1
start adjacent, crossed or not, as sigma_j, where j is the lower of the two
starts: P sigma_i = sigma_j P (_simple_runs proves it, for runs of either
sign).  Only braid relations are used, so
the product of the runs is the word in B_n, and the normal form of a braid
is unique (Thurston; Epstein et al., Word Processing in Groups, ch. 9):
however the word is cut, the result is the same.  The cut only decides the
work: fewer runs are fewer factors to comb in.  Every Delta is carried to
the right end of the factor list, conjugating (sigma_i -> sigma_{n-i}) the
factors it passes.

The immutable value base of the word, the normal form, the witness and the
grid diagram is here too, with check_permutation: a permutation sending i
to a_i is the plain 1-indexed image tuple (a_1, ..., a_n), and each value
that holds one checks it so; the library composes no permutations.
"""
from __future__ import annotations

import math
import re
from collections.abc import Sequence
from operator import attrgetter


class _Value:
    """Base of the immutable value classes.

    A subclass names its fields in __slots__ and sets them in its __init__
    with object.__setattr__, each sequence field stored as a tuple.  Two
    values are equal, and hash alike, when they are of the same class and
    their fields are equal; they do not order.
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


class BraidWord(_Value):
    """A word in the Artin generators of B_n."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Sequence[int]):
        letters = tuple(letters)
        if n < 0:
            raise ValueError("braid index must be nonnegative")
        # A letter is in range when 0 < |g| < n; the scan for the first bad
        # one runs only once one is known to be there.
        if letters and (0 in letters or min(letters) <= -n or max(letters) >= n):
            g = next(g for g in letters if g == 0 or not -n < g < n)
            raise ValueError(f"letter {g} out of range for braid index {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

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

    # Kept for perfbench/spans.py, which counts each traced word's letters with len().
    def __len__(self) -> int:
        return len(self.letters)


def delta(n: int) -> BraidWord:
    """The descending cycle sigma_{n-1} sigma_{n-2} ... sigma_1."""
    return BraidWord(n, range(n - 1, 0, -1))


def induced_permutation(w: BraidWord) -> tuple[int, ...]:
    """The permutation of strand endpoints; signs of letters are ignored."""
    images = list(range(1, w.n + 1))
    for g in w.letters:
        i = abs(g)
        images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


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


def permutation_braid(p: tuple[int, ...]) -> BraidWord:
    """The positive word with induced permutation p in which no strands cross twice.

    The word is emitted by a fixed descending-pass adjacent-transposition
    sort, so it is deterministic; its length equals the inversion count
    of p, hence the word is reduced and no pair of strands crosses twice.
    """
    check_permutation(p)
    n = len(p)
    q = list(p)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, 0, -1):
            if q[i - 1] > q[i]:
                q[i - 1], q[i] = q[i], q[i - 1]
                swaps.append(i)
                changed = True
    return BraidWord(n, swaps[::-1])


# --- Garside left normal form ------------------------------------------------
#
# A word is cut into same-sign runs whose induced permutations stay simple
# (no two strands cross twice): each letter extends the last run, or slides
# left past the runs whose strands at its index start adjacent, to join a run
# of its sign or cancel a crossing of a run of the other sign, or starts a new
# run (_simple_runs).
# Runs are 1-indexed image lists.  Each run enters the comb as one factor: a
# positive run Y as the permutation braid of Y, a negative run Y^-1 as the
# permutation braid of Y^-1 Delta followed by Delta^-1.  Appending a factor
# combs it leftwards: each pair is left-weighted by one insertion pass, which
# moves every crossing that can leave the head of the right factor into the
# tail of the left one; a pass that moves nothing finds the pair
# left-weighted already, and the factor is combed in.
#
# In the comb a factor is its 1-indexed images as a bytes object, so that the
# work around each pass runs in C: the inverse of g is the table
# bytes.maketrans(g, ident) read at 1..n, Delta-conjugation is one reverse
# and one translate, and a factor is tested against Delta and the identity
# with ==.  The pass itself tests and moves on list copies, whose indexing
# CPython makes faster than that of bytes.  An image past 255 does not fit a
# byte, so for n > 255 the same comb runs on tuples, with _maketrans and
# _translate standing in for the two bytes methods.
#
# Every Delta^+-1 is counted in one signed power as if carried to the right
# end: a negative run's Delta^-1, and each Delta that combing fills a factor
# up to.  Delta F = tau(F) Delta, where tau is the conjugation sigma_i ->
# sigma_{n-i}, which maps the images of F to n+1-v in reverse order; tau^2 is
# the identity, as Delta^2 is central.  So a Delta formed at index j is
# deleted and conjugates the factors after it, a run enters conjugated when
# the power is odd, and all factors leave conjugated at the end when it is.
# tau keeps pairs left-weighted, so combing works on the factors as they are.
# A negative run costs a nearly full factor Y^-1 Delta that combing must move
# crossing by crossing, so every letter the cut joins or cancels saves
# combing work.


def _maketrans(frm: Sequence[int], to: Sequence[int]) -> tuple[int, ...]:
    # bytes.maketrans for images past a byte: the table t with t[frm[k]] = to[k].
    t = [0] * (len(frm) + 1)
    for a, b in zip(frm, to):
        t[a] = b
    return tuple(t)


def _translate(f: tuple[int, ...], table: tuple[int, ...]) -> tuple[int, ...]:
    # bytes.translate for images past a byte.
    return tuple([table[v] for v in f])


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
    - a run P whose strands at i and i+1 start adjacent, at a and b with
      |a - b| = 1, is passed (slide): the letter goes on as
      sigma_j^+-1 with j = min(a, b), because P sigma_i = sigma_j P, and
      the mirror sigma_k -> sigma_k^-1 carries this to negative runs.  In a
      run of the other sign the strands are uncrossed, a = j and b = j+1,
      and P sigma_i and sigma_j P are reduced words of one permutation, so
      one permutation braid (j = i when P fixes i and i+1, and then the
      letter commutes with P).  In a run of the letter's sign they are
      crossed, a = j+1 and b = j, so sigma_j left-divides P, P = sigma_j Q,
      and in Q they start at j and j+1: P sigma_i = sigma_j Q sigma_i =
      sigma_j sigma_j Q = sigma_j P;
    - any other run stops the slide, and the letter, with its own index i,
      starts a new run at the end; so does a letter that passes every run.

    So the full twist U_2...U_n, Delta^2, is cut into two runs, each Delta.
    A slide reads at most every run, O(1) each, per letter: no more than
    combing a factor in through every factor before it.

    >>> _simple_runs(BraidWord(6, (1, -4, 2, -5)))  # sigma_2 slides past sigma_4^-1 and joins
    [(False, [2, 3, 1, 4, 5, 6]), (True, [1, 2, 3, 5, 6, 4])]
    >>> _simple_runs(BraidWord(5, (1, 4, -1)))  # sigma_1^-1 cancels
    [(False, [1, 2, 3, 5, 4])]
    >>> _simple_runs(BraidWord(4, (1, -2, -3, 2)))  # sigma_2 passes as sigma_3 and joins
    [(False, [2, 1, 4, 3]), (True, [1, 3, 4, 2])]
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
        j = i
        k = len(runs) - 1
        while k >= 0:
            sign, im = runs[k]
            a, b = im[j - 1], im[j]
            if (a > b) != (sign == negative):
                break  # it joins or cancels here
            # Here the strands are uncrossed in a run of the other sign, or
            # crossed in a run of the letter's sign; either is passed when
            # they start adjacent.
            if a - b not in (1, -1):
                k = -1  # it stops
            else:
                j, k = a if a < b else b, k - 1  # it slides past as sigma_min(a, b)
        if k < 0:
            j, sign, im = i, negative, identity[:]
            runs.append((sign, im))
        im[j - 1], im[j] = im[j], im[j - 1]
        if sign != negative and im == identity:
            del runs[k]
        last_negative, last = runs[-1] if runs else (False, [0] * n)
    return runs


class NormalForm(_Value):
    """Left-greedy Garside form Delta^delta_power F_1 ... F_r."""

    __slots__ = ("n", "delta_power", "factors")

    def __init__(self, n: int, delta_power: int, factors: Sequence[Sequence[int]]):
        factors = tuple([tuple(f) for f in factors])
        if n < 0:
            raise ValueError("braid index must be nonnegative")
        ident = tuple(range(1, n + 1))
        w0 = ident[::-1]
        for f in factors:
            if len(f) != n:
                raise ValueError(f"factor of degree {len(f)} in a normal form of braid index {n}")
            check_permutation(f)
            if f == ident or f == w0:
                raise ValueError("normal form factors must be proper")
        # A pair is left-weighted when no crossing can slide from the head of g
        # into the tail of f (see _comb): no s with f(s) < f(s+1) at which g
        # starts, g^-1(s) > g^-1(s+1).
        for f, g in zip(factors, factors[1:]):
            ginv = [0] * (n + 1)  # g^-1, 1-indexed
            for i, v in enumerate(g, 1):
                ginv[v] = i
            for s in range(1, n):
                if f[s - 1] < f[s] and ginv[s] > ginv[s + 1]:
                    raise ValueError("normal form factors are not left-weighted")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta_power", delta_power)
        object.__setattr__(self, "factors", factors)

    # Kept for perfbench/spans.py, which records each traced normal form's canonical length.
    def canonical_length(self) -> int:
        return len(self.factors)


def _comb(n: int, runs: list[tuple[bool, list[int]]]) -> NormalForm:
    """The normal form of the product of the runs, each combed in leftwards.

    A run is (negative, images) as _simple_runs gives it.  In a pair (f, g)
    of factors, position s holds the pair (f(s), g^-1(s)).  A slide at s
    swaps the pairs at s and s+1; it is legal when s starts g (g^-1(s) >
    g^-1(s+1)) but does not finish f (f(s) < f(s+1)).  A slide changes no
    pair to the right of the one that moved, so the slides are done as one
    insertion pass over i = 1..n-1: the pair at i moves left past every
    neighbour it may slide over, and i is never revisited.  A pass that
    moves nothing has found no legal slide, so the pair is left-weighted, and
    combing the factor in stops there.
    """
    if n < 256:
        pack, maketrans, translate = bytes, bytes.maketrans, bytes.translate
    else:
        pack, maketrans, translate = tuple, _maketrans, _translate
    ident = pack(range(1, n + 1))
    w0 = ident[::-1]
    comp = maketrans(ident, w0)  # v -> n + 1 - v
    end = n + 1
    power = 0
    factors: list[Sequence[int]] = []  # with every Delta at the right end
    for negative, im in runs:
        g = pack(im[::-1] if negative else im)
        if power % 2:
            g = translate(g[::-1], comp)
        power -= negative
        if g == w0:
            power += 1
            continue
        if g == ident:
            continue
        factors.append(g)
        j = len(factors) - 2
        while j >= 0:
            fl = list(factors[j])
            ginv = list(maketrans(factors[j + 1], ident)[1:end])  # g^-1, 1-indexed
            moved = False
            for i in range(1, n):
                if fl[i - 1] < fl[i] and ginv[i - 1] > ginv[i]:
                    x = fl.pop(i)
                    y = ginv.pop(i)
                    k = i - 1
                    while k and fl[k - 1] < x and ginv[k - 1] > y:
                        k -= 1
                    fl.insert(k, x)
                    ginv.insert(k, y)
                    moved = True
            if not moved:
                break  # the pair is left-weighted
            g = maketrans(pack(ginv), ident)[1:end]  # the new g, from its inverse
            if g == ident:
                del factors[j + 1]
            else:
                factors[j + 1] = g
            f = pack(fl)
            if f == w0:
                del factors[j]
                power += 1
                factors[j:] = [translate(f[::-1], comp) for f in factors[j:]]
                break
            factors[j] = f
            j -= 1
    if power % 2:
        factors = [translate(f[::-1], comp) for f in factors]
    return NormalForm(n, power, factors)


def left_normal_form(w: BraidWord) -> NormalForm:
    """The unique left-greedy normal form of the word.

    The word is cut into same-sign runs whose induced permutations stay
    simple (_simple_runs).  A positive run Y is one factor; a negative run
    Y^-1 is the factor Y^-1 Delta, whose images are the run's reversed,
    followed by Delta^-1.  Each factor is combed in leftwards (_comb).  Every
    Delta^+-1 counts toward the delta power with its sign: a negative run's
    Delta^-1, and each Delta formed while combing a factor in, which is
    deleted and carried to the right end, conjugating the factors after it
    (sigma_i -> sigma_{n-i}).  A run that enters while the power is odd is
    conjugated first, and so are all factors at the end when it is.

    >>> nf = left_normal_form(BraidWord(4, (1, 2, 1, 3, 2, 1)).inverse())
    >>> nf.delta_power, nf.factors
    (-1, ())
    >>> left_normal_form(BraidWord(3, (1, 2, 2))).factors
    ((2, 3, 1), (1, 3, 2))
    """
    return _comb(w.n, _simple_runs(w))


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether the two words represent the same element of B_n."""
    if w1.n != w2.n:
        raise ValueError("index mismatch")
    return left_normal_form(w1) == left_normal_form(w2)


# --- Conjugacy of delta powers to band products ------------------------------


class ConjugacyWitness(_Value):
    """An explicit conjugator with both sides checked by normal form."""

    __slots__ = ("conjugator", "rhs", "verified")

    def __init__(self, conjugator: BraidWord, rhs: BraidWord, verified: bool):
        object.__setattr__(self, "conjugator", conjugator)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "verified", verified)


def check_pair(n: int, s: int) -> None:
    """Raise ValueError unless 2 <= n < s and n, s are coprime."""
    if not 2 <= n < s:
        raise ValueError(f"need 2 <= n < s, got n={n}, s={s}")
    if math.gcd(n, s) != 1:
        raise ValueError("not coprime")


def band_indices(n: int, s: int) -> list[int]:
    """The band form's subscripts: delta (U_2...U_n)^m U_{a_1}...U_{a_{k-1}} in word order.

    Here s = nm + k and a_i = ceil(n*i/k), so for s < n they are the a_i alone.

    >>> band_indices(5, 8)
    [2, 3, 4, 5, 2, 4]
    >>> band_indices(7, 3)
    [3, 5]
    """
    m, k = divmod(s, n)
    return list(range(2, n + 1)) * m + [-(-n * i // k) for i in range(1, k)]


def conjugate_band_braid(n: int, s: int) -> BraidWord:
    """The band form delta U_{b_1} U_{b_2} ... over b = band_indices(n, s).

    U_k = sigma_{k-1} ... sigma_1 sigma_1 ... sigma_{k-1} is the round trip on
    the lowest k strands.
    """
    letters = [*delta(n).letters]
    for k in band_indices(n, s):
        letters += range(k - 1, 0, -1)
        letters += range(1, k)
    return BraidWord(n, letters)


def torus_conjugacy_witness(n: int, k: int) -> ConjugacyWitness:
    """Conjugate delta^k in B_n to its band form conjugate_band_braid(n, k).

    Any coprime n, k >= 2 with n != k is accepted, since T(n, k) = T(k, n).
    The conjugator is the permutation braid of the residue permutation
    i -> k*i mod n, with representatives in 1..n, so n is fixed; it is empty
    when k = 1 mod n.  The closure of either side is
    the (n, k) torus knot.

    With k = mn + r, delta^k = Delta^(2m) delta^r, since delta^n = Delta^2
    (Garside), and Delta^2 is central.  The band form is delta, m blocks
    U_2...U_n of n(n-1) letters each, then the bands of its tail
    conjugate_band_braid(n, r) = delta U_{a_1}...U_{a_(r-1)}.  Verification
    cuts it so: every block must equal the first, whose normal form must be
    Delta^2 with no factors (checked only when m >= 1), so the band form is
    Delta^(2m) times the tail; and the normal forms of conjugator^-1 delta^r
    conjugator and of the tail must be equal.  The m full twists are
    counted on both sides, not combed.
    """
    if min(n, k) < 2:
        raise ValueError(f"need n, k >= 2, got n={n}, k={k}")
    if math.gcd(n, k) != 1:
        raise ValueError("not coprime")
    m, r = divmod(k, n)
    conj = permutation_braid(tuple([(r * i - 1) % n + 1 for i in range(1, n + 1)]))
    rhs = conjugate_band_braid(n, k)
    end = n - 1 + m * n * (n - 1)  # where the blocks end
    blocks = rhs.letters[n - 1 : end]
    twist = blocks[: n * (n - 1)]
    verified = (
        blocks == twist * m
        and (not m or left_normal_form(BraidWord(n, twist)) == NormalForm(n, 2, ()))
        and left_normal_form(conj.inverse() * delta(n) ** r * conj)
        == left_normal_form(BraidWord(n, rhs.letters[: n - 1] + rhs.letters[end:]))
    )
    return ConjugacyWitness(conj, rhs, verified)


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
        letters.append(-i if m.group(2) else i)
    return BraidWord(n, letters)


def format_word(w: BraidWord) -> str:
    if not w.letters:
        return "<empty>"
    return " ".join(f"s{abs(g)}" if g > 0 else f"s{abs(g)}^-1" for g in w.letters)
