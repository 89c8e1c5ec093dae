import math
import random

import pytest
from oracles import (
    IndexSubset,
    _letterwise_left_weight,
    _rewrite_once,
    ascending_run,
    band_product,
    compose,
    decompose_permutation_braid,
    descending_run,
    half_twist,
    identity,
    inverse,
    inversions,
    letterwise_normal_form,
    residue_perm,
    round_trip,
    sigma,
    split,
    subset_braid,
    suite_residue_conjugacy,
    tau,
)

from petalgrid.braid import (
    NormalForm,
    BraidWord,
    band_indices,
    conjugate_band_braid,
    delta,
    format_word,
    induced_permutation,
    left_normal_form,
    parse_word,
    permutation_braid,
    torus_conjugacy_witness,
    words_equal,
)
import petalgrid.braid as braid
from petalgrid.braid import _comb, _simple_runs


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def random_word(rng, n, length):
    return BraidWord(n, tuple([rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]))


def test_named_braids():
    assert delta(5).letters == (4, 3, 2, 1)
    assert round_trip(6, 1).letters == ()
    assert round_trip(6, 4).letters == (3, 2, 1, 1, 2, 3)
    assert descending_run(6, 4).letters == (3, 2, 1)
    assert ascending_run(6, 4).letters == (1, 2, 3)
    assert half_twist(4).letters == (1, 2, 1, 3, 2, 1)
    with pytest.raises(ValueError):
        round_trip(4, 5)


def test_band_form_is_delta_then_the_round_trips():
    # One letter list for the whole band form, the same letters as
    # multiplying band by band, for s below, at and past n; the band form of
    # T(61,150) is delta (U_2...U_61)^2 U_a...  Past n, the subscripts are m
    # blocks 2..n, then those of the tail conjugate_band_braid(n, s % n): the
    # cut the witness reads.
    for n in range(2, 14):
        for s in range(2, 4 * n):
            if math.gcd(n, s) == 1:
                expected = delta(n) * band_product(n, band_indices(n, s))
                assert conjugate_band_braid(n, s) == expected, (n, s)
                assert band_indices(n, s) == list(range(2, n + 1)) * (s // n) + band_indices(n, s % n), (n, s)
    expected = delta(61)
    for k in list(range(2, 62)) * 2 + band_indices(61, 28):
        expected = expected * round_trip(61, k)
    assert conjugate_band_braid(61, 150) == expected


def test_half_twist_as_run_products():
    for n in range(2, 8):
        descending = BraidWord(n, ())
        for k in range(2, n + 1):
            descending = descending * descending_run(n, k)
        ascending = BraidWord(n, ())
        for k in range(n, 1, -1):
            ascending = ascending * ascending_run(n, k)
        assert words_equal(descending, half_twist(n))
        assert words_equal(ascending, half_twist(n))


def test_induced_permutations():
    assert induced_permutation(delta(6)) == (6, 1, 2, 3, 4, 5)
    assert induced_permutation(half_twist(6)) == (6, 5, 4, 3, 2, 1)
    assert induced_permutation(BraidWord(4, ())) == identity(4)


def test_induced_permutation_is_homomorphic():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 9)
        letters = lambda: tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))
        )
        v, w = BraidWord(n, letters()), BraidWord(n, letters())
        assert induced_permutation(v * w) == compose(induced_permutation(v), induced_permutation(w))


def test_permutation_braid_basics():
    assert permutation_braid(identity(5)).letters == ()
    word = permutation_braid((3, 2, 1))
    assert len(word) == 3
    assert words_equal(word, half_twist(3))
    p = (2, 4, 1, 3, 6, 5, 7)
    assert len(permutation_braid(p)) == 4 == inversions(p)
    assert induced_permutation(permutation_braid(p)) == p


def test_permutation_braid_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(500):
        p = random_permutation(rng, rng.randint(1, 10))
        w = permutation_braid(p)
        assert induced_permutation(w) == p
        assert len(w) == inversions(p)


def test_permutation_braid_no_double_crossings():
    rng = random.Random(17)
    for _ in range(200):
        p = random_permutation(rng, rng.randint(2, 10))
        word = permutation_braid(p)
        heights = list(range(len(p)))  # heights[j] = strand currently at height j+1
        crossed = set()
        for g in word.letters:
            i = abs(g) - 1
            pair = frozenset((heights[i], heights[i + 1]))
            assert pair not in crossed, f"strands cross twice in braid of {p}"
            crossed.add(pair)
            heights[i], heights[i + 1] = heights[i + 1], heights[i]


def test_subset_braid_examples():
    a = IndexSubset.of(7, (2, 4, 6))
    b = IndexSubset.of(7, (1, 2, 5))
    assert subset_braid(a, b) == permutation_braid((2, 4, 1, 3, 6, 5, 7))
    assert subset_braid(a, a).letters == ()

    top = IndexSubset.of(7, (5, 6, 7))
    low = IndexSubset.of(7, (1, 2, 3))
    assert words_equal(subset_braid(top, a) * subset_braid(a, low), subset_braid(top, low))


def test_subset_braid_barred_is_negative_mirror():
    a = IndexSubset.of(6, (2, 5))
    b = IndexSubset.of(6, (3, 4))
    barred = subset_braid(b, a).inverse()
    assert all(g < 0 for g in barred.letters)
    assert words_equal(barred * subset_braid(b, a), BraidWord(6, ()))


def test_split():
    assert split(sigma(2, 1), sigma(2, 1)).letters == (1, 3)
    assert split(BraidWord(3, ()), BraidWord(4, ())) == BraidWord(7, ())
    assert split(BraidWord(2, (-1,)), BraidWord(3, (2, -1))).letters == (-1, 4, -3)


def test_split_exchange_randomized():
    rng = random.Random(29)
    low = IndexSubset.of(7, (1, 2, 3))
    top = IndexSubset.of(7, (5, 6, 7))
    x = subset_braid(top, low)
    for _ in range(50):
        alpha = BraidWord(3, tuple(rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(6)))
        beta = BraidWord(4, tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(6)))
        assert words_equal(x * split(alpha, beta), split(beta, alpha) * x)


def test_tau():
    assert words_equal(tau(sigma(5, 1)), sigma(5, 2))
    assert tau(BraidWord(4, ())) == BraidWord(4, ())

    x3 = permutation_braid(residue_perm(7, 3))
    d = induced_permutation(delta(7))
    conjugated = permutation_braid(compose(inverse(d), compose(residue_perm(7, 3), d)))
    assert words_equal(tau(x3), conjugated)

    # Signed words with every |g| <= n-2 take the letterwise path, negative
    # letters included.
    rng = random.Random(515)
    for _ in range(200):
        n = rng.randint(3, 9)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 2) for _ in range(rng.randint(1, 20))))
        assert words_equal(tau(w), delta(n).inverse() * w * delta(n)), w.letters


def test_left_normal_form_examples():
    nf = left_normal_form(BraidWord(3, (1, -1)))
    assert nf.delta_power == 0 and nf.factors == ()

    nf = left_normal_form(BraidWord(3, (1, 2, 1)))
    assert nf.delta_power == 1 and nf.factors == ()

    for n in range(3, 7):
        nf = left_normal_form(delta(n) ** n)
        assert nf.delta_power == 2 and nf.factors == ()


def test_normal_form_matches_letterwise_oracle():
    rng = random.Random(2024)
    words = [random_word(rng, rng.randint(2, 12), rng.randint(0, 80)) for _ in range(2000)]
    words += [random_word(rng, 14, 200) for _ in range(20)]
    # Whole half twists, their inverses and short signed runs interleaved, so a
    # negative run's Delta^-1 and a Delta formed by combing alternate in a word.
    for _ in range(300):
        n = rng.randint(3, 10)
        pieces = [half_twist(n), half_twist(n).inverse()]
        letters = []
        for _ in range(rng.randint(2, 8)):
            k = rng.randrange(3)
            letters += (pieces[k] if k < 2 else random_word(rng, n, rng.randint(1, 5))).letters
        words.append(BraidWord(n, tuple(letters)))
    # Wide braids: a 1-indexed image fits a byte up to n = 255, and past it the
    # comb keeps its factors as tuples.  Letters at both ends of the index
    # range reach the first and last images.
    for n in (255, 256, 257, 300):
        for _ in range(8):
            ends = (1, 2, n - 2, n - 1)
            letters = [rng.choice((1, -1)) * rng.choice((*ends, rng.randint(1, n - 1))) for _ in range(rng.randint(0, 12))]
            words.append(BraidWord(n, tuple(letters)))
    for w in words:
        nf, expected = left_normal_form(w), letterwise_normal_form(w)
        assert (nf.delta_power, nf.factors) == (expected.delta_power, expected.factors), w


def test_braid_word_names_its_first_bad_letter():
    n = 5
    for bad in (0, n, -n, n + 3, -(n + 3)):
        for letters in ((bad,), (1, -4, bad, 2), (4, bad, -(n + 7), 0)):
            with pytest.raises(ValueError, match=rf"^letter {bad} out of range for braid index {n}$"):
                BraidWord(n, letters)
    with pytest.raises(ValueError, match="^letter 1 out of range for braid index 1$"):
        BraidWord(1, (1,))
    with pytest.raises(ValueError, match="^braid index must be nonnegative$"):
        BraidWord(-1, ())
    assert BraidWord(n, (1, -1, 4, -4)).letters == (1, -1, 4, -4)
    assert BraidWord(0, ()).letters == BraidWord(1, ()).letters == ()


def test_normal_form_of_empty_words_and_b2():
    for n in range(0, 7):
        assert left_normal_form(BraidWord(n, ())) == NormalForm(n, 0, ())
    for k in range(-6, 7):
        w = sigma(2, 1) ** k
        assert left_normal_form(w) == NormalForm(2, k, ())
        assert len(_simple_runs(w)) == abs(k)
    w = BraidWord(2, (1, -1, -1, 1, 1, 1))
    assert left_normal_form(w) == NormalForm(2, 2, ())


def test_half_twists_are_single_runs():
    for n in (*range(2, 10), 257):
        assert _simple_runs(half_twist(n)) == [(False, list(range(n, 0, -1)))]
        assert _simple_runs(half_twist(n).inverse()) == [(True, list(range(n, 0, -1)))]
        assert left_normal_form(half_twist(n)) == NormalForm(n, 1, ())
        assert left_normal_form(half_twist(n).inverse()) == NormalForm(n, -1, ())
        assert left_normal_form(half_twist(n) ** 3) == NormalForm(n, 3, ())


def run_word(n, runs):
    """The word of the runs in order: a negative run is its permutation braid with every letter inverted."""
    letters = []
    for negative, im in runs:
        word = permutation_braid(tuple(im)).letters
        letters += [-g for g in word] if negative else word
    return BraidWord(n, tuple(letters))


def sliding_word(rng, n, length, cancel):
    """Letters g, then far letters that commute with g, then g^-1 when cancel: words whose letters slide."""
    letters = []
    while len(letters) < length:
        g = rng.choice((1, -1)) * rng.randint(1, n - 1)
        far = [rng.choice((1, -1)) * j for j in range(1, n) if abs(j - abs(g)) >= 2 and rng.random() < 0.3]
        letters += [g, *far, -g] if cancel else [g, *far]
    return BraidWord(n, tuple(letters))


def crossing_word(rng, n, length, shift=False):
    """Letters +-sigma_j, a signed permutation braid whose strands at i and i+1 start at j and j+1, +-sigma_i.

    j = i, so that the permutation fixes i and i+1, unless shift draws j at
    random: then a sigma_i that passes the braid goes on as sigma_j.
    """
    letters = []
    while len(letters) < length:
        i = rng.randint(1, n - 1)
        j = rng.randint(1, n - 1) if shift else i
        images = [k for k in range(1, n + 1) if k not in (j, j + 1)]
        rng.shuffle(images)
        images[i - 1 : i - 1] = [j, j + 1]
        sign = rng.choice((1, -1))
        middle = [sign * g for g in permutation_braid(tuple(images)).letters]
        letters += [rng.choice((1, -1)) * j, *middle, rng.choice((1, -1)) * i]
    return BraidWord(n, tuple(letters))


def test_letters_slide_past_commuting_runs_to_join_or_cancel():
    # sigma_2 slides past sigma_4^-1 into sigma_1's run, and sigma_5^-1 extends sigma_4^-1's.
    assert _simple_runs(BraidWord(6, (1, -4, 2, -5))) == [(False, [2, 3, 1, 4, 5, 6]), (True, [1, 2, 3, 5, 6, 4])]
    # sigma_1^-1 takes back sigma_1's crossing, which leaves the single run sigma_4.
    assert _simple_runs(BraidWord(5, (1, 4, -1))) == [(False, [1, 2, 3, 5, 4])]
    # A run stops the slide of sigma_i unless it has the other sign and its
    # strands at i and i+1 start adjacent, at j and j+1: then the letter goes
    # on as sigma_j.  sigma_3 passes sigma_3^-1 sigma_2^-1 as sigma_2 and joins sigma_1.
    assert len(_simple_runs(BraidWord(6, (1, -3, 4)))) == 3
    assert len(_simple_runs(BraidWord(6, (1, -3, -2, 3)))) == 2
    assert len(_simple_runs(BraidWord(6, (1, -2, 1)))) == 3
    assert len(_simple_runs(BraidWord(6, (2, -1, 3)))) == 2
    # sigma_2 passes sigma_2^-1 sigma_3^-1 as sigma_3 and joins sigma_1; in
    # (1, 2, -1) sigma_1^-1 passes the only run as sigma_2^-1 but finds no run
    # to join, so it starts a new run at the end as sigma_1^-1.
    w = BraidWord(4, (1, -2, -3, 2))
    assert _simple_runs(w) == [(False, [2, 1, 4, 3]), (True, [1, 3, 4, 2])]
    assert letterwise_normal_form(run_word(4, _simple_runs(w))) == letterwise_normal_form(w)
    w = BraidWord(3, (1, 2, -1))
    assert _simple_runs(w) == [(False, [2, 3, 1]), (True, [2, 1, 3])]
    assert letterwise_normal_form(run_word(3, _simple_runs(w))) == letterwise_normal_form(w)
    # Strand 2 of sigma_4 sigma_3 sigma_2 sigma_3 sigma_4 crosses strands 3
    # and 4, which it fixes, so sigma_3 still commutes with its mirror.
    mirror = tuple(-g for g in permutation_braid((1, 5, 3, 4, 2)).letters)
    assert mirror == (-4, -3, -2, -3, -4)
    w = BraidWord(5, (1, *mirror, 3))
    assert _simple_runs(w) == [(False, [2, 1, 4, 3, 5]), (True, [1, 5, 3, 4, 2])]
    assert letterwise_normal_form(run_word(5, _simple_runs(w))) == letterwise_normal_form(w)
    # sigma_1^-1 slides past the second run, sigma_3, and cancels in the first.
    assert _simple_runs(BraidWord(5, (1, 3, 3, -1))) == _simple_runs(BraidWord(5, (3, 3)))
    assert _simple_runs(BraidWord(7, (-1, -3, -5, -3, -5, 1, 5))) == _simple_runs(BraidWord(7, (-3, -5, -3)))


def test_one_sign_words_are_cut_into_maximal_runs():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 10)
        w = BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 60))))
        runs = []
        for g in w.letters:
            if not runs or runs[-1][g - 1] > runs[-1][g]:
                runs.append(list(range(1, n + 1)))
            runs[-1][g - 1], runs[-1][g] = runs[-1][g], runs[-1][g - 1]
        assert _simple_runs(w) == [(False, im) for im in runs], w.letters
        mirror = BraidWord(n, tuple(-g for g in w.letters))
        assert _simple_runs(mirror) == [(True, im) for im in runs], w.letters


def test_runs_multiply_to_the_word():
    # On random words and on words built to slide and cancel, the runs are
    # nonempty, their product has the word's normal form by the letterwise
    # oracle, and so has the word by the cutter and the combing together.
    rng = random.Random(4242)
    words = [random_word(rng, rng.randint(2, 12), rng.randint(0, 60)) for _ in range(200)]
    for k in range(600):
        words.append(sliding_word(rng, rng.randint(2, 14), rng.randint(0, 60), k % 2 == 0))
    words += [crossing_word(rng, rng.randint(2, 8), rng.randint(0, 60)) for _ in range(200)]
    words += [crossing_word(rng, rng.randint(2, 10), rng.randint(0, 60), shift=True) for _ in range(300)]
    for w in words:
        runs = _simple_runs(w)
        assert all(im != list(range(1, w.n + 1)) for _, im in runs), w.letters
        expected = letterwise_normal_form(w)
        assert letterwise_normal_form(run_word(w.n, runs)) == expected == left_normal_form(w), w.letters


def test_a_run_emptied_by_cancellation_counts_zero_toward_the_delta_power():
    # The negative runs sigma_1^-1 sigma_3^-1, sigma_3^-1 and Delta^-1 are
    # emptied by the letters after them and dropped, so their Delta^-1 is
    # never counted.
    assert _simple_runs(BraidWord(4, (-1, -3, 3, 1))) == []
    assert left_normal_form(BraidWord(4, (-1, -3, 3, 1))) == NormalForm(4, 0, ())
    w = BraidWord(5, (1, 1, -3, 3, 1))
    assert _simple_runs(w) == [(False, [2, 1, 3, 4, 5])] * 3
    assert left_normal_form(w) == left_normal_form(BraidWord(5, (1, 1, 1))) == letterwise_normal_form(w)
    assert left_normal_form(w).delta_power == 0
    for n in range(2, 8):
        undo = half_twist(n).inverse()
        assert _simple_runs(undo * half_twist(n)) == []
        assert left_normal_form(undo * half_twist(n)) == NormalForm(n, 0, ())
        w = half_twist(n) * undo * half_twist(n)
        assert left_normal_form(w) == NormalForm(n, 1, ())


def test_normal_form_of_negative_delta_powers():
    for n in range(2, 8):
        for k in range(0, 2 * n + 2):
            nf = left_normal_form(delta(n) ** -k)
            assert nf == letterwise_normal_form(delta(n) ** -k), (n, k)
            trivial = left_normal_form(delta(n) ** k * delta(n) ** -k)
            assert trivial.delta_power == 0 and not trivial.factors
            if k % n == 0:
                assert nf == NormalForm(n, -2 * (k // n), ()), (n, k)


def prefix_split(rng, p):
    """Permutations u, v with u v = p and their crossings adding up: p's permutation braid cut at random."""
    letters = permutation_braid(p).letters
    k = rng.randint(0, len(letters))
    return induced_permutation(BraidWord(len(p), letters[:k])), induced_permutation(BraidWord(len(p), letters[k:]))


def test_left_weight_matches_one_slide_oracle():
    # The comb's insertion pass gives the same pair as sliding one crossing at
    # a time: combing the positive runs f and g in gives Delta^p F G, where
    # (F, G) is the oracle's pair with Delta and the identity taken out.  The
    # pairs are 400 random ones per n, then, per n, 100 where f fills up to
    # Delta (f = Delta u^-1, g = u v) and 100 where g empties into f (f g = p).
    rng, built = random.Random(29), random.Random(31)
    for n in range(2, 17):
        e, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
        pairs = [(random_permutation(rng, n), random_permutation(rng, n)) for _ in range(400)]
        filled = emptied = 0
        for _ in range(100):
            u, v = prefix_split(built, random_permutation(built, n))
            pairs.append((compose(w0, inverse(u)), compose(u, v)))
            pairs.append(prefix_split(built, random_permutation(built, n)))
        for f, g in pairs:
            f2, g2 = _letterwise_left_weight(f, g, n)
            nf = _comb(n, [(False, list(f)), (False, list(g))])
            power = (f2 == w0) + (g2 == w0)
            proper = tuple(h for h in (f2, g2) if h not in (e, w0))
            assert (nf.delta_power, nf.factors) == (power, proper), (f, g)
            assert compose(f2, g2) == compose(f, g)
            assert _letterwise_left_weight(f2, g2, n)[0] == f2
            filled += f2 == w0 and g2 != w0
            emptied += f2 != w0 and g2 == e
            # NormalForm's slide test agrees with the pass on which pairs are
            # left-weighted already.
            if f not in (e, w0) and g not in (e, w0):
                if f2 == f:
                    assert NormalForm(n, 0, (f, g)).factors == (f, g)
                else:
                    with pytest.raises(ValueError, match="^normal form factors are not left-weighted$"):
                        NormalForm(n, 0, (f, g))
        assert filled >= 100 and emptied >= 100, n


def test_a_delta_formed_mid_list_conjugates_the_factors_after_it():
    # The last letter sigma_i^-1 enters as the nearly full factor sigma_i^-1
    # Delta, then Delta^-1.  Combing it in fills the factor at index 2 up to
    # Delta, which is deleted and cancels that Delta^-1: the delta power and
    # the factors before index 2 come out as without the letter, the factor
    # at index 2 does not.  The Delta is carried to the right end, so the
    # factors after it are conjugated (sigma_i -> sigma_{n-i}): in B_4 the
    # three from index 2 on, in B_5 the two.  Delta-conjugation moves each
    # factor before index 2, so conjugating those instead would show.
    for n, letters, length in ((4, (-1, 3, -1, -1, 3, -2), 5), (5, (-1, -1, -1, 3, -2), 4)):
        w = BraidWord(n, letters)
        before, after = left_normal_form(BraidWord(n, letters[:-1])), left_normal_form(w)
        assert after.canonical_length() == length
        assert after.delta_power == before.delta_power
        assert after.factors[:2] == before.factors[:2] and after.factors[2] != before.factors[2]
        assert after == letterwise_normal_form(w)
        w0 = tuple(range(n, 0, -1))
        assert all(compose(w0, compose(f, w0)) != f for f in after.factors[:2])
        # Runs enter after it conjugated while the power is odd, and the end
        # conjugates every factor when it is.
        for tail in ((1,), (-1,), (2, -3, 1), (-2, -2, 3)):
            longer = BraidWord(n, letters + tail)
            assert left_normal_form(longer) == letterwise_normal_form(longer), longer.letters


def deltas_formed_by_combing(w, nf):
    """The power, plus one per negative run's Delta^-1, less the positive runs that are Delta already."""
    w0 = list(range(w.n, 0, -1))
    return nf.delta_power + sum(1 if negative else -(im == w0) for negative, im in _simple_runs(w))


def test_normal_form_matches_letterwise_oracle_where_combing_forms_many_deltas():
    # In a balanced signed word each negative run enters as a nearly full
    # factor, which combing often fills up to Delta anywhere in the factor
    # list, so a Delta formed amid the list conjugates the factors after it
    # many times within one word.
    rng = random.Random(1313)
    formed = 0
    for _ in range(300):
        n = rng.randint(2, 14)
        w = random_word(rng, n, 120)
        nf = left_normal_form(w)
        assert nf == letterwise_normal_form(w), w.letters
        formed += deltas_formed_by_combing(w, nf)
    assert formed > 1500
    # Past 255 strands the comb keeps tuples.
    rng = random.Random(257)
    for n in (257, 300):
        w = wide_signed_word(rng, n)
        nf = left_normal_form(w)
        assert nf == letterwise_normal_form(w), w.letters
        assert deltas_formed_by_combing(w, nf) >= 2, n


def wide_signed_word(rng, n):
    """A signed word of 60-80 letters in B_n, n > 255, its letters biased to both ends of the index range.

    Letters at both ends meet their mirrors sigma_{n-i} there, so combing forms Delta.
    """
    ends = (1, 2, n - 2, n - 1)
    letters = [rng.choice((1, -1)) * rng.choice((*ends, rng.randint(1, n - 1))) for _ in range(rng.randint(60, 80))]
    return BraidWord(n, tuple(letters))


def test_tuple_comb_keeps_the_normal_form_under_relations_and_inverses():
    # The letterwise oracle takes 0.8-1.9 s per such word, too slow for more than
    # one per n: these words check the tuple comb against braid relation
    # moves, a free insertion g g^-1 and the word times its inverse instead.
    rng = random.Random(300)
    for n in (257, 300):
        for _ in range(4):
            w = wide_signed_word(rng, n)
            nf = left_normal_form(w)
            assert deltas_formed_by_combing(w, nf) > 0, w.letters
            v = w
            for _ in range(5):
                v = _rewrite_once(rng, v)
            spot = rng.randint(0, len(v.letters))
            g = rng.choice((1, -1)) * rng.randint(1, n - 1)
            v = BraidWord(n, v.letters[:spot] + (g, -g) + v.letters[spot:])
            assert left_normal_form(v) == nf, w.letters
            trivial = left_normal_form(w * w.inverse())
            assert trivial.delta_power == 0 and not trivial.factors, w.letters


def test_normal_form_rejects_factors_of_another_degree_and_negative_indices():
    for factors in (((2, 1),), ((2, 1),) * 2, ((1, 2, 4, 3),)):
        with pytest.raises(ValueError, match="^factor of degree [24] in a normal form of braid index 3$"):
            NormalForm(3, 0, factors)
    with pytest.raises(ValueError, match="^braid index must be nonnegative$"):
        NormalForm(-1, 0, ())
    # Each factor must be a permutation, once its degree is right.
    for factors, message in (
        (((1, 1, 2),), "not a permutation of 1..3: (1, 1, 2)"),
        (((2, 1, 3), (3, 3, 1)), "not a permutation of 1..3: (3, 3, 1)"),
        (((1, 1),), "factor of degree 2 in a normal form of braid index 3"),
    ):
        with pytest.raises(ValueError) as caught:
            NormalForm(3, 0, factors)
        assert str(caught.value) == message
    with pytest.raises(ValueError, match="^normal form factors are not left-weighted$"):
        NormalForm(3, 0, ((2, 1, 3), (1, 3, 2)))
    assert NormalForm(3, 0, ((2, 3, 1), (1, 3, 2))).canonical_length() == 2
    assert NormalForm(0, 5, ()).delta_power == 5


def test_words_equal_examples():
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert not words_equal(sigma(3, 1), sigma(3, 2))
    u_all = band_product(5, (2, 3, 4, 5))
    assert words_equal(u_all, half_twist(5) ** 2)
    with pytest.raises(ValueError, match="index mismatch"):
        words_equal(sigma(3, 1), sigma(4, 1))


def test_normal_form_of_inverse_pairs():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(2, 8)
        w = BraidWord(
            n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 20)))
        )
        trivial = left_normal_form(w * w.inverse())
        assert trivial.delta_power == 0 and not trivial.factors


def test_words_equal_matches_bfs_oracle_small():
    from oracles import positive_words_agree_with_bfs

    for n in (3, 4):
        for length in range(1, 5):
            positive_words_agree_with_bfs(n, length)


def test_normal_form_reconstruction_roundtrip():
    rng = random.Random(83)
    for _ in range(100):
        n = rng.randint(2, 9)
        w = BraidWord(
            n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 25)))
        )
        nf = left_normal_form(w)
        rebuilt = half_twist(n) ** nf.delta_power
        for f in nf.factors:
            rebuilt = rebuilt * permutation_braid(f)
        assert words_equal(w, rebuilt)
        assert left_normal_form(rebuilt) == nf


def test_equal_words_from_long_rewrite_chains():
    # Random chains of relation moves and free insertions build a visibly
    # different word for the same element; a trailing extra letter breaks it.
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(3, 7)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 15))]
        derived = list(letters)
        for _ in range(50):
            move = rng.random()
            if move < 0.3:
                spot = rng.randint(0, len(derived))
                g = rng.choice((1, -1)) * rng.randint(1, n - 1)
                derived[spot:spot] = [g, -g]
            elif move < 0.6 and len(derived) >= 2:
                i = rng.randrange(len(derived) - 1)
                a, b = derived[i], derived[i + 1]
                if abs(abs(a) - abs(b)) >= 2:
                    derived[i], derived[i + 1] = b, a
            elif len(derived) >= 3:
                i = rng.randrange(len(derived) - 2)
                a, b, c = derived[i : i + 3]
                if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                    derived[i : i + 3] = [b, a, b]
        w = BraidWord(n, tuple(letters))
        v = BraidWord(n, tuple(derived))
        assert words_equal(w, v)
        assert not words_equal(w, v * sigma(n, rng.randint(1, n - 1)))


def test_decompose_permutation_braid_examples():
    p = (6, 2, 4, 7, 3, 1, 5)
    p1, p2, a = decompose_permutation_braid(p, 3)
    assert a.members == (2, 5, 6)
    assert words_equal(p1, BraidWord(3, (1, 2)))
    assert words_equal(p2, BraidWord(4, (2, 3, 1)))
    low = IndexSubset.of(7, (1, 2, 3))
    assert words_equal(permutation_braid(p), split(p1, p2) * subset_braid(low, a))

    p1, p2, a = decompose_permutation_braid(identity(6), 4)
    assert p1.letters == () and p2.letters == () and a.members == (1, 2, 3, 4)

    _, _, a = decompose_permutation_braid(residue_perm(7, 3), 2)
    assert a.members == (3, 5)


def test_decompose_permutation_braid_full_range():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(2, 9)
        p = random_permutation(rng, n)
        k = rng.randint(1, n)
        p1, p2, a = decompose_permutation_braid(p, k)
        low = IndexSubset.of(n, range(1, k + 1))
        assert words_equal(permutation_braid(p), split(p1, p2) * subset_braid(low, a))


def test_conjugacy_witnesses():
    w = torus_conjugacy_witness(7, 10)
    tail = round_trip(7, 3).letters + round_trip(7, 5).letters
    assert w.verified and w.rhs.letters[-len(tail) :] == tail

    w = torus_conjugacy_witness(7, 13)
    tail = tuple(
        g for k in (2, 3, 4, 5, 6) for g in round_trip(7, k).letters
    )
    assert w.verified and w.rhs.letters[-len(tail) :] == tail

    w = torus_conjugacy_witness(5, 6)
    assert w.verified and w.conjugator.letters == ()
    expected = delta(5) * band_product(5, (2, 3, 4, 5))
    assert w.rhs == expected

    assert torus_conjugacy_witness(7, 3).verified
    # T(5, 4) = T(4, 5): a power below the braid index is a valid pair.
    assert torus_conjugacy_witness(5, 4).verified

    for n, k in ((4, 6), (5, 5)):
        with pytest.raises(ValueError, match="^not coprime$"):
            torus_conjugacy_witness(n, k)
    # The message names the arguments as given, not sorted.
    for n, k in ((7, 1), (1, 7), (3, -2)):
        with pytest.raises(ValueError, match=f"^need n, k >= 2, got n={n}, k={k}$"):
            torus_conjugacy_witness(n, k)


@pytest.mark.parametrize("n, k", [(300, 7), (257, 3)])
def test_witness_past_a_byte_of_strands(n, k):
    # Past 255 strands an image no longer fits a byte, so the comb runs on tuples.
    w = torus_conjugacy_witness(n, k)
    assert w.verified
    assert w.conjugator == permutation_braid(residue_perm(n, k))
    assert w.rhs.letters == delta(n).letters + band_product(n, band_indices(n, k)).letters


def test_delta_to_the_n_is_a_central_delta_squared():
    # Garside: delta^n = Delta^2, which the witness counts instead of combing.
    for n in range(2, 41):
        assert left_normal_form(delta(n) ** n) == NormalForm(n, 2, ()), n


@pytest.mark.parametrize("n, k", [(5, 4), (7, 3), (5, 7), (7, 10), (3, 100), (7, 50)])
def test_witness_counts_delta_squared_exactly(n, k):
    # m = 0 (k < n), m = 1, and m >= 5: the normal form of conj^-1 delta^r conj
    # with 2m added to its Delta-power is that of the whole word conj^-1 delta^k conj.
    m, r = divmod(k, n)
    w = torus_conjugacy_witness(n, k)
    conj = w.conjugator
    short = left_normal_form(conj.inverse() * delta(n) ** r * conj)
    whole = left_normal_form(conj.inverse() * delta(n) ** k * conj)
    assert NormalForm(n, short.delta_power + 2 * m, short.factors) == whole
    assert w.verified and left_normal_form(w.rhs) == whole


@pytest.mark.parametrize("n, k", [(5, 4), (7, 10), (3, 100), (7, 50)])
def test_witness_rejects_a_wrong_band_form(monkeypatch, n, k):
    band = braid.conjugate_band_braid(n, k)
    # One extra (U_2...U_n) block: the band form of k + n, off by exactly Delta^2.
    extra = delta(n) * band_product(n, list(range(2, n + 1)) + band_indices(n, k))
    assert extra == braid.conjugate_band_braid(n, k + n)
    nf = left_normal_form(band)
    assert left_normal_form(extra) == NormalForm(n, nf.delta_power + 2, nf.factors)
    # One letter's sign flipped.
    letters = list(band.letters)
    letters[len(letters) // 2] *= -1
    flipped = BraidWord(n, tuple(letters))
    for wrong in (extra, flipped):
        monkeypatch.setattr(braid, "conjugate_band_braid", lambda n_, k_, wrong=wrong: wrong)
        w = torus_conjugacy_witness(n, k)
        assert w.rhs == wrong and w.verified is False, (n, k)


def test_the_full_twist_block_is_delta_squared():
    # U_2...U_n, the block the band form repeats m times, is Delta^2 with no
    # factors: the witness checks this once for all m blocks.
    for n in range(2, 41):
        twist = band_product(n, range(2, n + 1))
        assert conjugate_band_braid(n, n + 1) == delta(n) * twist, n
        assert left_normal_form(twist) == NormalForm(n, 2, ()), n


def _band_form_with(n, twists, bands):
    """delta, then the given twist blocks, then U_b for each b in bands."""
    return BraidWord(n, delta(n).letters + tuple(g for block in twists for g in block) + band_product(n, bands).letters)


@pytest.mark.parametrize("n, k", [(5, 7), (7, 10), (5, 12), (3, 100), (7, 50), (17, 40)])
def test_witness_rejects_a_wrong_full_twist(monkeypatch, n, k):
    m, r = divmod(k, n)
    twist = band_product(n, range(2, n + 1)).letters
    bands = band_indices(n, r)
    assert braid.conjugate_band_braid(n, k) == _band_form_with(n, [twist] * m, bands)
    wrong = {
        # Every block one letter short: the twist word loses its last letter.
        "short": _band_form_with(n, [twist[:-1]] * m, bands),
        # Every block with its last letter s_(n-1) made s_(n-2): the blocks
        # still agree, but none is Delta^2.
        "changed": _band_form_with(n, [twist[:-1] + (n - 2,)] * m, bands),
    }
    if m >= 2:
        # The second block one letter short, the first whole.
        wrong["second short"] = _band_form_with(n, [twist, twist[:-1]] + [twist] * (m - 2), bands)
    for name, word in wrong.items():
        monkeypatch.setattr(braid, "conjugate_band_braid", lambda n_, k_, word=word: word)
        w = torus_conjugacy_witness(n, k)
        assert w.rhs == word and w.verified is False, (n, k, name)


@pytest.mark.parametrize("n, k", [(5, 4), (7, 3), (5, 7), (7, 10), (5, 12), (3, 100), (7, 50), (17, 40)])
def test_witness_rejects_a_tail_one_band_off(monkeypatch, n, k):
    m = k // n
    good = band_indices(n, k)
    twists, bands = good[: m * (n - 1)], good[m * (n - 1) :]
    wrong = {"extra": bands + [2]}
    if bands:
        wrong["dropped"] = bands[:-1]
        wrong["moved"] = [bands[0] + 1 if bands[0] < n else bands[0] - 1] + bands[1:]
    for name, tail in wrong.items():
        monkeypatch.setattr(braid, "band_indices", lambda n_, k_, tail=tail: twists + tail)
        w = torus_conjugacy_witness(n, k)
        assert w.rhs == delta(n) * band_product(n, twists + tail) and w.verified is False, (n, k, name)


def test_delta_power_factorization_exhaustive():
    # delta^k = X_{T,L} (Delta_k^2 stacked under the identity), all 2 <= k <= n <= 9
    for n in range(2, 10):
        for k in range(2, n + 1):
            low = IndexSubset.of(n, range(1, k + 1))
            top = IndexSubset.of(n, range(n - k + 1, n + 1))
            twist = split(half_twist(k) ** 2, BraidWord(n - k, ()))
            assert words_equal(delta(n) ** k, subset_braid(top, low) * twist), (n, k)


def test_residue_commutator_is_pure_up_to_12():
    for n in range(3, 13):
        for k in range(2, n):
            if math.gcd(n, k) != 1:
                continue
            x = permutation_braid(residue_perm(n, k))
            alpha = tau(x).inverse() * delta(n) ** (k - 1) * x
            assert induced_permutation(alpha) == identity(n), (n, k)


def test_residue_permutation_lemmas():
    # For each coprime 2 <= k < n <= 9 (19 pairs): the subset that splits the
    # residue permutation braid at k-1 strands is the band index set, and
    # tau(X)^-1 delta^(k-1) X is a pure braid.
    checks = 0
    for n in range(3, 10):
        for k in range(2, n):
            if math.gcd(n, k) != 1:
                continue
            pk = residue_perm(n, k)
            _, _, a_found = decompose_permutation_braid(pk, k - 1)
            assert list(a_found.members) == band_indices(n, k), (n, k)
            xk = permutation_braid(pk)
            alpha = tau(xk).inverse() * delta(n) ** (k - 1) * xk
            assert induced_permutation(alpha) == identity(n), (n, k)
            checks += 2
    assert checks == 38


def test_residue_conjugacy_suite_up_to_9():
    suite = suite_residue_conjugacy(9)
    assert suite.cases == 65 and suite.passed, suite.failures[:3]


def test_parse_and_format():
    w = parse_word(4, "s1 s2^-1 s1")
    assert w.letters == (1, -2, 1)
    assert format_word(w) == "s1 s2^-1 s1"
    assert format_word(BraidWord(3, ())) == "<empty>"
    with pytest.raises(ValueError, match="^letter 9 out of range for braid index 3$"):
        parse_word(3, "s9")
    with pytest.raises(ValueError):
        parse_word(3, "x1")
