import math
import random
import time

import pytest

from oracles import burau_generator, to_planar_diagram, wirtinger_alexander
from petalgrid.braid import BraidWord, conjugate_band_braid, delta, sigma
from petalgrid.grid import GridDiagram, build_petal_grid
from petalgrid.invariants import (
    LaurentPolynomial,
    alexander_from_closure,
    alexander_from_grid,
    bareiss_determinant,
    certify,
    equal_up_to_units,
    reduced_burau,
    torus_alexander,
)
from petalgrid.petal import PetalPermutation, synthesize

T = LaurentPolynomial.term(1, 1)
ONE = LaurentPolynomial.one()


def poly(*pairs):
    out = LaurentPolynomial.zero()
    for coeff, exp in pairs:
        out = out + LaurentPolynomial.term(coeff, exp)
    return out


def random_laurent(rng, max_terms=4, max_exp=3, max_coeff=5):
    out = LaurentPolynomial.zero()
    for _ in range(rng.randint(0, max_terms)):
        out = out + LaurentPolynomial.term(
            rng.randint(-max_coeff, max_coeff), rng.randint(-max_exp, max_exp)
        )
    return out


def test_laurent_arithmetic():
    assert (T - ONE) * (T + ONE) == poly((1, 2), (-1, 0))
    assert poly((1, 2), (-1, 0)).divide_exact(T - ONE) == T + ONE
    assert (T * T - T + ONE).coeffs == (1, -1, 1)
    assert poly((1, -1), (2, 3)) * T == poly((1, 0), (2, 4))


def test_laurent_ring_axioms_randomized():
    rng = random.Random(99)
    for _ in range(200):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a * b).divide_exact(b) == a


def test_divide_exact_errors():
    with pytest.raises(ValueError, match="not divisible"):
        (T + ONE).divide_exact(T - ONE)
    with pytest.raises(ValueError, match="not divisible"):
        LaurentPolynomial.term(3).divide_exact(LaurentPolynomial.term(2))
    with pytest.raises(ZeroDivisionError):
        ONE.divide_exact(LaurentPolynomial.zero())


def test_normalize_up_to_units():
    p = poly((-1, -1), (1, 0), (-1, 1))  # -t^-1 + 1 - t
    assert p.normalize_up_to_units() == poly((1, 0), (-1, 1), (1, 2))
    assert str(p.normalize_up_to_units()) == "t^2 - t + 1"


def test_substitute_inverse_palindrome():
    # Symmetry under t -> 1/t, read on the normalized coefficients.
    p = poly((-1, -1), (1, 0), (-1, 1)).normalize_up_to_units()
    assert p.coeffs == p.coeffs[::-1]
    q = poly((2, 1), (1, 0)).normalize_up_to_units()
    assert q.coeffs != q.coeffs[::-1]


def test_pretty_printing():
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(poly((2, 3), (-1, 0))) == "2*t^3 - 1"
    assert str(poly((1, -2), (1, 1))) == "t + t^-2"


def test_torus_alexander():
    assert torus_alexander(2, 3) == poly((1, 0), (-1, 1), (1, 2))
    assert torus_alexander(2, 5) == poly((1, 0), (-1, 1), (1, 2), (-1, 3), (1, 4))
    with pytest.raises(ValueError, match="not coprime"):
        torus_alexander(4, 6)
    for n in range(2, 12):
        for s in range(n + 1, 13):
            if math.gcd(n, s) != 1:
                continue
            p = torus_alexander(n, s)
            assert p.max_exp == (n - 1) * (s - 1)
            assert abs(sum(p.coeffs)) == 1
            assert p.coeffs == p.coeffs[::-1]


def test_bareiss_matches_cofactor_expansion():
    from oracles import naive_cofactor_det

    rng = random.Random(77)
    for _ in range(100):
        size = 5
        m = [[random_laurent(rng, 2, 2, 3) for _ in range(size)] for _ in range(size)]
        got = bareiss_determinant(m).normalize_up_to_units()
        want = naive_cofactor_det(m).normalize_up_to_units()
        assert got == want

    with pytest.raises(TimeoutError):
        bareiss_determinant(m, deadline=time.monotonic() - 1)


def test_alexander_from_grid_examples():
    unknot = build_petal_grid(PetalPermutation((2, 3, 1)))
    assert alexander_from_grid(unknot) == ONE
    assert wirtinger_alexander(to_planar_diagram(unknot)) == ONE

    trefoil = build_petal_grid(PetalPermutation((3, 5, 2, 4, 1)))
    assert alexander_from_grid(trefoil) == torus_alexander(2, 3)
    assert wirtinger_alexander(to_planar_diagram(trefoil)) == torus_alexander(2, 3)

    grid34 = build_petal_grid(synthesize(3, 4))
    assert equal_up_to_units(alexander_from_grid(grid34), torus_alexander(3, 4))
    assert equal_up_to_units(wirtinger_alexander(to_planar_diagram(grid34)), torus_alexander(3, 4))


def test_alexander_from_grid_matches_wirtinger_oracle():
    rng = random.Random(303)
    for _ in range(300):
        p = rng.choice(range(3, 16, 2))
        entries = list(range(1, p + 1))
        rng.shuffle(entries)
        grid = build_petal_grid(PetalPermutation(tuple(entries)))
        assert alexander_from_grid(grid) == wirtinger_alexander(to_planar_diagram(grid)), entries


def test_alexander_from_grid_rejects_links():
    # Two disjoint 2x2 squares: a two-component unlink.
    nodes = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4))
    link = GridDiagram(
        4, nodes, ((0, 2), (1, 3), (4, 6), (5, 7)), ((0, 1), (2, 3), (4, 5), (6, 7)), (0, 1, 3, 2)
    )
    with pytest.raises(ValueError, match="not a knot"):
        alexander_from_grid(link)


def test_reduced_burau():
    m = reduced_burau(sigma(2, 1))
    assert len(m) == 1 and m[0][0] == -T

    ident = reduced_burau(BraidWord.identity(4))
    for i in range(3):
        for j in range(3):
            assert ident[i][j] == (ONE if i == j else LaurentPolynomial.zero())


def test_reduced_burau_generators_match_written_out_matrices():
    for n in range(2, 7):
        for i in range(1, n):
            for g in (i, -i):
                assert reduced_burau(BraidWord(n, (g,))) == burau_generator(n, g), (n, g)


def test_reduced_burau_homomorphism():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(2, 6)
        mk = lambda: BraidWord(
            n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
        )
        w1, w2 = mk(), mk()
        lhs = reduced_burau(w1 * w2)
        prod = reduced_burau(w1)
        rhs_m = reduced_burau(w2)
        size = n - 1
        for i in range(size):
            for j in range(size):
                acc = LaurentPolynomial.zero()
                for k in range(size):
                    acc = acc + prod[i][k] * rhs_m[k][j]
                assert acc == lhs[i][j]


def test_alexander_from_closure():
    assert alexander_from_closure(BraidWord(2, (1, 1, 1))) == torus_alexander(2, 3)
    for n, s in ((2, 5), (3, 4), (3, 5), (4, 5)):
        got = alexander_from_closure(delta(n) ** s)
        assert equal_up_to_units(got, torus_alexander(n, s))

    band = conjugate_band_braid(5, 7)
    assert equal_up_to_units(alexander_from_closure(band), torus_alexander(5, 7))

    with pytest.raises(ValueError, match="multiple components"):
        alexander_from_closure(BraidWord(3, (1,)))  # closure is a 2-component link


def test_alexander_mirror_invariance():
    word = BraidWord(3, (1, 1, 2, -1, 2, 2))
    mirror = BraidWord(3, tuple(-g for g in word.letters))
    a = alexander_from_closure(word)
    assert equal_up_to_units(a, alexander_from_closure(mirror))
    assert abs(sum(a.coeffs)) == 1


def test_every_three_petal_permutation_is_the_unknot():
    import itertools

    for entries in itertools.permutations((1, 2, 3)):
        grid = build_petal_grid(PetalPermutation(entries))
        assert alexander_from_grid(grid) == ONE, entries
        assert wirtinger_alexander(to_planar_diagram(grid)) == ONE, entries


def test_random_petal_knots_have_symmetric_alexander():
    rng = random.Random(111)
    for _ in range(30):
        p = rng.choice((5, 7, 9, 11, 13))
        entries = list(range(1, p + 1))
        rng.shuffle(entries)
        a = alexander_from_grid(build_petal_grid(PetalPermutation(tuple(entries))))
        assert a.coeffs == a.coeffs[::-1]
        assert abs(sum(a.coeffs)) == 1


def test_band_insertion_closures_match_grids():
    # Stabilizing the base permutation along a descending band multiset gives
    # the closure of (full twist) * delta * (band product); the two Alexander
    # pipelines must agree even though these closures are rarely torus knots.
    from petalgrid.braid import half_twist, round_trip
    from petalgrid.petal import base_petal, stabilize

    rng = random.Random(202)
    for _ in range(20):
        n = rng.randint(2, 5)
        ks = sorted((rng.randint(2, n) for _ in range(rng.randint(1, 3))), reverse=True)
        pp = base_petal(n)
        braid = half_twist(n) ** 2 * delta(n)
        for k in ks:
            pp = stabilize(pp, k)
            braid = braid * round_trip(n, k)
        from_grid = alexander_from_grid(build_petal_grid(pp))
        assert equal_up_to_units(from_grid, alexander_from_closure(braid)), (n, ks)


def test_certify_report():
    report = certify(2, 3)
    assert report["all_match"] and report["length"] == 5

    report = certify(5, 7)
    assert report["all_match"] and report["length"] == 13 == report["bound"]

    report = certify(5, 9)
    assert report["all_match"] and report["length"] == 17
