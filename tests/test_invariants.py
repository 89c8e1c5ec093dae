import ast
import importlib
import math
import random
import sys
from pathlib import Path

import pytest

from oracles import (
    Laurent,
    burau_generator,
    fraction_free_det,
    naive_cofactor_det,
    reduced_burau_by_columns,
    to_planar_diagram,
    torus_alexander_by_quotient,
    unit_pivot_remainder_by_dicts,
    winding_number_matrix,
    wirtinger_alexander,
)
from petalgrid import invariants, packed
from petalgrid.braid import BraidWord, conjugate_band_braid, delta, induced_permutation, left_normal_form, sigma
from petalgrid.grid import GridDiagram, build_petal_grid
from petalgrid.invariants import (
    LaurentPolynomial,
    alexander_from_closure,
    alexander_from_grid,
    certify,
    equal_up_to_units,
    torus_alexander,
)
from petalgrid.petal import PetalPermutation, synthesize

# The polynomials the tests build and compute on are the oracles' Laurent,
# which compares equal with a LaurentPolynomial of the same fields.
T = Laurent.term(1, 1)
ONE = Laurent.one()


def poly(*pairs):
    out = Laurent.zero()
    for coeff, exp in pairs:
        out = out + Laurent.term(coeff, exp)
    return out


def as_library(p):
    """The library's LaurentPolynomial with the fields of p."""
    return LaurentPolynomial(p.min_exp, p.coeffs)


def power(base, e):
    out = ONE
    for _ in range(e):
        out = out * base
    return out


def random_laurent(rng, max_terms=4, max_exp=3, max_coeff=5):
    out = Laurent.zero()
    for _ in range(rng.randint(0, max_terms)):
        out = out + Laurent.term(
            rng.randint(-max_coeff, max_coeff), rng.randint(-max_exp, max_exp)
        )
    return out


# --- The oracles' ring -------------------------------------------------------


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
        Laurent.term(3).divide_exact(Laurent.term(2))
    with pytest.raises(ZeroDivisionError):
        ONE.divide_exact(Laurent.zero())


def dense_divide(num, den):
    """Long division over every divisor coefficient, zeros included; None if not exact."""
    rem, div = list(num.coeffs), den.coeffs
    if len(rem) < len(div):
        return None
    out = [0] * (len(rem) - len(div) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[k + len(div) - 1], div[-1])
        if r:
            return None
        out[k] = q
        for j, d in enumerate(div):
            rem[k + j] -= q * d
    if any(rem):
        return None
    return Laurent.from_coeffs(num.min_exp - den.min_exp, out)


def test_divide_exact_sparse_and_dense_divisors():
    # divide_exact skips the divisor's zero coefficients; the quotient, and
    # whether it raises, must be those of division over every coefficient.
    rng = random.Random(5)
    sparse = [power(T, k) - ONE for k in (1, 2, 5, 11)]
    sparse += [(power(T, 3) - ONE) * (power(T, 7) - ONE), power(T, 6) + Laurent.term(3, -2)]
    dense = [random_laurent(rng, max_terms=8, max_exp=4) for _ in range(12)]
    for den in sparse + dense:
        if den.is_zero():
            continue
        for _ in range(20):
            num = random_laurent(rng, max_terms=6, max_exp=6) * den
            if rng.random() < 0.5:
                num = num + random_laurent(rng, max_terms=2, max_exp=8)
            expected = dense_divide(num, den) if not num.is_zero() else num
            if expected is None:
                with pytest.raises(ValueError, match="^not divisible$"):
                    num.divide_exact(den)
            else:
                assert num.divide_exact(den) == expected
    assert sum(den.coeffs.count(0) > 0 for den in sparse) == len(sparse) - 1  # t - 1 has none


# --- The library's LaurentPolynomial and the torus closed form ----------------


def test_normalize_up_to_units():
    p = as_library(poly((-1, -1), (1, 0), (-1, 1)))  # -t^-1 + 1 - t
    assert p.normalize_up_to_units() == poly((1, 0), (-1, 1), (1, 2))
    assert str(p.normalize_up_to_units()) == "t^2 - t + 1"


def test_substitute_inverse_palindrome():
    # Symmetry under t -> 1/t, read on the normalized coefficients.
    p = as_library(poly((-1, -1), (1, 0), (-1, 1))).normalize_up_to_units()
    assert p.coeffs == p.coeffs[::-1]
    q = as_library(poly((2, 1), (1, 0))).normalize_up_to_units()
    assert q.coeffs != q.coeffs[::-1]


def test_pretty_printing():
    assert str(LaurentPolynomial.from_coeffs(0, [])) == "0"
    assert str(as_library(poly((2, 3), (-1, 0)))) == "2*t^3 - 1"
    assert str(as_library(poly((1, -2), (1, 1)))) == "t + t^-2"


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
            assert p.min_exp + len(p.coeffs) - 1 == (n - 1) * (s - 1)
            assert abs(sum(p.coeffs)) == 1
            assert p.coeffs == p.coeffs[::-1]


def test_torus_alexander_matches_the_quotient():
    # The semigroup form against the division it replaced, on every coprime
    # pair with 2 <= n < 30 and n < s < 80.
    pairs = [(n, s) for n in range(2, 30) for s in range(n + 1, 80) if math.gcd(n, s) == 1]
    assert len(pairs) == 1095
    for n, s in pairs:
        assert torus_alexander(n, s) == torus_alexander_by_quotient(n, s), (n, s)


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(77)
    for size in range(7):
        for trial in range(40 if size < 6 else 8):
            # Three ranges of exponent (negative ones included) and coefficient.
            max_exp, max_coeff = ((2, 3), (4, 10**6), (3, 40))[trial % 3]
            m = [[random_laurent(rng, 3, max_exp, max_coeff) for _ in range(size)] for _ in range(size)]
            if size >= 2 and trial % 4 == 1:
                m[-1] = list(m[0])  # a repeated row: singular
            if size >= 2 and trial % 4 == 2:
                m[0][0] = Laurent.zero()  # the first pivot needs a row swap
            got = packed_det(m)
            assert got == naive_cofactor_det(m) == fraction_free_det(m), (size, trial)
            if size >= 2 and trial % 4 == 1:
                assert got.is_zero()


DIGITS = packed._digits  # the helpers' own decoding, apart from the spies below


def pack(coeffs, width):
    """The value at t = 2^width of the polynomial with these coefficients, lowest first."""
    return sum(c << k * width for k, c in enumerate(coeffs))


def packed_rows(matrix, width):
    """A polynomial matrix as (rows, height), the sparse packed rows the determinant kernels take.

    As a builder must, it raises _Narrow when the height would reach X/4.
    """
    height = max((abs(c) for row in matrix for p in row for c in p.coeffs), default=0)
    if height >= 1 << (width - 2):
        raise packed._Narrow
    return [{j: (p.min_exp, pack(p.coeffs, width)) for j, p in enumerate(row) if p.coeffs} for row in matrix], height


def decoded(matrix, width=packed._DET_WIDTH):
    """Packed rows, sparse (dicts) or dense (lists), as a Laurent matrix."""
    dense = [row if isinstance(row, list) else [row.get(j, (0, 0)) for j in range(len(matrix))] for row in matrix]
    return [[Laurent.from_coeffs(low, DIGITS(value, width)) for low, value in row] for row in dense]


def packed_det(matrix):
    """The determinant of a polynomial matrix by the packed Bareiss kernel.

    The entries are packed at the determinants' first width whose X/4
    exceeds every coefficient, and packed again at twice the width while
    the kernel raises _Narrow.
    """
    top, width = max((abs(c) for row in matrix for p in row for c in p.coeffs), default=0), packed._DET_WIDTH
    while top >= 1 << (width - 2):
        width *= 2
    while True:
        try:
            low, value = packed.bareiss_determinant(
                [[(p.min_exp, pack(p.coeffs, width)) for p in row] for row in matrix], width
            )
            return Laurent.from_coeffs(low, DIGITS(value, width))
        except packed._Narrow:
            width *= 2


def burau_matrix(w):
    """The packed reduced_burau(w) as a Laurent matrix."""
    columns, low, width = packed.reduced_burau(w)
    return [[Laurent.from_coeffs(-low[k], DIGITS(v, width)) for k, v in enumerate(row)] for row in zip(*columns)]


def divide_step(x, pivot, a, y, prev, width=8):
    """(x*pivot - a*y) / prev through one update of the Bareiss kernel, the width doubling as it asks."""
    operands = (x, pivot, a, y, prev)
    while max(abs(c) for p in operands for c in p.coeffs) >= 1 << (width - 2):
        width *= 2
    while True:
        entries = [(p.min_exp, pack(p.coeffs, width), max(map(abs, p.coeffs), default=0)) for p in operands]
        try:
            low, value, height = packed._bareiss_update(*entries, width)
        except packed._Narrow:
            width *= 2
            continue
        coeffs = DIGITS(value, width)
        small = all(-packed._SMALL <= c < packed._SMALL for c in coeffs)
        assert height == (packed._SMALL if small else max(map(abs, coeffs))) if coeffs else height == 0
        return Laurent.from_coeffs(low, coeffs)


def test_bareiss_update_divides_exactly():
    zero = Laurent.zero()
    assert divide_step(T * T, ONE, ONE, ONE, T - ONE) == T + ONE  # (t^2-1)/(t-1)
    assert divide_step(T - ONE, T - ONE, zero, zero, ONE) == poly((1, 2), (-2, 1), (1, 0))
    # Laurent exponents: (t^-3 - t^-1) / (t^-2 + t^-1) = t^-1 - 1.
    assert divide_step(poly((1, -3)), ONE, poly((1, -1)), ONE, poly((1, -2), (1, -1))) == poly((1, -1), (-1, 0))
    assert divide_step(T, ONE, T, ONE, T + ONE).is_zero()
    with pytest.raises(ValueError, match="not divisible"):
        divide_step(T, ONE, zero, zero, Laurent.term(2))  # t / 2
    with pytest.raises(ValueError, match="not divisible"):
        divide_step(T, ONE, -ONE, ONE, T - ONE)  # (t+1)/(t-1)
    # 2^40 t / 2^41 is X/2 at every X = 2^w, yet t/2 is no polynomial.
    with pytest.raises(ValueError, match="not divisible"):
        divide_step(Laurent.term(1 << 40, 1), ONE, zero, zero, Laurent.term(1 << 41))


def test_bareiss_update_widens_until_the_quotient_is_proved(monkeypatch):
    widths = []
    digits = packed._digits

    def spy(value, width):
        widths.append(width)
        return digits(value, width)

    monkeypatch.setattr(packed, "_digits", spy)
    # The first width reads (1+t)^16 correctly, but its test cannot prove it.
    zero = Laurent.zero()
    got = divide_step(power(ONE - T * T, 16), ONE, zero, ONE, power(ONE - T, 16))
    assert got == power(ONE + T, 16)
    assert len(widths) > 1 and widths == sorted(set(widths))

    # t / 2 with a numerator (t+1) - 1 whose value at every X = 2^w is
    # divisible by 2: the doubling must stop and raise.
    widths.clear()
    with pytest.raises(ValueError, match="not divisible"):
        divide_step(T + ONE, ONE, ONE, ONE, Laurent.term(2))
    assert len(widths) > 1


def test_mask_test_and_decoding():
    # _height is _SMALL = 4 exactly when every balanced digit lies in [-4, 4),
    # so -4 passes and +4 fails, and otherwise the largest |digit|; _digits
    # reads back what pack wrote: up to 16 digits, and at 128 bits, by
    # shifts, longer ones as machine words.
    rng = random.Random(909)
    for width in (8, 16, 32, 64, 128):
        for trial in range(400):
            length = rng.randint(1, 16) if trial % 4 else rng.randint(17, 400)
            digits = [rng.choice((0, rng.randint(-12, 12))) for _ in range(length)]
            digits[-1] = digits[-1] or rng.choice((-4, 4))
            value = pack(digits, width)
            assert packed._digits(value, width) == digits, (width, digits)
            small = all(-4 <= c < 4 for c in digits)
            assert packed._height((value,), width) == (4 if small else max(map(abs, digits))), (width, digits)
        for digit in range(-12, 13):
            value = pack([1, digit, -1], width)
            assert packed._height((value,), width) == (4 if -4 <= digit < 4 else abs(digit)), (width, digit)
    assert packed._digits(0, 32) == [] and packed._digits(-1, 32) == [-1]
    assert packed._digits(1 << 31, 32) == [-(1 << 31), 1]
    # Top digits 1, -X/2 over negative ones make a value one bit short of its length.
    digits = [-1] * 20 + [-(1 << 31), 1]
    assert packed._digits(pack(digits, 32), 32) == digits
    assert packed._repack(pack(digits, 32), 32, 64) == pack(digits, 64)


def test_repack_moves_digits_between_widths():
    # Widening keeps every digit; narrowing keeps those that fit the new width.
    rng = random.Random(919)
    for trial in range(600):
        width, new = rng.choice((8, 16, 32, 64, 128)), rng.choice((8, 16, 32, 64, 128, 256))
        top = 1 << (min(width, new) - 1)
        digits = [rng.choice((0, 1, -1, top - 1, -top, rng.randint(-top, top - 1))) for _ in range(rng.randint(0, 40))]
        while digits and not digits[-1]:
            digits.pop()
        value = pack(digits, width)
        assert packed._repack(value, width, new) == pack(digits, new), (width, new, digits)


def test_pipelines_reach_the_kernels_by_their_public_names(monkeypatch):
    # Both pipelines reach reduced_burau and bareiss_determinant through
    # module globals, so a wrapper put in their place under every name a
    # petalgrid module holds them by (as perfbench's spans are) sees the
    # Burau product and the determinant of the sweep's remainder.
    seen = []

    def spy(kernel, note):
        def run(*args):
            seen.append(note(*args))
            return kernel(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("petalgrid"):
                for attr, value in list(vars(module).items()):
                    if value is kernel:
                        monkeypatch.setattr(module, attr, run)

    spy(packed.reduced_burau, lambda w: ("reduced_burau", w.n))
    spy(packed.bareiss_determinant, lambda matrix, width: ("bareiss_determinant", len(matrix), width))
    assert alexander_from_grid(build_petal_grid(synthesize(5, 7))) == torus_alexander(5, 7)
    assert seen == [("bareiss_determinant", 4, packed._DET_WIDTH)], seen
    seen.clear()
    assert alexander_from_closure(conjugate_band_braid(5, 7)) == torus_alexander(5, 7)
    assert seen == [("reduced_burau", 5), ("bareiss_determinant", 1, packed._DET_WIDTH)], seen


def imports(module):
    """(module, name) for each name a module's source imports, modules by their last component."""
    out = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "petalgrid").rpartition(".")[2] != "petalgrid":
            out += [(node.module.rpartition(".")[2], alias.name) for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(alias.name.rpartition(".")[2], "") for alias in node.names]
    return out


def test_invariants_reaches_packed_by_public_names_only():
    # petalgrid.packed owns the packed form: invariants takes no private
    # name from it, not even through the module, and packed nothing from invariants.
    names = [name for module, name in imports(invariants) if module == "packed"]
    assert names and not [name for name in names if name.startswith("_")], names
    private = [
        node.attr
        for node in ast.walk(ast.parse(Path(invariants.__file__).read_text()))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "packed" and node.attr.startswith("_")
    ]
    assert not private, private
    assert not [name for module, name in imports(packed) if module == "invariants"]


def test_laurent_polynomial_is_a_value_without_arithmetic():
    # Polynomial products and quotients run in packed, on coefficient lists,
    # or in the tests' oracles: LaurentPolynomial holds, normalizes and
    # prints, and no petalgrid module defines the ring's division.
    tree = ast.parse(Path(invariants.__file__).read_text())
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "LaurentPolynomial"]
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    names |= {target.id for node in cls.body if isinstance(node, ast.Assign) for target in node.targets}
    assert names <= {"__slots__", "__init__", "from_coeffs", "normalize_up_to_units", "__str__"}, names
    defined = [
        (path.name, node.name)
        for path in sorted(Path(invariants.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("_t_power_minus_one", "divide_exact")
    ]
    assert not defined, defined


def test_perfbench_span_targets_resolve():
    # perfbench/spans.py looks each (module, function) up by name and skips
    # one that is gone, so its metrics read 0 without a word.  Only the two
    # the planar-diagram grid pipeline took with it may be missing.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    (targets,) = [
        node.value for node in tree.body if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS"
    ]
    missing = [
        (module, name)
        for _, module, name in ast.literal_eval(targets)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == [("petalgrid.grid", "to_planar_diagram"), ("petalgrid.invariants", "alexander_from_pd")]
    # Its _note_normal_form reads the canonical length of every traced normal form.
    assert left_normal_form(sigma(3, 1) * sigma(3, 2)).canonical_length() == 1


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


def test_differenced_matrix_keeps_the_winding_determinant_less_its_1_minus_t_factor():
    # Rows 0..p-2 are one monomial per cell of one edge's span; on
    # petal grids (knots) and on random grids, links among them, the
    # winding-number determinant is +-t^k (1-t)^(p-1) times the differenced one.
    rng = random.Random(404)
    for trial in range(240):
        if trial % 2 == 0:
            entries = list(range(1, rng.choice(range(3, 18, 2)) + 1))
            rng.shuffle(entries)
            grid = build_petal_grid(PetalPermutation(tuple(entries)))
        else:
            starts = list(range(1, rng.randint(2, 16) + 1))
            ends = starts[:]
            while any(a == b for a, b in zip(starts, ends)):
                rng.shuffle(ends)
            grid = GridDiagram(tuple(starts), tuple(ends))
        p = grid.size
        differenced = decoded(invariants._differenced_grid_matrix(grid))
        for x, row in enumerate(differenced[:-1], 1):
            y1, y2 = grid.starts[x - 1], grid.ends[x - 1]
            support = [j for j, e in enumerate(row) if not e.is_zero()]
            assert support == list(range(min(y1, y2), max(y1, y2)))
            assert all(row[j].coeffs == (1,) for j in support)
        full = packed_det(winding_number_matrix(grid))
        factored = power(ONE - T, p - 1) * packed_det(differenced)
        assert equal_up_to_units(full, factored), (grid.starts, grid.ends)


def test_unit_pivots_keep_the_differenced_determinant():
    # The unit sweep is row reduction by unit pivots, so the remainder's
    # determinant is the full differenced determinant up to +-t^k.
    rng = random.Random(505)
    for _ in range(300):
        entries = list(range(1, rng.choice(range(3, 26, 2)) + 1))
        rng.shuffle(entries)
        grid = build_petal_grid(PetalPermutation(tuple(entries)))
        full = packed_det(decoded(invariants._differenced_grid_matrix(grid)))
        assert equal_up_to_units(alexander_from_grid(grid), full), entries


def test_unit_pivots_match_the_dict_oracle():
    # The packed sweep keeps the rule and the arithmetic of the sweep on
    # exponent -> coefficient dicts: the same remainder, entry by entry, on
    # petal grids and on B - I of signed words, of band forms and of their
    # mirrors, whose long entries are mostly zero digits.
    rng = random.Random(808)
    for _ in range(300):
        entries = list(range(1, rng.choice(range(3, 26, 2)) + 1))
        rng.shuffle(entries)
        rows = invariants._differenced_grid_matrix(build_petal_grid(PetalPermutation(tuple(entries))))
        got = decoded(packed._unit_pivot_remainder(rows, 1, packed._DET_WIDTH))
        assert got == unit_pivot_remainder_by_dicts(decoded(rows)), entries
    words = [BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 120))))
             for n in (rng.randint(2, 8) for _ in range(300))]
    for n, s in ((5, 7), (7, 11), (11, 25), (17, 40)):
        words += [conjugate_band_braid(n, s), mirror(conjugate_band_braid(n, s))]
    for w in words:
        m = burau_minus_identity(w)
        got = decoded(packed._unit_pivot_remainder(*packed_rows(m, 64), 64), 64)
        assert got == unit_pivot_remainder_by_dicts(m), w.letters


def test_large_coefficients_restart_the_sweep_and_bareiss(monkeypatch):
    # Coefficients near 2^25 do not fit 16 bits, so the builder raises there.
    # They fit 32, but their products do not: the sweep restarts at 64, and
    # Bareiss on its 2 x 2 remainder, whose determinant reaches about 2^100,
    # needs more digits still, so the rows are built again and the sweep and
    # Bareiss run again together at 128.  Row 0 holds the only unit of
    # column 0, so it is the first pivot.
    rng = random.Random(1010)
    big = lambda: random_laurent(rng, 3, 2, 1 << 25) + Laurent.term(1 << 25, 3)
    m = [[ONE, big(), big()]] + [[big() + Laurent.term(2), big(), big()] for _ in range(2)]
    calls = []

    def spy(name, kernel):
        def run(*args):
            calls.append((name, args[-1]))
            return kernel(*args)

        monkeypatch.setattr(packed, name, run)

    def rows_at(width):
        calls.append(("rows_at", width))
        return packed_rows(m, width)

    spy("_unit_pivot_remainder", packed._unit_pivot_remainder)
    spy("bareiss_determinant", packed.bareiss_determinant)
    det = LaurentPolynomial.from_coeffs(*packed.determinant_up_to_units(rows_at))
    assert equal_up_to_units(det, naive_cofactor_det(m))
    built = [width for name, width in calls if name == "rows_at"]
    sweeps = [width for name, width in calls if name == "_unit_pivot_remainder"]
    bareiss = [width for name, width in calls if name == "bareiss_determinant"]
    assert built == [16, 32, 64, 128] and sweeps == [32, 64, 128] and bareiss == [64, 128], calls

    calls.clear()
    assert packed_det(m) == naive_cofactor_det(m)
    assert calls == [("bareiss_determinant", 32), ("bareiss_determinant", 64), ("bareiss_determinant", 128)], calls

    # Eight coefficients 23170 < 2^15: a product's coefficients reach 8 * 23170^2 > 2^32,
    # which only a bound that counts the factor's length sees at 32 bits.
    p = sum((Laurent.term(23170, e) for e in range(8)), Laurent.zero())
    m = [[ONE, p, p], [p, p, -p], [p, -p, p + ONE]]
    calls.clear()
    det = LaurentPolynomial.from_coeffs(*packed.determinant_up_to_units(lambda width: packed_rows(m, width)))
    assert equal_up_to_units(det, naive_cofactor_det(m))
    assert calls[:2] == [("_unit_pivot_remainder", 32), ("_unit_pivot_remainder", 64)], calls


def test_unit_pivots_leave_a_remainder_of_order_n_minus_1():
    # Taking the lowest, the highest or the fullest candidate row as the
    # pivot leaves the same order, so the order alone does not pin the rule.
    for n in range(2, 12):
        for s in range(n + 1, 40):
            if math.gcd(n, s) != 1:
                continue
            differenced = invariants._differenced_grid_matrix(build_petal_grid(synthesize(n, s)))
            remainder = packed._unit_pivot_remainder(differenced, 1, packed._DET_WIDTH)
            assert len(remainder) == n - 1 and all(len(row) == n - 1 for row in remainder), (n, s)


def test_unit_pivots_take_the_sparsest_row():
    # The fill-in does pin it: with the fewest-entries rule the remainder at
    # T(17,40) holds 1302 nonzero terms; the lowest candidate row gives 2378,
    # the highest 1440 and the fullest 30880, and Bareiss's cost follows.
    differenced = invariants._differenced_grid_matrix(build_petal_grid(synthesize(17, 40)))
    remainder = decoded(packed._unit_pivot_remainder(differenced, 1, packed._DET_WIDTH))
    assert sum(c != 0 for row in remainder for entry in row for c in entry.coeffs) <= 1302


def burau_minus_identity(w):
    m = burau_matrix(w)
    for i, row in enumerate(m):
        row[i] -= ONE
    return m


def test_unit_pivots_leave_an_order_1_remainder_of_the_band_burau_matrix():
    # B - I is lower Hessenberg with unit superdiagonal entries +-t^k, so the
    # sweep clears all but one row and column of it.
    pairs = [(n, s) for n in range(2, 12) for s in range(n + 1, 40) if math.gcd(n, s) == 1]
    assert len(pairs) == 202
    for n, s in pairs + [(17, 60), (23, 60), (29, 70)]:
        remainder = packed._unit_pivot_remainder(*packed_rows(burau_minus_identity(conjugate_band_braid(n, s)), 64), 64)
        assert len(remainder) == 1 and len(remainder[0]) == 1, (n, s)


def test_alexander_from_closure_matches_full_bareiss():
    # Signed words, two-component closures left out: the sweep's determinant
    # is the full Bareiss determinant of B - I up to +-t^k.
    rng = random.Random(606)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 8)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 30))))
        if not induced_permutation(w).is_single_cycle():
            continue
        full = packed_det(burau_minus_identity(w))
        expected = (full * (ONE - T)).divide_exact(ONE - power(T, n))
        assert equal_up_to_units(alexander_from_closure(w), expected), w.letters
        checked += 1


def test_alexander_from_closure_packs_b_minus_i_as_wide_as_its_coefficients(monkeypatch):
    # Powers of sigma_1 sigma_2^-1 grow B's coefficients exponentially, so
    # B - I leaves the product for 16, 32 bits or more by its heights alone:
    # the builder raises at every narrower width, from 16 up.  B's height is
    # measured by one mask test over its entries however many widths are tried.
    widths, built, decodes = [], [], []
    sweep, build, height = packed._unit_pivot_remainder, invariants.burau_minus_identity, packed._height

    def spy(rows, height, width):
        widths.append(width)
        return sweep(rows, height, width)

    def spy_build(columns, low, width):
        rows_at = build(columns, low, width)

        def spy_rows_at(new):
            try:
                out = rows_at(new)
            except packed._Narrow:
                built.append((new, "narrow"))
                raise
            built.append((new, "built"))
            return out

        return spy_rows_at

    def spy_height(values, width):
        decodes.append(list(values))
        return height(values, width)

    monkeypatch.setattr(packed, "_unit_pivot_remainder", spy)
    monkeypatch.setattr(packed, "_height", spy_height)
    monkeypatch.setattr(invariants, "burau_minus_identity", spy_build)
    for k, width in ((4, 16), (16, 32), (34, 64), (100, 256)):
        w = BraidWord(3, (1, -2) * k)
        assert induced_permutation(w).is_single_cycle()
        full = packed_det(burau_minus_identity(w))
        b = [v for column in packed.reduced_burau(w)[0] for v in column]
        widths.clear()
        built.clear()
        decodes.clear()
        assert equal_up_to_units(alexander_from_closure(w), (full * (ONE - T)).divide_exact(ONE - power(T, 3))), k
        assert widths[0] == width, (k, widths)
        narrower = [new for new in (16, 32, 64, 128) if new < width]
        assert built[: len(narrower) + 1] == [(new, "narrow") for new in narrower] + [(width, "built")], (k, built)
        assert decodes.count(b) == 1, (k, decodes.count(b))


def test_alexander_from_grid_rejects_links():
    # Two disjoint 2x2 squares: a two-component unlink.
    link = GridDiagram((1, 2, 3, 4), (2, 1, 4, 3))
    with pytest.raises(ValueError, match="not a knot"):
        alexander_from_grid(link)


def test_reduced_burau():
    m = burau_matrix(sigma(2, 1))
    assert len(m) == 1 and m[0][0] == -T

    ident = burau_matrix(BraidWord.identity(4))
    for i in range(3):
        for j in range(3):
            assert ident[i][j] == (ONE if i == j else Laurent.zero())


def test_reduced_burau_generators_match_written_out_matrices():
    for n in range(2, 7):
        for i in range(1, n):
            for g in (i, -i):
                assert burau_matrix(BraidWord(n, (g,))) == burau_generator(n, g), (n, g)


def test_reduced_burau_homomorphism():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(2, 6)
        mk = lambda: BraidWord(
            n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
        )
        w1, w2 = mk(), mk()
        lhs = burau_matrix(w1 * w2)
        prod = burau_matrix(w1)
        rhs_m = burau_matrix(w2)
        size = n - 1
        for i in range(size):
            for j in range(size):
                acc = Laurent.zero()
                for k in range(size):
                    acc = acc + prod[i][k] * rhs_m[k][j]
                assert acc == lhs[i][j]


def mirror(w):
    return BraidWord(w.n, tuple(-g for g in w.letters))


def test_reduced_burau_matches_the_column_oracle(monkeypatch):
    tightened, widened = [], []
    tighten, repack = packed._tighten, packed._repack

    def spy_tighten(columns, low, height, width):
        # Each real column leaves with no common low zero digit, and with the
        # bound _SMALL if its coefficients lie in [-_SMALL, _SMALL), else its height.
        tightened.append(width)
        tighten(columns, low, height, width)
        for k in range(1, len(columns) - 1):
            digits = [packed._digits(v, width) for v in columns[k]]
            assert min(next(i for i, c in enumerate(d) if c) for d in digits if d) == 0
            coeffs = [c for d in digits for c in d]
            small = all(-packed._SMALL <= c < packed._SMALL for c in coeffs)
            assert height[k] == (packed._SMALL if small else max(map(abs, coeffs))), (width, k)

    def spy_repack(value, width, new):
        widened.append(new)
        return repack(value, width, new)

    monkeypatch.setattr(packed, "_tighten", spy_tighten)
    monkeypatch.setattr(packed, "_repack", spy_repack)
    rng = random.Random(707)
    for _ in range(300):
        n = rng.randint(2, 9)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 300))))
        assert burau_matrix(w) == reduced_burau_by_columns(w), w.letters

    # Coefficients of 203 bits: the 64-bit digits must widen twice.
    tightened.clear()
    w = BraidWord(3, (1, -2) * 150)
    expected = reduced_burau_by_columns(w)
    assert burau_matrix(w) == expected
    assert max(abs(c) for row in expected for p in row for c in p.coeffs).bit_length() == 203
    assert set(widened) == {128, 256} and tightened[-1] == 128

    # The twist on strands 4-6 pushes its bounds past 2^63 while the columns
    # the prefix wrote hold coefficients in [-4, 5] and [-7, 7]: the first
    # must keep its height 5, not the bound _SMALL = 4.
    tightened.clear()
    w = BraidWord(6, (1, -2) * 4 + (4, 5) * 60)
    assert burau_matrix(w) == reduced_burau_by_columns(w)
    assert tightened == [64]

    # Long one-sign words: the bounds pass 2^63 and every column is tightened.
    for n, s in ((17, 40), (29, 70)):
        for w in (conjugate_band_braid(n, s), mirror(conjugate_band_braid(n, s))):
            tightened.clear()
            assert burau_matrix(w) == reduced_burau_by_columns(w), (n, s, w.letters[0])
            assert tightened and set(tightened) == {64}, (n, s)


def test_alexander_from_closure_of_a_long_negative_word():
    # The Alexander polynomial is mirror-invariant; the mirrored band form is
    # 640 negative letters, so every column's offset climbs and is stripped.
    assert equal_up_to_units(alexander_from_closure(mirror(conjugate_band_braid(17, 40))), torus_alexander(17, 40))


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
    a = alexander_from_closure(word)
    assert equal_up_to_units(a, alexander_from_closure(mirror(word)))
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


def test_certify_large_pair():
    # p = 57: both pipelines, with the grid determinant of order 57.
    report = certify(13, 30)
    assert report["all_match"] and report["length"] == 57
    assert report["alexander_from_grid"] == str(torus_alexander(13, 30))


def test_certify_top_pair_on_the_grid():
    # p = 77, the ladder's top pair: the grid determinant takes about 0.1 s.
    report = certify(17, 40, "grid")
    assert report["all_match"] and report["length"] == 77
    assert report["alexander_from_grid"] == str(torus_alexander(17, 40))


@pytest.mark.parametrize("n, s, p", [(17, 60, 115), (23, 60, 117)])
def test_certify_past_the_ladder_on_the_grid(n, s, p):
    # The grid determinant takes 0.2-0.4 s here, against 5-9 s by Bareiss alone.
    report = certify(n, s, "grid")
    assert report["all_match"] and report["length"] == p
    assert report["alexander_from_grid"] == str(torus_alexander(n, s))


@pytest.mark.parametrize("n, s", [(29, 70), (41, 100)])
def test_certify_past_the_ladder_on_the_braid(n, s):
    # The Burau determinant goes through the unit sweep: the whole stage takes
    # 0.03-0.08 s here, against 3 s and 31 s by Bareiss on the whole
    # (n-1) x (n-1) matrix.
    report = certify(n, s, "burau")
    assert report["all_match"]
    assert report["alexander_from_braid"] == str(torus_alexander(n, s))
