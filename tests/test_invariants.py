import ast
import importlib
import itertools
import math
import random
import re
import sys
from pathlib import Path

import pytest

from oracles import (
    Laurent,
    burau_generator,
    fraction_free_det,
    half_twist,
    naive_cofactor_det,
    reduced_burau_by_columns,
    round_trip,
    sigma,
    to_planar_diagram,
    torus_alexander_by_quotient,
    unit_pivot_remainder_by_dicts,
    winding_number_matrix,
    wirtinger_alexander,
)
from petalgrid import invariants, packed
from petalgrid.braid import (
    BraidWord,
    conjugate_band_braid,
    delta,
    induced_permutation,
    is_single_cycle,
    left_normal_form,
    permutation_braid,
)
from petalgrid.grid import GridDiagram, build_petal_grid, validate_petal_grid
from petalgrid.invariants import (
    alexander_from_closure,
    alexander_from_grid,
    certify,
    format_polynomial,
    normalized,
    torus_alexander,
)
from petalgrid.petal import length_bound, synthesize

# The polynomials the tests build and compute on are the oracles' Laurent;
# its up_to_units() is the library's form, a normalized coefficient tuple.
T = Laurent.term(1, 1)
ONE = Laurent.one()


def poly(*pairs):
    out = Laurent.zero()
    for coeff, exp in pairs:
        out = out + Laurent.term(coeff, exp)
    return out


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


# --- The library's normalized coefficient tuples and the torus closed form ----


def test_normalize_up_to_units():
    # Zeros go at both ends and a negative lowest coefficient flips every sign.
    assert normalized([0, 0, -1, 1, -1, 0]) == (1, -1, 1)  # -t^2 + t^3 - t^4
    assert normalized((1, 0, -2)) == (1, 0, -2)
    assert normalized([-2, 0, 3, 0]) == (2, 0, -3)
    assert normalized([0, 0, 0]) == normalized(()) == ()
    assert format_polynomial(normalized([0, -1, 1, -1])) == "t^2 - t + 1"
    # The oracle's own normalization, on random Laurent polynomials padded with zeros.
    rng = random.Random(144)
    for _ in range(300):
        p = random_laurent(rng)
        padded = [0] * rng.randint(0, 3) + list(p.coeffs) + [0] * rng.randint(0, 3)
        assert normalized(padded) == p.up_to_units(), padded


def test_substitute_inverse_palindrome():
    # Symmetry under t -> 1/t, read on the normalized coefficients.
    p = normalized(poly((-1, -1), (1, 0), (-1, 1)).coeffs)  # -t^-1 + 1 - t
    assert p == p[::-1]
    q = normalized(poly((2, 1), (1, 0)).coeffs)
    assert q != q[::-1]


def test_pretty_printing():
    assert format_polynomial(()) == "0"
    assert format_polynomial((7,)) == "7"
    assert format_polynomial((-1,)) == "-1"
    assert format_polynomial((0, 1)) == "t"
    assert format_polynomial((-1, 0, 0, 2)) == "2*t^3 - 1"
    assert format_polynomial((0, -3, 1, 1)) == "t^3 + t^2 - 3*t"


def test_torus_alexander():
    assert torus_alexander(2, 3) == (1, -1, 1)
    assert torus_alexander(2, 5) == (1, -1, 1, -1, 1)
    with pytest.raises(ValueError, match="not coprime"):
        torus_alexander(4, 6)
    for n in range(2, 12):
        for s in range(n + 1, 13):
            if math.gcd(n, s) != 1:
                continue
            p = torus_alexander(n, s)
            assert p == normalized(p)
            assert len(p) - 1 == (n - 1) * (s - 1)
            assert abs(sum(p)) == 1
            assert p == p[::-1]


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
    """A polynomial matrix as (rows, width): sparse packed rows at this width, as the determinant and the sweep take."""
    height = max((abs(c) for row in matrix for p in row for c in p.coeffs), default=0)
    assert height < 1 << (width - 1), "a coefficient is not one balanced digit"
    return [{j: (p.min_exp, pack(p.coeffs, width)) for j, p in enumerate(row) if p.coeffs} for row in matrix], width


def decoded(matrix, width=packed._WIDTH):
    """Packed rows, sparse (dicts) or dense (lists), as a Laurent matrix."""
    dense = [row if isinstance(row, list) else [row.get(j, (0, 0)) for j in range(len(matrix))] for row in matrix]
    return [[Laurent.from_coeffs(low, DIGITS(value, width)) for low, value in row] for row in dense]


def packed_det(matrix):
    """The determinant of a polynomial matrix by the packed Bareiss kernel.

    The entries are packed at the least width from packed._WIDTH up whose X/4
    exceeds every coefficient, and packed again at twice the width while
    the kernel raises _Narrow.
    """
    top, width = max((abs(c) for row in matrix for p in row for c in p.coeffs), default=0), packed._WIDTH
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


def burau_matrix(w, full_twists=0):
    """The packed reduced_burau(w, full_twists) as a Laurent matrix."""
    columns, low, width = packed.reduced_burau(w, full_twists)
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
    assert packed._repack(pack(digits, 32), 32) == pack(digits, 64)


def test_repack_moves_digits_between_widths():
    # Doubling the width keeps every digit.
    rng = random.Random(919)
    for trial in range(600):
        width = rng.choice((8, 16, 32, 64, 128))
        top = 1 << (width - 1)
        digits = [rng.choice((0, 1, -1, top - 1, -top, rng.randint(-top, top - 1))) for _ in range(rng.randint(0, 40))]
        while digits and not digits[-1]:
            digits.pop()
        value = pack(digits, width)
        assert packed._repack(value, width) == pack(digits, 2 * width), (width, digits)
    # Values of 1-20 digits, either sign, from 16 to 32 and from 32 to 64
    # bits, with the width's extreme digits at the top and inside.
    for width in (16, 32):
        top = 1 << (width - 1)
        for length in range(1, 21):
            for last in (1, -1, top - 1, -top):
                digits = [rng.choice((0, 1, -1, top - 1, -top, rng.randint(-top, top - 1))) for _ in range(length - 1)]
                digits.append(last)
                assert packed._repack(pack(digits, width), width) == pack(digits, 2 * width), (width, digits)


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

    spy(packed.reduced_burau, lambda w, full_twists: ("reduced_burau", w.n, full_twists))
    spy(packed.bareiss_determinant, lambda matrix, width: ("bareiss_determinant", len(matrix), width))
    assert alexander_from_grid(build_petal_grid(synthesize(5, 7))) == torus_alexander(5, 7)
    assert seen == [("bareiss_determinant", 4, packed._WIDTH)], seen
    seen.clear()
    assert alexander_from_closure(conjugate_band_braid(5, 7)) == torus_alexander(5, 7)
    assert seen == [("reduced_burau", 5, 0), ("bareiss_determinant", 1, packed._WIDTH)], seen


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
    # The library keeps a polynomial as a bare coefficient tuple, and its
    # products and quotients run in packed, on coefficient lists, or in the
    # tests' oracles: no petalgrid module defines a polynomial class or the
    # ring's division.
    nodes = [
        (path.name, node)
        for path in sorted(Path(invariants.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    ]
    classes = [(name, node.name) for name, node in nodes if isinstance(node, ast.ClassDef)]
    assert ("braid.py", "BraidWord") in classes
    assert not [c for c in classes if re.search("polynomial|laurent", c[1], re.IGNORECASE)], classes
    defined = [
        (name, node.name)
        for name, node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("_t_power_minus_one", "divide_exact")
    ]
    assert not defined, defined


def test_packed_public_surface_is_the_four_its_docstring_names():
    # packed's top-level functions without a leading underscore are exactly
    # the four its docstring names, and none takes or returns a callable:
    # the determinant is a function of packed rows, not of a builder.
    functions = [node for node in ast.parse(Path(packed.__file__).read_text()).body if isinstance(node, ast.FunctionDef)]
    public = {node.name for node in functions if not node.name.startswith("_")}
    assert public == {"reduced_burau", "burau_minus_identity", "determinant_up_to_units", "bareiss_determinant"}
    assert set(re.findall(r"\b[a-z]+(?:_[a-z]+)+\b", packed.__doc__.split("are public:")[1])) == public
    annotations = [
        ast.unparse(a)
        for node in functions
        for a in [node.returns] + [arg.annotation for arg in node.args.args]
        if a is not None
    ]
    assert not [a for a in annotations if "Callable" in a], annotations


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
    unknot = build_petal_grid((2, 3, 1))
    assert alexander_from_grid(unknot) == (1,)
    assert wirtinger_alexander(to_planar_diagram(unknot)) == (1,)

    trefoil = build_petal_grid((3, 5, 2, 4, 1))
    assert alexander_from_grid(trefoil) == torus_alexander(2, 3)
    assert wirtinger_alexander(to_planar_diagram(trefoil)) == torus_alexander(2, 3)

    grid34 = build_petal_grid(synthesize(3, 4))
    assert alexander_from_grid(grid34) == torus_alexander(3, 4)
    assert wirtinger_alexander(to_planar_diagram(grid34)) == torus_alexander(3, 4)


def test_alexander_from_grid_matches_wirtinger_oracle():
    rng = random.Random(303)
    for _ in range(300):
        p = rng.choice(range(3, 16, 2))
        entries = list(range(1, p + 1))
        rng.shuffle(entries)
        grid = build_petal_grid(tuple(entries))
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
            grid = build_petal_grid(tuple(entries))
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
        assert full.up_to_units() == factored.up_to_units(), (grid.starts, grid.ends)


def test_unit_pivots_keep_the_differenced_determinant():
    # The unit sweep is row reduction by unit pivots, so the remainder's
    # determinant is the full differenced determinant up to +-t^k.
    rng = random.Random(505)
    for _ in range(300):
        entries = list(range(1, rng.choice(range(3, 26, 2)) + 1))
        rng.shuffle(entries)
        grid = build_petal_grid(tuple(entries))
        full = packed_det(decoded(invariants._differenced_grid_matrix(grid)))
        assert alexander_from_grid(grid) == full.up_to_units(), entries


def test_unit_pivots_match_the_dict_oracle():
    # The packed sweep keeps the rule and the arithmetic of the sweep on
    # exponent -> coefficient dicts: the same remainder, entry by entry, on
    # petal grids and on B - I of signed words, of band forms and of their
    # mirrors, whose long entries are mostly zero digits.
    rng = random.Random(808)
    for _ in range(300):
        entries = list(range(1, rng.choice(range(3, 26, 2)) + 1))
        rng.shuffle(entries)
        rows = invariants._differenced_grid_matrix(build_petal_grid(tuple(entries)))
        got = decoded(packed._unit_pivot_remainder(rows, packed._WIDTH))
        assert got == unit_pivot_remainder_by_dicts(decoded(rows)), entries
    words = [BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 120))))
             for n in (rng.randint(2, 8) for _ in range(300))]
    for n, s in ((5, 7), (7, 11), (11, 25), (17, 40)):
        words += [conjugate_band_braid(n, s), mirror(conjugate_band_braid(n, s))]
    for w in words:
        m = burau_minus_identity(w)
        got = decoded(packed._unit_pivot_remainder(*packed_rows(m, 64)), 64)
        assert got == unit_pivot_remainder_by_dicts(m), w.letters


def large_coefficient_matrix():
    """A 3 x 3 matrix with coefficients near 2^25; row 0 holds the only unit of column 0."""
    rng = random.Random(1010)
    big = lambda: random_laurent(rng, 3, 2, 1 << 25) + Laurent.term(1 << 25, 3)
    return [[ONE, big(), big()]] + [[big() + Laurent.term(2), big(), big()] for _ in range(2)]


def entered_sweeps(calls):
    """The widths of the sweeps in calls that get past their entry check.

    calls holds ("_unit_pivot_remainder", width) for each sweep, and
    ("_height", width, height) for each mask test as it returns.  A sweep
    first measures its rows by one mask test at its own width, and goes on
    only if that height is below X/4.
    """
    entries = [(call[1], entry) for call, entry in zip(calls, calls[1:]) if call[0] == "_unit_pivot_remainder"]
    assert all(entry[:2] == ("_height", width) for width, entry in entries), calls
    return [width for width, entry in entries if entry[2] < 1 << (width - 2)]


def test_large_coefficients_restart_the_sweep_and_bareiss(monkeypatch):
    # Coefficients near 2^25, given at 32 bits, stay below X/4 there, so the
    # sweep at 32 gets past its entry check.  Their products do not fit 32:
    # the rows are repacked from 32 and the sweep restarts at 64, and
    # Bareiss on its 2 x 2 remainder, whose determinant reaches about 2^100,
    # needs more digits still, so the rows are repacked from 64 and the
    # sweep and Bareiss run again together at 128.
    m = large_coefficient_matrix()
    calls = []

    def spy(name, kernel):
        def run(*args):
            calls.append((name, args[-1]))
            return kernel(*args)

        monkeypatch.setattr(packed, name, run)

    def spy_height(values, width, height=packed._height):
        out = height(values, width)
        calls.append(("_height", width, out))
        return out

    spy("_unit_pivot_remainder", packed._unit_pivot_remainder)
    spy("bareiss_determinant", packed.bareiss_determinant)
    spy("_repack", packed._repack)
    monkeypatch.setattr(packed, "_height", spy_height)
    rows, width = packed_rows(m, 32)
    det = normalized(packed.determinant_up_to_units(rows, width))
    assert det == naive_cofactor_det(m).up_to_units()
    sweeps = [width for name, width, *_ in calls if name == "_unit_pivot_remainder"]
    bareiss = [width for name, width, *_ in calls if name == "bareiss_determinant"]
    repacks = sorted({width for name, width, *_ in calls if name == "_repack"})
    assert sweeps == entered_sweeps(calls) == [32, 64, 128] and bareiss == [64, 128] and repacks == [32, 64], calls

    calls.clear()
    assert packed_det(m) == naive_cofactor_det(m)
    kernels = [call for call in calls if call[0] != "_height"]
    assert kernels == [("bareiss_determinant", 32), ("bareiss_determinant", 64), ("bareiss_determinant", 128)], calls

    # Eight coefficients 23170 < 2^15: a product's coefficients reach 8 * 23170^2 > 2^32,
    # which only a bound that counts the factor's length sees at 32 bits.  The
    # rows are packed at 16 bits, which their height fits but not below X/4,
    # so the sweep at 16 measures 23171, the constant of p + 1, and raises
    # at its entry check, before any row operation.
    p = sum((Laurent.term(23170, e) for e in range(8)), Laurent.zero())
    m = [[ONE, p, p], [p, p, -p], [p, -p, p + ONE]]
    calls.clear()
    rows, width = packed_rows(m, 16)
    det = normalized(packed.determinant_up_to_units(rows, width))
    assert det == naive_cofactor_det(m).up_to_units()
    assert calls[:3] == [("_unit_pivot_remainder", 16), ("_height", 16, 23171), ("_repack", 16)], calls
    assert entered_sweeps(calls)[:2] == [32, 64], calls


def test_the_sweep_measures_its_own_rows():
    # At 16 bits these rows hold 30000, past X/4 = 16384.  A sweep seeded
    # with a height of 1 would subtract one row from the other and return
    # -60000, whose 16-bit digits read 5536 - t, with no error.  The sweep
    # measures its rows instead, and raises _Narrow at its entry, so the
    # determinant repacks them at 32 bits, where -60000 is one digit.
    rows = [{0: (0, 1), 1: (0, 30000)}, {0: (0, 1), 1: (0, -30000)}]
    with pytest.raises(packed._Narrow):
        packed._unit_pivot_remainder(rows, 16)
    assert packed.determinant_up_to_units(rows) == [-60000]


def test_determinant_leaves_the_callers_rows_unchanged():
    # The restarts of the test above start again from the caller's rows,
    # repacked, so the rows come back as they went in and a second call on
    # them gives the same determinant.
    rows, width = packed_rows(large_coefficient_matrix(), 32)
    before = [dict(row) for row in rows]
    det = packed.determinant_up_to_units(rows, width)
    assert rows == before
    assert packed.determinant_up_to_units(rows, width) == det


def test_determinant_measures_the_height_of_its_rows():
    # The determinant bounds its rows' coefficients itself.  These rows come
    # at 16 bits with coefficients of 20000, past X/4 there: swept at 16, as
    # a height of 1 would let them be, the row operation's 40000 wraps to
    # [-25536, 2].
    cases16 = [([[ONE, Laurent.term(20000) + T], [-ONE, Laurent.term(20000)]], (40000, 1))]
    # Rows given at 64 bits are swept at 64, where these fit.
    cases64 = [
        ([[Laurent.term(40000) + T]], (40000, 1)),
        ([[Laurent.term(3) + Laurent.term(70000, 1), ONE], [ONE, ONE]], (2, 70000)),
        ([[ONE, Laurent.term(70000) + T], [Laurent.term(70000), ONE]], (4899999999, 70000)),
    ]
    for bits, cases in ((16, cases16), (64, cases64)):
        for m, expected in cases:
            rows, width = packed_rows(m, bits)
            det = normalized(packed.determinant_up_to_units(rows, width))
            assert det == expected == naive_cofactor_det(m).up_to_units(), (det, expected)


def test_unit_pivots_leave_a_remainder_of_order_n_minus_1():
    # Taking the lowest, the highest or the fullest candidate row as the
    # pivot leaves the same order, so the order alone does not pin the rule.
    for n in range(2, 12):
        for s in range(n + 1, 40):
            if math.gcd(n, s) != 1:
                continue
            differenced = invariants._differenced_grid_matrix(build_petal_grid(synthesize(n, s)))
            remainder = packed._unit_pivot_remainder(differenced, packed._WIDTH)
            assert len(remainder) == n - 1 and all(len(row) == n - 1 for row in remainder), (n, s)


def test_unit_pivots_take_the_sparsest_row():
    # The fill-in does pin it: with the fewest-entries rule the remainder at
    # T(17,40) holds 1302 nonzero terms; the lowest candidate row gives 2378,
    # the highest 1440 and the fullest 30880, and Bareiss's cost follows.
    differenced = invariants._differenced_grid_matrix(build_petal_grid(synthesize(17, 40)))
    remainder = decoded(packed._unit_pivot_remainder(differenced, packed._WIDTH))
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
        remainder = packed._unit_pivot_remainder(*packed_rows(burau_minus_identity(conjugate_band_braid(n, s)), 64))
        assert len(remainder) == 1 and len(remainder[0]) == 1, (n, s)


def test_alexander_from_closure_matches_full_bareiss():
    # Signed words, two-component closures left out: the sweep's determinant
    # is the full Bareiss determinant of B - I up to +-t^k.
    rng = random.Random(606)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 8)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 30))))
        if not is_single_cycle(induced_permutation(w)):
            continue
        full = packed_det(burau_minus_identity(w))
        expected = (full * (ONE - T)).divide_exact(ONE - power(T, n))
        assert alexander_from_closure(w) == expected.up_to_units(), w.letters
        checked += 1


def test_alexander_from_closure_packs_b_minus_i_as_wide_as_its_coefficients(monkeypatch):
    # Powers of sigma_1 sigma_2^-1 grow B's coefficients exponentially, so
    # B comes at 16, 32 bits or more, and B - I at B's own width.  Each
    # sweep measures the rows it is given, B - I's, never B's, by one mask
    # test over their distinct values at its own width, however often the
    # determinant restarts; here the first sweep that gets past that check
    # runs at B's width: the least width from 16 up whose X/4 it stays below.
    sweeps, given, measured = [], [], []
    sweep, build, height = packed._unit_pivot_remainder, invariants.burau_minus_identity, packed._height

    def spy(rows, width):
        sweeps.append((width, sorted({v for row in rows for _, v in row.values()}), len(measured)))
        return sweep(rows, width)

    def spy_build(columns, low, width):
        out = build(columns, low, width)
        given.append(out)
        return out

    def spy_height(values, width):
        out = height(values, width)
        measured.append((sorted(values), width, out))
        return out

    monkeypatch.setattr(packed, "_unit_pivot_remainder", spy)
    monkeypatch.setattr(packed, "_height", spy_height)
    monkeypatch.setattr(invariants, "burau_minus_identity", spy_build)
    for k, width in ((4, 16), (16, 32), (34, 64), (100, 256)):
        w = BraidWord(3, (1, -2) * k)
        assert is_single_cycle(induced_permutation(w))
        m = burau_minus_identity(w)
        full = packed_det(m)
        top = max(packed._SMALL, *(abs(c) for row in m for p in row for c in p.coeffs))
        columns, _, b_width = packed.reduced_burau(w)
        b = sorted(v for column in columns for v in column)
        sweeps.clear()
        given.clear()
        measured.clear()
        assert alexander_from_closure(w) == (full * (ONE - T)).divide_exact(ONE - power(T, 3)).up_to_units(), k
        [(rows, at)] = given
        assert at == b_width, (k, at, b_width)
        entries = sorted({v for row in rows for _, v in row.values()})
        # One mask test opens each sweep, over its rows' distinct values at its width.
        assert all(measured[i] == (values, on, top) for on, values, i in sweeps), (k, sweeps, top)
        assert sweeps[0][:2] == (at, entries), (k, sweeps[0][:2])
        entered = [on for on, _, i in sweeps if measured[i][2] < 1 << (on - 2)]
        assert entered[0] == width == at, (k, sweeps, top)
        assert [h for values, on, h in measured if values == entries and on == at] == [top], k
        assert not any(values in (b, sorted(set(b))) for values, _, _ in measured), k
        narrower = [new for new in (16, 32, 64, 128) if new < width]
        assert all(top >= 1 << (new - 2) for new in narrower) and top < 1 << (width - 2), (k, top)


def test_alexander_from_grid_rejects_links():
    # Two disjoint 2x2 squares: a two-component unlink.
    link = GridDiagram((1, 2, 3, 4), (2, 1, 4, 3))
    with pytest.raises(ValueError, match="not a knot"):
        alexander_from_grid(link)


def test_reduced_burau():
    m = burau_matrix(sigma(2, 1))
    assert len(m) == 1 and m[0][0] == -T

    ident = burau_matrix(BraidWord(4, ()))
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

    def spy_repack(value, width):
        widened.append(2 * width)
        return repack(value, width)

    monkeypatch.setattr(packed, "_tighten", spy_tighten)
    monkeypatch.setattr(packed, "_repack", spy_repack)
    rng = random.Random(707)
    for _ in range(300):
        n = rng.randint(2, 9)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 300))))
        assert burau_matrix(w) == reduced_burau_by_columns(w), w.letters

    # Coefficients of 203 bits: the 16-bit digits must widen four times.
    tightened.clear()
    widened.clear()
    w = BraidWord(3, (1, -2) * 150)
    expected = reduced_burau_by_columns(w)
    assert burau_matrix(w) == expected
    assert max(abs(c) for row in expected for p in row for c in p.coeffs).bit_length() == 203
    assert set(widened) == {32, 64, 128, 256} and tightened[-1] == 128

    # The twist on strands 4-6 pushes its bounds past 2^15 while the columns
    # the prefix wrote hold coefficients in [-4, 5] and [-7, 7]: the first
    # must keep its height 5, not the bound _SMALL = 4.
    tightened.clear()
    w = BraidWord(6, (1, -2) * 4 + (4, 5) * 60)
    assert burau_matrix(w) == reduced_burau_by_columns(w)
    assert tightened == [16] * 6, tightened

    # Long one-sign words: the bounds pass 2^15 and every column is tightened.
    for n, s in ((17, 40), (29, 70)):
        for w in (conjugate_band_braid(n, s), mirror(conjugate_band_braid(n, s))):
            tightened.clear()
            assert burau_matrix(w) == reduced_burau_by_columns(w), (n, s, w.letters[0])
            assert tightened and set(tightened) == {16}, (n, s, tightened)


def test_alexander_from_closure_of_a_long_negative_word():
    # The Alexander polynomial is mirror-invariant; the mirrored band form is
    # 640 negative letters, so every column's offset climbs and is stripped.
    assert alexander_from_closure(mirror(conjugate_band_braid(17, 40))) == torus_alexander(17, 40)


def test_alexander_from_closure():
    assert alexander_from_closure(BraidWord(2, (1, 1, 1))) == torus_alexander(2, 3)
    for n, s in ((2, 5), (3, 4), (3, 5), (4, 5)):
        got = alexander_from_closure(delta(n) ** s)
        assert got == torus_alexander(n, s)

    band = conjugate_band_braid(5, 7)
    assert alexander_from_closure(band) == torus_alexander(5, 7)

    with pytest.raises(ValueError, match="multiple components"):
        alexander_from_closure(BraidWord(3, (1,)))  # closure is a 2-component link


def test_closures_of_no_strands_and_non_permutations_are_refused():
    # B_0 has no permutation to be one cycle, and no reduced Burau matrix.
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        alexander_from_closure(BraidWord(0, ()))
    with pytest.raises(ValueError, match="^need braid index at least 1$"):
        packed.reduced_burau(BraidWord(0, ()))
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: \(1, 1, 2\)$"):
        permutation_braid((1, 1, 2))


def test_the_closure_of_the_one_strand_braid_is_the_unknot():
    # The reduced Burau matrix of B_1 is 0 x 0, so B - I is empty, of
    # determinant 1, and 1 * (1-t)/(1-t) is the unknot's polynomial.
    assert packed.reduced_burau(BraidWord(1, ())) == ([], [], packed._WIDTH)
    for m in (0, 1, 3):
        assert alexander_from_closure(BraidWord(1, ()), m) == (1,), m


def full_twist(n):
    """U_2...U_n, the band form's repeated block, which is Delta^2."""
    return BraidWord(n, conjugate_band_braid(n, n + 1).letters[n - 1 :])


def test_the_full_twist_acts_on_the_reduced_burau_module_as_t_to_the_n():
    for n in range(2, 41):
        scalar = Laurent.term(1, n)
        b = burau_matrix(full_twist(n))
        assert all(b[i][j] == (scalar if i == j else Laurent.zero()) for i in range(n - 1) for j in range(n - 1)), n


def test_counted_full_twists_give_the_closure_with_them_multiplied():
    # alexander_from_closure(w, m) is the polynomial of the closure of w (U_2...U_n)^m.
    rng = random.Random(3838)
    for n in range(2, 10):
        checked = 0
        while checked < 6:
            w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 24))))
            if not is_single_cycle(induced_permutation(w)):
                continue
            for m in range(4):
                assert alexander_from_closure(w, m) == alexander_from_closure(w * full_twist(n) ** m), (w.letters, m)
            checked += 1
    # The 108 selftest pairs and the benchmark ladder's: the band form's tail with
    # its full twists counted, against the band form multiplied out.
    selftest = [(n, s) for s in range(3, 21) for n in range(2, s) if math.gcd(n, s) == 1]
    ladder = [(2, 3), (5, 7), (7, 10), (7, 15), (9, 20), (11, 25), (13, 30), (17, 40)]
    assert len(selftest) == 108
    for n, s in selftest + ladder:
        got = alexander_from_closure(conjugate_band_braid(n, s % n), s // n)
        assert got == alexander_from_closure(conjugate_band_braid(n, s)) == torus_alexander(n, s), (n, s)


@pytest.mark.parametrize("n, s", [(5, 12), (17, 40)])
def test_a_full_twist_count_one_off_is_another_knot(n, s):
    m, r = divmod(s, n)
    for wrong in (m - 1, m + 1):
        assert alexander_from_closure(conjugate_band_braid(n, r), wrong) != torus_alexander(n, s), (n, s, wrong)
        assert alexander_from_closure(conjugate_band_braid(n, r), wrong) == torus_alexander(n, wrong * n + r)


@pytest.mark.parametrize("n, s", [(5, 7), (11, 25), (13, 30), (17, 40)])
def test_reversed_band_form_tails_give_the_torus_polynomial(n, s):
    # The inverse of the tail with -m full twists closes to the mirror image of
    # T(n, s) reversed, and the tail read backwards with m twists to T(n, s)
    # reversed; Delta is the same for both.  These are the counted-twist words
    # whose B - I the unit-pivot sweep leaves a remainder larger than order 1.
    m, k = divmod(s, n)
    tail = conjugate_band_braid(n, k)
    assert alexander_from_closure(tail.inverse(), -m) == torus_alexander(n, s)
    assert alexander_from_closure(BraidWord(n, tail.letters[::-1]), m) == torus_alexander(n, s)


def test_certify_runs_the_burau_product_on_the_tail_alone(monkeypatch):
    # T(17,40) = delta (U_2...U_17)^2 U_a...: the product sees delta U_a... only.
    seen = []
    burau = invariants.reduced_burau

    def spy(w, full_twists):
        seen.append((w, full_twists))
        return burau(w, full_twists)

    monkeypatch.setattr(invariants, "reduced_burau", spy)
    assert certify(17, 40, "burau")["all_match"]
    assert seen == [(conjugate_band_braid(17, 6), 2)]
    assert len(seen[0][0].letters) == 96 and len(conjugate_band_braid(17, 40).letters) == 640


def test_reduced_burau_counts_full_twists_as_t_to_the_n_m():
    # reduced_burau(w, m) is t^(nm) times w's matrix, m below zero included:
    # its identity columns start at offset -nm, and the product moves all
    # offsets alike.
    rng = random.Random(4141)
    for _ in range(150):
        n = rng.randint(2, 9)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 60))))
        expected = reduced_burau_by_columns(w)
        for m in range(-1, 4):
            scalar = Laurent.term(1, n * m)
            assert burau_matrix(w, m) == [[scalar * p for p in row] for row in expected], (w.letters, m)


def test_certify_sweeps_b_minus_i_once_at_16_bits(monkeypatch):
    # Every packed matrix starts at 16-bit digits and only widens.  On the
    # certify-braid workload's pairs (n in 11, 13, 14, 15 and s in 23..31,
    # and T(17,40)) and at T(29,70) and T(41,100), B comes from the product
    # at 16 bits and B - I's height stays below X/4 there: nothing is
    # repacked, and the determinant runs one sweep, at 16 bits.
    calls = []

    def spy(name, kernel):
        def run(*args):
            calls.append((name, args[-1]))
            return kernel(*args)

        monkeypatch.setattr(packed, name, run)

    spy("_repack", packed._repack)
    spy("_unit_pivot_remainder", packed._unit_pivot_remainder)
    pairs = [(n, s) for n in (11, 13, 14, 15) for s in range(23, 32) if math.gcd(n, s) == 1]
    assert len(pairs) == 27
    for n, s in pairs + [(17, 40), (29, 70), (41, 100)]:
        calls.clear()
        assert certify(n, s, "burau")["all_match"], (n, s)
        assert calls == [("_unit_pivot_remainder", 16)], (n, s, calls)


def test_alexander_mirror_invariance():
    word = BraidWord(3, (1, 1, 2, -1, 2, 2))
    a = alexander_from_closure(word)
    assert a == alexander_from_closure(mirror(word))
    assert abs(sum(a)) == 1


def test_every_three_petal_permutation_is_the_unknot():
    for entries in itertools.permutations((1, 2, 3)):
        grid = build_petal_grid(entries)
        assert alexander_from_grid(grid) == (1,), entries
        assert wirtinger_alexander(to_planar_diagram(grid)) == (1,), entries


def test_petal_numbers_of_the_torus_knots_with_bound_at_most_11():
    # Every petal permutation is a rotation of one whose first entry is 1, and
    # rotation gives the same diagram, so the 41,066 of lengths 3, 5, 7 and 9
    # that start at 1 draw every knot of petal number at most 9.  Delta is
    # invariant under mirroring, so where Delta of T(n, s) is missing neither
    # T(n, s) nor its mirror has a petal diagram of that length, and the
    # length synthesize(n, s) realizes, the next odd one, is the petal number
    # (certify checks that its diagram is T(n, s)): 5 for T(2,3), 7 for T(2,5)
    # and T(3,4), 9 for T(2,7), T(3,5) and T(4,5), 11 for T(2,9), T(3,7) and T(5,6).
    # Each grid also steps from column x to x + (p+1)/2 mod p and is valid.
    found, drawn = {}, 0
    for p in (3, 5, 7, 9):
        found[p], rotation = set(), [(x + (p + 1) // 2) % p for x in range(p)]
        for rest in itertools.permutations(range(2, p + 1)):
            grid = build_petal_grid((1, *rest))
            assert grid.next_columns() == rotation and validate_petal_grid(grid) == (), rest
            found[p].add(alexander_from_grid(grid))
            drawn += 1
    assert drawn == 41066
    petal_numbers = {
        (2, 3): 5,
        (2, 5): 7, (3, 4): 7,
        (2, 7): 9, (3, 5): 9, (4, 5): 9,
        (2, 9): 11, (3, 7): 11, (5, 6): 11,
    }
    for (n, s), petal in petal_numbers.items():
        assert len(synthesize(n, s)) == length_bound(n, s) == petal, (n, s)
        # Absent below the petal number, present from it on up to length 9.
        lengths = [p for p in (3, 5, 7, 9) if torus_alexander(n, s) in found[p]]
        assert lengths == [p for p in (5, 7, 9) if p >= petal], (n, s, lengths)


def test_random_petal_knots_have_symmetric_alexander():
    rng = random.Random(111)
    for _ in range(30):
        p = rng.choice((5, 7, 9, 11, 13))
        entries = list(range(1, p + 1))
        rng.shuffle(entries)
        a = alexander_from_grid(build_petal_grid(tuple(entries)))
        assert a == a[::-1]
        assert abs(sum(a)) == 1


def test_band_insertion_closures_match_grids():
    # Stabilizing the base permutation along a descending band multiset gives
    # the closure of (full twist) * delta * (band product); the two Alexander
    # pipelines must agree even though these closures are rarely torus knots.
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
        assert from_grid == alexander_from_closure(braid), (n, ks)


def test_certify_report():
    report = certify(2, 3)
    assert report["all_match"] and report["length"] == 5

    report = certify(5, 7)
    assert report["all_match"] and report["length"] == 13 == report["bound"]

    report = certify(5, 9)
    assert report["all_match"] and report["length"] == 17

    with pytest.raises(ValueError) as caught:
        certify(5, 7, "grids")
    assert str(caught.value) == "pipeline must be one of grid, burau, both, got 'grids'"


def test_certify_large_pair():
    # p = 57: both pipelines, with the grid determinant of order 57.
    report = certify(13, 30)
    assert report["all_match"] and report["length"] == 57
    assert report["alexander_from_grid"] == format_polynomial(torus_alexander(13, 30))


def test_certify_top_pair_on_the_grid():
    # p = 77, the ladder's top pair: the grid determinant takes about 0.1 s.
    report = certify(17, 40, "grid")
    assert report["all_match"] and report["length"] == 77
    assert report["alexander_from_grid"] == format_polynomial(torus_alexander(17, 40))


@pytest.mark.parametrize("n, s, p", [(17, 60, 115), (23, 60, 117)])
def test_certify_past_the_ladder_on_the_grid(n, s, p):
    # The grid determinant takes 0.2-0.4 s here, against 5-9 s by Bareiss alone.
    report = certify(n, s, "grid")
    assert report["all_match"] and report["length"] == p
    assert report["alexander_from_grid"] == format_polynomial(torus_alexander(n, s))


@pytest.mark.parametrize("n, s", [(29, 70), (41, 100)])
def test_certify_past_the_ladder_on_the_braid(n, s):
    # The Burau determinant goes through the unit sweep: the whole stage takes
    # 0.03-0.08 s here, against 3 s and 31 s by Bareiss on the whole
    # (n-1) x (n-1) matrix.
    report = certify(n, s, "burau")
    assert report["all_match"]
    assert report["alexander_from_braid"] == format_polynomial(torus_alexander(n, s))
