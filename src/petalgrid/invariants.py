"""
Exact Laurent-polynomial arithmetic and two Alexander-polynomial pipelines.

Alexander polynomials are defined only up to multiplication by units
+-t^k, so every comparison here goes through normalize_up_to_units, which
shifts the lowest exponent to zero and makes its coefficient positive.

The grid pipeline takes the determinant of a grid diagram's winding-number
matrix with each row less the next, the factor (1-t) and a unit taken out:
+-t^b Delta(t), from a matrix whose nonzero entries are units.  The braid
pipeline rescales det(B - I), B the reduced Burau matrix of a word, by
(1-t)/(1-t^n).  Both go through one sweep of row operations on unit
pivots, then Bareiss on what is left: order n-1 on the petal grid of
T(n, s), order 1 on B - I for its band form (lower Hessenberg, a unit on
every superdiagonal entry).  The torus closed form
(t^{ns}-1)(t-1)/((t^n-1)(t^s-1)) is the independent ground truth for both.

The Burau product, the sweep and Bareiss hold a polynomial packed
(petalgrid.packed): one Python integer, its value at t = X = 2^w, beside
its lowest exponent and its height, a bound on its coefficients' sizes.  Integer arithmetic
evaluates exactly, so a product is one multiplication and a sum one
aligned addition, and the coefficients are the balanced base-X digits
while the height stays below X/2.  A height is the operands' sum or
product bound or, near the limit, the mask test's (_height), and w doubles
when exact heights reach the limit too.  The determinants start at
w = 16, the Burau product at w = 64, and B - I moves from the product's
width to the determinants' by _repack, which copies digits as bytes.  Each
Bareiss update (x*pivot - a*y) / prev is one integer division at X; a
nonzero remainder means it is not exact.  Two facts make an integer
quotient q the polynomial quotient: the numerator's height stays below
X/4, and q is accepted only when its height from the mask test gives
min(len q, len prev) * height(q) * height(prev) < X/2.  Then q*prev minus
the numerator has coefficients below X in size and the root X; a nonzero
integer polynomial with root X is (t - X) times another, with a
coefficient of size at least X, so q*prev equals the numerator.

End-to-end certification: certify(n, s) is the one certifier behind
`petalgrid verify`, selftest and the acceptance tests.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from .braid import (
    BraidWord,
    check_pair,
    format_word,
    induced_permutation,
    torus_conjugacy_witness,
)
from .braid import conjugate_band_braid  # noqa: F401  kept importable here for perfbench/ladder.py
from .grid import GridDiagram, build_petal_grid, validate_petal_grid
from .packed import (
    _DET_WIDTH,
    _WIDTH,
    _Narrow,
    _bareiss,
    _digits,
    _height,
    _pack,
    _repack,
    _strip,
    _unit_pivot_remainder,
)
from .perm import _Value
from .petal import STRONGLY_BRAIDED, classify, length_bound, synthesize


class LaurentPolynomial(_Value):
    """An integer-coefficient polynomial in t with possibly negative exponents.

    coeffs[j] multiplies t^(min_exp + j); the first and last coefficients
    are nonzero unless the polynomial is zero (empty coeffs).
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int, coeffs: tuple[int, ...]):
        if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
            raise ValueError("coefficients must be trimmed")
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def zero() -> LaurentPolynomial:
        return LaurentPolynomial(0, ())

    @staticmethod
    def term(coeff: int, exp: int = 0) -> LaurentPolynomial:
        if coeff == 0:
            return LaurentPolynomial.zero()
        return LaurentPolynomial(exp, (coeff,))

    @staticmethod
    def one() -> LaurentPolynomial:
        return LaurentPolynomial.term(1)

    @staticmethod
    def from_coeffs(min_exp: int, coeffs: list[int]) -> LaurentPolynomial:
        lo = 0
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        if lo == hi:
            return LaurentPolynomial.zero()
        return LaurentPolynomial(min_exp + lo, tuple(coeffs[lo:hi]))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def __add__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return LaurentPolynomial.from_coeffs(lo, out)

    def __neg__(self) -> LaurentPolynomial:
        # From a list, not a generator: CPython sizes tuple(generator) by a
        # guess and then resizes it, so each negation moves a block between
        # the tuple free lists and a long loop of subtractions grows the
        # process's memory from one run to the next.
        return LaurentPolynomial(self.min_exp, tuple([-c for c in self.coeffs])) if self.coeffs else self

    def __sub__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        return self + (-other)

    def __mul__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        if self.is_zero() or other.is_zero():
            return LaurentPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LaurentPolynomial.from_coeffs(self.min_exp + other.min_exp, out)

    def divide_exact(self, other: LaurentPolynomial) -> LaurentPolynomial:
        """Exact division; raises when the quotient is not a Laurent polynomial."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        rem = list(self.coeffs)
        div = other.coeffs
        if len(rem) < len(div):
            raise ValueError("not divisible")
        top = len(div) - 1
        # Only the divisor's nonzero terms: t^n - 1 has two of n + 1.
        terms = [(j, d) for j, d in enumerate(div) if d]
        out = [0] * (len(rem) - top)
        for k in range(len(out) - 1, -1, -1):
            lead = rem[k + top]
            if lead % div[-1] != 0:
                raise ValueError("not divisible")
            q = lead // div[-1]
            out[k] = q
            if q:
                for j, d in terms:
                    rem[k + j] -= q * d
        if any(rem):
            raise ValueError("not divisible")
        return LaurentPolynomial.from_coeffs(self.min_exp - other.min_exp, out)

    def normalize_up_to_units(self) -> LaurentPolynomial:
        """The representative with lowest exponent 0 and positive lowest coefficient."""
        if self.is_zero():
            return self
        return LaurentPolynomial(0, (self if self.coeffs[0] > 0 else -self).coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            e = self.min_exp + i
            if e == 0:
                mono = ""
            elif e == 1:
                mono = "t"
            else:
                mono = f"t^{e}"
            mag = abs(c)
            body = mono if mag == 1 and mono else f"{mag}{'*' if mono else ''}{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def equal_up_to_units(a: LaurentPolynomial, b: LaurentPolynomial) -> bool:
    return a.normalize_up_to_units() == b.normalize_up_to_units()


def _t_power_minus_one(e: int) -> LaurentPolynomial:
    return LaurentPolynomial.from_coeffs(0, [-1] + [0] * (e - 1) + [1])


def torus_alexander(n: int, s: int) -> LaurentPolynomial:
    """The closed form (t^{ns}-1)(t-1)/((t^n-1)(t^s-1)), normalized.

    The degree of the result is (n-1)(s-1).
    """
    check_pair(n, s)
    num = _t_power_minus_one(n * s) * _t_power_minus_one(1)
    den = _t_power_minus_one(n) * _t_power_minus_one(s)
    return num.divide_exact(den).normalize_up_to_units()


# --- Determinants ------------------------------------------------------------


def _polynomial(low: int, value: int, width: int) -> LaurentPolynomial:
    return LaurentPolynomial.from_coeffs(low, _digits(value, width))


def bareiss_determinant(matrix: list[list], width: int | None = None) -> LaurentPolynomial:
    """Fraction-free determinant of a square matrix over Laurent polynomials.

    The entries are LaurentPolynomials, packed here at the first width whose
    X/4 exceeds every coefficient, or packed entries at `width` with heights
    below X/4, as the pipelines pass them.  _bareiss runs on them, and again
    at twice the width while it raises _Narrow.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    if width is None:
        top, width = max((abs(c) for row in matrix for p in row for c in p.coeffs), default=0), _DET_WIDTH
        while top >= 1 << (width - 2):
            width *= 2
        matrix = [[(p.min_exp, _pack(p.coeffs, width), 0) for p in row] for row in matrix]
    while True:
        try:
            return _polynomial(*_bareiss(matrix, width), width)
        except _Narrow:
            matrix = [[(low, _repack(v, width, 2 * width), h) for low, v, h in row] for row in matrix]
            width *= 2


def _determinant_up_to_units(rows: list[dict[int, tuple]], width: int) -> LaurentPolynomial:
    """det(rows) times some +-t^k: unit pivots, then bareiss_determinant on the remainder.

    While the sweep raises _Narrow, it runs again at twice the width
    (bareiss_determinant widens on its own).
    """
    while True:
        try:
            return bareiss_determinant(_unit_pivot_remainder(rows, width), width)
        except _Narrow:
            rows = [{j: (low, _repack(v, width, 2 * width), h) for j, (low, v, h) in row.items()} for row in rows]
            width *= 2


# --- Alexander polynomial from a grid diagram ---------------------------------


def _differenced_grid_matrix(g: GridDiagram) -> list[dict[int, tuple]]:
    """The winding-number matrix (t^w(i, j)) with each row less the next, over 1-t, as sparse packed rows.

    w(i, j) is the winding number of the knot around the cell centre
    (i+1/2, j+1/2), 0 <= i, j < p.  Rows i and i+1 differ only where j lies
    between the ends of the vertical edge at x = i+1, and there
    w(i, j) = w(i+1, j) + step, step = +-1 as the edge runs up or down.  So
    row i minus row i+1 is (t^step - 1) t^w(i+1, j), a unit times 1-t, on
    that span and zero off it.  Row i here is t^w(i+1, j), (w, 1, 1) at any
    width, on the span, and the last row is unchanged, so the determinant is
    det(t^w) / (1-t)^(p-1) up to +-t^k.  A running row of winding numbers
    is swept from the right edge leftwards.
    """
    p = g.size
    running = [0] * p  # w(x, .) while the edge at x fills row x-1
    rows: list[dict[int, tuple]] = [{} for _ in range(p - 1)]
    for x in range(p, 0, -1):
        y1, y2 = g.starts[x - 1], g.ends[x - 1]
        step = 1 if y2 > y1 else -1
        for j in range(min(y1, y2), max(y1, y2)):
            if x < p:
                rows[x - 1][j] = (running[j], 1, 1)
            running[j] += step
        if x == p:
            rows.append({j: (w, 1, 1) for j, w in enumerate(running)})
    return rows


def alexander_from_grid(g: GridDiagram) -> LaurentPolynomial:
    """The normalized Alexander polynomial of a one-component grid diagram.

    The p x p matrix (t^w), w the winding number around each cell centre,
    has determinant +-t^a (1-t)^(p-1) Delta(t) (Manolescu-Ozsvath-Sarkar),
    so _differenced_grid_matrix has determinant +-t^b Delta(t) itself.
    """
    if len(g.columns_in_order()) != g.size:
        raise ValueError("not a knot")
    return _determinant_up_to_units(_differenced_grid_matrix(g), _DET_WIDTH).normalize_up_to_units()


# --- Reduced Burau and braid closures -----------------------------------------


def _tighten(columns: list[list[int]], low: list[int], height: list[int], width: int) -> None:
    """Strip each column's common low zero digits, then bound it by the mask test (_height)."""
    for k in range(1, len(columns) - 1):
        column = columns[k]
        zeros = min((v & -v).bit_length() - 1 for v in column if v) // width
        if zeros:
            column = columns[k] = [v >> zeros * width for v in column]
            low[k] -= zeros
        height[k] = _height(column, width)


def reduced_burau(w: BraidWord, packed: bool = False) -> list[list[LaurentPolynomial]] | tuple:
    """The reduced Burau matrix of a word; multiplicative over concatenation.

    With packed=True, the product as computed, (columns, low, height,
    width): column k-1 is columns[k], between two zero columns, held times
    t^low[k].  A letter g rewrites only column j = |g| - 1, c[j], as
    t*c[j-1] - t*c[j] + c[j+1] if g > 0 and c[j-1] - t^-1*c[j] + t^-1*c[j+1]
    if g < 0 (columns past the edges read as zero); low[j] keeps every power
    of t nonnegative, so a row costs three shifts and two additions, and the
    height is the sum of the three read.  Before a height would reach X/2
    every column is tightened (_tighten); the width doubles only if the
    heights still need it.
    """
    if w.n < 2:
        raise ValueError("need braid index at least 2")
    size, width = w.n - 1, _WIDTH
    columns = [[0] * size] + [[int(i == j) for i in range(size)] for j in range(size)] + [[0] * size]
    low = [0] * (size + 2)
    height = [0] + [1] * size + [0]
    for g in w.letters:
        j = abs(g)
        bound = height[j - 1] + height[j] + height[j + 1]
        if bound >= 1 << (width - 1):
            _tighten(columns, low, height, width)
            bound = height[j - 1] + height[j] + height[j + 1]
            while bound >= 1 << (width - 1):
                columns = [[_repack(v, width, 2 * width) for v in column] for column in columns]
                width *= 2
        # c[j-1], c[j] and c[j+1] enter times t^up, t^(2up-1) and t^(up-1),
        # and each needs the new offset to be at least its own less that power.
        up = int(g > 0)
        left, mid, right = low[j - 1] - up, low[j] + 1 - 2 * up, low[j + 1] + 1 - up
        top = max(left if j > 1 else mid, mid, right if j < size else mid)
        left = (top - left) * width if j > 1 else 0
        right = (top - right) * width if j < size else 0
        mid = (top - mid) * width
        columns[j] = [(a << left) - (b << mid) + (c << right) for a, b, c in zip(*columns[j - 1 : j + 2])]
        low[j], height[j] = top, bound
    if packed:
        return columns, low, height, width
    return [[_polynomial(-low[k], v, width) for k, v in enumerate(row[1:-1], 1)] for row in zip(*columns)]


def alexander_from_closure(w: BraidWord) -> LaurentPolynomial:
    """The normalized Alexander polynomial of the closure of the braid.

    Computed as det(reduced Burau - I) * (1-t)/(1-t^n).  B - I is packed
    afresh at the determinants' first width that its heights, from the mask
    test, allow; the sweep gives the determinant up to +-t^k, which the
    exact division and the normalization absorb.
    """
    if not induced_permutation(w).is_single_cycle():
        raise ValueError("closure has multiple components")
    columns, low, _, width = reduced_burau(w, packed=True)
    top, new = _height([v for column in columns for v in column], width) + 1, _DET_WIDTH
    while top >= 1 << (new - 2):
        new *= 2
    rows: list[dict[int, tuple]] = [{} for _ in columns[2:]]
    for k in range(1, w.n):
        up = min(low[k], 0)  # a column held times a negative power of t is raised to t^0
        for i, v in enumerate(columns[k]):
            v = (v << -up * width) - (i == k - 1 and 1 << (low[k] - up) * width)
            if v:
                exp, v = _strip(up - low[k], v, width)
                rows[i][k - 1] = (exp, _repack(v, width, new), top)
    det = _determinant_up_to_units(rows, new)
    scaled = (det * _t_power_minus_one(1)).divide_exact(_t_power_minus_one(w.n))
    return scaled.normalize_up_to_units()


# --- End-to-end certification --------------------------------------------------

PIPELINES = ("grid", "burau", "both")


@contextmanager
def _alarm(deadline: float | None):
    """Raise TimeoutError in the block once the `time.monotonic()` deadline passes.

    One SIGALRM interval timer, armed for the time left clamped to [1 us,
    1e9 s]: 0 would disarm it, and setitimer overflows past about 1e9 s.
    """
    if deadline is None:
        yield
        return
    import signal  # only a run with a deadline needs it

    def ring(*_):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, ring)  # in before the timer is armed
    try:
        signal.setitimer(signal.ITIMER_REAL, min(max(deadline - time.monotonic(), 1e-6), 1e9))
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:  # out only once it is off, even if it rings in the line above
            signal.signal(signal.SIGALRM, previous)


def certify(n: int, s: int, pipeline: str = "both", deadline: float | None = None) -> dict:
    """Certify that the synthesized petal permutation represents T(n, s).

    Stages, in order: synthesize; build and validate the petal grid;
    check strong braidedness; verify the conjugacy witness carrying delta^s
    to its band form; the torus closed form; then the Alexander polynomial
    of the grid ("grid" or "both") and of the witness's band-form closure
    ("burau" or "both"), each compared with the closed form up to units.
    Alexander agreement plus the explicit conjugacy witness is the
    certification standard; the Alexander polynomial alone separates torus
    knots pairwise but is not a complete invariant.

    Returns the report `petalgrid verify --json` prints, without "schema".
    An invalid pair or pipeline raises ValueError before any stage runs.
    At the `time.monotonic()` deadline a SIGALRM timer interrupts whichever
    stage is running, and the report so far is returned with "timeout":
    True and no "all_match".  The timer needs a POSIX system and the main
    thread; elsewhere a deadline fails the "timer" stage.  A stage that
    raises ValueError or ArithmeticError fails the certificate: "error"
    holds "<stage>: <message>" and "all_match" is False.
    """
    check_pair(n, s)
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {', '.join(PIPELINES)}, got {pipeline!r}")
    report: dict = {"n": n, "s": s, "pipeline": pipeline}
    checks: list[bool] = []
    stage = "timer"
    try:
        with _alarm(deadline):
            stage = "synthesize"
            pp = synthesize(n, s)
            bound = length_bound(n, s)
            report.update(petal_permutation=list(pp.entries), length=pp.p, bound=bound)
            checks.append(pp.p == bound)

            stage = "grid"
            grid = build_petal_grid(pp)
            report["grid_valid"] = validate_petal_grid(grid).valid
            checks.append(report["grid_valid"])

            stage = "strongly_braided"
            report["strongly_braided"] = classify(pp) == STRONGLY_BRAIDED
            checks.append(report["strongly_braided"])

            stage = "witness"
            witness = torus_conjugacy_witness(n, s)
            report["conjugacy_verified"] = witness.verified
            report["conjugator"] = format_word(witness.conjugator)
            report["conjugate_band_form"] = format_word(witness.rhs)
            checks.append(witness.verified)

            stage = "closed_form"
            closed_form = torus_alexander(n, s)
            report["alexander_closed_form"] = str(closed_form)

            if pipeline in ("grid", "both"):
                stage = "alexander_grid"
                from_grid = alexander_from_grid(grid)
                report["alexander_from_grid"] = str(from_grid)
                checks.append(equal_up_to_units(from_grid, closed_form))
            if pipeline in ("burau", "both"):
                stage = "alexander_braid"
                from_braid = alexander_from_closure(witness.rhs)
                report["alexander_from_braid"] = str(from_braid)
                checks.append(equal_up_to_units(from_braid, closed_form))
    except TimeoutError:
        report["timeout"] = True
        return report
    except (ValueError, ArithmeticError) as exc:
        report["error"] = f"{stage}: {exc}"
        checks.append(False)
    report["all_match"] = all(checks)
    return report
