"""
Exact Laurent-polynomial arithmetic and two Alexander-polynomial pipelines.

Alexander polynomials are defined only up to multiplication by units
+-t^k, so every comparison here goes through normalize_up_to_units, which
shifts the lowest exponent to zero and makes its coefficient positive.

The grid pipeline starts from the p x p matrix (t^w), w the knot's winding
number around each cell centre of a size-p grid diagram, whose determinant
is +-t^a (1-t)^(p-1) Delta(t).  It builds instead the matrix of differences
of adjacent rows, each with its factor (1-t) and a unit taken out: row i
is zero off the span of one vertical edge and t^w on it.  Its determinant
is +-t^b Delta(t), with no division after it.  Every nonzero entry is a
unit, so one left-to-right sweep of row operations on unit pivots, with no
scaling and no division, clears all but a remainder of order n-1 on the
petal grid of T(n, s), and Bareiss runs on that remainder only.  The braid
pipeline builds the reduced Burau matrix B of a word and rescales
det(B - I) by (1-t)/(1-t^n).  Each entry of B is packed as one Python
integer, its polynomial at t = X = 2^w with each column times a power of t
that keeps every exponent nonnegative, so a letter rewrites each row's
entry in its column by left shifts and additions alone, which are exact.
The coefficients are the integer's balanced base-X digits while they stay
below X/2 in size; a bound per column, tightened by a mask test on the
digits before it could reach X/2, proves that, and w doubles only when
the coefficients themselves need it.  It takes det(B - I)
through the same sweep and Bareiss: for the band form of T(n, s), B - I is
lower Hessenberg with a unit on every superdiagonal entry, so the sweep
leaves a remainder of order 1.  The torus closed form
(t^{ns}-1)(t-1)/((t^n-1)(t^s-1)) serves as the independent ground truth
for both.

Both determinants end in one fraction-free Bareiss kernel whose
entries are plain (lowest exponent, coefficients, height) triples.  Each
update (x*pivot - a*y) / prev is one Python-integer computation at
t = X = 2^w (Kronecker substitution): the operands are packed by Horner's
rule, multiplied, subtracted and divided by prev(X), and the quotient is
read back as its balanced base-X digits q.  A nonzero remainder means the
division is not exact.  w is chosen so the numerator's coefficients stay
below X/4, and q is accepted only when min(len q, len prev) * max|q| *
max|prev| < X/2.  Then q*prev minus the numerator is an integer polynomial
whose coefficients are smaller than X and which has X as a root; a nonzero
integer polynomial with root X is (t - X) times another and so has a
coefficient of size at least X, so q*prev equals the numerator exactly.
When the test fails, w doubles.

End-to-end certification: certify(n, s) is the one certifier behind
`petalgrid verify`, selftest and the acceptance tests.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .braid import (
    BraidWord,
    check_pair,
    format_word,
    induced_permutation,
    torus_conjugacy_witness,
)
from .braid import conjugate_band_braid  # noqa: F401  kept importable here for perfbench/ladder.py
from .grid import GridDiagram, build_petal_grid, validate_petal_grid
from .petal import STRONGLY_BRAIDED, classify, length_bound, synthesize


@dataclass(frozen=True)
class LaurentPolynomial:
    """An integer-coefficient polynomial in t with possibly negative exponents.

    coeffs[j] multiplies t^(min_exp + j); the first and last coefficients
    are nonzero unless the polynomial is zero (empty coeffs).
    """

    min_exp: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and (self.coeffs[0] == 0 or self.coeffs[-1] == 0):
            raise ValueError("coefficients must be trimmed")

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
        out = [0] * (len(rem) - len(div) + 1)
        for k in range(len(out) - 1, -1, -1):
            lead = rem[k + len(div) - 1]
            if lead % div[-1] != 0:
                raise ValueError("not divisible")
            q = lead // div[-1]
            out[k] = q
            if q:
                for j, d in enumerate(div):
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


# --- Determinants -------------------------------------------------------------


# Inside bareiss_determinant an entry is (lowest exponent, coefficients from
# that exponent up, height), the height being the largest |coefficient|.  The
# coefficients are trimmed at both ends; the zero entry has none.
_Entry = tuple[int, tuple[int, ...], int]
_ZERO: _Entry = (0, (), 0)


def _entry(p: LaurentPolynomial) -> _Entry:
    return (p.min_exp, p.coeffs, max(map(abs, p.coeffs), default=0))


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """The value at t = 2^width of the polynomial with these coefficients."""
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def _packed(coeffs: tuple[int, ...], width: int, memo: dict) -> int:
    key = (coeffs, width)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _pack(coeffs, width)
    return value


def _digits(value: int, width: int) -> list[int]:
    """The balanced base-2^width digits of value, lowest first.

    Each digit lies in [-2^(width-1), 2^(width-1)) and the last is nonzero,
    so _pack(digits, width) == value.
    """
    base = 1 << width
    half, mask = base >> 1, base - 1
    out = []
    while value:
        digit = value & mask
        value >>= width
        if digit >= half:
            digit -= base
            value += 1
        out.append(digit)
    return out


def _bareiss_update(x: _Entry, pivot: _Entry, a: _Entry, y: _Entry, prev: _Entry, memo: dict) -> _Entry:
    """The exact quotient (x*pivot - a*y) / prev of one Bareiss step.

    The width w is the least with 2^(w-2) above both the numerator's
    coefficient bound and prev's height; the module docstring shows why an
    accepted quotient is exact.  Once X/2 passes the test's value for the
    largest exact quotient Mignotte's bound allows, a rejected quotient is
    not exact, so the doubling ends there with ValueError("not divisible").
    memo maps (coefficients, width) to the packed value, so each operand
    the step shares is packed once per width.
    """
    (xl, xc, xh), (pl, pc, ph), (al, ac, ah), (yl, yc, yh), (ql, qc, qh) = x, pivot, a, y, prev
    left = min(len(xc), len(pc)) * xh * ph
    right = min(len(ac), len(yc)) * ah * yh
    if left and right:
        low = min(xl + pl, al + yl)
    elif left or right:
        low = xl + pl if left else al + yl
    else:
        return _ZERO
    width = max(left + right, qh).bit_length() + 2
    while True:
        num = 0
        if left:
            num = _pack(xc, width) * _packed(pc, width, memo) << width * (xl + pl - low)
        if right:
            num -= _packed(ac, width, memo) * _packed(yc, width, memo) << width * (al + yl - low)
        if not num:
            return _ZERO
        quotient, remainder = divmod(num, _packed(qc, width, memo))
        if remainder:
            raise ValueError("not divisible")
        digits = _digits(quotient, width)
        height = max(map(abs, digits))
        if min(len(digits), len(qc)) * height * qh < 1 << (width - 1):
            skip = 0
            while not digits[skip]:
                skip += 1
            return (low - ql + skip, tuple(digits[skip:]), height)
        # Bounds on the numerator's length and on an exact quotient's; by
        # Mignotte, |quotient| <= 2^(span-1) * sqrt(length) * (left + right).
        length = len(xc) + len(pc) + len(ac) + len(yc) + abs(xl + pl - al - yl)
        span = max(length - len(qc) + 1, 1)
        if 1 << (width - 1) > min(span, len(qc)) * ((left + right) * length * qh << (span - 1)):
            raise ValueError("not divisible")
        width *= 2


def bareiss_determinant(matrix: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Fraction-free determinant over Laurent polynomials.

    Step k replaces each entry (i, j) below and right of the pivot by
    (m_ij*m_kk - m_ik*m_kj) / prev, prev the step's previous pivot; by
    Sylvester's identity every such quotient is exact.  Each quotient is
    one _bareiss_update.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    if size == 0:
        return LaurentPolynomial.one()
    m = [[_entry(p) for p in row] for row in matrix]
    sign = 1
    prev = (0, (1,), 1)
    for k in range(size - 1):
        if not m[k][k][1]:
            swap = next((i for i in range(k + 1, size) if m[i][k][1]), None)
            if swap is None:
                return LaurentPolynomial.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top, memo = m[k], {}
        for row in m[k + 1 :]:
            for j in range(k + 1, size):
                row[j] = _bareiss_update(row[j], top[k], row[k], top[j], prev, memo)
        prev = top[k]
    lo, coeffs, _ = m[-1][-1]
    det = LaurentPolynomial(lo, coeffs)
    return det if sign == 1 else -det


# --- Alexander polynomial from a grid diagram ---------------------------------


def _differenced_grid_matrix(g: GridDiagram) -> list[list[LaurentPolynomial]]:
    """The winding-number matrix (t^w(i, j)) with each row less the next, over 1-t.

    w(i, j) is the winding number of the knot around the cell centre
    (i+1/2, j+1/2), 0 <= i, j < p.  Rows i and i+1 differ only where j lies
    between the ends of the vertical edge at x = i+1, and there
    w(i, j) = w(i+1, j) + step, step = +1 for an upward edge and -1 for a
    downward one.  So row i minus row i+1 is (t^step - 1) t^w(i+1, j) on
    that span and zero off it, and t^step - 1 is a unit (-1 or t^-1) times
    1-t.  Row i here is t^w(i+1, j) on the span; the last row is unchanged.
    So the determinant is det(t^w) / (1-t)^(p-1) up to +-t^k.  One running
    row of winding numbers is swept from the right edge leftwards.
    """
    p = g.size
    term = LaurentPolynomial.term
    running = [0] * p  # w(x, .) while the edge at x fills row x-1
    matrix = [[LaurentPolynomial.zero()] * p for _ in range(p - 1)]
    for x in range(p, 0, -1):
        y1, y2 = g.starts[x - 1], g.ends[x - 1]
        step = 1 if y2 > y1 else -1
        for j in range(min(y1, y2), max(y1, y2)):
            if x < p:
                matrix[x - 1][j] = term(1, running[j])
            running[j] += step
        if x == p:
            matrix.append([term(1, w) for w in running])
    return matrix


def _unit_pivot_remainder(matrix: list[list[LaurentPolynomial]]) -> list[list[LaurentPolynomial]]:
    """A square matrix whose determinant is det(matrix) times some +-t^k.

    One sweep over the columns, left to right.  Where some remaining row
    holds a unit +-t^k in column j, the one with the fewest nonzero entries
    is the pivot: every other row with an entry a there loses a*(+-t^-k)
    times the pivot row, which clears column j, and the pivot's row and
    column are dropped.  A unit pivot needs no scaling and no division, so
    this is plain row reduction; the determinant changes only by the
    pivot's unit and the sign of the dropped position.  Columns with no
    unit entry stay, in their order, with the rows never taken as pivots.
    Rows are dicts column -> entry and entries dicts exponent ->
    coefficient, with no zero entries or coefficients.
    """
    rows = {
        i: {j: {p.min_exp + k: c for k, c in enumerate(p.coeffs) if c} for j, p in enumerate(row) if p.coeffs}
        for i, row in enumerate(matrix)
    }
    kept = []
    for j in range(len(matrix)):
        units = [i for i, row in rows.items() if j in row and list(row[j].values()) in ([1], [-1])]
        if not units:
            kept.append(j)
            continue
        pivot = rows.pop(min(units, key=lambda i: (len(rows[i]), i)))
        ((k, c),) = pivot.pop(j).items()
        for row in rows.values():
            if j not in row:
                continue
            # a * (+-t^-k) with the sign flipped, so the update is an addition.
            factor = [(e - k, -c * v) for e, v in row.pop(j).items()]
            for col, entry in pivot.items():
                target = row.setdefault(col, {})
                for e1, v1 in factor:
                    for e2, v2 in entry.items():
                        e = e1 + e2
                        v = target.get(e, 0) + v1 * v2
                        if v:
                            target[e] = v
                        else:
                            del target[e]
                if not target:
                    del row[col]

    def poly(entry: dict[int, int] | None) -> LaurentPolynomial:
        if not entry:
            return LaurentPolynomial.zero()
        lo = min(entry)
        return LaurentPolynomial.from_coeffs(lo, [entry.get(e, 0) for e in range(lo, max(entry) + 1)])

    return [[poly(row.get(j)) for j in kept] for row in rows.values()]


def _determinant_up_to_units(matrix: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """det(matrix) times some +-t^k, for both Alexander pipelines: unit pivots, then Bareiss."""
    return bareiss_determinant(_unit_pivot_remainder(matrix))


def alexander_from_grid(g: GridDiagram) -> LaurentPolynomial:
    """The normalized Alexander polynomial of a one-component grid diagram.

    The p x p matrix (t^w), w the winding number around each cell centre,
    has determinant +-t^a (1-t)^(p-1) Delta(t) (Manolescu-Ozsvath-Sarkar).
    Subtracting each row's successor and taking the factor (1-t), times a
    unit, out of every difference (_differenced_grid_matrix) leaves a
    matrix whose determinant is +-t^b Delta(t) itself, so no division
    follows.  Every nonzero entry of that matrix is a unit t^w, so one
    sweep of unit pivots (_unit_pivot_remainder) clears all but an order
    n-1 remainder on the petal grid of T(n, s), for Bareiss to take.
    """
    if len(g.columns_in_order()) != g.size:
        raise ValueError("not a knot")
    return _determinant_up_to_units(_differenced_grid_matrix(g)).normalize_up_to_units()


# --- Reduced Burau and braid closures -----------------------------------------


# The packed Burau product's first digit width, and the bound a column gets
# when the mask test shows all its coefficients lie in [-_SMALL, _SMALL).
_WIDTH, _SMALL = 64, 4


def _tighten(columns: list[list[int]], low: list[int], height: list[int], width: int) -> None:
    """Strip each column's common low zero digits, then bound it by _SMALL or its height.

    Let d be one more than the whole base-X digits of the column's longest
    entry and R = 1 + X + ... + X^(d-1).  An entry v whose balanced digits
    all lie in [-_SMALL, _SMALL) has at most d of them, so v + _SMALL*R
    lies in [0, X^d) with every base-X digit below 2*_SMALL; conversely
    such a sum gives v those balanced digits, which are unique.  So one AND
    with a mask of the bits such a sum never sets, those of
    R*(X - 2*_SMALL) and all from X^d up, tests an entry.  A column with an
    entry that fails is decoded instead.
    """
    for k in range(1, len(columns) - 1):
        column = columns[k]
        zeros = min((v & -v).bit_length() - 1 for v in column if v) // width
        if zeros:
            column = columns[k] = [v >> zeros * width for v in column]
            low[k] -= zeros
        bits = (max(v.bit_length() for v in column) // width + 1) * width
        repunit = ((1 << bits) - 1) // ((1 << width) - 1)
        offset, mask = _SMALL * repunit, repunit * ((1 << width) - 2 * _SMALL) - (1 << bits)
        if any((v + offset) & mask for v in column):
            height[k] = max(abs(c) for v in column for c in _digits(v, width))
        else:
            height[k] = _SMALL


def reduced_burau(w: BraidWord) -> list[list[LaurentPolynomial]]:
    """The reduced Burau matrix of a word; multiplicative over concatenation.

    The image of a generator differs from the identity only in column
    j = |g| - 1, so right-multiplying by it replaces that column c[j] by
    t*c[j-1] - t*c[j] + c[j+1] for a positive letter and by
    c[j-1] - t^-1*c[j] + t^-1*c[j+1] for a negative one (columns past
    either edge read as zero).

    Each entry is one Python integer, its polynomial at t = X = 2^width,
    and column j is held times t^low[j], low[j] set at each letter so that
    no power of t in the update is negative.  A row's update is then at
    most three left shifts and two additions, so every integer equals its
    polynomial at X exactly.  Its balanced base-X digits (_digits) are the
    coefficients while every |coefficient| < X/2, so each column carries a
    bound height[j] on its coefficients, and a letter sets the bound of the
    column it writes to the sum of the three bounds it reads.  Before a
    bound would reach X/2 every column is tightened (_tighten) to a small
    bound or its exact height, and the width doubles only if the heights
    still need it.  The entries are decoded once, at the end.
    """
    if w.n < 2:
        raise ValueError("need braid index at least 2")
    size, width = w.n - 1, _WIDTH
    # Column k-1 at index k, between two zero columns.
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
                columns = [[_pack(_digits(v, width), 2 * width) for v in column] for column in columns]
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
    return [
        [LaurentPolynomial.from_coeffs(-low[k], _digits(v, width)) for k, v in enumerate(row[1:-1], 1)]
        for row in zip(*columns)
    ]


def alexander_from_closure(w: BraidWord) -> LaurentPolynomial:
    """The normalized Alexander polynomial of the closure of the braid.

    Computed as det(reduced Burau - I) * (1-t)/(1-t^n).  The determinant
    comes from the unit-pivot sweep and Bareiss on its remainder, so it is
    known only up to +-t^k; the exact division and the normalization
    absorb that unit.
    """
    if not induced_permutation(w).is_single_cycle():
        raise ValueError("closure has multiple components")
    m = reduced_burau(w)
    for i, row in enumerate(m):
        row[i] -= LaurentPolynomial.one()
    det = _determinant_up_to_units(m)
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
