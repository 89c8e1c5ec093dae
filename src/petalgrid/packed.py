"""
Polynomials packed as integers, and the exact kernels that run on them.

A packed polynomial is (low, value): value is the polynomial times t^-low
at t = X = 2^width, its lowest base-X digit nonzero, and a height bounds
its coefficients, value's balanced base-X digits while that stays below
X/2.  Integer arithmetic evaluates exactly, so a product is one
multiplication and a sum one aligned addition.  Between layers a matrix is
rows of pairs, and each stage measures what it is given: the sweep its
rows and Bareiss its entries, each by the mask test (_height), and then
keeps a height per row or per entry, as the Burau product keeps one per
column.  Only Bareiss's own step, _bareiss_update, takes heights from its
caller.  A height is the operands' sum or product bound or, near the
limit, the mask test's, and the width doubles when exact heights reach the
limit too.
Every matrix starts at 16-bit digits and only widens: the Burau product
repacks its columns, and the determinant its rows, at twice the width by
_repack, which copies digits as bytes.

Bareiss runs on polynomials: it takes each row out of its least power of
t once, on entry, so every entry is a plain value at X with no low, and
each update (x*pivot - a*y) / prev is one integer division at X; a nonzero
remainder means it is not exact.  Every integer is a polynomial at X, by
its balanced digits, and two facts make an integer quotient q the
polynomial quotient: the numerator's height stays below X/4, and q is
accepted only when its height from the mask test gives
min(len q, len prev) * height(q) * height(prev) < X/2.  Then q*prev minus
the numerator is a polynomial with coefficients below X in size and the
root X; a nonzero integer polynomial with root X is (t - X) times another,
with a coefficient of size at least X, so q*prev equals the numerator.

Four names are public: reduced_burau, burau_minus_identity,
determinant_up_to_units and its Bareiss kernel bareiss_determinant.
"""
from __future__ import annotations

import sys

from .braid import BraidWord

_ZERO = (0, 0)  # the zero polynomial in Bareiss, with its height
# The first width of every packed matrix, and the height the mask test proves.
_WIDTH, _SMALL = 16, 4
# The widths that are machine words, whose digits a long value yields at once.
_WORDS = {8: "B", 16: "H", 32: "I", 64: "Q"} if sys.byteorder == "little" else {}


class _Narrow(Exception):
    """A height would reach X/4 at this width."""


def _repunit(length: int, width: int) -> int:
    """1 + X + ... + X^(length-1), X = 2^width: one in every digit."""
    return ((1 << length * width) - 1) // ((1 << width) - 1)


def _repack(value: int, width: int) -> int:
    """The value with its balanced base-2^width digits moved to base 2^(2 width) (width a multiple of 8).

    Offset by half the base, the digits are bytes, which are copied across
    in place of a shift per digit.
    """
    # + 2, not + 1: top digits 1, -X/2 over negative ones are a bit short of their length.
    half, length, step = 1 << (width - 1), value.bit_length() // width + 2, width // 8
    data = (value + half * _repunit(length, width)).to_bytes(length * step, "little")
    out = bytearray(2 * length * step)
    for k in range(step):
        out[k :: 2 * step] = data[k::step]
    return int.from_bytes(out, "little") - half * _repunit(length, 2 * width)


def _digits(value: int, width: int) -> list[int]:
    """The balanced base-2^width digits of value, lowest first: their polynomial at t = 2^width is value.

    Each lies in [-2^(width-1), 2^(width-1)) and the last is nonzero.  A
    shift per digit is quadratic, so a value of more than 16 digits at a
    width in _WORDS is offset by half the base in every digit, which makes
    every digit a word of its bytes, and the words are read at once.
    """
    half, length = 1 << (width - 1), value.bit_length() // width + 2  # as in _repack
    if length > 17 and width in _WORDS:
        data = (value + half * _repunit(length, width)).to_bytes(length * width // 8, "little")
        out = [word - half for word in memoryview(data).cast(_WORDS[width])]
        while not out[-1]:
            out.pop()
        return out
    out = []
    while value:
        digit = value & ((half << 1) - 1)
        value >>= width
        if digit >= half:
            digit -= half << 1
            value += 1
        out.append(digit)
    return out


def _height(values: set[int] | tuple[int, ...] | list[int], width: int) -> int:
    """_SMALL if every balanced base-X digit of the values lies in [-_SMALL, _SMALL), else the largest |digit|.

    The mask test: with d one more than the longest value's whole base-X
    digits and R = 1 + X + ... + X^(d-1), v has balanced digits in
    [-_SMALL, _SMALL) exactly when v + _SMALL*R lies in [0, X^d) with every
    base-X digit below 2*_SMALL, which one AND with R*(X - 2*_SMALL) - X^d
    tests.  The values are decoded only when one fails.
    """
    length = max((v.bit_length() for v in values), default=0) // width + 1
    repunit = _repunit(length, width)
    offset, mask = _SMALL * repunit, repunit * ((1 << width) - 2 * _SMALL) - (1 << length * width)
    if any((v + offset) & mask for v in values):
        return max(abs(c) for v in values for c in _digits(v, width))
    return _SMALL


def _strip(low: int, value: int, width: int) -> tuple[int, int]:
    """(low, value) of a nonzero value with its low zero digits moved into low."""
    zeros = ((value & -value).bit_length() - 1) // width
    return low + zeros, value >> zeros * width


def _bareiss_update(x: tuple, pivot: tuple, a: tuple, y: tuple, prev: tuple, width: int) -> tuple:
    """The quotient (x*pivot - a*y) / prev of one Bareiss step on polynomials, proved exact (module docstring).

    Each operand is (value, height): a polynomial's value at X and a bound
    on its coefficients.  Raises _Narrow when the numerator's height reaches
    X/4 or the test rejects the quotient, ValueError("not divisible") once
    Mignotte's bound shows it is not exact.
    """
    (xv, xh), (pv, ph), (av, ah), (yv, yh), (qv, qh) = x, pivot, a, y, prev
    xn, pn, an, yn, qn = (v.bit_length() // width + 1 for v in (xv, pv, av, yv, qv))
    left, right = xv and min(xn, pn) * xh * ph, av and yv and min(an, yn) * ah * yh
    if not (left or right):
        return _ZERO
    if left + right >= 1 << (width - 2):
        raise _Narrow
    num = xv * pv - av * yv
    if not num:
        return _ZERO
    quotient, remainder = divmod(num, qv)
    if remainder:
        raise ValueError("not divisible")
    height = _height((quotient,), width)
    if min(quotient.bit_length() // width + 1, qn) * height * qh < 1 << (width - 1):
        return quotient, height
    # A bound on the numerator's length, and so on an exact quotient's; by
    # Mignotte, |quotient| <= 2^(length-1) * sqrt(length) * (left + right).
    length = xn + pn + an + yn
    if 1 << (width - 1) > min(length, qn) * ((left + right) * length * qh << (length - 1)):
        raise ValueError("not divisible")
    raise _Narrow


def bareiss_determinant(matrix: list[list[tuple]], width: int) -> tuple[int, int]:
    """The determinant (low, value) of a square matrix of packed (low, value) entries.

    Row i is first taken out of t^b_i, b_i the least low among its nonzero
    entries, which leaves every entry a polynomial, held as (value, height)
    with its height from the mask test (_height); the determinant is
    t^(b_1 + ... + b_n) times theirs, stripped once (_strip).  Step k
    replaces each entry (i, j) below and right of the pivot by
    (m_ij*m_kk - m_ik*m_kj) / prev, prev the step's previous pivot; by
    Sylvester's identity every such quotient is an exact polynomial.
    Raises _Narrow as _bareiss_update does.
    """
    lows = [min((low for low, v in row if v), default=0) for row in matrix]
    m = [[(v and v << (low - b) * width, _height((v,), width)) for low, v in row] for b, row in zip(lows, matrix)]
    size, sign, prev = len(m), 1, (1, 1)
    for k in range(size - 1):
        if not m[k][k][0]:
            swap = next((i for i in range(k + 1, size) if m[i][k][0]), None)
            if swap is None:
                return 0, 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        for row in m[k + 1 :]:
            for j in range(k + 1, size):
                row[j] = _bareiss_update(row[j], top[k], row[k], top[j], prev, width)
        prev = top[k]
    value = sign * m[-1][-1][0] if m else 1
    return _strip(sum(lows), value, width) if value else (0, 0)


def _unit_pivot_remainder(rows: list[dict[int, tuple]], width: int) -> list[list[tuple]]:
    """A square packed matrix whose determinant is det(rows) times some +-t^k.

    Row i of rows maps each column to its nonzero packed entry, and rows is
    not changed.  For each column j, left to right, the remaining row with
    a unit +-t^k there (packed value +-1) and the fewest nonzero entries,
    the lowest on a tie, is the pivot: every other row with an entry a
    there loses a*(+-t^-k) times it, and the pivot's row and column are
    dropped.  This is plain row reduction, so the determinant changes only
    by the pivot's unit and a sign.  Columns with no unit stay, in order,
    with the rows never taken; a zero entry is (0, 0).  A touched entry
    costs a multiplication and an aligned addition.  Every row's height
    starts at one mask test (_height) over the rows' distinct values, and
    _Narrow is raised at once if that reaches X/4; a row operation adds the
    factor's weight, the sum of its digits' sizes, times the pivot row's
    height.  A height that would reach X/4 is remade from the mask tests of
    the row and the pivot row, and _Narrow is raised if it still would.
    """
    height, limit = _height({v for row in rows for _, v in row.values()}, width), 1 << (width - 2)
    if height >= limit:
        raise _Narrow
    bound = dict.fromkeys(range(len(rows)), height)
    rows = {i: dict(row) for i, row in enumerate(rows)}
    digit = (1 << width) - 1
    kept = []
    for j in range(len(rows)):
        units = [i for i, row in rows.items() if j in row and row[j][1] in (1, -1)]
        if not units:
            kept.append(j)
            continue
        p = min(units, key=lambda i: (len(rows[i]), i))
        pivot, pbound = rows.pop(p), bound.pop(p)
        k, c = pivot.pop(j)
        entries = [(col, pl, pv) for col, (pl, pv) in pivot.items()]
        for i, row in rows.items():
            a = row.pop(j, None)
            if a is None:
                continue
            # a * (+-t^-k) with the sign flipped, so the update is an addition.
            al, av = a[0] - k, -c * a[1]
            weight = sum(map(abs, _digits(av, width)))
            h = bound[i] + weight * pbound
            if h >= limit:
                pbound = _height([pv for _, _, pv in entries], width)
                h = _height([v for _, v in row.values()], width) + weight * pbound
                if h >= limit:
                    raise _Narrow
            bound[i] = h
            for col, pl, pv in entries:
                v, low = av * pv, al + pl
                old = row.get(col)
                if old is not None:
                    ol, ov = old
                    if ol < low:
                        low, v = ol, ov + (v << (low - ol) * width)
                    else:
                        v += ov << (ol - low) * width
                    if not v:
                        del row[col]
                        continue
                    if not v & digit:
                        low, v = _strip(low, v, width)
                row[col] = (low, v)
    return [[row.get(j, (0, 0)) for j in kept] for row in rows.values()]


def determinant_up_to_units(rows: list[dict[int, tuple]], width: int = _WIDTH) -> list[int]:
    """det(rows) times some +-t^k, as coefficients lowest first: unit pivots, then Bareiss on the remainder.

    rows are sparse packed rows at width, and each stage measures the rows
    it is given.  The sweep and Bareiss run at width, and at twice the
    width, the rows repacked (_repack), while either raises _Narrow.  rows
    are never changed.
    """
    while True:
        try:
            _, value = bareiss_determinant(_unit_pivot_remainder(rows, width), width)
            return _digits(value, width)
        except _Narrow:
            rows = [{j: (low, _repack(v, width)) for j, (low, v) in row.items()} for row in rows]
            width *= 2


def _tighten(columns: list[list[int]], low: list[int], height: list[int], width: int) -> None:
    """Strip each column's common low zero digits, then bound it by the mask test (_height)."""
    for k in range(1, len(columns) - 1):
        column = columns[k]
        zeros = min((v & -v).bit_length() - 1 for v in column if v) // width
        if zeros:
            column = columns[k] = [v >> zeros * width for v in column]
            low[k] -= zeros
        height[k] = _height(column, width)


def reduced_burau(w: BraidWord, full_twists: int = 0) -> tuple[list[list[int]], list[int], int]:
    """The reduced Burau matrix of w Delta^(2 full_twists), packed: (columns, low, width).

    Without full twists it is multiplicative over concatenation.

    Entry (i, k) is columns[k][i] at X = 2^width times t^-low[k].  While
    the product runs, column k-1 is columns[k], between two zero columns.
    A letter g rewrites only column j = |g| - 1, c[j], as
    t*c[j-1] - t*c[j] + c[j+1] if g > 0 and c[j-1] - t^-1*c[j] + t^-1*c[j+1]
    if g < 0 (columns past the edges read as zero); low keeps every power
    of t nonnegative, so a row costs three shifts and two additions, and
    the height is the sum of the three read.  Before a height would reach X/2 every column is tightened
    (_tighten); the width doubles only if the heights still need it.  The
    matrix is (n-1) x (n-1), so on one strand it is empty.

    Delta^2 = U_2...U_n is the full twist.  It is central and the reduced
    Burau representation is irreducible, so its image is a scalar lambda;
    the determinant gives lambda^(n-1) = t^(n(n-1)), and at t = 1 Delta^2
    acts trivially, so lambda = t^n.  So the matrix is t^(n full_twists)
    times w's: the identity columns start at offset -n full_twists, and as
    every letter and tightening moves the offsets alike, nothing else changes.
    """
    if w.n < 1:
        raise ValueError("need braid index at least 1")
    size, width = w.n - 1, _WIDTH
    columns = [[0] * size] + [[int(i == j) for i in range(size)] for j in range(size)] + [[0] * size]
    low = [-w.n * full_twists] * (size + 2)
    height = [0] + [1] * size + [0]
    for g in w.letters:
        j = abs(g)
        bound = height[j - 1] + height[j] + height[j + 1]
        if bound >= 1 << (width - 1):
            _tighten(columns, low, height, width)
            bound = height[j - 1] + height[j] + height[j + 1]
            while bound >= 1 << (width - 1):
                columns = [[_repack(v, width) for v in column] for column in columns]
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
    return columns[1:-1], low[1:-1], width


def burau_minus_identity(columns: list[list[int]], low: list[int], width: int) -> tuple[list[dict], int]:
    """B - I for the packed Burau matrix B (reduced_burau): (rows, width), as determinant_up_to_units takes.

    The rows are sparse and packed at B's width, and the sweep measures
    their height.  A column held times a negative power of t is
    raised to t^0, and every entry has its low zero digits stripped.
    """
    rows = [{} for _ in columns]
    for k, column in enumerate(columns):
        up = min(low[k], 0)
        for i, v in enumerate(column):
            v = (v << -up * width) - (i == k and 1 << (low[k] - up) * width)
            if v:
                rows[i][k] = _strip(up - low[k], v, width)
    return rows, width
