"""
Exact Laurent-polynomial arithmetic and two Alexander-polynomial pipelines.

Alexander polynomials are defined only up to multiplication by units
+-t^k, so every comparison here goes through normalize_up_to_units, which
shifts the lowest exponent to zero and makes its coefficient positive.

The grid pipeline fills a p x p matrix with t^w, w the knot's winding
number around each cell centre of a size-p grid diagram, takes its
fraction-free Bareiss determinant and divides out (1-t)^(p-1).  The braid
pipeline builds the reduced Burau matrix B of a word, one column update per
letter, and rescales det(B - I) by (1-t)/(1-t^n).  The torus closed form
(t^{ns}-1)(t-1)/((t^n-1)(t^s-1)) serves as the independent ground truth
for both.

Both determinants run through one fraction-free Bareiss kernel whose
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

import time
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
        # the tuple free lists and the long Burau loop of subtractions grows
        # the process's memory from one run to the next.
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

    def __pow__(self, e: int) -> LaurentPolynomial:
        if e < 0:
            raise ValueError("negative power")
        acc = LaurentPolynomial.one()
        for _ in range(e):
            acc = acc * self
        return acc

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
        coeffs = self.coeffs if self.coeffs[0] > 0 else tuple(-c for c in self.coeffs)
        return LaurentPolynomial(0, coeffs)

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


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline passed")


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


def bareiss_determinant(
    matrix: list[list[LaurentPolynomial]], deadline: float | None = None
) -> LaurentPolynomial:
    """Fraction-free determinant over Laurent polynomials.

    Step k replaces each entry (i, j) below and right of the pivot by
    (m_ij*m_kk - m_ik*m_kj) / prev, prev the step's previous pivot; by
    Sylvester's identity every such quotient is exact.  Each quotient is
    one _bareiss_update.  With a `time.monotonic()` deadline, raises
    TimeoutError at the first pivot taken after it.
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
        _check_deadline(deadline)
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


def alexander_from_grid(g: GridDiagram, deadline: float | None = None) -> LaurentPolynomial:
    """The normalized Alexander polynomial of a one-component grid diagram.

    With w(i, j) the winding number of the knot around the cell centre
    (i+1/2, j+1/2), 0 <= i, j < p, the p x p matrix (t^w) has determinant
    +-t^a (1-t)^(p-1) Delta(t) (Manolescu-Ozsvath-Sarkar).  The division by
    (1-t)^(p-1) raises unless it is exact.
    """
    p = g.size
    if len(g.columns_in_order()) != p:
        raise ValueError("not a knot")
    winding = [[0] * p for _ in range(p)]
    for x, (y1, y2) in enumerate(zip(g.starts, g.ends), 1):
        # A vertical edge moves the winding number of every centre to its left.
        step = 1 if y2 > y1 else -1
        for j in range(min(y1, y2), max(y1, y2)):
            for i in range(x):
                winding[i][j] += step
    low = min(map(min, winding))
    matrix = [[LaurentPolynomial.term(1, w - low) for w in row] for row in winding]
    one_minus_t = LaurentPolynomial.one() - LaurentPolynomial.term(1, 1)
    det = bareiss_determinant(matrix, deadline)
    return det.divide_exact(one_minus_t ** (p - 1)).normalize_up_to_units()


# --- Reduced Burau and braid closures -----------------------------------------


def _times_t(p: LaurentPolynomial, e: int) -> LaurentPolynomial:
    return LaurentPolynomial(p.min_exp + e, p.coeffs) if p.coeffs else p


def reduced_burau(w: BraidWord, deadline: float | None = None) -> list[list[LaurentPolynomial]]:
    """The reduced Burau matrix of a word; multiplicative over concatenation.

    The image of a generator differs from the identity only in column
    j = |g| - 1, so right-multiplying by it replaces that column c[j] by
    t*c[j-1] - t*c[j] + c[j+1] for a positive letter and by
    c[j-1] - t^-1*c[j] + t^-1*c[j+1] for a negative one (columns past
    either edge read as zero).  With a `time.monotonic()` deadline, raises
    TimeoutError at the first letter taken after it.
    """
    if w.n < 2:
        raise ValueError("need braid index at least 2")
    zero, one = LaurentPolynomial.zero(), LaurentPolynomial.one()
    last = w.n - 2
    out = [[one if i == j else zero for j in range(last + 1)] for i in range(last + 1)]
    for g in w.letters:
        _check_deadline(deadline)
        j = abs(g) - 1
        for row in out:
            left = row[j - 1] if j > 0 else zero
            right = row[j + 1] if j < last else zero
            if g > 0:
                row[j] = _times_t(left - row[j], 1) + right
            else:
                row[j] = left + _times_t(right - row[j], -1)
    return out


def alexander_from_closure(w: BraidWord, deadline: float | None = None) -> LaurentPolynomial:
    """The normalized Alexander polynomial of the closure of the braid.

    Computed as det(reduced Burau - I) * (1-t)/(1-t^n).
    """
    if not induced_permutation(w).is_single_cycle():
        raise ValueError("closure has multiple components")
    m = reduced_burau(w, deadline)
    one = LaurentPolynomial.one()
    for i in range(len(m)):
        m[i][i] = m[i][i] - one
    det = bareiss_determinant(m, deadline)
    scaled = (det * _t_power_minus_one(1)).divide_exact(_t_power_minus_one(w.n))
    return scaled.normalize_up_to_units()


# --- End-to-end certification --------------------------------------------------

PIPELINES = ("grid", "burau", "both")


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
    Past the `time.monotonic()` deadline, checked before each stage and at
    each determinant pivot, the report so far is returned with
    "timeout": True and no "all_match".  A stage that raises ValueError or
    ArithmeticError fails the certificate: "error" holds "<stage>: <message>"
    and "all_match" is False.
    """
    check_pair(n, s)
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {', '.join(PIPELINES)}, got {pipeline!r}")
    report: dict = {"n": n, "s": s, "pipeline": pipeline}
    checks: list[bool] = []
    stage = ""

    def enter(name: str) -> None:
        nonlocal stage
        _check_deadline(deadline)
        stage = name

    try:
        enter("synthesize")
        pp = synthesize(n, s)
        bound = length_bound(n, s)
        report.update(petal_permutation=list(pp.entries), length=pp.p, bound=bound)
        checks.append(pp.p == bound)

        enter("grid")
        grid = build_petal_grid(pp)
        report["grid_valid"] = validate_petal_grid(grid).valid
        checks.append(report["grid_valid"])

        enter("strongly_braided")
        report["strongly_braided"] = classify(pp) == STRONGLY_BRAIDED
        checks.append(report["strongly_braided"])

        enter("witness")
        witness = torus_conjugacy_witness(n, s)
        report["conjugacy_verified"] = witness.verified
        report["conjugator"] = format_word(witness.conjugator)
        report["conjugate_band_form"] = format_word(witness.rhs)
        checks.append(witness.verified)

        enter("closed_form")
        closed_form = torus_alexander(n, s)
        report["alexander_closed_form"] = str(closed_form)

        if pipeline in ("grid", "both"):
            enter("alexander_grid")
            from_grid = alexander_from_grid(grid, deadline)
            report["alexander_from_grid"] = str(from_grid)
            checks.append(equal_up_to_units(from_grid, closed_form))
        if pipeline in ("burau", "both"):
            enter("alexander_braid")
            from_braid = alexander_from_closure(witness.rhs, deadline)
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
