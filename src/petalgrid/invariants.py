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
        # the tuple free lists and the long Burau and Bareiss loops of
        # subtractions grow the process's memory from one run to the next.
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


def bareiss_determinant(
    matrix: list[list[LaurentPolynomial]], deadline: float | None = None
) -> LaurentPolynomial:
    """Fraction-free determinant over Laurent polynomials, up to a unit t^k.

    Rows are first rescaled by powers of t so all entries are ordinary
    polynomials; each elimination step divides exactly by the previous
    pivot, so all arithmetic stays in Z[t].  With a `time.monotonic()`
    deadline, raises TimeoutError at the first pivot taken after it.
    """
    size = len(matrix)
    if size == 0:
        return LaurentPolynomial.one()
    m = []
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix is not square")
        shift = -min((p.min_exp for p in row if not p.is_zero()), default=0)
        shift = max(shift, 0)
        unit = LaurentPolynomial.term(1, shift)
        m.append([p * unit for p in row])

    sign = 1
    prev = LaurentPolynomial.one()
    for k in range(size - 1):
        _check_deadline(deadline)
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, size) if not m[i][k].is_zero()), None)
            if swap is None:
                return LaurentPolynomial.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).divide_exact(prev)
            m[i][k] = LaurentPolynomial.zero()
        prev = m[k][k]
    det = m[size - 1][size - 1]
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


def reduced_burau(w: BraidWord) -> list[list[LaurentPolynomial]]:
    """The reduced Burau matrix of a word; multiplicative over concatenation.

    The image of a generator differs from the identity only in column
    j = |g| - 1, so right-multiplying by it replaces that column c[j] by
    t*c[j-1] - t*c[j] + c[j+1] for a positive letter and by
    c[j-1] - t^-1*c[j] + t^-1*c[j+1] for a negative one (columns past
    either edge read as zero).
    """
    if w.n < 2:
        raise ValueError("need braid index at least 2")
    zero, one = LaurentPolynomial.zero(), LaurentPolynomial.one()
    last = w.n - 2
    out = [[one if i == j else zero for j in range(last + 1)] for i in range(last + 1)]
    for g in w.letters:
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
    m = reduced_burau(w)
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
