"""
The torus closed form and two Alexander-polynomial pipelines.

Alexander polynomials are defined only up to multiplication by units
+-t^k, so each one here is a tuple of coefficients, lowest power first,
with no zero at either end and the lowest coefficient positive (normalized):
two such tuples are the same polynomial up to units exactly when they are
equal.  format_polynomial prints one.

The grid pipeline takes the determinant of a grid diagram's winding-number
matrix with each row less the next, the factor (1-t) and a unit taken out:
+-t^b Delta(t), from a matrix whose nonzero entries are units.  The braid
pipeline rescales det(B - I), B the reduced Burau matrix of a word, by
(1-t)/(1-t^n).  Both go through one sweep of row operations on unit
pivots, then Bareiss on what is left: order n-1 on the petal grid of
T(n, s), order 1 on B - I for its band form (lower Hessenberg, a unit on
every superdiagonal entry).  The ground truth for both is Delta of T(n, s)
read off the numerical semigroup <n, s>; the tests check it against the
quotient (t^{ns}-1)(t-1)/((t^n-1)(t^s-1)).

The Burau product, B - I, the sweep and Bareiss run in petalgrid.packed,
on polynomials packed as integers; its docstring shows why they are exact.
Only the determinant's coefficients come back from it, and the only
polynomial arithmetic outside it is the braid pipeline's rescaling, on
coefficient lists.

End-to-end certification: certify(n, s) is the one certifier behind
`petalgrid verify`, selftest and the acceptance tests.
"""
from __future__ import annotations

from contextlib import contextmanager

from .braid import (
    BraidWord,
    check_pair,
    conjugate_band_braid,
    format_word,
    induced_permutation,
    is_single_cycle,
    torus_conjugacy_witness,
)
from .grid import GridDiagram, build_petal_grid, validate_petal_grid
# bareiss_determinant is kept importable here for perfbench/spans.py.
from .packed import bareiss_determinant, burau_minus_identity, determinant_up_to_units, reduced_burau  # noqa: F401
from .petal import STRONGLY_BRAIDED, classify, length_bound, synthesize


def normalized(coeffs: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """The representative up to units +-t^k: zeros trimmed at both ends, the lowest coefficient positive."""
    lo, hi = 0, len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    sign = -1 if lo < hi and coeffs[lo] < 0 else 1
    return tuple([sign * c for c in coeffs[lo:hi]])


def format_polynomial(coeffs: tuple[int, ...] | list[int]) -> str:
    """The polynomial with these coefficients, lowest power first, as text, highest power first.

    >>> format_polynomial((-1, 0, 0, 2))
    '2*t^3 - 1'
    """
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mono = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        body = mono if abs(c) == 1 and mono else f"{abs(c)}{'*' if mono else ''}{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def torus_alexander(n: int, s: int) -> tuple[int, ...]:
    """Delta of T(n, s), normalized, read off the numerical semigroup <n, s>.

    With c = (n-1)(s-1), Delta(t) = (1-t) * (the sum of t^k over the
    members k < c of <n, s>) + t^c: the semigroup's generating function
    (1-t^{ns})/((1-t^n)(1-t^s)) times 1-t.  Each k < ns is an + bs in at
    most one way, so one pass over a < s marks every member once, in O(ns)
    integer steps and with no division.  0 is a member and c - 1 the
    largest gap, so the list starts and ends with 1: trimmed and normalized.

    >>> torus_alexander(2, 3)
    (1, -1, 1)
    >>> print(format_polynomial(torus_alexander(3, 4)))
    t^6 - t^5 + t^3 - t + 1
    """
    check_pair(n, s)
    c = (n - 1) * (s - 1)
    member = [0] * c
    for an in range(0, c, n):
        for k in range(an, c, s):
            member[k] = 1
    return tuple([a - b for a, b in zip(member + [1], [0] + member)])


# --- Alexander polynomial from a grid diagram ---------------------------------


def _differenced_grid_matrix(g: GridDiagram) -> list[dict[int, tuple]]:
    """The winding-number matrix (t^w(i, j)) with each row less the next, over 1-t, as sparse packed rows.

    w(i, j) is the winding number of the knot around the cell centre
    (i+1/2, j+1/2), 0 <= i, j < p.  Rows i and i+1 differ only where j lies
    between the ends of the vertical edge at x = i+1, and there
    w(i, j) = w(i+1, j) + step, step = +-1 as the edge runs up or down.  So
    row i minus row i+1 is (t^step - 1) t^w(i+1, j), a unit times 1-t, on
    that span and zero off it.  Row i here is t^w(i+1, j), packed as
    (w, 1), on the span, and the last row is unchanged, so the
    determinant is det(t^w) / (1-t)^(p-1) up to +-t^k.  A running row of winding numbers
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
                rows[x - 1][j] = (running[j], 1)
            running[j] += step
        if x == p:
            rows.append({j: (w, 1) for j, w in enumerate(running)})
    return rows


def alexander_from_grid(g: GridDiagram) -> tuple[int, ...]:
    """The normalized Alexander polynomial of a one-component grid diagram.

    The p x p matrix (t^w), w the winding number around each cell centre,
    has determinant +-t^a (1-t)^(p-1) Delta(t) (Manolescu-Ozsvath-Sarkar),
    so _differenced_grid_matrix has determinant +-t^b Delta(t) itself.  Its
    entries are units, packed alike at every width.
    """
    if len(g.columns_in_order()) != g.size:
        raise ValueError("not a knot")
    return normalized(determinant_up_to_units(_differenced_grid_matrix(g)))


# --- Alexander polynomial of a braid closure ----------------------------------


def alexander_from_closure(w: BraidWord, full_twists: int = 0) -> tuple[int, ...]:
    """The normalized Alexander polynomial of the closure of w Delta^(2 full_twists).

    B is the reduced Burau matrix of that braid (reduced_burau, which counts
    each full twist Delta^2 as the scalar t^n and multiplies out w alone).
    Computed as det(B - I) * (1-t)/(1-t^n) on the determinant's coefficient
    list: one difference for 1-t, then the running sum q_k += q_(k-n) for
    1/(1-t^n), exact exactly when its last n entries are zero.  The sweep
    gives the determinant up to +-t^k, which the normalization absorbs.  On
    one strand B - I is the empty matrix, of determinant 1, and the closure
    is the unknot.
    """
    if not is_single_cycle(induced_permutation(w)):
        raise ValueError("closure has multiple components")
    det = determinant_up_to_units(*burau_minus_identity(*reduced_burau(w, full_twists)))
    q = [a - b for a, b in zip(det + [0], [0] + det)]
    for k in range(w.n, len(q)):
        q[k] += q[k - w.n]
    if any(q[-w.n :]):
        raise ValueError("not divisible")
    return normalized(q[: -w.n])


# --- End-to-end certification -------------------------------------------------

PIPELINES = ("grid", "burau", "both")


@contextmanager
def _alarm(timeout: float | None):
    """Raise TimeoutError in the block once timeout seconds have passed.

    One SIGALRM interval timer, armed for the timeout clamped to [1 us,
    1e9 s]: 0 would disarm it, and setitimer overflows past about 1e9 s.
    """
    if timeout is None:
        yield
        return
    import signal  # only a run with a timeout needs it

    if not (hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")):
        raise ValueError("no POSIX interval timer (signal.SIGALRM, signal.setitimer)")

    def ring(*_):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, ring)  # in before the timer is armed
    try:
        signal.setitimer(signal.ITIMER_REAL, min(max(timeout, 1e-6), 1e9))
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:  # out only once it is off, even if it rings in the line above
            signal.signal(signal.SIGALRM, previous)


def certify(n: int, s: int, pipeline: str = "both", *, timeout: float | None = None) -> dict:
    """Certify that the synthesized petal permutation represents T(n, s).

    Stages, in order: synthesize; build and validate the petal grid;
    check strong braidedness; verify the conjugacy witness carrying delta^s
    to its band form; the torus closed form; then the Alexander polynomial
    of the grid ("grid" or "both") and of the band form's closure ("burau"
    or "both"), each compared with the closed form up to units.  With
    s = nm + k, the band form is delta (U_2...U_n)^m U_{a_1}...U_{a_{k-1}},
    and each block U_2...U_n is Delta^2, whose reduced Burau image is t^n I
    (reduced_burau): the Burau product runs on the tail
    conjugate_band_braid(n, k), and the m full twists are counted.
    Alexander agreement plus the explicit conjugacy witness is the
    certification standard; the Alexander polynomial alone separates torus
    knots pairwise but is not a complete invariant.  "grid_valid" holds for
    every permutation build_petal_grid accepts, whose knot steps from
    column x to x + (p+1)/2 mod p, so it checks how the grid is drawn;
    what ties the grid to T(n, s) is Alexander agreement.

    Returns the report `petalgrid verify --json` prints, without "schema".
    An invalid pair, pipeline or NaN timeout raises ValueError before any
    stage runs.  After `timeout` seconds (at once if it is 0 or less) a
    SIGALRM timer interrupts whichever stage is running, and the report so
    far is returned with "timeout": True and no "all_match".  The timer needs
    a POSIX system and the main thread; elsewhere a timeout fails the "timer"
    stage.  A stage that raises ValueError or ArithmeticError fails the
    certificate: "error" holds "<stage>: <message>" and "all_match" is False.
    """
    check_pair(n, s)
    if pipeline not in PIPELINES:
        raise ValueError(f"pipeline must be one of {', '.join(PIPELINES)}, got {pipeline!r}")
    if timeout != timeout:  # only NaN is unequal to itself
        raise ValueError("timeout must be a number of seconds, got nan")
    report: dict = {"n": n, "s": s, "pipeline": pipeline}
    checks: list[bool] = []
    stage = "timer"
    try:
        with _alarm(timeout):
            stage = "synthesize"
            pp = synthesize(n, s)
            bound = length_bound(n, s)
            report.update(petal_permutation=list(pp), length=len(pp), bound=bound)
            checks.append(len(pp) == bound)

            stage = "grid"
            grid = build_petal_grid(pp)
            report["grid_valid"] = not validate_petal_grid(grid)
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
            report["alexander_closed_form"] = format_polynomial(closed_form)

            if pipeline in ("grid", "both"):
                stage = "alexander_grid"
                from_grid = alexander_from_grid(grid)
                report["alexander_from_grid"] = format_polynomial(from_grid)
                checks.append(from_grid == closed_form)
            if pipeline in ("burau", "both"):
                stage = "alexander_braid"
                from_braid = alexander_from_closure(conjugate_band_braid(n, s % n), s // n)
                report["alexander_from_braid"] = format_polynomial(from_braid)
                checks.append(from_braid == closed_form)
    except TimeoutError:
        report["timeout"] = True
        return report
    except (ValueError, ArithmeticError) as exc:
        report["error"] = f"{stage}: {exc}"
        checks.append(False)
    report["all_match"] = all(checks)
    return report
