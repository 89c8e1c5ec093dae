"""Seeded inputs, independently known answers and output checks for each workload.

Every item is a zero-argument call into petalgrid plus a check of what it
returned.  The expected answers never come from petalgrid itself:

* certify items are checked against the torus-knot closed form
  (t^{ns}-1)(t-1) / ((t^n-1)(t^s-1)), divided out here over Z[t] and
  printed in the README's polynomial syntax, and against the length bound
  2s - 2*floor(s/n) + 1;
* word pairs are equal by construction (braid-relation rewrites and free
  insertions) or unequal because their exponent sums differ, and the
  exponent sum is a homomorphism B_n -> Z;
* conjugacy witnesses must verify, keep the exponent sum s(n-1) of delta^s,
  and close up to a single component.

Functions are looked up on their module at call time, so the span wrappers
in spans.py see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import petalgrid.braid as braid
import petalgrid.cli as cli


@dataclass
class Item:
    """One unit of work: `run` calls petalgrid, `check` returns None or a failure message.

    `span` names the root span the traced run opens around the call; None
    means the call's own layer span is the root.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    span: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    band: str
    make: Callable[[random.Random], list[Item]]


# --- Torus-knot closed form, independent of petalgrid.invariants --------------


def _t_power_minus_one(e: int) -> list[int]:
    return [-1] + [0] * (e - 1) + [1]


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divide_exact(num: list[int], den: list[int]) -> list[int]:
    rem = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[k + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("closed form does not divide")
        out[k] = q
        for j, d in enumerate(den):
            rem[k + j] -= q * d
    if any(rem):
        raise ArithmeticError("closed form does not divide")
    return out


def format_polynomial(coeffs: list[int]) -> str:
    """coeffs[e] multiplies t^e; printed highest term first, as in `t^2 - t + 1`."""
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mono = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        mag = abs(c)
        body = mono if mag == 1 and mono else f"{mag}{'*' if mono else ''}{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def torus_alexander_text(n: int, s: int) -> str:
    """The normalized Alexander polynomial of T(n, s) as petalgrid prints it."""
    num = _mul(_t_power_minus_one(n * s), _t_power_minus_one(1))
    den = _mul(_t_power_minus_one(n), _t_power_minus_one(s))
    coeffs = _divide_exact(num, den)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    lo = next(i for i, c in enumerate(coeffs) if c)
    coeffs = coeffs[lo:]
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return format_polynomial(coeffs)


# --- certify-grid and certify-braid --------------------------------------------


def length_bound(n: int, s: int) -> int:
    return 2 * s - 2 * (s // n) + 1


def _certify_item(n: int, s: int, pipeline: str) -> Item:
    argv = ["verify", str(n), str(s), "--json"]
    if pipeline != "both":
        argv += ["--pipeline", pipeline]
    expected = torus_alexander_text(n, s)
    bound = length_bound(n, s)
    sides = ["alexander_closed_form", "alexander_from_braid"]
    if pipeline == "both":
        sides.append("alexander_from_grid")

    def run() -> tuple[int, str, str]:
        return cli_call(argv)

    def check(result: tuple[int, str, str]) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()[-300:]}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if payload.get("schema") != 1 or (payload.get("n"), payload.get("s")) != (n, s):
            return "wrong schema or pair echoed"
        if payload.get("all_match") is not True:
            return "all_match is not true"
        if payload.get("conjugacy_verified") is not True or payload.get("grid_valid") is not True:
            return "conjugacy or grid check not passed"
        if payload.get("length") != bound or payload.get("bound") != bound:
            return f"length {payload.get('length')} != bound {bound}"
        if sorted(payload.get("petal_permutation", [])) != list(range(1, bound + 1)):
            return "petal permutation is not a permutation of 1..bound"
        for key in sides:
            if payload.get(key) != expected:
                return f"{key} = {payload.get(key)!r}, expected {expected!r}"
        return None

    return Item(f"verify {n} {s} {pipeline}", run, check, span="cli.verify")


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """petalgrid.cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _half_crossing_pairs(h: int) -> list[tuple[int, int]]:
    """Coprime pairs with 3 <= n < s whose petal grid has h*h - 1 crossings.

    The petal grid of T(n, s) has 2h + 1 entries with h = s - floor(s/n),
    and h*h - 1 crossings.  n = 2 is left out: two-strand diagrams have a
    much cheaper determinant at the same crossing count, which would make a
    pass's time depend on the seed.
    """
    out = []
    for n in range(3, h + 2):
        for s in range(n + 1, 2 * h + 2):
            if math.gcd(n, s) == 1 and s - s // n == h:
                out.append((n, s))
    return out


GRID_RUNGS = (6, 7, 8, 9)  # h: 35, 48, 63, 80 crossings
GRID_TOP = (7, 11)  # h = 10: 99 crossings


def make_certify_grid(rng: random.Random) -> list[Item]:
    pairs = [rng.choice(_half_crossing_pairs(h)) for h in GRID_RUNGS]
    pairs.append(GRID_TOP)
    return [_certify_item(n, s, "both") for n, s in pairs]


# Every rung is past the grid pipeline's 400-crossing cap (s - floor(s/n) >= 21).
# A wider s window or more rungs lets the seed move a pass's time by more
# than the noise between runs of one seed.
BRAID_RUNG_N = (11, 13, 14, 15)
BRAID_S = range(23, 32)
BRAID_TOP = (17, 40)


def make_certify_braid(rng: random.Random) -> list[Item]:
    pairs = [(n, rng.choice([s for s in BRAID_S if math.gcd(n, s) == 1])) for n in BRAID_RUNG_N]
    pairs.append(BRAID_TOP)
    return [_certify_item(n, s, "burau") for n, s in pairs]


# --- braid-words ---------------------------------------------------------------

WORD_N = range(6, 15)
WORD_LETTERS = 200
WORD_PAIRS_PER_N = 4  # alternately equal and unequal
TOP_N, TOP_LETTERS, TOP_SEED = 14, 300, 0  # the top rung is the same pair for every seed
WITNESS_S_FACTOR = (2, 5)  # witness ladder: s drawn from (2n, 5n]


def exponent_sum(letters: tuple[int, ...] | list[int]) -> int:
    return sum(1 if g > 0 else -1 for g in letters)


def _random_word(rng: random.Random, n: int, length: int) -> list[int]:
    signs = [1, -1] * (length // 2) + [1] * (length % 2)
    rng.shuffle(signs)
    return [sg * rng.randint(1, n - 1) for sg in signs]


def _find(rng: random.Random, w: list[int], width: int, ok: Callable[[list[int]], bool]) -> int | None:
    """A position i with ok(w[i:i+width]), scanning cyclically from a random start."""
    span = len(w) - width + 1
    if span <= 0:
        return None
    start = rng.randrange(span)
    for k in range(span):
        i = (start + k) % span
        if ok(w[i : i + width]):
            return i
    return None


def rewrite(rng: random.Random, n: int, word: list[int], moves: int) -> list[int]:
    """An equal word, reached by `moves` random applications of braid-group relations.

    Moves: commute far letters, apply sigma_i sigma_j sigma_i = sigma_j sigma_i sigma_j
    (|i-j| = 1, same sign), cancel or insert g g^-1, insert a braid relator.
    """
    w = list(word)
    for _ in range(moves):
        move = rng.randrange(5)
        if move == 0:
            i = _find(rng, w, 2, lambda v: abs(abs(v[0]) - abs(v[1])) >= 2)
            if i is not None:
                w[i], w[i + 1] = w[i + 1], w[i]
        elif move == 1:
            i = _find(
                rng,
                w,
                3,
                lambda v: v[0] == v[2] and abs(abs(v[0]) - abs(v[1])) == 1 and (v[0] > 0) == (v[1] > 0),
            )
            if i is not None:
                w[i : i + 3] = [w[i + 1], w[i], w[i + 1]]
        elif move == 2:
            i = _find(rng, w, 2, lambda v: v[0] == -v[1])
            if i is not None:
                del w[i : i + 2]
        elif move == 3:
            g = rng.choice([1, -1]) * rng.randint(1, n - 1)
            i = rng.randint(0, len(w))
            w[i:i] = [g, -g]
        else:
            a = rng.randint(1, n - 2)
            x, y = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
            i = rng.randint(0, len(w))
            w[i:i] = [x, y, x, -y, -x, -y]
    return w


def _pair_item(n: int, w1: list[int], w2: list[int], expected: bool) -> Item:
    b1, b2 = braid.BraidWord(n, tuple(w1)), braid.BraidWord(n, tuple(w2))

    def check(result: Any) -> str | None:
        return None if result is expected else f"words_equal returned {result!r}, expected {expected}"

    kind = "equal" if expected else "unequal"
    return Item(f"B_{n} {kind} {len(w1)}/{len(w2)} letters", lambda: braid.words_equal(b1, b2), check)


def _closes_to_one_cycle(n: int, letters: tuple[int, ...]) -> bool:
    images = list(range(n))
    for g in letters:
        i = abs(g)
        images[i - 1], images[i] = images[i], images[i - 1]
    seen, k = 0, 0
    while True:
        k = images[k]
        seen += 1
        if k == 0:
            return seen == n


def _witness_item(n: int, s: int) -> Item:
    def run() -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
        w = braid.torus_conjugacy_witness(n, s)
        return w.verified, w.conjugator.letters, w.rhs.letters

    def check(result: tuple[bool, tuple[int, ...], tuple[int, ...]]) -> str | None:
        verified, _, rhs = result
        if verified is not True:
            return "witness not verified"
        if exponent_sum(rhs) != s * (n - 1):
            return f"rhs exponent sum {exponent_sum(rhs)} != s(n-1) = {s * (n - 1)}"
        if not _closes_to_one_cycle(n, rhs):
            return "rhs closure is not a knot"
        return None

    return Item(f"witness {n} {s}", run, check)


def _word_pair(rng: random.Random, n: int, letters: int, equal: bool) -> Item:
    w1 = _random_word(rng, n, letters)
    w2 = rewrite(rng, n, w1, letters // 2)
    if not equal:
        i = rng.randrange(len(w2))
        w2[i] = -w2[i]
    if (exponent_sum(w1) == exponent_sum(w2)) != equal:
        raise AssertionError("word pair generator broke its own invariant")
    return _pair_item(n, w1, w2, equal)


def make_braid_words(rng: random.Random) -> list[Item]:
    items = []
    for n in WORD_N:
        items += [_word_pair(rng, n, WORD_LETTERS, k % 2 == 0) for k in range(WORD_PAIRS_PER_N)]
        lo, hi = WITNESS_S_FACTOR
        s = rng.choice([s for s in range(lo * n + 1, hi * n + 1) if math.gcd(n, s) == 1])
        items.append(_witness_item(n, s))
    items.append(_word_pair(random.Random(TOP_SEED), TOP_N, TOP_LETTERS, True))
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-grid",
            "one seeded pair (3 <= n) per crossing count 35, 48, 63, 80, then T(7,11) at 99",
            make_certify_grid,
        ),
        Workload(
            "certify-braid",
            "one seeded s in 23..31 for each n in 11, 13, 14, 15, then T(17,40)",
            make_certify_braid,
        ),
        Workload(
            "braid-words",
            "4 seeded word pairs of 200 letters (then rewritten) and one witness with 2n < s <= 5n per n in 6..14, "
            "then a fixed equal pair of 300 letters in B_14",
            make_braid_words,
        ),
    )
}
