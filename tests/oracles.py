"""Independent brute-force oracles shared by the unit and acceptance tests.

Nothing here goes through the code paths it checks: word equality is decided
by exhaustive rewriting, normal forms also letter by letter with a Delta
stripped only once it reaches the front, polynomial arithmetic and the
normalization up to units on a Laurent ring of its own (the library keeps
a polynomial as a bare coefficient tuple), the torus closed form as the
quotient (t^{ns}-1)(t-1)/((t^n-1)(t^s-1)), determinants by cofactor
expansion and by Bareiss on that ring, the unit-pivot sweep on
exponent -> coefficient dicts, permutations composed and inverted as
image tuples (the library composes none), grid crossings
by scanning lattice points, Alexander polynomials of small diagrams from
the Wirtinger presentation of the crossings of their planar diagrams (both
read a grid as its 2p nodes and their own walk of its cycles), the
undifferenced winding-number matrix of a grid, the petal grid conditions
as the paper states them (horizontal edge lengths and one inflection
edge), the reduced Burau images of generators from their written-out
matrices and of words by one column update per letter on polynomial
entries, and
stabilizations of strongly braided permutations from the closed form of
their result.

It also holds the named bands (sigma_i, the half twist, the descending,
ascending and round-trip runs, products of round trips), residue
permutations, and the braid-identity suites that check
through the normal form: band-relations (shifts of generators through the
runs, bands commuting, band products merging, U_2...U_n = Delta^2),
residue-conjugacy (residue permutations against the band indices, the
conjugacy witnesses, delta^n central) and normal-form-rewrites
(one braid relation leaves the normal form unchanged).  Last comes the
lemma algebra of the paper's proof that delta^s is conjugate to its band
form (stacked braids, routing braids, conjugation by delta, splitting a
permutation braid) with the seeded suites that check its identities:
routing-composition, split-exchange, braid-splitting, band-conjugation and
band-to-delta.
"""
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass

from petalgrid.braid import (
    BraidWord,
    NormalForm,
    _Value,
    band_indices,
    delta,
    induced_permutation,
    left_normal_form,
    permutation_braid,
    torus_conjugacy_witness,
    words_equal,
)
from petalgrid.grid import GridDiagram
from petalgrid.petal import STRONGLY_BRAIDED, classify, stabilize


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of p after q: (p q)(i) = p(q(i)), the left action."""
    if len(p) != len(q):
        raise ValueError("degree mismatch")
    return tuple([p[j - 1] for j in q])


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, a in enumerate(p, 1):
        inv[a - 1] = i
    return tuple(inv)


def residue_perm(n: int, k: int) -> tuple[int, ...]:
    """The permutation i -> k*i mod n (representatives in 1..n, so n is fixed).

    The witness builds its conjugator from the same map in place.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if math.gcd(n, k) != 1:
        raise ValueError("not coprime")
    return tuple((k * i - 1) % n + 1 for i in range(1, n + 1))


def rewrite_neighbors(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All positive words one braid relation away (commutation or triple move)."""
    out = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if abs(a - b) >= 2:
            out.append(word[:i] + (b, a) + word[i + 2 :])
    for i in range(len(word) - 2):
        a, b, c = word[i], word[i + 1], word[i + 2]
        if a == c and abs(a - b) == 1:
            out.append(word[:i] + (b, a, b) + word[i + 3 :])
    return out


def positive_words_agree_with_bfs(n: int, length: int) -> None:
    """Partition all positive words of one length by exhaustive rewriting.

    Positive words are equal in the braid group exactly when connected by
    positive relation moves, so the rewrite components must coincide with
    the normal-form classes.
    """
    words = [()]
    for _ in range(length):
        words = [w + (g,) for w in words for g in range(1, n)]
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for w in words:
        for v in rewrite_neighbors(w):
            ri, rj = find(index[w]), find(index[v])
            if ri != rj:
                parent[ri] = rj

    by_nf: dict[str, set[int]] = {}
    for w in words:
        key = repr(left_normal_form(BraidWord(n, w)))
        by_nf.setdefault(key, set()).add(find(index[w]))
    for key, roots in by_nf.items():
        assert len(roots) == 1, f"normal form class {key} splits under rewrites"
    assert len(by_nf) == len({find(i) for i in range(len(words))})


def _letterwise_left_weight(
    f: tuple[int, ...], g: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Slide crossings from the head of g into the tail of f, one at a time.
    fl = list(f)
    gl = list(g)
    ginv = [0] * n
    for pos, v in enumerate(gl):
        ginv[v - 1] = pos
    s = 0
    changed = False
    while s < n - 1:
        if ginv[s] > ginv[s + 1] and fl[s] < fl[s + 1]:
            fl[s], fl[s + 1] = fl[s + 1], fl[s]
            p1, p2 = ginv[s], ginv[s + 1]
            gl[p1], gl[p2] = gl[p2], gl[p1]
            ginv[s], ginv[s + 1] = p2, p1
            changed = True
            s = max(0, s - 1)
        else:
            s += 1
    if not changed:
        return f, g
    return tuple(fl), tuple(gl)


def _is_id(f: tuple[int, ...]) -> bool:
    return all(v == i + 1 for i, v in enumerate(f))


def _letterwise_append(factors: list[tuple[int, ...]], g: tuple[int, ...], n: int) -> None:
    # Append one permutation-braid factor and comb it leftwards.
    if _is_id(g):
        return
    factors.append(g)
    j = len(factors) - 2
    while j >= 0:
        f2, g2 = _letterwise_left_weight(factors[j], factors[j + 1], n)
        if f2 == factors[j]:
            break
        factors[j] = f2
        if _is_id(g2):
            del factors[j + 1]
        else:
            factors[j + 1] = g2
        j -= 1


def letterwise_normal_form(w: BraidWord) -> NormalForm:
    """The left normal form built one letter at a time.

    Each letter is its own factor: sigma_i^-1 becomes Delta^-1 times the
    factor of Delta sigma_i^-1, a letter's index flips when an odd number of
    negative letters follow it, and a Delta is stripped only once combing
    carries it to the front of the factor list.
    """
    n = w.n
    w0 = tuple(range(n, 0, -1))
    later = sum(1 for g in w.letters if g < 0)
    power = -later
    factors: list[tuple[int, ...]] = []

    for g in w.letters:
        if g < 0:
            later -= 1
        i = abs(g) if later % 2 == 0 else n - abs(g)
        transp = list(range(1, n + 1))
        transp[i - 1], transp[i] = transp[i], transp[i - 1]
        f = tuple(transp) if g > 0 else tuple([n + 1 - j for j in transp])
        _letterwise_append(factors, f, n)
        while factors and factors[0] == w0:
            del factors[0]
            power += 1
    return NormalForm(n, power, tuple(factors))


# --- Laurent polynomials with ring arithmetic ---------------------------------


class Laurent:
    """An integer-coefficient Laurent polynomial with +, -, * and exact division.

    coeffs[j] multiplies t^(min_exp + j); the first and last coefficients
    are nonzero unless the polynomial is zero (empty coeffs).  up_to_units()
    gives the library's form of a polynomial up to +-t^k, a normalized
    coefficient tuple, so the oracles' results and the library's meet in one ==.
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int, coeffs: tuple[int, ...]):
        if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
            raise ValueError("coefficients must be trimmed")
        self.min_exp = min_exp
        self.coeffs = coeffs

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return (self.min_exp, self.coeffs) == (other.min_exp, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.min_exp, self.coeffs))

    def __repr__(self):
        return f"Laurent(min_exp={self.min_exp!r}, coeffs={self.coeffs!r})"

    @staticmethod
    def zero() -> "Laurent":
        return Laurent(0, ())

    @staticmethod
    def term(coeff: int, exp: int = 0) -> "Laurent":
        return Laurent(exp, (coeff,)) if coeff else Laurent.zero()

    @staticmethod
    def one() -> "Laurent":
        return Laurent.term(1)

    @staticmethod
    def from_coeffs(min_exp: int, coeffs: list[int]) -> "Laurent":
        nonzero = [j for j, c in enumerate(coeffs) if c]
        if not nonzero:
            return Laurent.zero()
        return Laurent(min_exp + nonzero[0], tuple(coeffs[nonzero[0] : nonzero[-1] + 1]))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def __add__(self, other) -> "Laurent":
        if self.is_zero():
            return Laurent(other.min_exp, other.coeffs)
        if not other.coeffs:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.min_exp + len(other.coeffs) - 1)
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return Laurent.from_coeffs(lo, out)

    def __neg__(self) -> "Laurent":
        return Laurent(self.min_exp, tuple([-c for c in self.coeffs]))

    def __sub__(self, other) -> "Laurent":
        return self + (-Laurent(other.min_exp, other.coeffs))

    def __mul__(self, other) -> "Laurent":
        if self.is_zero() or not other.coeffs:
            return Laurent.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Laurent.from_coeffs(self.min_exp + other.min_exp, out)

    def divide_exact(self, other) -> "Laurent":
        """Exact division; raises when the quotient is not a Laurent polynomial."""
        if not other.coeffs:
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
        return Laurent.from_coeffs(self.min_exp - other.min_exp, out)

    def up_to_units(self) -> tuple[int, ...]:
        """The coefficients of the representative with lowest exponent 0 and positive lowest coefficient."""
        return (self if not self.coeffs or self.coeffs[0] > 0 else -self).coeffs


def t_power_minus_one(e: int) -> Laurent:
    return Laurent.from_coeffs(0, [-1] + [0] * (e - 1) + [1])


def torus_alexander_by_quotient(n: int, s: int) -> tuple[int, ...]:
    """Delta of T(n, s) as the quotient (t^{ns}-1)(t-1)/((t^n-1)(t^s-1)), normalized up to units."""
    num = t_power_minus_one(n * s) * t_power_minus_one(1)
    den = t_power_minus_one(n) * t_power_minus_one(s)
    return num.divide_exact(den).up_to_units()


def naive_cofactor_det(m: list[list[Laurent]]) -> Laurent:
    if not m:
        return Laurent.one()
    if len(m) == 1:
        return m[0][0]
    total = Laurent.zero()
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = entry * naive_cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def fraction_free_det(m: list[list[Laurent]]) -> Laurent:
    """The determinant by Bareiss's fraction-free elimination, in Laurent arithmetic alone.

    Step k replaces each entry below and right of the pivot by
    (m_ij*m_kk - m_ik*m_kj) / prev, prev the previous pivot, through
    divide_exact; a zero pivot swaps in the first lower row with a nonzero
    entry in its column, and there is none only when the determinant is 0.
    """
    m = [list(row) for row in m]
    size, sign, prev = len(m), 1, Laurent.one()
    for k in range(size - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, size) if not m[i][k].is_zero()), None)
            if swap is None:
                return Laurent.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for row in m[k + 1 :]:
            for j in range(k + 1, size):
                row[j] = (row[j] * m[k][k] - row[k] * m[k][j]).divide_exact(prev)
        prev = m[k][k]
    if not m:
        return Laurent.one()
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def burau_generator(n: int, letter: int) -> list[list[Laurent]]:
    """The reduced Burau image of one signed Artin generator, written out.

    The (n-1) x (n-1) identity, except in column i-1 for i = |letter|:
    (t, -t, 1) for a positive letter and (1, -t^-1, t^-1) for a negative
    one, on rows i-2, i-1 and i where those rows exist.
    """
    i = abs(letter)
    t = Laurent.term(1, 1)
    tinv = Laurent.term(1, -1)
    one = Laurent.one()
    m = [[one if r == c else Laurent.zero() for c in range(n - 1)] for r in range(n - 1)]
    if letter > 0:
        m[i - 1][i - 1] = -t
        if i > 1:
            m[i - 2][i - 1] = t
        if i < n - 1:
            m[i][i - 1] = one
    else:
        m[i - 1][i - 1] = -tinv
        if i > 1:
            m[i - 2][i - 1] = one
        if i < n - 1:
            m[i][i - 1] = tinv
    return m


def reduced_burau_by_columns(w: BraidWord) -> list[list[Laurent]]:
    """The reduced Burau matrix of a word, one column update per letter on Laurent entries.

    Right-multiplying by a generator replaces column j = |g| - 1, c[j], by
    t*c[j-1] - t*c[j] + c[j+1] for a positive letter and by
    c[j-1] - t^-1*c[j] + t^-1*c[j+1] for a negative one (columns past
    either edge read as zero).
    """
    zero, one = Laurent.zero(), Laurent.one()
    t, tinv = Laurent.term(1, 1), Laurent.term(1, -1)
    last = w.n - 2
    out = [[one if i == j else zero for j in range(last + 1)] for i in range(last + 1)]
    for g in w.letters:
        j = abs(g) - 1
        for row in out:
            left = row[j - 1] if j > 0 else zero
            right = row[j + 1] if j < last else zero
            if g > 0:
                row[j] = t * (left - row[j]) + right
            else:
                row[j] = left + tinv * (right - row[j])
    return out


def unit_pivot_remainder_by_dicts(matrix: list[list[Laurent]]) -> list[list[Laurent]]:
    """The unit-pivot sweep's remainder, on exponent -> coefficient dicts.

    For each column, left to right, the unit +-t^k entry of the remaining
    row with the fewest nonzero entries, the lowest on a tie, is the pivot:
    every other row with an entry a there loses a*(+-t^-k) times the pivot
    row, term by term, and the pivot's row and column are dropped.  Columns
    with no unit entry stay, in their order, with the rows never taken as
    pivots.
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

    def poly(entry: dict[int, int] | None) -> Laurent:
        if not entry:
            return Laurent.zero()
        lo = min(entry)
        return Laurent.from_coeffs(lo, [entry.get(e, 0) for e in range(lo, max(entry) + 1)])

    return [[poly(row.get(j)) for j in kept] for row in rows.values()]


@dataclass(frozen=True)
class NodeGrid:
    """A grid as 2p nodes, its edges as node pairs, and its oriented cycles.

    Column x (0-based) holds node 2x at (x+1, starts[x]) and node 2x+1 at
    (x+1, ends[x]).  Each cycle lists one component's edges as (from, to)
    node pairs in the order the knot runs along them.
    """

    size: int
    nodes: tuple[tuple[int, int], ...]
    h_edges: tuple[tuple[int, int], ...]
    v_edges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[tuple[int, int], ...], ...]


def node_grid(g: GridDiagram) -> NodeGrid:
    """The nodes, edges and cycles of a (starts, ends) grid, walked here afresh."""
    p = g.size
    nodes = tuple(node for x in range(p) for node in ((x + 1, g.starts[x]), (x + 1, g.ends[x])))
    start_node = {y: 2 * x for x, y in enumerate(g.starts)}
    v_edges = tuple((2 * x, 2 * x + 1) for x in range(p))
    h_edges = tuple((2 * x + 1, start_node[y]) for x, y in enumerate(g.ends))
    cycles = []
    unvisited = set(range(p))
    for x in range(p):
        cycle: list[tuple[int, int]] = []
        while x in unvisited:
            unvisited.remove(x)
            cycle += [v_edges[x], h_edges[x]]
            x = h_edges[x][1] // 2
        if cycle:
            cycles.append(tuple(cycle))
    return NodeGrid(p, nodes, h_edges, v_edges, tuple(cycles))


def lattice_crossings(g: GridDiagram) -> set[tuple[int, int]]:
    """Scan every lattice point for a strict vertical and horizontal interior."""
    g = node_grid(g)
    found = set()
    for x in range(1, g.size + 1):
        for y in range(1, g.size + 1):
            in_v = any(
                g.nodes[a][0] == x
                and min(g.nodes[a][1], g.nodes[b][1]) < y < max(g.nodes[a][1], g.nodes[b][1])
                for a, b in g.v_edges
            )
            in_h = any(
                g.nodes[a][1] == y
                and min(g.nodes[a][0], g.nodes[b][0]) < x < max(g.nodes[a][0], g.nodes[b][0])
                for a, b in g.h_edges
            )
            if in_v and in_h:
                found.add((x, y))
    return found


@dataclass(frozen=True)
class Crossing:
    over_arc: int
    under_in_arc: int
    under_out_arc: int
    sign: int
    position: tuple[int, int]  # (x of the vertical edge, y of the horizontal edge)


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]
    n_arcs: int
    components: int


def to_planar_diagram(g: GridDiagram) -> PlanarDiagram:
    """Extract the oriented crossing diagram; vertical strands cross over.

    A crossing occurs where a vertical edge's open span contains a
    horizontal edge's row and vice versa.  A crossing is +1 when rotating
    the over-strand direction a quarter turn counterclockwise gives the
    under-strand direction.
    """
    g = node_grid(g)
    cycles = g.cycles
    v_index = {frozenset(e): i for i, e in enumerate(g.v_edges)}
    h_index = {frozenset(e): i for i, e in enumerate(g.h_edges)}
    # Passages: walk every cycle, recording for each crossing the walk
    # position of its over (vertical) and under (horizontal) passage.
    over_pos: dict[tuple[int, int], tuple[int, int]] = {}
    under_pos: dict[tuple[int, int], tuple[int, int]] = {}
    directions: dict[tuple[tuple[int, int], int], int] = {}
    cycle_events: list[list[tuple[int, tuple[int, int]]]] = []

    for ci, cycle in enumerate(cycles):
        pos = 0
        events: list[tuple[int, tuple[int, int]]] = []
        for u, v in cycle:
            (x1, y1), (x2, y2) = g.nodes[u], g.nodes[v]
            if x1 == x2:  # vertical, over
                lo, hi = sorted((y1, y2))
                hits = []
                for hj, (c, d) in enumerate(g.h_edges):
                    y = g.nodes[c][1]
                    xl, xr = sorted((g.nodes[c][0], g.nodes[d][0]))
                    if lo < y < hi and xl < x1 < xr:
                        hits.append((y, hj))
                hits.sort(reverse=(y2 < y1))
                vj = v_index[frozenset((u, v))]
                for _, hj in hits:
                    over_pos[(vj, hj)] = (ci, pos)
                    directions[((vj, hj), 0)] = 1 if y2 > y1 else -1
                    pos += 1
            else:  # horizontal, under
                lo, hi = sorted((x1, x2))
                hits = []
                for vj, (c, d) in enumerate(g.v_edges):
                    x = g.nodes[c][0]
                    yl, yh = sorted((g.nodes[c][1], g.nodes[d][1]))
                    if lo < x < hi and yl < y1 < yh:
                        hits.append((x, vj))
                hits.sort(reverse=(x2 < x1))
                hj = h_index[frozenset((u, v))]
                for _, vj in hits:
                    under_pos[(vj, hj)] = (ci, pos)
                    directions[((vj, hj), 1)] = 1 if x2 > x1 else -1
                    events.append((pos, (vj, hj)))
                    pos += 1
        cycle_events.append(events)

    # Arcs: each cycle is cut at its under passages; a cycle without any
    # under passage is a single closed arc.
    arc_base: list[int] = []
    n_arcs = 0
    for events in cycle_events:
        arc_base.append(n_arcs)
        n_arcs += max(1, len(events))

    def arc_of(ci: int, pos: int) -> int:
        events = cycle_events[ci]
        if not events:
            return arc_base[ci]
        # Arc j ends at event j; positions after event j-1 up to event j lie on arc j.
        for j, (epos, _) in enumerate(events):
            if pos <= epos:
                return arc_base[ci] + j
        return arc_base[ci]  # wraps past the last event

    crossings: list[Crossing] = []
    for key in sorted(over_pos):
        vj, hj = key
        ci_u, pos_u = under_pos[key]
        ci_o, pos_o = over_pos[key]
        events = cycle_events[ci_u]
        j = next(j for j, (epos, _) in enumerate(events) if epos == pos_u)
        under_in = arc_base[ci_u] + j
        under_out = arc_base[ci_u] + (j + 1) % len(events)
        dy = directions[(key, 0)]
        dx = directions[(key, 1)]
        position = (g.nodes[g.v_edges[vj][0]][0], g.nodes[g.h_edges[hj][0]][1])
        crossings.append(
            Crossing(arc_of(ci_o, pos_o), under_in, under_out, -dy * dx, position)
        )
    return PlanarDiagram(tuple(crossings), n_arcs, len(cycles))


def wirtinger_alexander(d: PlanarDiagram) -> tuple[int, ...]:
    """The Alexander polynomial of a one-component diagram, normalized up to units.

    One Wirtinger row per crossing: at a positive crossing the outgoing
    under-arc is the over-conjugate of the incoming one, giving abelianized
    Fox derivatives (over: 1-t, in: t, out: -1); a negative crossing gives
    (over: t-1, in: 1, out: -t).  The last row and column are deleted.  The
    matrix has one row per crossing, so keep to small diagrams.
    """
    if d.components != 1:
        raise ValueError("not a knot")
    c = len(d.crossings)
    if c == 0:
        return (1,)
    t = Laurent.term(1, 1)
    one = Laurent.one()
    rows = []
    for x in d.crossings:
        row = [Laurent.zero()] * d.n_arcs
        if x.sign > 0:
            entries = ((x.over_arc, one - t), (x.under_in_arc, t), (x.under_out_arc, -one))
        else:
            entries = ((x.over_arc, t - one), (x.under_in_arc, one), (x.under_out_arc, -t))
        for arc, val in entries:
            row[arc] = row[arc] + val
        rows.append(row)
    minor = [row[: c - 1] for row in rows[: c - 1]]
    return fraction_free_det(minor).up_to_units()


def winding_number_matrix(g: GridDiagram) -> list[list[Laurent]]:
    """The p x p matrix (t^w), w the winding number around each cell centre.

    w(i, j) is taken around (i+1/2, j+1/2), 0 <= i, j < p, by adding each
    vertical edge's direction to every centre to its left; the exponents
    are shifted so the lowest is 0.  Its determinant is
    +-t^a (1-t)^(p-1) Delta(t) (Manolescu-Ozsvath-Sarkar).
    """
    p = g.size
    winding = [[0] * p for _ in range(p)]
    for x, (y1, y2) in enumerate(zip(g.starts, g.ends), 1):
        # A vertical edge moves the winding number of every centre to its left.
        step = 1 if y2 > y1 else -1
        for j in range(min(y1, y2), max(y1, y2)):
            for i in range(x):
                winding[i][j] += step
    low = min(map(min, winding))
    return [[Laurent.term(1, w - low) for w in row] for row in winding]


def petal_grid_violations_by_edge_lengths(g: GridDiagram) -> tuple[str, ...]:
    """The petal grid conditions that g breaks, one message each; () for a petal grid.

    A petal grid of size p = 2n+1 has exactly one inflection edge, whose
    adjacent horizontal edges both have length n; every other vertical edge
    has adjacent lengths n and n+1.  The messages name columns, but no
    coordinate values are returned: the inflection edge is the middle column.
    """
    p = g.size
    if p % 2 == 0 or p < 3:
        return (f"size {p} is not an odd integer >= 3",)

    bad: list[str] = []
    n = (p - 1) // 2
    following = g.next_columns()
    preceding = [0] * p
    for x, y in enumerate(following):
        preceding[y] = x
    inflections = 0
    for x in range(p):
        lengths = [abs(preceding[x] - x), abs(following[x] - x)]
        if (preceding[x] > x) != (following[x] > x):
            inflections += 1
            if lengths != [n, n]:
                bad.append(
                    f"inflection edge x={x + 1} has horizontal lengths {lengths}, expected [{n}, {n}]"
                )
        elif sorted(lengths) != [n, n + 1]:
            bad.append(
                f"vertical edge x={x + 1} has horizontal lengths {lengths}, expected {{{n}, {n + 1}}}"
            )
    if inflections != 1:
        bad.append(f"found {inflections} inflection edges, expected exactly 1")
    return tuple(bad)


def strongly_braided_stabilization_holds(pp: tuple[int, ...], k: int) -> bool:
    """stabilize(pp, k) on a strongly braided pp, against its closed form.

    The result is strongly braided with length p + 2, which fixes its odd
    part as (n+2, n+1, ..., 1); its even part is pp's even part with every
    entry raised by one and the new maximum p + 2 inserted k-th from the
    right.
    """
    assert classify(pp) == STRONGLY_BRAIDED, pp
    out = stabilize(pp, k)
    even = [a + 1 for a in pp[1::2]]
    even.insert(len(even) - k + 1, len(pp) + 2)
    return (
        classify(out) == STRONGLY_BRAIDED
        and len(out) == len(pp) + 2
        and list(out[1::2]) == even
    )


# --- Named bands and the seeded braid-identity suites ------------------------
#
# The certifier builds its band form as one letter list (conjugate_band_braid),
# so the single bands, their products and the generators are built here, for
# the identities the normal form checks.  SEED seeds every draw of the suites
# below and of the acceptance tests.

SEED = 70311


class SuiteResult:
    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, detail: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(detail)


def _random_subset(rng: random.Random, pool: list[int], size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(pool, size)))


def _random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    letters = []
    for _ in range(length):
        g = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            g = -g
        letters.append(g)
    return BraidWord(n, tuple(letters))


def sigma(n: int, i: int) -> BraidWord:
    """The generator sigma_i as a one-letter word in B_n."""
    return BraidWord(n, (i,))


def half_twist(n: int) -> BraidWord:
    """The half twist sigma_1 (sigma_2 sigma_1) ... (sigma_{n-1} ... sigma_1)."""
    letters: list[int] = []
    for k in range(2, n + 1):
        letters.extend(range(k - 1, 0, -1))
    return BraidWord(n, tuple(letters))


def descending_run(n: int, k: int) -> BraidWord:
    """The band word sigma_{k-1} ... sigma_2 sigma_1; empty when k = 1."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for braid index {n}")
    return BraidWord(n, tuple(range(k - 1, 0, -1)))


def ascending_run(n: int, k: int) -> BraidWord:
    """The band word sigma_1 sigma_2 ... sigma_{k-1}; empty when k = 1."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for braid index {n}")
    return BraidWord(n, tuple(range(1, k)))


def round_trip(n: int, k: int) -> BraidWord:
    """The round-trip band on the lowest k strands: descending then ascending run."""
    return descending_run(n, k) * ascending_run(n, k)


def band_product(n: int, subscripts: Iterable[int]) -> BraidWord:
    """U_{k_1} U_{k_2} ..., multiplied band by band in the order given."""
    product = BraidWord(n, ())
    for k in subscripts:
        product = product * round_trip(n, k)
    return product


def suite_band_relations(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """D/E/U band identities: shifts, commutation, merged products, full twist.

    Each of the five sub-identities gets its own `trials` random instances.
    """
    res = SuiteResult("band-relations")
    for _ in range(trials):  # generator shifts through the runs
        n = rng.randint(3, max_n)
        k = rng.randint(3, n)
        i = rng.randint(1, k - 2)
        ok = words_equal(
            sigma(n, i) * descending_run(n, k), descending_run(n, k) * sigma(n, i + 1)
        ) and words_equal(
            sigma(n, i + 1) * ascending_run(n, k), ascending_run(n, k) * sigma(n, i)
        )
        res.check(ok, f"shift through run failed at n={n}, k={k}, i={i}")
    for _ in range(trials):  # band commutes with low generators
        n = rng.randint(3, max_n)
        k = rng.randint(3, n)
        i = rng.randint(1, k - 2)
        res.check(
            words_equal(round_trip(n, k) * sigma(n, i), sigma(n, i) * round_trip(n, k)),
            f"band does not commute with generator at n={n}, k={k}, i={i}",
        )
    for _ in range(trials):  # band commutes with strictly lower bands
        n = rng.randint(3, max_n)
        k = rng.randint(3, n)
        j = rng.randint(2, k - 1)
        u = round_trip(n, k)
        ok = all(
            words_equal(u * other, other * u)
            for other in (descending_run(n, j), ascending_run(n, j), round_trip(n, j))
        )
        res.check(ok, f"band does not commute with lower band at n={n}, k={k}, j={j}")
    for _ in range(trials):  # band products merge into run products
        n = rng.randint(3, max_n)
        members = _random_subset(rng, list(range(2, n + 1)), rng.randint(1, n - 1))
        merged = BraidWord(n, ())
        for a in members:
            merged = merged * descending_run(n, a)
        for a in reversed(members):
            merged = merged * ascending_run(n, a)
        res.check(
            words_equal(band_product(n, members), merged),
            f"band product does not merge at n={n}, A={members}",
        )
    for _ in range(trials):  # the full band product is the full twist
        n = rng.randint(2, max_n)
        full = band_product(n, tuple(range(2, n + 1)))
        res.check(
            words_equal(full, half_twist(n) ** 2) and words_equal(full, delta(n) ** n),
            f"U_2...U_n != Delta^2 at n={n}",
        )
    return res


def suite_residue_conjugacy(max_n: int) -> SuiteResult:
    """The residue permutation and its conjugacy witness, all coprime 2 <= k < n."""
    res = SuiteResult("residue-conjugacy")
    for n in range(3, max_n + 1):
        for k in range(2, n):
            if math.gcd(n, k) != 1:
                continue
            pk = residue_perm(n, k)
            a_members = band_indices(n, k)
            res.check(
                sorted(pk[a - 1] for a in a_members) == list(range(1, k)),
                f"band indices do not map to the bottom at n={n}, k={k}",
            )
            dperm = induced_permutation(delta(n))
            conjugated = compose(inverse(dperm), compose(pk, dperm))
            res.check(
                sorted(conjugated[a - 1] for a in a_members) == list(range(n - k + 2, n + 1)),
                f"conjugated band indices do not map to the top at n={n}, k={k}",
            )
            res.check(
                torus_conjugacy_witness(n, k).verified,
                f"conjugacy equality failed at n={n}, k={k}",
            )
    for n in range(2, max_n + 1):
        central = delta(n) ** n
        ok = all(
            words_equal(central * sigma(n, i), sigma(n, i) * central) for i in range(1, n)
        )
        res.check(ok, f"delta^n is not central at n={n}")
    return res


def _rewrite_once(rng: random.Random, w: BraidWord) -> BraidWord | None:
    """Apply one braid relation (commutation or triple move) at a random spot."""
    spots: list[tuple[str, int]] = []
    ls = w.letters
    for i in range(len(ls) - 1):
        if abs(abs(ls[i]) - abs(ls[i + 1])) >= 2:
            spots.append(("swap", i))
    for i in range(len(ls) - 2):
        a, b, c = ls[i], ls[i + 1], ls[i + 2]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            spots.append(("triple", i))
    if not spots:
        return None
    kind, i = rng.choice(spots)
    out = list(ls)
    if kind == "swap":
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        out[i], out[i + 1], out[i + 2] = out[i + 1], out[i], out[i + 1]
    return BraidWord(w.n, tuple(out))


def suite_normal_form_rewrites(rng: random.Random, trials: int, max_n: int = 8) -> SuiteResult:
    """The normal form is unchanged by single applications of the braid relations."""
    res = SuiteResult("normal-form-rewrites")
    done = 0
    while done < trials:
        n = rng.randint(3, max_n)
        w = _random_word(rng, n, rng.randint(2, 40))
        rewritten = _rewrite_once(rng, w)
        if rewritten is None:
            continue
        res.check(
            left_normal_form(w) == left_normal_form(rewritten),
            f"normal form changed under rewrite: n={n}, word={w.letters}",
        )
        done += 1
    return res


# --- The lemma algebra of the band-form conjugacy ----------------------------
#
# The paper proves delta^s conjugate to its band form through these stacked
# and routing braids; the certifier checks each pair's conjugacy directly, so
# they live here, with the seeded suites that check their identities.


class IndexSubset(_Value):
    """A subset of {1, ..., n}, stored as a strictly increasing member tuple."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: tuple[int, ...]):
        members = tuple(members)
        if any(not 1 <= m <= n for m in members):
            raise ValueError(f"members must lie in 1..{n}: {members}")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError(f"members must be strictly increasing: {members}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

    @staticmethod
    def of(n: int, members: Iterable[int]) -> "IndexSubset":
        return IndexSubset(n, tuple(sorted(set(members))))


def inversions(p: tuple[int, ...]) -> int:
    """Number of pairs i < j with p(i) > p(j); the Coxeter length."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def bottom_subset(n: int, k: int) -> IndexSubset:
    """The k lowest indices {1, ..., k}."""
    return IndexSubset(n, tuple(range(1, k + 1)))


def top_subset(n: int, k: int) -> IndexSubset:
    """The k highest indices {n-k+1, ..., n}."""
    return IndexSubset(n, tuple(range(n - k + 1, n + 1)))


def complement(a: IndexSubset) -> IndexSubset:
    inside = set(a.members)
    return IndexSubset(a.n, tuple(i for i in range(1, a.n + 1) if i not in inside))


def order_bijection(a: IndexSubset, b: IndexSubset) -> tuple[int, ...]:
    """The permutation sending b to a and the complements likewise, order-preservingly.

    The i-th smallest member of b maps to the i-th smallest member of a, and
    the complements correspond the same way, so order_bijection(b, a) is the
    inverse.
    """
    if a.n != b.n:
        raise ValueError("degree mismatch")
    if len(a.members) != len(b.members):
        raise ValueError(f"size mismatch: |A|={len(a.members)}, |B|={len(b.members)}")
    images = [0] * a.n
    for src, dst in zip(b.members, a.members):
        images[src - 1] = dst
    for src, dst in zip(complement(b).members, complement(a).members):
        images[src - 1] = dst
    return tuple(images)


def subset_braid(a: IndexSubset, b: IndexSubset) -> BraidWord:
    """The permutation braid routing heights b to heights a order-preservingly."""
    return permutation_braid(order_bijection(a, b))


def split(alpha: BraidWord, beta: BraidWord) -> BraidWord:
    """Stack beta on top of alpha: beta's letter indices shift up by alpha.n."""
    k = alpha.n
    shifted = tuple(g + k if g > 0 else g - k for g in beta.letters)
    return BraidWord(k + beta.n, alpha.letters + shifted)


def tau(w: BraidWord) -> BraidWord:
    """Conjugation by the descending cycle: delta^-1 w delta.

    On generators tau shifts the index up by one, which is used as a
    letterwise fast path whenever every letter index is at most n-2;
    otherwise the conjugated word is returned literally and callers
    reduce it via the normal form.
    """
    if all(abs(g) <= w.n - 2 for g in w.letters):
        return BraidWord(w.n, tuple(g + 1 if g > 0 else g - 1 for g in w.letters))
    return delta(w.n).inverse() * w * delta(w.n)


def decompose_permutation_braid(
    p: tuple[int, ...], k: int
) -> tuple[BraidWord, BraidWord, IndexSubset]:
    """Split the permutation braid of p as a stacked pair times a routing braid.

    Returns (P1, P2, A) with P1 in B_k, P2 in B_{n-k} and A = p^-1({1..k}),
    such that the braid of p equals split(P1, P2) * subset_braid(L, A) for
    L = {1..k}.
    """
    n = len(p)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for degree {n}")
    a = IndexSubset.of(n, inverse(p)[:k])
    low = bottom_subset(n, k)
    q = compose(p, order_bijection(a, low))
    # q preserves {1..k}, so it splits into block permutations.
    p1 = permutation_braid(q[:k])
    if k < n:
        p2 = permutation_braid(tuple(v - k for v in q[k:]))
    else:
        p2 = BraidWord(0, ())
    return p1, p2, a


def suite_routing_composition(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """Top-to-subset routing composes with subset-to-bottom routing."""
    res = SuiteResult("routing-composition")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        a = IndexSubset(n, _random_subset(rng, list(range(1, n + 1)), k))
        low, top = bottom_subset(n, k), top_subset(n, k)
        lhs = subset_braid(top, a) * subset_braid(a, low)
        res.check(
            words_equal(lhs, subset_braid(top, low)),
            f"routing composition failed at n={n}, A={a.members}",
        )
    return res


def suite_split_exchange(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """The routing braid exchanges the two blocks of a stacked pair."""
    res = SuiteResult("split-exchange")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n - 1)
        low, top = bottom_subset(n, k), top_subset(n, k)
        x = subset_braid(top, low)
        alpha = _random_word(rng, k, rng.randint(0, 6)) if k >= 2 else BraidWord(k, ())
        beta = (
            _random_word(rng, n - k, rng.randint(0, 6))
            if n - k >= 2
            else BraidWord(n - k, ())
        )
        res.check(
            words_equal(x * split(alpha, beta), split(beta, alpha) * x),
            f"split exchange failed at n={n}, k={k}",
        )
        res.check(
            words_equal(delta(n) ** k * split(alpha, beta), split(beta, alpha) * delta(n) ** k),
            f"delta-power exchange failed at n={n}, k={k}",
        )
    return res


def suite_braid_splitting(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """Any permutation braid splits as a stacked pair times a routing braid."""
    res = SuiteResult("braid-splitting")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = tuple(images)
        p1, p2, a = decompose_permutation_braid(p, k)
        expected_a = tuple(sorted(inverse(p)[:k]))
        ok = a.members == expected_a and words_equal(
            permutation_braid(p), split(p1, p2) * subset_braid(bottom_subset(n, k), a)
        )
        res.check(ok, f"splitting failed at n={n}, k={k}, p={p}")
    return res


def suite_band_conjugation(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """Band products against routing braids and embedded full twists."""
    res = SuiteResult("band-conjugation")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        a = IndexSubset(n, _random_subset(rng, list(range(1, n + 1)), k))
        low, top = bottom_subset(n, k), top_subset(n, k)
        twist = split(half_twist(k), BraidWord(n - k, ()))
        d_prod = BraidWord(n, ())
        e_prod = BraidWord(n, ())
        for m in a.members:
            d_prod = d_prod * descending_run(n, m)
        for m in reversed(a.members):
            e_prod = e_prod * ascending_run(n, m)
        res.check(
            words_equal(d_prod, subset_braid(a, low) * twist),
            f"descending product form failed at n={n}, A={a.members}",
        )
        res.check(
            words_equal(e_prod, twist * subset_braid(low, a)),
            f"ascending product form failed at n={n}, A={a.members}",
        )
        res.check(
            words_equal(
                band_product(n, a.members),
                subset_braid(a, low) * twist * twist * subset_braid(low, a),
            ),
            f"band product form failed at n={n}, A={a.members}",
        )
        res.check(
            words_equal(delta(n) ** k, subset_braid(top, low) * twist * twist),
            f"delta power factorization failed at n={n}, k={k}",
        )
    return res


def suite_band_to_delta(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """U(A) equals the negatively routed conjugate of a delta power."""
    res = SuiteResult("band-to-delta")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        a = IndexSubset(n, _random_subset(rng, list(range(1, n + 1)), k))
        low, top = bottom_subset(n, k), top_subset(n, k)
        rhs = subset_braid(top, a).inverse() * delta(n) ** k * subset_braid(low, a)
        res.check(
            words_equal(band_product(n, a.members), rhs),
            f"band-to-delta failed at n={n}, A={a.members}",
        )
    return res
