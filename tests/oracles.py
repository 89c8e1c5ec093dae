"""Independent brute-force oracles shared by the unit and acceptance tests.

Nothing here goes through the code paths it checks: word equality is decided
by exhaustive rewriting, normal forms also letter by letter with a Delta
stripped only once it reaches the front, determinants by cofactor expansion
and by Bareiss on LaurentPolynomial entries, the unit-pivot sweep on
exponent -> coefficient dicts, grid crossings
by scanning lattice points, Alexander polynomials of small diagrams from
the Wirtinger presentation of the crossings of their planar diagrams (both
read a grid as its 2p nodes and their own walk of its cycles), the
undifferenced winding-number matrix of a grid, the
reduced Burau images of generators from their written-out matrices and of
words by one column update per letter on polynomial entries, and
stabilizations of strongly braided permutations from the closed form of
their result.

It also holds the lemma algebra of the paper's proof that delta^s is
conjugate to its band form (stacked braids, routing braids, conjugation by
delta, splitting a permutation braid) and the seeded suites that check its
identities through the normal form.
"""
import random
from dataclasses import dataclass

from petalgrid.braid import (
    BraidWord,
    NormalForm,
    ascending_run,
    delta,
    descending_run,
    half_twist,
    left_normal_form,
    permutation_braid,
    round_trip_product,
    words_equal,
)
from petalgrid.grid import GridDiagram, Point
from petalgrid.invariants import LaurentPolynomial
from petalgrid.perm import IndexSubset, Permutation
from petalgrid.petal import STRONGLY_BRAIDED, PetalPermutation, classify, stabilize
from petalgrid.selftest import SuiteResult, _random_subset, _random_word


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
    return NormalForm(n, power, tuple(Permutation(f) for f in factors))


def naive_cofactor_det(m: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    if not m:
        return LaurentPolynomial.one()
    if len(m) == 1:
        return m[0][0]
    total = LaurentPolynomial.zero()
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = entry * naive_cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def fraction_free_det(m: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """The determinant by Bareiss's fraction-free elimination, in LaurentPolynomial arithmetic alone.

    Step k replaces each entry below and right of the pivot by
    (m_ij*m_kk - m_ik*m_kj) / prev, prev the previous pivot, through
    divide_exact; a zero pivot swaps in the first lower row with a nonzero
    entry in its column, and there is none only when the determinant is 0.
    """
    m = [list(row) for row in m]
    size, sign, prev = len(m), 1, LaurentPolynomial.one()
    for k in range(size - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, size) if not m[i][k].is_zero()), None)
            if swap is None:
                return LaurentPolynomial.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for row in m[k + 1 :]:
            for j in range(k + 1, size):
                row[j] = (row[j] * m[k][k] - row[k] * m[k][j]).divide_exact(prev)
        prev = m[k][k]
    if not m:
        return LaurentPolynomial.one()
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def burau_generator(n: int, letter: int) -> list[list[LaurentPolynomial]]:
    """The reduced Burau image of one signed Artin generator, written out.

    The (n-1) x (n-1) identity, except in column i-1 for i = |letter|:
    (t, -t, 1) for a positive letter and (1, -t^-1, t^-1) for a negative
    one, on rows i-2, i-1 and i where those rows exist.
    """
    i = abs(letter)
    t = LaurentPolynomial.term(1, 1)
    tinv = LaurentPolynomial.term(1, -1)
    one = LaurentPolynomial.one()
    m = [[one if r == c else LaurentPolynomial.zero() for c in range(n - 1)] for r in range(n - 1)]
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


def reduced_burau_by_columns(w: BraidWord) -> list[list[LaurentPolynomial]]:
    """The reduced Burau matrix of a word, one column update per letter on LaurentPolynomial entries.

    Right-multiplying by a generator replaces column j = |g| - 1, c[j], by
    t*c[j-1] - t*c[j] + c[j+1] for a positive letter and by
    c[j-1] - t^-1*c[j] + t^-1*c[j+1] for a negative one (columns past
    either edge read as zero).
    """
    zero, one = LaurentPolynomial.zero(), LaurentPolynomial.one()
    t, tinv = LaurentPolynomial.term(1, 1), LaurentPolynomial.term(1, -1)
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


def unit_pivot_remainder_by_dicts(matrix: list[list[LaurentPolynomial]]) -> list[list[LaurentPolynomial]]:
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

    def poly(entry: dict[int, int] | None) -> LaurentPolynomial:
        if not entry:
            return LaurentPolynomial.zero()
        lo = min(entry)
        return LaurentPolynomial.from_coeffs(lo, [entry.get(e, 0) for e in range(lo, max(entry) + 1)])

    return [[poly(row.get(j)) for j in kept] for row in rows.values()]


@dataclass(frozen=True)
class NodeGrid:
    """A grid as 2p nodes, its edges as node pairs, and its oriented cycles.

    Column x (0-based) holds node 2x at (x+1, starts[x]) and node 2x+1 at
    (x+1, ends[x]).  Each cycle lists one component's edges as (from, to)
    node pairs in the order the knot runs along them.
    """

    size: int
    nodes: tuple[Point, ...]
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
    position: Point  # (x of the vertical edge, y of the horizontal edge)


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


def wirtinger_alexander(d: PlanarDiagram) -> LaurentPolynomial:
    """The normalized Alexander polynomial of a one-component diagram.

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
        return LaurentPolynomial.one()
    t = LaurentPolynomial.term(1, 1)
    one = LaurentPolynomial.one()
    rows = []
    for x in d.crossings:
        row = [LaurentPolynomial.zero()] * d.n_arcs
        if x.sign > 0:
            entries = ((x.over_arc, one - t), (x.under_in_arc, t), (x.under_out_arc, -one))
        else:
            entries = ((x.over_arc, t - one), (x.under_in_arc, one), (x.under_out_arc, -t))
        for arc, val in entries:
            row[arc] = row[arc] + val
        rows.append(row)
    minor = [row[: c - 1] for row in rows[: c - 1]]
    return fraction_free_det(minor).normalize_up_to_units()


def winding_number_matrix(g: GridDiagram) -> list[list[LaurentPolynomial]]:
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
    return [[LaurentPolynomial.term(1, w - low) for w in row] for row in winding]


def strongly_braided_stabilization_holds(pp: PetalPermutation, k: int) -> bool:
    """stabilize(pp, k) on a strongly braided pp, against its closed form.

    The result is strongly braided with length p + 2, which fixes its odd
    part as (n+2, n+1, ..., 1); its even part is pp's even part with every
    entry raised by one and the new maximum p + 2 inserted k-th from the
    right.
    """
    assert classify(pp) == STRONGLY_BRAIDED, pp.entries
    out = stabilize(pp, k)
    even = [a + 1 for a in pp.even_part]
    even.insert(len(even) - k + 1, pp.p + 2)
    return (
        classify(out) == STRONGLY_BRAIDED
        and out.p == pp.p + 2
        and list(out.even_part) == even
    )


# --- The lemma algebra of the band-form conjugacy ----------------------------
#
# The paper proves delta^s conjugate to its band form through these stacked
# and routing braids; the certifier checks each pair's conjugacy directly, so
# they live here, with the seeded suites that check their identities.


def inversions(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j); the Coxeter length."""
    images = p.images
    return sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )


def bottom_subset(n: int, k: int) -> IndexSubset:
    """The k lowest indices {1, ..., k}."""
    return IndexSubset(n, tuple(range(1, k + 1)))


def top_subset(n: int, k: int) -> IndexSubset:
    """The k highest indices {n-k+1, ..., n}."""
    return IndexSubset(n, tuple(range(n - k + 1, n + 1)))


def complement(a: IndexSubset) -> IndexSubset:
    inside = set(a.members)
    return IndexSubset(a.n, tuple(i for i in range(1, a.n + 1) if i not in inside))


def order_bijection(a: IndexSubset, b: IndexSubset) -> Permutation:
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
    return Permutation(tuple(images))


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
    p: Permutation, k: int
) -> tuple[BraidWord, BraidWord, IndexSubset]:
    """Split the permutation braid of p as a stacked pair times a routing braid.

    Returns (P1, P2, A) with P1 in B_k, P2 in B_{n-k} and A = p^-1({1..k}),
    such that the braid of p equals split(P1, P2) * subset_braid(L, A) for
    L = {1..k}.
    """
    n = p.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for degree {n}")
    pinv = p.inverse()
    a = IndexSubset.of(n, (pinv(i) for i in range(1, k + 1)))
    low = bottom_subset(n, k)
    q = p * order_bijection(a, low)
    # q preserves {1..k}, so it splits into block permutations.
    p1 = permutation_braid(Permutation(q.images[:k]))
    if k < n:
        p2 = permutation_braid(Permutation(tuple(v - k for v in q.images[k:])))
    else:
        p2 = BraidWord.identity(0)
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
        alpha = _random_word(rng, k, rng.randint(0, 6)) if k >= 2 else BraidWord.identity(k)
        beta = (
            _random_word(rng, n - k, rng.randint(0, 6))
            if n - k >= 2
            else BraidWord.identity(n - k)
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
        p = Permutation(tuple(images))
        p1, p2, a = decompose_permutation_braid(p, k)
        expected_a = tuple(sorted(p.inverse()(i) for i in range(1, k + 1)))
        ok = a.members == expected_a and words_equal(
            permutation_braid(p), split(p1, p2) * subset_braid(bottom_subset(n, k), a)
        )
        res.check(ok, f"splitting failed at n={n}, k={k}, p={p.images}")
    return res


def suite_band_conjugation(rng: random.Random, trials: int, max_n: int) -> SuiteResult:
    """Band products against routing braids and embedded full twists."""
    res = SuiteResult("band-conjugation")
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(1, n)
        a = IndexSubset(n, _random_subset(rng, list(range(1, n + 1)), k))
        low, top = bottom_subset(n, k), top_subset(n, k)
        twist = split(half_twist(k), BraidWord.identity(n - k))
        d_prod = BraidWord.identity(n)
        e_prod = BraidWord.identity(n)
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
                round_trip_product(a),
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
            words_equal(round_trip_product(a), rhs),
            f"band-to-delta failed at n={n}, A={a.members}",
        )
    return res
