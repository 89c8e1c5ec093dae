"""Independent brute-force oracles shared by the unit and acceptance tests.

Nothing here goes through the code paths it checks: word equality is decided
by exhaustive rewriting, determinants by cofactor expansion, grid crossings
by scanning lattice points, Alexander polynomials of small diagrams from
the Wirtinger presentation of the crossings of their planar diagrams (both
read a grid as its 2p nodes and their own walk of its cycles), the
reduced Burau images of generators from their written-out matrices, and
stabilizations of strongly braided permutations from the closed form of
their result.
"""
from dataclasses import dataclass

from petalgrid.braid import BraidWord, left_normal_form
from petalgrid.grid import GridDiagram, Point
from petalgrid.invariants import LaurentPolynomial, bareiss_determinant
from petalgrid.petal import STRONGLY_BRAIDED, PetalPermutation, classify, stabilize


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
    return bareiss_determinant(minor).normalize_up_to_units()


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
