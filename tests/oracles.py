"""Independent brute-force oracles shared by the unit and acceptance tests.

Nothing here goes through the code paths it checks: word equality is decided
by exhaustive rewriting, determinants by cofactor expansion, grid crossings
by scanning lattice points, Alexander polynomials of small diagrams from
the Wirtinger presentation of their crossings, and stabilizations of
strongly braided permutations from the closed form of their result.
"""
from petalgrid.braid import BraidWord, left_normal_form
from petalgrid.grid import GridDiagram, PlanarDiagram
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


def lattice_crossings(g: GridDiagram) -> set[tuple[int, int]]:
    """Scan every lattice point for a strict vertical and horizontal interior."""
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
