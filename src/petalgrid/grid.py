"""
Petal grid diagrams: construction, validation and rendering.

Coordinates are 1-indexed with x increasing rightward and y upward.  A grid
diagram of size p has 2p nodes, p horizontal and p vertical edges, two nodes
on every grid line, and vertical edges always cross over horizontal ones.

The grid of a petal permutation (a_1, ..., a_p) places node i at
(ceil(i/2), a_i) for i = 1..2p with a_{p+i} = a_i; horizontal edges join
nodes i and p+i, vertical edges join nodes 2i-1 and 2i.  The knot traverses
... -> 2i-1 -> 2i -> p+2i -> p+2i+1 -> 2i+1 -> ..., and the vertical edge
joining nodes p and p+1 is the unique inflection edge: the one whose two
adjacent horizontal edges leave it on opposite sides.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .petal import PetalPermutation

Point = tuple[int, int]


@dataclass(frozen=True)
class GridDiagram:
    size: int
    nodes: tuple[Point, ...]
    h_edges: tuple[tuple[int, int], ...]
    v_edges: tuple[tuple[int, int], ...]
    traversal: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...]
    inflection_edge: tuple[Point, Point] | None


def build_petal_grid(pp: PetalPermutation) -> GridDiagram:
    """The petal grid diagram of a petal permutation.

    The traversal is stored starting at node p, so the first step runs along
    the inflection edge.
    """
    p = pp.p
    heights = pp.entries + pp.entries
    nodes = tuple(((i + 2) // 2, heights[i]) for i in range(2 * p))
    h_edges = tuple((i, p + i) for i in range(p))
    v_edges = tuple((2 * i, 2 * i + 1) for i in range(p))

    h_partner = {}
    v_partner = {}
    for a, b in h_edges:
        h_partner[a], h_partner[b] = b, a
    for a, b in v_edges:
        v_partner[a], v_partner[b] = b, a

    walk = [p - 1]
    vertical_next = True
    for _ in range(2 * p - 1):
        cur = walk[-1]
        walk.append(v_partner[cur] if vertical_next else h_partner[cur])
        vertical_next = not vertical_next
    return GridDiagram(p, nodes, h_edges, v_edges, tuple(walk))


def _edge_span(g: GridDiagram, edge: tuple[int, int]) -> tuple[Point, Point]:
    return g.nodes[edge[0]], g.nodes[edge[1]]


def validate_petal_grid(g: GridDiagram) -> ValidationReport:
    """Check the petal grid conditions, reporting violations instead of raising.

    Besides the two-nodes-per-line grid conditions, a petal grid of size
    p = 2n+1 must have exactly one inflection edge whose adjacent horizontal
    edges both have length n, while every other vertical edge has adjacent
    horizontal lengths n and n+1.
    """
    bad: list[str] = []
    p = g.size
    if p % 2 == 0 or p < 3:
        bad.append(f"size {p} is not an odd integer >= 3")
    if len(g.nodes) != 2 * p:
        bad.append(f"expected {2 * p} nodes, found {len(g.nodes)}")
    for x, y in g.nodes:
        if not (1 <= x <= p and 1 <= y <= p):
            bad.append(f"node {(x, y)} outside the {p}x{p} grid")
    for k in range(1, p + 1):
        rows = sum(1 for _, y in g.nodes if y == k)
        cols = sum(1 for x, _ in g.nodes if x == k)
        if rows != 2:
            bad.append(f"row y={k} has {rows} nodes, expected 2")
        if cols != 2:
            bad.append(f"column x={k} has {cols} nodes, expected 2")

    touched: dict[int, list[str]] = {}
    for kind, edges in (("h", g.h_edges), ("v", g.v_edges)):
        for a, b in edges:
            (x1, y1), (x2, y2) = g.nodes[a], g.nodes[b]
            if kind == "h" and y1 != y2:
                bad.append(f"horizontal edge {a}-{b} has uneven heights {y1}, {y2}")
            if kind == "v" and x1 != x2:
                bad.append(f"vertical edge {a}-{b} has uneven columns {x1}, {x2}")
            for e in (a, b):
                touched.setdefault(e, []).append(kind)
    for i in range(len(g.nodes)):
        if sorted(touched.get(i, [])) != ["h", "v"]:
            bad.append(f"node {i} is not the endpoint of exactly one edge of each kind")

    if bad:
        return ValidationReport(False, tuple(bad), None)

    n = (p - 1) // 2
    h_at: dict[int, tuple[int, int]] = {}
    for a, b in g.h_edges:
        h_at[a] = h_at[b] = (a, b)
    inflections: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for a, b in g.v_edges:
        x = g.nodes[a][0]
        sides = []
        lengths = []
        for endpoint in (a, b):
            ha, hb = h_at[endpoint]
            other = hb if ha == endpoint else ha
            ox = g.nodes[other][0]
            sides.append(1 if ox > x else -1)
            lengths.append(abs(ox - x))
        if sides[0] != sides[1]:
            inflections.append(((a, b), tuple(lengths)))
            if lengths != [n, n]:
                bad.append(
                    f"inflection edge x={x} has horizontal lengths {lengths}, expected [{n}, {n}]"
                )
        elif sorted(lengths) != [n, n + 1]:
            bad.append(
                f"vertical edge x={x} has horizontal lengths {lengths}, expected {{{n}, {n + 1}}}"
            )
    if len(inflections) != 1:
        bad.append(f"found {len(inflections)} inflection edges, expected exactly 1")
    inflection = None
    if len(inflections) == 1:
        (a, b), _ = inflections[0]
        inflection = (g.nodes[a], g.nodes[b])
    return ValidationReport(not bad, tuple(bad), inflection)


def _oriented_edges(g: GridDiagram) -> list[list[tuple[int, int]]]:
    """Edges as ordered node pairs along each traversal cycle."""
    h_partner = {}
    v_partner = {}
    for a, b in g.h_edges:
        h_partner[a], h_partner[b] = b, a
    for a, b in g.v_edges:
        v_partner[a], v_partner[b] = b, a
    cycles: list[list[tuple[int, int]]] = []
    unvisited = set(range(len(g.nodes)))
    start_order = list(g.traversal) + sorted(unvisited)
    for start in start_order:
        if start not in unvisited:
            continue
        cycle: list[tuple[int, int]] = []
        cur = start
        vertical_next = True
        while True:
            nxt = v_partner[cur] if vertical_next else h_partner[cur]
            cycle.append((cur, nxt))
            unvisited.discard(cur)
            vertical_next = not vertical_next
            cur = nxt
            if cur == start and vertical_next:
                break
            if len(cycle) > 2 * len(g.nodes):
                raise ValueError("malformed grid")
        cycles.append(cycle)
    return cycles


# --- Rendering ----------------------------------------------------------------


def render_ascii(g: GridDiagram) -> str:
    """One character cell per half lattice unit; vertical strands run unbroken."""
    p = g.size
    size = 2 * p - 1
    canvas = [[" "] * size for _ in range(size)]

    def cell(x: int, y: int) -> tuple[int, int]:
        return 2 * (p - y), 2 * (x - 1)

    for a, b in g.h_edges:
        (x1, y), (x2, _) = _edge_span(g, (a, b))
        r, _ = cell(x1, y)
        for c in range(2 * (min(x1, x2) - 1), 2 * (max(x1, x2) - 1) + 1):
            canvas[r][c] = "-"
    for a, b in g.v_edges:
        (x, y1), (_, y2) = _edge_span(g, (a, b))
        _, c = cell(x, y1)
        for r in range(2 * (p - max(y1, y2)), 2 * (p - min(y1, y2)) + 1):
            canvas[r][c] = "|"
    for x, y in g.nodes:
        r, c = cell(x, y)
        canvas[r][c] = "+"
    return "\n".join("".join(row).rstrip() for row in canvas)


def render_svg(g: GridDiagram) -> str:
    """SVG 1.1 with one path per edge; horizontal paths gap under crossings."""
    p = g.size
    scale, margin, gap = 40, 30, 7
    width = 2 * margin + (p - 1) * scale

    def pt(x: int, y: float) -> tuple[float, float]:
        return margin + (x - 1) * scale, margin + (p - y) * scale

    oriented = [e for cyc in _oriented_edges(g) for e in cyc]
    paths = []
    for u, v in oriented:
        (x1, y1), (x2, y2) = g.nodes[u], g.nodes[v]
        if y1 == y2:  # horizontal: split at crossing columns
            cols = []
            for a, b in g.v_edges:
                x = g.nodes[a][0]
                yl, yh = sorted((g.nodes[a][1], g.nodes[b][1]))
                if min(x1, x2) < x < max(x1, x2) and yl < y1 < yh:
                    cols.append(x)
            cols.sort(reverse=(x2 < x1))
            segments = []
            sx, _ = pt(x1, y1)
            ex, ey = pt(x2, y2)
            cur = sx
            step = 1 if ex > sx else -1
            for x in cols:
                cx, _ = pt(x, y1)
                segments.append((cur, cx - step * gap))
                cur = cx + step * gap
            segments.append((cur, ex))
            d = " ".join(f"M {a:g} {ey:g} L {b:g} {ey:g}" for a, b in segments)
        else:
            (ax, ay), (bx, by) = pt(x1, y1), pt(x2, y2)
            d = f"M {ax:g} {ay:g} L {bx:g} {by:g}"
        paths.append(f'<path d="{d}" marker-end="url(#arrow)"/>')

    body = "\n".join(paths)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{width}" viewBox="0 0 {width} {width}">\n'
        "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" "
        "markerWidth=\"6\" markerHeight=\"6\" orient=\"auto\">"
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>\n'
        '<g stroke="black" stroke-width="2" fill="none">\n'
        f"{body}\n"
        "</g>\n</svg>\n"
    )


def write_svg(g: GridDiagram, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(g))
