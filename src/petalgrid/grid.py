"""
Petal grid diagrams: construction, validation and rendering.

Coordinates are 1-indexed with x increasing rightward and y upward, and
vertical edges always cross over horizontal ones.  A grid diagram of size p
is two permutations of 1..p, one entry per column, stored as tuples and
checked by braid.check_permutation: the knot runs along column x from row
starts[x-1] to row ends[x-1], then along that row to the column that
starts there.  Every row and column then holds exactly two
nodes, joined by one edge.

The grid of a petal permutation, the plain tuple (a_1, ..., a_p), reads
its columns off the doubled sequence a_1, ..., a_p, a_1, ..., a_p two
entries at a time: column i runs from row a_{2i-1} to row a_{2i} (indices
mod p), and column i + (p+1)/2 starts where it ends: the knot steps
(p+1)/2 columns right, counted cyclically.  `validate_petal_grid` checks
that step and names each column that breaks it; () for a petal grid.

>>> g = build_petal_grid((3, 5, 2, 4, 1))
>>> g.starts, g.ends
((3, 2, 1, 5, 4), (5, 4, 3, 2, 1))
>>> g.columns_in_order(2)
[2, 0, 3, 1, 4]
"""
from __future__ import annotations

from collections.abc import Sequence

from .braid import _Value, check_permutation
from .petal import check_petal_permutation


class GridDiagram(_Value):
    """Where the knot enters (starts) and leaves (ends) each column."""

    __slots__ = ("starts", "ends")

    def __init__(self, starts: Sequence[int], ends: Sequence[int]):
        starts, ends = tuple(starts), tuple(ends)
        check_permutation(starts)
        check_permutation(ends)
        if len(starts) != len(ends):
            raise ValueError("starts and ends must be permutations of the same degree")
        for x, (y1, y2) in enumerate(zip(starts, ends), 1):
            if y1 == y2:
                raise ValueError(f"column x={x} starts and ends on row {y1}")
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)

    @property
    def size(self) -> int:
        return len(self.starts)

    def next_columns(self) -> list[int]:
        """For each column (0-based), the column the knot runs into after it."""
        column_starting_at = {y: x for x, y in enumerate(self.starts)}
        return [column_starting_at[y] for y in self.ends]

    def columns_in_order(self, first: int = 0) -> list[int]:
        """The columns (0-based) of the component through `first`, in knot order."""
        following = self.next_columns()
        order = [first]
        while following[order[-1]] != first:
            order.append(following[order[-1]])
        return order


def build_petal_grid(pp: tuple[int, ...]) -> GridDiagram:
    """The petal grid diagram of a petal permutation."""
    check_petal_permutation(pp)
    heights = pp * 2
    return GridDiagram(heights[0::2], heights[1::2])


def validate_petal_grid(g: GridDiagram) -> tuple[str, ...]:
    """One message per column of g whose step breaks the petal grid condition; () for a petal grid.

    Column x steps to the column that starts on the row it ends on.  A grid
    of size p = 2n+1 is a petal grid when every step is n or n+1 columns
    right mod p, which is the paper's edge-length and inflection condition:
    - That condition gives every vertical edge horizontal lengths in
      {n, n+1}, and such an edge, right or left, steps n or n+1 mod p.
    - The steps of a permutation sum to 0 mod p.  If k of them are n and
      p-k are n+1, they sum to p(n+1) - k = -k mod p, so k is 0 or p: every
      step is the same.
    - Rotating every column by n, or every column by n+1, gives exactly one
      inflection edge, the middle column, with lengths n and n; every other
      edge has lengths n and n+1.
    So GridDiagram(g.ends, g.starts), g drawn backwards, steps by n and is
    a petal grid too.  The messages name columns, not coordinate values.
    """
    p = g.size
    if p % 2 == 0 or p < 3:
        return (f"size {p} is not an odd integer >= 3",)
    n = p // 2
    steps = [(y - x) % p for x, y in enumerate(g.next_columns())]
    return tuple(
        f"column x={x} steps {step} columns right mod {p}, expected {n + 1} or {n}"
        for x, step in enumerate(steps, 1)
        if step not in (n, n + 1)
    )


# --- Rendering ----------------------------------------------------------------


def render_ascii(g: GridDiagram) -> str:
    """One character cell per half lattice unit; vertical strands run unbroken."""
    p = g.size
    canvas = [[" "] * (2 * p - 1) for _ in range(2 * p - 1)]
    # Grid point (x, y) is canvas row 2(p - y), canvas column 2(x - 1).
    for x, (y, x2) in enumerate(zip(g.ends, g.next_columns())):
        for c in range(2 * min(x, x2), 2 * max(x, x2) + 1):
            canvas[2 * (p - y)][c] = "-"
    for x, (y1, y2) in enumerate(zip(g.starts, g.ends)):
        for r in range(2 * (p - max(y1, y2)), 2 * (p - min(y1, y2)) + 1):
            canvas[r][2 * x] = "|"
        canvas[2 * (p - y1)][2 * x] = canvas[2 * (p - y2)][2 * x] = "+"
    return "\n".join("".join(row).rstrip() for row in canvas)


def render_svg(g: GridDiagram) -> str:
    """SVG 1.1 with one path per edge in knot order from the middle column.

    Each edge's arrow points along the knot; horizontal paths gap under
    crossings.
    """
    p = g.size
    scale, margin, gap = 40, 30, 7
    width = 2 * margin + (p - 1) * scale

    def pt(x: int, y: float) -> tuple[float, float]:
        return margin + x * scale, margin + (p - y) * scale

    order: list[int] = []
    for x in ((p - 1) // 2, *range(p)):
        if x not in order:
            order += g.columns_in_order(x)
    following = g.next_columns()
    paths = []
    for x1 in order:
        (ax, ay), (bx, by) = pt(x1, g.starts[x1]), pt(x1, g.ends[x1])
        paths.append(f"M {ax:g} {ay:g} L {bx:g} {by:g}")
        # The horizontal edge leaving column x1, split at crossing columns.
        y, x2 = g.ends[x1], following[x1]
        cols = [
            x
            for x, (yl, yh) in enumerate(zip(g.starts, g.ends))
            if min(x1, x2) < x < max(x1, x2) and min(yl, yh) < y < max(yl, yh)
        ]
        cols.sort(reverse=(x2 < x1))
        ex, ey = pt(x2, y)
        cur = bx
        step = 1 if ex > bx else -1
        segments = []
        for x in cols:
            cx, _ = pt(x, y)
            segments.append((cur, cx - step * gap))
            cur = cx + step * gap
        segments.append((cur, ex))
        paths.append(" ".join(f"M {a:g} {ey:g} L {b:g} {ey:g}" for a, b in segments))

    body = "\n".join(f'<path d="{d}" marker-end="url(#arrow)"/>' for d in paths)
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
