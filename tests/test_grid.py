import itertools
import random
import xml.etree.ElementTree as ET

import pytest

from oracles import (
    lattice_crossings,
    petal_grid_violations_by_edge_lengths,
    to_planar_diagram,
)
from petalgrid.grid import (
    GridDiagram,
    build_petal_grid,
    render_ascii,
    render_svg,
    validate_petal_grid,
)
from petalgrid.petal import synthesize


def random_petal(rng, max_p=21):
    p = rng.choice(range(3, max_p + 1, 2))
    entries = list(range(1, p + 1))
    rng.shuffle(entries)
    return tuple(entries)


def test_build_petal_grid_figure_example():
    # Nodes (1,3) (1,5) (2,2) (2,4) (3,1) (3,3) (4,5) (4,2) (5,4) (5,1) of the figure.
    g = build_petal_grid((3, 5, 2, 4, 1))
    assert g.starts == (3, 2, 1, 5, 4)
    assert g.ends == (5, 4, 3, 2, 1)
    assert g.size == 5


def test_grid_diagram_rejects_malformed_columns():
    with pytest.raises(ValueError, match="not a permutation"):
        GridDiagram((1, 2, 2), (2, 3, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        GridDiagram((1, 2, 3), (2, 3, 4))
    with pytest.raises(ValueError, match="same degree"):
        GridDiagram((1, 2, 3), (2, 1))
    with pytest.raises(ValueError, match="column x=2 starts and ends on row 3"):
        GridDiagram((1, 3, 2), (2, 3, 1))


def test_horizontal_edge_lengths():
    # The edge leaving column c (0-based) runs n+1 columns right for c < n
    # and n columns left otherwise, ending where the next column starts.
    rng = random.Random(2)
    for _ in range(50):
        pp = random_petal(rng)
        g = build_petal_grid(pp)
        n = len(pp) // 2
        following = g.next_columns()
        for c, y in enumerate(g.ends):
            target = c + n + 1 if c < n else c - n
            assert following[c] == target
            assert g.starts[target] == y


def test_grid_structure_randomized():
    rng = random.Random(4)
    for _ in range(200):
        pp = random_petal(rng)
        g = build_petal_grid(pp)
        assert sorted(g.starts) == sorted(g.ends) == list(range(1, len(pp) + 1))
        for first in range(len(pp)):
            walk = g.columns_in_order(first)
            assert walk[0] == first
            assert sorted(walk) == list(range(len(pp)))  # one component through every column


def test_validate_petal_grid():
    g = build_petal_grid((3, 5, 2, 4, 1))
    assert validate_petal_grid(g) == ()
    assert validate_petal_grid(build_petal_grid(synthesize(5, 7))) == ()


def test_every_petal_grid_steps_by_half_its_size_and_is_valid():
    # Column x (from 0) ends at row a_{2x+2}, indices mod p, and column
    # x + (p+1)/2 starts there: the knot steps from each column to the one
    # (p+1)/2 to its right, counted cyclically, so every permutation
    # build_petal_grid accepts is valid.  Drawn backwards, the same grid
    # steps (p-1)/2 to the right and is valid too.
    rng = random.Random(79)
    for p in range(3, 80, 2):
        for _ in range(100):
            pp = tuple(rng.sample(range(1, p + 1), p))
            g = build_petal_grid(pp)
            assert g.next_columns() == [(x + (p + 1) // 2) % p for x in range(p)], pp
            assert validate_petal_grid(g) == (), pp
            backwards = GridDiagram(g.ends, g.starts)
            assert backwards.next_columns() == [(x + (p - 1) // 2) % p for x in range(p)], pp
            assert validate_petal_grid(backwards) == (), pp


def test_step_check_accepts_exactly_the_grids_of_the_edge_length_conditions():
    # Every grid of sizes 3 and 5, then seeded grids of odd sizes 7-21: a
    # third rotate random starts by n or n+1 (petal grids), a third are such
    # rotations with two columns' ends traded, and a third are random.
    grids = [
        GridDiagram(starts, ends)
        for p in (3, 5)
        for starts in itertools.permutations(range(1, p + 1))
        for ends in itertools.permutations(range(1, p + 1))
        if all(a != b for a, b in zip(starts, ends))
    ]
    assert len(grids) == 12 + 5280
    rng = random.Random(43)
    for p in range(7, 22, 2):
        for i in range(240):
            starts = rng.sample(range(1, p + 1), p)
            if i % 3 == 2:
                ends = rng.sample(range(1, p + 1), p)
            else:
                step = p // 2 + rng.randrange(2)
                ends = [starts[(x + step) % p] for x in range(p)]
                if i % 3 == 1:
                    a, b = rng.sample(range(p), 2)
                    ends[a], ends[b] = ends[b], ends[a]
            if all(a != b for a, b in zip(starts, ends)):
                grids.append(GridDiagram(starts, ends))
    accepted = 0
    for g in grids:
        valid = validate_petal_grid(g) == ()
        assert valid == (petal_grid_violations_by_edge_lengths(g) == ()), g
        accepted += valid
    assert accepted > len(grids) // 10


def test_validate_rejects_corrupted_grid():
    g = build_petal_grid((3, 5, 2, 4, 1))
    ends = list(g.ends)
    ends[0], ends[1] = ends[1], ends[0]  # columns 1 and 2 trade their ends
    assert validate_petal_grid(GridDiagram(g.starts, tuple(ends))) == (
        "column x=1 steps 4 columns right mod 5, expected 3 or 2",
    )

    assert validate_petal_grid(GridDiagram((1, 2, 3, 4), (2, 3, 4, 1))) == (
        "size 4 is not an odd integer >= 3",
    )

    # The cyclic shift of size 5: every column steps one column right.
    assert validate_petal_grid(GridDiagram((1, 2, 3, 4, 5), (2, 3, 4, 5, 1))) == tuple(
        f"column x={x} steps 1 columns right mod 5, expected 3 or 2" for x in range(1, 6)
    )


def test_planar_diagram_trefoil():
    pd = to_planar_diagram(build_petal_grid((3, 5, 2, 4, 1)))
    assert pd.components == 1
    assert len(pd.crossings) == 3
    assert abs(sum(c.sign for c in pd.crossings)) == 3
    assert pd.n_arcs == 3


def test_planar_diagram_unknot():
    pd = to_planar_diagram(build_petal_grid((2, 3, 1)))
    assert pd.components == 1
    assert pd.crossings == ()
    assert pd.n_arcs == 1


def test_crossings_match_lattice_oracle():
    rng = random.Random(9)
    for _ in range(200):
        pp = random_petal(rng, max_p=17)
        g = build_petal_grid(pp)
        pd = to_planar_diagram(g)
        assert {c.position for c in pd.crossings} == lattice_crossings(g)
        assert len(pd.crossings) == len(lattice_crossings(g))
    g = build_petal_grid((3, 5, 2, 4, 1))
    assert lattice_crossings(g) == {(2, 3), (3, 2), (4, 4)}


def test_render_ascii_box():
    g = build_petal_grid((3, 5, 2, 4, 1))
    art = render_ascii(g)
    lines = art.split("\n")
    assert len(lines) <= 11 and max(len(line) for line in lines) <= 11
    assert art.count("+") == 10
    # the crossing cells carry the vertical strand
    assert lines[2 * (5 - 3)][2 * (2 - 1)] == "|"


T57_GRID = """\
      +-------------+
      |             |
+-----|-------+     |
|     |       |     |
| +---|-------|-+   |
| |   |       | |   |
| | +-|-------|-|-+ |
| | | |       | | | |
| | | | +-----|-|-|-|-+
| | | | |     | | | | |
| | | | | +---|-|-|-|-|-+
| | | | | |   | | | | | |
+-|-|-|-|-|-+ | | | | | |
  | | | | | | | | | | | |
  +-|-|-|-|-|-+ | | | | |
    | | | | |   | | | | |
    +-|-|-|-|---+ | | | |
      | | | |     | | | |
      +-|-|-|-----+ | | |
        | | |       | | |
        +-|-|-------+ | |
          | |         | |
          +-|---------+ |
            |           |
            +-----------+"""


def test_render_golden_t57():
    # the stabilized closed-braid grid: every strand winds clockwise once
    assert render_ascii(build_petal_grid(synthesize(5, 7))) == T57_GRID


def test_render_svg_well_formed():
    g = build_petal_grid(synthesize(5, 7))
    svg = render_svg(g)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    group = root.find(f"{ns}g")
    paths = group.findall(f"{ns}path")
    assert len(paths) == 2 * g.size  # one path per edge
    assert render_svg(g) == svg  # deterministic


TREFOIL_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="220" height="220" viewBox="0 0 220 220">
<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="6" markerHeight="6" orient="auto"><path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>
<g stroke="black" stroke-width="2" fill="none">
<path d="M 110 190 L 110 110" marker-end="url(#arrow)"/>
<path d="M 110 110 L 77 110 M 63 110 L 30 110" marker-end="url(#arrow)"/>
<path d="M 30 110 L 30 30" marker-end="url(#arrow)"/>
<path d="M 30 30 L 150 30" marker-end="url(#arrow)"/>
<path d="M 150 30 L 150 150" marker-end="url(#arrow)"/>
<path d="M 150 150 L 117 150 M 103 150 L 70 150" marker-end="url(#arrow)"/>
<path d="M 70 150 L 70 70" marker-end="url(#arrow)"/>
<path d="M 70 70 L 143 70 M 157 70 L 190 70" marker-end="url(#arrow)"/>
<path d="M 190 70 L 190 190" marker-end="url(#arrow)"/>
<path d="M 190 190 L 110 190" marker-end="url(#arrow)"/>
</g>
</svg>
"""


def test_render_svg_golden_trefoil():
    # Paths run in knot order from the middle column; arrows point along the
    # knot, and horizontal paths gap 7 units either side of each crossing.
    assert render_svg(build_petal_grid((3, 5, 2, 4, 1))) == TREFOIL_SVG
