import random
import xml.etree.ElementTree as ET

import pytest

from oracles import lattice_crossings, to_planar_diagram
from petalgrid.grid import (
    GridDiagram,
    build_petal_grid,
    render_ascii,
    render_svg,
    validate_petal_grid,
)
from petalgrid.petal import PetalPermutation, synthesize


def random_petal(rng, max_p=21):
    p = rng.choice(range(3, max_p + 1, 2))
    entries = list(range(1, p + 1))
    rng.shuffle(entries)
    return PetalPermutation(tuple(entries))


def test_build_petal_grid_figure_example():
    g = build_petal_grid(PetalPermutation((3, 5, 2, 4, 1)))
    assert g.nodes == (
        (1, 3), (1, 5), (2, 2), (2, 4), (3, 1),
        (3, 3), (4, 5), (4, 2), (5, 4), (5, 1),
    )
    assert g.h_edges == ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))
    assert g.v_edges == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))


def test_horizontal_edge_lengths():
    rng = random.Random(2)
    for _ in range(50):
        pp = random_petal(rng)
        g = build_petal_grid(pp)
        n = pp.half
        for i, (a, b) in enumerate(g.h_edges):
            length = abs(g.nodes[a][0] - g.nodes[b][0])
            assert length == (n if (i + 1) % 2 == 1 else n + 1)


def test_grid_structure_randomized():
    rng = random.Random(4)
    for _ in range(200):
        pp = random_petal(rng)
        g = build_petal_grid(pp)
        assert len(g.nodes) == 2 * pp.p
        for k in range(1, pp.p + 1):
            assert sum(1 for _, y in g.nodes if y == k) == 2
            assert sum(1 for x, _ in g.nodes if x == k) == 2
        assert len(g.traversal) == 2 * pp.p
        assert sorted(g.traversal) == list(range(2 * pp.p))


def test_validate_petal_grid():
    g = build_petal_grid(PetalPermutation((3, 5, 2, 4, 1)))
    report = validate_petal_grid(g)
    assert report.valid and not report.violations
    assert report.inflection_edge == ((3, 1), (3, 3))  # nodes 5 and 6 of the figure

    assert validate_petal_grid(build_petal_grid(synthesize(5, 7))).valid


def test_validate_rejects_corrupted_grid():
    g = build_petal_grid(PetalPermutation((3, 5, 2, 4, 1)))
    nodes = list(g.nodes)
    nodes[3] = (2, 5)  # move one node off its row
    bad = GridDiagram(g.size, tuple(nodes), g.h_edges, g.v_edges, g.traversal)
    report = validate_petal_grid(bad)
    assert not report.valid
    assert report.violations


def test_planar_diagram_trefoil():
    pd = to_planar_diagram(build_petal_grid(PetalPermutation((3, 5, 2, 4, 1))))
    assert pd.components == 1
    assert len(pd.crossings) == 3
    assert abs(sum(c.sign for c in pd.crossings)) == 3
    assert pd.n_arcs == 3


def test_planar_diagram_unknot():
    pd = to_planar_diagram(build_petal_grid(PetalPermutation((2, 3, 1))))
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
    g = build_petal_grid(PetalPermutation((3, 5, 2, 4, 1)))
    assert lattice_crossings(g) == {(2, 3), (3, 2), (4, 4)}


def test_malformed_grid_rejected():
    g = build_petal_grid(PetalPermutation((3, 5, 2, 4, 1)))
    nodes = list(g.nodes)
    nodes[5] = (2, 3)  # vertical edge tip now ends inside a horizontal edge
    bad = GridDiagram(g.size, tuple(nodes), g.h_edges, g.v_edges, g.traversal)
    with pytest.raises(ValueError, match="malformed grid"):
        to_planar_diagram(bad)


def test_render_ascii_box():
    g = build_petal_grid(PetalPermutation((3, 5, 2, 4, 1)))
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
