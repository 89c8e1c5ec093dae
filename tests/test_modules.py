"""Where decisions live: the command line alone shapes output and touches files.

`cli` decides every JSON payload (bar `certify`'s report, the library's
result) and writes the SVG file; the other modules compute values and
return them.  Read from each module's syntax tree, not by importing it.
"""
import ast
from pathlib import Path

import petalgrid

SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in Path(petalgrid.__file__).parent.glob("*.py")
}


def test_only_cli_imports_json_or_opens_files():
    offenders = set()
    for name, tree in SOURCES.items():
        if name == "cli":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(alias.name == "json" for alias in node.names):
                offenders.add((name, "import json"))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders.add((name, "from json import"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                offenders.add((name, "open()"))
    assert "cli" in SOURCES and not offenders, sorted(offenders)


def test_no_function_builds_a_json_payload_by_name():
    named = sorted(
        (name, node.name)
        for name, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_to_json")
    )
    assert not named, named


def test_permutations_are_plain_image_tuples():
    # No module wraps a permutation in a class of its own: each is its
    # 1-indexed image tuple, checked by braid.check_permutation, and a petal
    # permutation is its entry tuple, checked by petal.check_petal_permutation.
    found = sorted(
        (name, node.name if isinstance(node, ast.ClassDef) else f".{node.attr}")
        for name, tree in SOURCES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ClassDef) and node.name in ("Permutation", "PetalPermutation"))
        or (isinstance(node, ast.Attribute) and node.attr in ("images", "entries"))
    )
    assert {"braid", "petal"} <= SOURCES.keys() and not found, found


def test_grid_defines_only_the_grid_diagram_class():
    classes = [node.name for node in ast.walk(SOURCES["grid"]) if isinstance(node, ast.ClassDef)]
    assert classes == ["GridDiagram"]


def test_braid_public_surface_is_the_certifiers():
    # braid's public top-level names are the word, normal-form and witness
    # code the certifier and the command line use; the named bands and
    # generators (sigma, half_twist, descending_run, ascending_run,
    # round_trip) are built in tests/oracles.py, and the empty word is
    # BraidWord(n, ()).
    body = SOURCES["braid"].body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in body if isinstance(node, ast.Assign) for target in node.targets}
    assert {name for name in defined if not name.startswith("_")} == {
        "check_permutation",
        "BraidWord",
        "delta",
        "induced_permutation",
        "is_single_cycle",
        "permutation_braid",
        "NormalForm",
        "left_normal_form",
        "words_equal",
        "ConjugacyWitness",
        "check_pair",
        "band_indices",
        "conjugate_band_braid",
        "torus_conjugacy_witness",
        "parse_word",
        "format_word",
    }
    (word,) = [node for node in body if isinstance(node, ast.ClassDef) and node.name == "BraidWord"]
    methods = {node.name for node in word.body if isinstance(node, ast.FunctionDef)}
    assert {name for name in methods if not name.startswith("_")} == {"inverse"}
