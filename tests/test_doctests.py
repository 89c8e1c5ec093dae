"""The examples in the package's docstrings, run by doctest."""
import doctest
import importlib
import pkgutil

import petalgrid


def test_every_petalgrid_module_passes_its_doctests():
    names = ["petalgrid"] + sorted(f"petalgrid.{info.name}" for info in pkgutil.iter_modules(petalgrid.__path__))
    assert "petalgrid.invariants" in names
    attempted = 0
    for name in names:
        failed, tried = doctest.testmod(importlib.import_module(name))
        assert failed == 0, name
        attempted += tried
    assert attempted > 0
