"""
Petal permutations and petal grid diagrams of torus knots.

For coprime 2 <= n < s, `synthesize(n, s)` produces a strongly braided
petal permutation of the (n, s) torus knot with 2s - 2*floor(s/n) + 1
entries; `certify(n, s)` certifies the output through a grid diagram, two
Alexander-polynomial pipelines, and an explicit braid conjugacy checked in
Garside normal form.  Every other name is imported from its module.
"""

from .braid import torus_conjugacy_witness
from .invariants import certify
from .petal import synthesize

__version__ = "0.1.0"
