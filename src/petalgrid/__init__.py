"""
Petal permutations and petal grid diagrams of torus knots.

For coprime 2 <= n < s, `synthesize(n, s)` produces a strongly braided
petal permutation of the (n, s) torus knot with 2s - 2*floor(s/n) + 1
entries; `certify(n, s)` certifies the output through a grid diagram, two
Alexander-polynomial pipelines, and an explicit braid conjugacy checked in
Garside normal form.
"""

from .braid import (
    BraidWord,
    ConjugacyWitness,
    NormalForm,
    ascending_run,
    band_indices,
    conjugate_band_braid,
    delta,
    descending_run,
    format_word,
    half_twist,
    induced_permutation,
    left_normal_form,
    parse_word,
    permutation_braid,
    round_trip,
    round_trip_product,
    sigma,
    torus_conjugacy_witness,
    words_equal,
)
from .grid import (
    GridDiagram,
    ValidationReport,
    build_petal_grid,
    render_ascii,
    render_svg,
    validate_petal_grid,
)
from .invariants import (
    LaurentPolynomial,
    alexander_from_closure,
    alexander_from_grid,
    bareiss_determinant,
    certify,
    equal_up_to_units,
    reduced_burau,
    torus_alexander,
)
from .perm import (
    IndexSubset,
    Permutation,
    interleave,
    residue_perm,
)
from .petal import (
    BRAIDED,
    GENERIC,
    STRONGLY_BRAIDED,
    PetalPermutation,
    base_petal,
    classify,
    petal_to_json,
    stabilize,
    synthesize,
    u_indices,
)

__version__ = "0.1.0"
