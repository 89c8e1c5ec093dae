"""In-memory spans around the public functions of each petalgrid layer.

A span is [name, start, end, parent index].  Each wrapped function gets one
wrapper, and the wrapper replaces the function under every name that holds
it in a petalgrid module, because `petalgrid.cli` imports the pipeline
functions by name.  A function that a later version no longer has is
skipped, and its metrics read 0.

A layer's self time is its span minus the time its child spans cover; the
time under no span at all is reported as trace.unattributed_s.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Any, Callable

# (span name, module, function)
TARGETS = (
    ("petal.synthesize", "petalgrid.petal", "synthesize"),
    ("grid.build_petal_grid", "petalgrid.grid", "build_petal_grid"),
    ("grid.validate_petal_grid", "petalgrid.grid", "validate_petal_grid"),
    ("grid.to_planar_diagram", "petalgrid.grid", "to_planar_diagram"),
    ("invariants.alexander_from_pd", "petalgrid.invariants", "alexander_from_pd"),
    ("invariants.alexander_from_closure", "petalgrid.invariants", "alexander_from_closure"),
    ("invariants.reduced_burau", "petalgrid.invariants", "reduced_burau"),
    ("invariants.bareiss_determinant", "petalgrid.invariants", "bareiss_determinant"),
    ("invariants.conjugate_band_braid", "petalgrid.invariants", "conjugate_band_braid"),
    ("invariants.torus_alexander", "petalgrid.invariants", "torus_alexander"),
    ("braid.torus_conjugacy_witness", "petalgrid.braid", "torus_conjugacy_witness"),
    ("braid.words_equal", "petalgrid.braid", "words_equal"),
    ("braid.left_normal_form", "petalgrid.braid", "left_normal_form"),
)

# Self time of each span name is reported under this metric.  The Bareiss
# determinant is split by the pipeline that called it.
SELF_METRIC = {
    "petal.synthesize": "petal.synthesize_s",
    "grid.build_petal_grid": "grid.build_validate_s",
    "grid.validate_petal_grid": "grid.build_validate_s",
    "grid.to_planar_diagram": "grid.planar_diagram_s",
    "invariants.alexander_from_pd": "invariants.alexander_grid_self_s",
    "invariants.alexander_from_closure": "invariants.alexander_braid_self_s",
    "invariants.reduced_burau": "invariants.burau_s",
    "invariants.conjugate_band_braid": "invariants.band_braid_s",
    "invariants.torus_alexander": "invariants.closed_form_s",
    "braid.torus_conjugacy_witness": "braid.witness_s",
    "braid.words_equal": "braid.words_equal_self_s",
    "braid.left_normal_form": "braid.normal_form_s",
    "cli.verify": "cli.verify_self_s",
}
BAREISS_BY_PARENT = {
    "invariants.alexander_from_pd": "invariants.bareiss_grid_s",
    "invariants.alexander_from_closure": "invariants.bareiss_braid_s",
}
BAREISS_OTHER = "invariants.bareiss_other_s"


def _note_pd(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["grid.crossings"] += len(result.crossings)


def _note_bareiss(tracer: Tracer, args: tuple, result: Any) -> None:
    order = len(args[0])
    tracer.maxima["invariants.det_order_max"] = max(tracer.maxima["invariants.det_order_max"], order)
    caller = tracer.spans[tracer.stack[-1]][0] if tracer.stack else ""
    tracer.orders[caller] = max(tracer.orders.get(caller, 0), order)


def _note_normal_form(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["braid.normal_form_calls"] += 1
    tracer.counts["braid.letters"] += len(args[0])
    tracer.maxima["braid.canonical_length_max"] = max(
        tracer.maxima["braid.canonical_length_max"], result.canonical_length()
    )


NOTES: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "grid.to_planar_diagram": _note_pd,
    "invariants.bareiss_determinant": _note_bareiss,
    "braid.left_normal_form": _note_normal_form,
}

COUNTS = ("grid.crossings", "braid.normal_form_calls", "braid.letters")
MAXIMA = ("invariants.det_order_max", "invariants.coeff_bits_max", "braid.canonical_length_max")
TIMES = tuple(dict.fromkeys([*SELF_METRIC.values(), *BAREISS_BY_PARENT.values(), BAREISS_OTHER]))


class Tracer:
    """Spans and counts of the calls made between `patch()` and `unpatch()`."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0)
        self.orders: dict[str, int] = {}  # largest Bareiss order by calling span
        self._undo: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def _replace(self, fn: Any, replacement: Any) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("petalgrid"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, replacement)

    def patch(self, size_coefficients: bool = False) -> None:
        """Wrap every target; optionally also record Bareiss coefficient sizes.

        Coefficient sizes come from each exact division inside a Bareiss
        determinant, which is the inner loop, so they are taken in a pass
        whose spans are not used for timing.
        """
        for name, mod_name, attr in TARGETS:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            if fn is not None:
                self._replace(fn, self.wrap(name, fn))
        if size_coefficients:
            self._size_coefficients()

    def _size_coefficients(self) -> None:
        poly = getattr(importlib.import_module("petalgrid.invariants"), "LaurentPolynomial", None)
        divide = getattr(poly, "divide_exact", None)
        if divide is None:  # a version without it reads 0 bits
            return
        spans, stack, maxima = self.spans, self.stack, self.maxima

        def sized(dividend: Any, divisor: Any) -> Any:
            q = divide(dividend, divisor)
            if q.coeffs and stack and spans[stack[-1]][0] == "invariants.bareiss_determinant":
                bits = max(max(q.coeffs), -min(q.coeffs)).bit_length()
                if bits > maxima["invariants.coeff_bits_max"]:
                    maxima["invariants.coeff_bits_max"] = bits
            return q

        self._undo.append((poly, "divide_exact", divide))
        poly.divide_exact = sized

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self, first: int = 0) -> tuple[dict[str, float], float]:
        """Self time per metric over spans[first:], and the time the root spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        roots = 0.0
        for idx in range(first, len(spans)):
            _, start, end, parent = spans[idx]
            if parent >= first:
                child[parent] += end - start
            else:
                roots += end - start
        out = dict.fromkeys(TIMES, 0.0)
        for idx in range(first, len(spans)):
            name, start, end, parent = spans[idx]
            if name == "invariants.bareiss_determinant":
                parent_name = spans[parent][0] if parent >= 0 else ""
                metric = BAREISS_BY_PARENT.get(parent_name, BAREISS_OTHER)
            else:
                metric = SELF_METRIC[name]
            out[metric] += end - start - child[idx]
        return out, roots
