"""Informational ladder report; not gated and not one of the timed workloads.

    python3 perfbench/ladder.py --out perfbench/results/ladder.json

Walks the size ladder (2,3) ... (17,40) once.  Each pair goes through
`petalgrid verify n s --json --timeout 60` in-process with spans on, and
the report keeps every stage's self time and the sizes: entries p, crossings,
Bareiss order per pipeline, band-braid word length, largest canonical length
and, from a second pass, the largest Bareiss coefficient in bits.  A pair the
grid pipeline refuses (over the crossing cap, exit 2) or that runs past the
budget (exit 3) is recorded with that status, never left out; a refused pair
is also run with `--pipeline burau` so its braid side is still measured.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import environment, import_petalgrid  # noqa: E402

LADDER = ((2, 3), (5, 7), (7, 10), (7, 15), (9, 20), (11, 25), (13, 30), (17, 40))
BUDGET_S = 60.0  # verify --timeout per pair
STATUS = {0: "certified", 1: "check failed", 2: "refused (over the crossing cap)", 3: "over budget"}


def traced_verify(argv: list[str], size_coefficients: bool) -> dict:
    from spans import Tracer
    from workloads import cli_call

    tracer = Tracer()
    tracer.patch(size_coefficients=size_coefficients)
    try:
        idx = tracer.open("cli.verify")
        t0 = time.perf_counter()
        code, out, err = cli_call(argv)
        wall = time.perf_counter() - t0
        tracer.close(idx)
    finally:
        tracer.unpatch()
    stages, _ = tracer.self_times()
    return {
        "argv": argv,
        "exit": code,
        "status": STATUS.get(code, f"exit {code}"),
        "error": err.strip() or None,
        "wall_s": wall,
        "stages_s": {k: v for k, v in stages.items() if v},
        "counts": {**tracer.counts, **tracer.maxima},
        "bareiss_order": tracer.orders,
        "all_match": json.loads(out).get("all_match") if out.strip().startswith("{") else None,
    }


def walk() -> list[dict]:
    from petalgrid.invariants import conjugate_band_braid
    from workloads import length_bound

    rows = []
    for n, s in LADDER:
        argv = ["verify", str(n), str(s), "--json", "--timeout", str(BUDGET_S)]
        row = {"n": n, "s": s, "p": length_bound(n, s), "band_word_length": len(conjugate_band_braid(n, s))}
        row["both"] = traced_verify(argv, size_coefficients=False)
        if row["both"]["exit"] == 0:
            row["both"]["counts"]["invariants.coeff_bits_max"] = traced_verify(argv, True)["counts"][
                "invariants.coeff_bits_max"
            ]
        else:
            burau = argv + ["--pipeline", "burau"]
            row["burau"] = traced_verify(burau, size_coefficients=False)
            if row["burau"]["exit"] == 0:
                row["burau"]["counts"]["invariants.coeff_bits_max"] = traced_verify(burau, True)["counts"][
                    "invariants.coeff_bits_max"
                ]
        rows.append(row)
        both = row["both"]
        print(
            f"T({n},{s}) p={row['p']} crossings={both['counts']['grid.crossings']} "
            f"{both['status']} in {both['wall_s']:.2f}s"
            + (f"; burau {row['burau']['status']} in {row['burau']['wall_s']:.2f}s" if "burau" in row else ""),
            flush=True,
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    import_petalgrid()
    report = {"environment": environment(), "budget_s": BUDGET_S, "ladder": walk()}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
