"""Run the benchmark over several seeds and write one results file.

    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 \\
        --out perfbench/results/baseline.json

For every workload in BENCHMARK.json and every seed it runs
`run.py --trace 0` for BENCHMARK.json's run_seconds in a fresh process and
keeps each end-to-end metric's values, median, quartiles and spread (the
distance between the quartiles as a share of the median).  With
--trace-seed it also makes one traced run per workload and records each
per-layer metric, its share of the traced pass and the end-to-end metric it
is expected to move.  The file records the Python version, nproc and the CPU
model.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, environment, import_petalgrid  # noqa: E402

# Layer metric -> the metrics and workloads it is expected to move.  The
# Bareiss sizes point at memory.pass_rss_rise_mb, the workload's own memory,
# because peak_rss_mb is mostly the interpreter and cannot resolve them.
LAYER_MAP = {
    "petal.synthesize_s": ([], []),
    "grid.build_validate_s": ([], []),
    "grid.planar_diagram_s": (["wall_s"], ["certify-grid"]),
    "grid.crossings": (["wall_s"], ["certify-grid"]),
    "invariants.alexander_grid_self_s": (["wall_s", "largest_item_s"], ["certify-grid"]),
    "invariants.bareiss_grid_s": (["wall_s", "largest_item_s"], ["certify-grid"]),
    "invariants.burau_s": (["wall_s"], ["certify-braid"]),
    "invariants.bareiss_braid_s": (["wall_s"], ["certify-braid"]),
    "invariants.det_order_max": (["wall_s", "memory.pass_rss_rise_mb"], ["certify-grid", "certify-braid"]),
    "invariants.coeff_bits_max": (["wall_s", "memory.pass_rss_rise_mb"], ["certify-grid", "certify-braid"]),
    "memory.pass_rss_rise_mb": (["peak_rss_mb"], ["certify-grid", "certify-braid", "braid-words"]),
    "invariants.closed_form_s": ([], []),
    "braid.witness_s": (["wall_s"], ["braid-words"]),
    "braid.normal_form_s": (["wall_s"], ["braid-words"]),
    "braid.normal_form_calls": (["wall_s"], ["braid-words"]),
    "braid.letters": (["wall_s"], ["braid-words"]),
    "braid.canonical_length_max": (["wall_s"], ["braid-words"]),
    "cli.verify_self_s": ([], []),
}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    import_petalgrid()
    from workloads import WORKLOADS

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    report: dict = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        workload = WORKLOADS[name]
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + json.dumps(runs[-1]["metrics"]), file=sys.stderr)
        entry: dict = {
            "why": w["why"],
            "band": workload.band,
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "fail_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": {},
        }
        for metric in bounds:
            entry["end_to_end"][metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric]["bound"] = bounds[metric]
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, seconds, 1)
            wall = traced["metrics"]["trace.wall_s"]["value"]
            layers = {}
            for metric, value in traced["metrics"].items():
                layers[metric] = {"value": value["value"], "unit": value["unit"]}
                if value["unit"] == "s" and metric != "trace.wall_s":
                    layers[metric]["share_of_pass"] = value["value"] / wall
                if metric in LAYER_MAP:
                    moves, where = LAYER_MAP[metric]
                    layers[metric]["moves"] = moves if name in where else []
            entry["per_layer"] = {"seed": args.trace_seed, "failed": traced["failed"], "metrics": layers}
        report["workloads"][name] = entry
        for metric, stats in entry["end_to_end"].items():
            spread = stats["spread"]
            flag = "" if spread is None or spread < stats["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{name:14} {metric:15} median {stats['median']:.4f}  spread {spread:.3f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
