"""petalgrid certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; petalgrid is imported from its
`src/`.  The workload's items are generated from the seed and run in passes
in this one process, with no extra threads, until S seconds have passed
(at least two passes, so every output is checked against its repeat).

--trace 0 prints the end-to-end metrics:
  setup_s         median time from starting a Python process to petalgrid
                  imported and the CLI parser built (short processes,
                  started between the passes)
  wall_s          one pass over the items: the sum of each item's median
                  time
  largest_item_s  median time of the costliest item
  peak_rss_mb     peak resident memory of this process

The three times are scaled to a reference host speed.  On a shared 2-vCPU
VM the same item runs at 1.0x or about 1.7x its best time for seconds to
minutes at a time, so raw times of one seed differ by more than a bound
between runs made minutes apart.  A fixed reference kernel (big-integer
Bareiss elimination plus tuple permutations, the two kinds of work the
workloads do, and no petalgrid code) is timed before and after every item
and every set-up; each time is multiplied by REFERENCE_S over the mean of
its two reference times, so it reads as the time on a host where the
kernel takes REFERENCE_S.  A slower petalgrid still reads slower, because
the kernel does not change with it.

--trace 1 wraps the layers' public functions in spans (spans.py) and prints
the per-layer metrics, writing the spans to .perfbench/ at the end.  Its
first pass is untraced and gives memory.pass_rss_rise_mb: how far that pass
lifts the process's peak resident memory above its peak once the items are
generated, which is the workload's own memory without the interpreter's.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  An item fails on an exception, a non-zero exit, or an output that
differs from its known answer or from its first run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15  # at least this many set-ups per run
SETUP_PROBES_PER_PASS = 2
REFERENCE_S = 0.02  # the reference kernel's time on the host that times are scaled to
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import petalgrid.cli as cli; "
    "cli.build_parser(); print('ready', flush=True)"
)


def import_petalgrid() -> None:
    """Import petalgrid from this checkout's src/, never from anywhere else."""
    if not (SRC / "petalgrid" / "__init__.py").is_file():
        raise SystemExit(f"error: no petalgrid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import petalgrid

    if Path(petalgrid.__file__).resolve().parent != SRC / "petalgrid":
        raise SystemExit(f"error: imported petalgrid from {petalgrid.__file__}, not {SRC}")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


_REF_RNG = random.Random(0)
_REF_MATRIX = [[_REF_RNG.randint(-(10**6), 10**6) for _ in range(32)] for _ in range(32)]
_REF_PERMS = [tuple(_REF_RNG.sample(range(14), 14)) for _ in range(64)]


def reference_time() -> float:
    """Seconds the fixed reference kernel takes now: a fraction-free
    elimination on a 32x32 integer matrix and 6000 permutation products
    counted in a dict."""
    t0 = time.perf_counter()
    a = [row[:] for row in _REF_MATRIX]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    p, seen = tuple(range(14)), {}
    for k in range(6000):
        p = tuple(p[i] for i in _REF_PERMS[k & 63])
        seen[p] = seen.get(p, 0) + 1
    return time.perf_counter() - t0


def setup_probe() -> float:
    """Seconds from spawning a Python process until it reports petalgrid ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return elapsed


class Runner:
    """Runs passes over the items, checking every output."""

    def __init__(self, items: list, tracer=None) -> None:
        self.items = items
        self.tracer = tracer
        self.first: list = [None] * len(items)
        self.seen = [False] * len(items)
        self.times: list[list[float]] = [[] for _ in items]
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced: bool = False, scaled: bool = False) -> float:
        """One pass over the items; returns its wall time.  Untraced passes
        record each item's time, scaled to REFERENCE_S if `scaled`."""
        tracer = self.tracer if traced else None
        ref_before = reference_time() if scaled else 0.0
        t_pass = time.perf_counter()
        for i, item in enumerate(self.items):
            self.attempted += 1
            problem = None
            idx = tracer.open(item.span) if tracer and item.span else None
            t0 = time.perf_counter()
            try:
                result = item.run()
            except Exception:
                result, problem = None, "raised:\n" + traceback.format_exc()
            finally:
                elapsed = time.perf_counter() - t0
                if idx is not None:
                    tracer.close(idx)
            if scaled:
                ref_after = reference_time()
                elapsed *= 2 * REFERENCE_S / (ref_before + ref_after)
                ref_before = ref_after
            if not traced:
                self.times[i].append(elapsed)
            if problem is None:
                problem = item.check(result)
            if problem is None and self.seen[i] and result != self.first[i]:
                problem = "output differs from the first run of the same item"
            if problem is None and not self.seen[i]:
                self.first[i], self.seen[i] = result, True
            if problem is not None:
                self.failed += 1
                print(f"FAIL {item.label}: {problem}", file=sys.stderr)
        return time.perf_counter() - t_pass


def scaled_setup_probe() -> float:
    before = reference_time()
    elapsed = setup_probe()
    return elapsed * 2 * REFERENCE_S / (before + reference_time())


def timed_run(items: list, seconds: float) -> tuple[Runner, dict]:
    """Passes until `seconds` pass, with set-up probes spread between them.

    One unmeasured probe and reference first, so byte-compiling the sources
    and warming the kernel are not timed.
    """
    runner = Runner(items)
    setup_probe()
    reference_time()
    setups: list[float] = []
    t0 = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - t0 < seconds:
        setups += [scaled_setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        runner.run_pass(scaled=True)
        passes += 1
    while len(setups) < SETUP_PROBES:
        setups.append(scaled_setup_probe())
    medians = [statistics.median(ts) for ts in runner.times]
    top = max(range(len(items)), key=medians.__getitem__)
    print(f"{passes} passes, {len(setups)} set-ups; costliest item: {items[top].label}", file=sys.stderr)
    return runner, {
        "wall_s": (sum(medians), "s"),
        "largest_item_s": (medians[top], "s"),
        "setup_s": (statistics.median(setups), "s"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_run(items: list, seconds: float, out_path: Path, meta: dict) -> tuple[Runner, dict]:
    """A memory pass and a sizing pass, then traced and untraced passes in
    turn until `seconds` pass."""
    from spans import TIMES, Tracer

    tracer = Tracer()
    runner = Runner(items, tracer)
    t0 = time.perf_counter()
    rss_before = peak_rss_mb()
    runner.run_pass()
    rss_rise = peak_rss_mb() - rss_before
    tracer.patch(size_coefficients=True)
    try:
        runner.run_pass(traced=True)
    finally:
        tracer.unpatch()
    sizes = {**tracer.counts, **tracer.maxima}
    sizing_spans = len(tracer.spans)

    per_pass: list[dict[str, float]] = []
    plain: list[float] = []
    while not per_pass or not plain or time.perf_counter() - t0 < seconds:
        first = len(tracer.spans)
        tracer.patch()
        try:
            wall = runner.run_pass(traced=True)
        finally:
            tracer.unpatch()
        self_times, covered = tracer.self_times(first)
        per_pass.append({**self_times, "trace.wall_s": wall, "trace.unattributed_s": wall - covered})
        plain.append(runner.run_pass())

    metrics: dict[str, tuple[float, str]] = {}
    for name in (*TIMES, "trace.unattributed_s", "trace.wall_s"):
        metrics[name] = (statistics.median(p[name] for p in per_pass), "s")
    for name, value in sizes.items():
        unit = "bits" if name == "invariants.coeff_bits_max" else "count"
        metrics[name] = (value, unit)
    metrics["memory.pass_rss_rise_mb"] = (rss_rise, "MB")
    traced_wall = statistics.median(p["trace.wall_s"] for p in per_pass)
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(plain) - 1.0, "ratio")

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(
            {
                **meta,
                "passes": {"memory": 1, "sizing": 1, "traced": len(per_pass), "untraced": len(plain)},
                "sizing_spans": sizing_spans,
                "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
            f,
        )
    print(f"{len(per_pass)} traced and {len(plain)} untraced passes; spans in {out_path}", file=sys.stderr)
    return runner, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_petalgrid()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    items = workload.make(random.Random(args.seed))
    meta = {"workload": workload.name, "seed": args.seed, "environment": environment()}
    print(json.dumps(meta), file=sys.stderr)

    if args.trace:
        out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.json"
        runner, metrics = traced_run(items, args.seconds, out, meta)
    else:
        runner, metrics = timed_run(items, args.seconds)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
