#!/usr/bin/env python3
"""Fit benchmark for semivmp.

    python3 perfbench/run.py --workload glm-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports ``src/semivmp``
and generates its inputs with ``scripts/make_synthetic_data.py``.  One process
drives a closed loop, one fit at a time, with BLAS pinned to one thread.  Timed
passes cycle over the run's datasets in whole rounds until ``--seconds`` have
passed; a last, untimed pass under tracemalloc gives the memory peak.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the exit code is 1 when a
fit failed its check and 2 when the checkout lacks the package or generator.
Outputs, spans and a full result file go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("glm-large", "groups-wide", "readme-cli")
DEFAULT_SEED = 1  # dataset 0 of seed 1 is the README's `make_synthetic_data.py --seed 1` output
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNITS = {"wall_s": "s", "setup_s": "s", "sweep_ms": "ms", "sweeps": "count", "peak_mem_mb": "MB"}


def blas_info():
    """Versions and the thread count OpenBLAS reports, read without threadpoolctl."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
    return {
        "nproc": os.cpu_count(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "openblas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def tail(values):
    """(percentile, value) of the highest percentile with ten samples beyond
    it, or None when that percentile would not lie above the median."""
    n = len(values)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_pass(workload, ds, reference, tracer=None):
    """One timed pass over one dataset, judged after the clock stops."""
    import workloads  # importable once main() has put src/ on the path

    mark = None
    label = lambda name: None  # noqa: E731
    if tracer is not None:
        mark = tracer.mark(f"data{ds.seed}")
        tracer.install()
        label = tracer.label
    try:
        t0 = perf_counter()
        fits = workload.run(ds, label)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "dataset": ds.seed,
        "wall_s": wall,
        "setup_s": sum(f.setup_s for f in fits),
        "sweep_s": sum(f.sweep_s for f in fits),
        "outcomes": workloads.judge(workload.name, ds, fits, reference),
        "layers": tracer.layer_metrics(mark) if tracer is not None else None,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    script = ROOT / "scripts" / "make_synthetic_data.py"
    package = ROOT / "src" / "semivmp" / "__init__.py"
    for needed in (package, script):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a semivmp checkout",
                  file=sys.stderr)
            return 2

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import semivmp

    if Path(semivmp.__file__).resolve() != package.resolve():
        print(f"error: imported semivmp from {semivmp.__file__}, not {package}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    outroot = ROOT / ".bench_build" / "perfbench" / args.workload
    outroot.mkdir(parents=True, exist_ok=True)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    t_setup = perf_counter()
    data = workloads.datasets(workload, args.seed, script, outroot)
    setup_wall = perf_counter() - t_setup
    # The warm-up and memory passes run on two more datasets, which also count
    # towards curve_rmse.
    timed, spare = data[:-2], data[-2:]

    tracer = tracing.Tracer() if args.trace else None
    passes, traced = [], []
    # untimed warm-up: first calls pay for lazy imports and cold caches
    warmup = run_pass(workload, spare[0], reference)
    start = perf_counter()
    # Whole rounds over the datasets, so that each weighs the same; another
    # round starts only if one more as long as the last ends within --seconds.
    while True:
        round_start = perf_counter()
        for ds in timed:
            passes.append(run_pass(workload, ds, reference))
            if tracer is not None:
                traced.append(run_pass(workload, ds, reference, tracer))
        now = perf_counter()
        if now + (now - round_start) - start > args.seconds:
            break
    measured = perf_counter() - start
    t_memory = perf_counter()
    tracemalloc.start()
    try:
        memory_pass = run_pass(workload, spare[1], reference)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    t_memory = perf_counter() - t_memory

    attempted = failed = 0
    problems = []
    first_errors = {}
    for p in [warmup] + passes + traced + [memory_pass]:
        for outcome in p["outcomes"]:
            attempted += 1
            if not outcome.ok:
                failed += 1
                problems.append(f"data seed {p['dataset']} fit {outcome.name}: {outcome.detail}")
            first_errors.setdefault((p["dataset"], outcome.name), outcome.sq_errors)

    sq = [e for errs in first_errors.values() for e in errs if np.isfinite(e)]
    sweeps_per_pass = statistics.mean(sum(o.sweeps for o in p["outcomes"]) for p in passes)
    timed_fits = [o for p in passes for o in p["outcomes"]]
    capped = sum(o.capped for o in timed_fits)
    walls = [p["wall_s"] for p in passes]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "sweep_ms": statistics.median(
            1e3 * p["sweep_s"] / max(1, sum(o.sweeps for o in p["outcomes"])) for p in passes),
        "sweeps": sweeps_per_pass,
        "peak_mem_mb": peak_mb,
    }

    env = blas_info()
    print(f"workload {args.workload}  seed {args.seed}  datasets {[ds.seed for ds in data]}  "
          f"inputs generated in {setup_wall:.2f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"closed loop, 1 process, 1 fit at a time: {len(passes)} timed passes in {measured:.1f} s, "
          f"memory pass {t_memory:.1f} s")
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:.6g} {UNITS[name]}")
    # Printed, not bounded: curve_rmse is fixed by the data, and across seeds it
    # spreads by 6-43%, more than any bound the benchmark may set.
    rmse = float(np.sqrt(np.mean(sq))) if sq else float("nan")
    print(f"  curve_rmse   {rmse:.6g} (linear-predictor scale, {len(sq)} curves, {len(data)} datasets)")
    t = tail(walls)
    if t is None:
        print(f"  wall_s_tail  not reported: {len(walls)} passes, a tail above the median needs more than 20")
    else:
        print(f"  wall_s_tail  p{t[0]:.1f} = {t[1]:.6g} s ({len(walls)} passes, 10 beyond)")
    fits_by_name = Counter(o.name for o in timed_fits)
    capped_by_name = Counter(o.name for o in timed_fits if o.capped)
    print(f"  capped_frac  {capped}/{len(timed_fits)} timed fits stopped at the sweep cap ("
          + ", ".join(f"{name} {capped_by_name[name]}/{n}" for name, n in fits_by_name.items()) + ")")
    print(f"  fail_frac    {failed}/{attempted} fits raised, exited 1 or failed a check")
    for line in problems[:20]:
        print(f"  FAILED {line}")

    if tracer is not None:
        layers = {}
        for key in traced[0]["layers"]:
            vals = [p["layers"][key] for p in traced]
            if key in tracing.COMPUTED_COUNTS:
                layers[key] = statistics.mean(vals)
            else:
                layers[key] = statistics.median(vals)
        layers["engine.capped_frac"] = capped / len(timed_fits)
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - end_to_end["wall_s"]
        print(f"traced: {len(traced)} passes interleaved with the untraced ones; "
              f"counts marked (computed) are derived from call arguments, per pass")
        for key, value in layers.items():
            tag = " (computed)" if key in tracing.COMPUTED_COUNTS else ""
            print(f"  {key:<34} {value:.6g}{tag}")
        tracer.write(outroot / f"spans-seed{args.seed}.jsonl")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(outroot / f"result-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "end_to_end": end_to_end, "curve_rmse": rmse,
                   "capped": capped, "problems": problems,
                   "passes": [{k: v for k, v in p.items() if k != "outcomes"} for p in passes + traced]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith(("_share", "_frac")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
