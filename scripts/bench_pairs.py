#!/usr/bin/env python3
"""Run the fit benchmark in alternating parent/change pairs and compare.

    python3 scripts/bench_pairs.py --parent ../old --change . --workload glm-large \
        --seed 1 --pairs 10

Each pair runs the benchmark command of ``BENCHMARK.json`` (``python3
perfbench/run.py ... --trace 0``) once in each checkout, one run after the
other, for the ``run_seconds`` that the checkout's ``BENCHMARK.json`` sets.
Odd pairs start with the parent and even pairs with the change, so a drift
in machine speed falls on both sides alike.  For every end-to-end metric of
the parent's ``BENCHMARK.json`` it prints each side's median and quartiles,
the parent's interquartile range, the change's median relative to the
parent's, and in how many pairs the change was strictly better.  Two
verdicts follow for each metric:

- ``gain``: the change was strictly better in at least nine tenths of the
  pairs (ties count for neither side) and its median is better than the
  parent's by more than the parent's interquartile range;
- ``in bound``: the change's median is no worse than the parent's median by
  more than the metric's ``bound`` in ``BENCHMARK.json``, read as a fraction
  of the parent's median.

It also says whether every run reported ``"correct": true`` with no failed
fit.

The script writes no file itself; each benchmark run writes only under its
own checkout's ``.bench_build/``.  The exit code is 1 when a run failed or
was not correct, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_benchmark(checkout):
    with open(Path(checkout) / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(checkout, args):
    """One benchmark run; returns (metrics or None, correct, detail)."""
    benchmark = load_benchmark(checkout)
    command = benchmark["command"] + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, False, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    correct = result["correct"] is True and result["failed"] == 0 and proc.returncode == 0
    detail = f"correct {str(result['correct']).lower()} failed {result['failed']}"
    return metrics, correct, detail


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(direction, new, old):
    return new < old if direction == "lower" else new > old


def compare(spec, old, new):
    """One metric over complete pairs, old and new holding the parent's and
    the change's values: each side's quartiles, the pairs the change won and
    the two verdicts (gain, in bound) of the module docstring."""
    (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
    wins = sum(better(spec["better"], b, a) for a, b in zip(old, new))
    gap = o2 - n2 if spec["better"] == "lower" else n2 - o2  # > 0 when the change is better
    gain = 10 * wins >= 9 * len(old) and gap > o3 - o1
    return (o1, o2, o3), (n1, n2, n3), wins, gain, gap >= -spec["bound"] * abs(o2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    benchmark = load_benchmark(sides["parent"])
    end_to_end = benchmark["end_to_end"]

    runs = {"parent": [], "change": []}  # per pair: metrics or None
    all_correct = True
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            metrics, correct, detail = run_once(sides[side], args)
            all_correct = all_correct and correct
            runs[side].append(metrics)
            shown = " ".join(f"{k} {v:.6g}" for k, v in (metrics or {}).items())
            print(f"pair {pair:>2} {side:<6} {shown} ({detail})", flush=True)

    complete = [i for i in range(args.pairs) if runs["parent"][i] and runs["change"][i]]
    print(f"\n{args.workload} seed {args.seed}: {len(complete)} complete pairs of "
          f"{benchmark['run_seconds']:g}-second runs")
    print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'parent IQR':>11} {'change/parent':>14} {'change better':>14} {'gain':>5} {'in bound':>9}")
    for spec in end_to_end if complete else ():
        name = spec["name"]
        old = [runs["parent"][i][name] for i in complete]
        new = [runs["change"][i][name] for i in complete]
        (o1, o2, o3), (n1, n2, n3), wins, gain, in_bound = compare(spec, old, new)
        ratio = n2 / o2 if o2 else float("nan")
        print(f"{name:<12} {f'{o2:.4g} [{o1:.4g}, {o3:.4g}]':>30} {f'{n2:.4g} [{n1:.4g}, {n3:.4g}]':>30} "
              f"{o3 - o1:>11.3g} {ratio:>14.3f} {f'{wins}/{len(complete)}':>14} "
              f"{'yes' if gain else 'no':>5} {'yes' if in_bound else 'no':>9}")
    print(f'every run reported "correct": true with failed 0: {"yes" if all_correct else "no"}')
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
