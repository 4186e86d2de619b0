#!/usr/bin/env python3
"""Store the fixed points that converged readme-cli fits are checked against.

    python3 perfbench/make_reference.py --seeds 0-10 --fits penspline,probit
    python3 perfbench/make_reference.py --seeds 1 --fits groupcurves

For each run seed and each of its readme-cli datasets, runs the README command
through ``semivmp.cli.main`` at tol 1e-12 and records the final ELBO and every
tenth point of each posterior-mean curve in ``perfbench/reference.json``,
merged with what the file already holds.  A fit that does not reach tol 1e-12
within the sweep limit is left out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_SWEEP_CAP = 20_000


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_list, required=True, help="run seeds, e.g. 0-10 or 1,5")
    ap.add_argument("--fits", default="penspline,probit", help="README fits to store")
    args = ap.parse_args()

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    from semivmp import cli

    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    store = reference.setdefault("readme-cli", {})
    workload = workloads.WORKLOADS["readme-cli"]
    outroot = ROOT / ".bench_build" / "perfbench" / "reference"
    for seed in args.seeds:
        for ds in workloads.datasets(workload, seed, ROOT / "scripts" / "make_synthetic_data.py", outroot):
            for name in args.fits.split(","):
                argv = workloads.readme_argv(ds, name) + ["--tol", "1e-12", "--iters", str(REF_SWEEP_CAP)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    print(f"data seed {ds.seed} {name}: exit {code}, not stored")
                    continue
                doc = json.loads((ds.dir / f"fit_{name}.json").read_text(encoding="utf-8"))
                store.setdefault(str(ds.seed), {})[name] = {
                    "elbo": doc["elbo_trace"][-1],
                    "mean": {c: [float(f"{v:.12g}") for v in curve["mean"][::workloads.REF_STRIDE]]
                             for c, curve in doc["curves"].items()},
                }
                print(f"data seed {ds.seed} {name}: {doc['convergence']['iterations']} sweeps", flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
