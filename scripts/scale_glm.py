#!/usr/bin/env python3
"""Time and measure the GLM spline fits as the sample size n grows.

    python3 scripts/scale_glm.py --n 10000 50000 200000 --repeats 3

For each n the script generates the README's binary and count spline
datasets with n rows (``scripts/make_synthetic_data.py``, run in-process into
a temporary directory) and, for each link (logit, probit, log) of
``build_glm_spline`` at its defaults but K=25, reports three phases:

- build: ``build_glm_spline`` plus ``build_factor_graph`` (the benchmark's
  set-up);
- first sweep: the first ``run_vmp`` sweep with the ELBO, which also
  builds the B-spline rows the later sweeps reuse;
- sweep: one more sweep with the ELBO, on the same graph.

Each time is the minimum over ``--repeats`` runs (each first sweep on a
fresh graph; the later sweeps continue on one graph).  Each peak is the
``tracemalloc`` peak of one more run of the phase, untimed, with the graph
of a sweep built before tracing starts.  A final line
per link gives each time at the largest n relative to the smallest.

BLAS is pinned to one thread before numpy is imported, and the package is
imported from this checkout's ``src``.  The script writes nothing outside
its temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import sys
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from semivmp.engine import build_factor_graph, run_vmp  # noqa: E402
from semivmp.models import build_glm_spline  # noqa: E402

LINKS = (("logit", "binary_spline.csv"), ("probit", "binary_spline.csv"), ("log", "count_spline.csv"))


def spline_data(outdir, n, seed):
    """{file name: (x, y)} of make_synthetic_data.py's binary and count spline datasets."""
    saved = sys.argv
    sys.argv = ["make_synthetic_data.py", "--outdir", str(outdir), "--seed", str(seed),
                "--n", str(n), "--groups", "2", "--per-group", "5"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "scripts" / "make_synthetic_data.py"), run_name="__main__")
    finally:
        sys.argv = saved
    out = {}
    for fname in ("binary_spline.csv", "count_spline.csv"):
        x, y = np.loadtxt(outdir / fname, delimiter=",", skiprows=1, unpack=True)
        out[fname] = (x, y)
    return out


def timed(fn, repeats):
    """(minimum seconds over repeats, result of the last run)."""
    best, result = np.inf, None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        best = min(best, perf_counter() - t0)
    return best, result


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_sweep(graph):
    return run_vmp(graph, max_iter=1, tol=1e-300, track_elbo=True)


def measure(x, y, link, repeats):
    def build():
        return build_factor_graph(build_glm_spline(y, x, K=25, link=link))

    build_s, graph = timed(build, repeats)
    first_s = min(timed(partial(one_sweep, build()), 1)[0] for _ in range(repeats))
    one_sweep(graph)
    sweep_s, _ = timed(partial(one_sweep, graph), repeats)
    # partial() builds its graph before tracing starts
    peaks = [peak_bytes(build), peak_bytes(partial(one_sweep, build())),
             peak_bytes(partial(one_sweep, graph))]
    return (build_s, first_s, sweep_s), peaks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, nargs="+", default=[10000, 50000, 200000])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.repeats < 1 or min(args.n) < 100:
        ap.error("--repeats must be at least 1 and every --n value at least 100")

    print(f"{'n':>8} {'link':>6} {'build ms':>9} {'1st sweep ms':>13} {'sweep ms':>9} "
          f"{'build MB':>9} {'1st sweep MB':>13} {'sweep MB':>9}", flush=True)
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            data = spline_data(Path(tmp) / f"n{n}", n, args.seed)
            for link, fname in LINKS:
                phases, peaks = measure(*data[fname], link, args.repeats)
                times.setdefault(link, []).append((n, phases))
                ms = [1e3 * t for t in phases]
                mb = [b / 1e6 for b in peaks]
                print(f"{n:>8} {link:>6} {ms[0]:>9.2f} {ms[1]:>13.2f} {ms[2]:>9.2f} "
                      f"{mb[0]:>9.1f} {mb[1]:>13.1f} {mb[2]:>9.1f}", flush=True)
    if len(args.n) > 1:
        for link, rows in times.items():
            (n0, first), (n1, last) = rows[0], rows[-1]
            ratios = [b / a for a, b in zip(first, last)]
            print(f"{link}: n={n1} against n={n0} ({n1 / n0:g}x the rows): build {ratios[0]:.2f}x, "
                  f"first sweep {ratios[1]:.2f}x, sweep {ratios[2]:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
