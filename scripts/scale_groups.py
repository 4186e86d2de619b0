#!/usr/bin/env python3
"""Time and measure a group-curve fit as the group count m grows.

    python3 scripts/scale_groups.py --groups 200 400 1000 --repeats 5

For each m the script generates the README's grouped dataset with m groups
of ``--per-group`` rows (``scripts/make_synthetic_data.py``, run in-process
into a temporary directory) and reports six phases of a fit:

- build: ``build_group_curves`` plus ``build_factor_graph`` (the benchmark's
  set-up);
- sweep: one ``run_vmp`` sweep with the ELBO;
- factor: the per-sweep kernels of the swept ``coef`` q-density, timed
  alone: one ``two_level_moments`` of its summed vector (``factor ms``)
  and one scale move of it (``move ms``: the move's closed-form
  coefficients, its alpha and ``ScaleMove.rescale`` on copies of the
  moments and of the messages it writes, so the graph does not move);
- q_density: the q-density of the ``coef`` node;
- band: the three population curves (``group_0``, ``group_1``, ``contrast``)
  with their 95% bands on a 201-point grid, through ``fitted_curve``;
- output: what ``semivmp fit`` writes after its sweeps, ``cli._posterior_output``
  (every q-density, the curve grids) and ``cli._write_json`` into a file in
  the temporary directory, whose size is the ``file MB`` column.

Each time is the minimum over ``--repeats`` runs (the sweeps continue on one
graph).  Each peak is the ``tracemalloc`` peak of one more run of the phase,
untimed; the factor phase has no peak column.  The last two columns give
the size of one packed ``coef`` natural vector, the form every message and
q-density on that node takes, and of one dense p x p array for comparison.
A final line gives each time relative to the first m.

    python3 scripts/scale_groups.py --groups 20 200 --to-tol

``--to-tol [TOL]`` (1e-8 when no value is given) instead fits each m to that
tolerance twice, with plain VMP and with the accelerated loop of ``run_vmp``
(ELBO-guarded SQUAREM and the model's scale move), both without an ELBO
trace (the accelerated run still takes the ELBOs its guard needs).  It
prints the sweeps and seconds of each, the accelerated run's accepted and
rejected steps and the scale moves it applied, and the ratio of sweeps.

BLAS is pinned to one thread before numpy is imported, and the package is
imported from this checkout's ``src``.  The script writes nothing outside
its temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import os
import runpy
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from semivmp import expfam  # noqa: E402
from semivmp.cli import _posterior_output, _write_json  # noqa: E402
from semivmp.engine import build_factor_graph, q_density, run_vmp  # noqa: E402
from semivmp.fragments_gaussian import scale_move_alpha, scale_move_coefficients  # noqa: E402
from semivmp.models import build_group_curves, fitted_curve  # noqa: E402
from semivmp.natparam import two_level_moments  # noqa: E402


def grouped_data(outdir, groups, per_group, seed):
    """(y, x, subject, arm) of make_synthetic_data.py's grouped dataset."""
    saved = sys.argv
    sys.argv = ["make_synthetic_data.py", "--outdir", str(outdir), "--seed", str(seed),
                "--groups", str(groups), "--per-group", str(per_group)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "scripts" / "make_synthetic_data.py"), run_name="__main__")
    finally:
        sys.argv = saved
    table = np.genfromtxt(outdir / "grouped_curves.csv", delimiter=",", names=True, dtype=None,
                          encoding="utf-8")
    return (table["y"].astype(float), table["x"].astype(float), table["subject"].astype(str),
            table["arm"].astype(float))


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


def summed_eta(graph, name):
    """A node's q-density vector: its factors' messages summed in order."""
    first, *rest = graph.node_factors[name]
    total = graph.fac_to_node[(first, name)].copy()
    for factor in rest:
        total += graph.fac_to_node[(factor, name)]
    return total


def factor_times(graph, repeats):
    """(seconds of one two_level_moments of the coef q-density vector,
    seconds of one scale move of it), each the minimum over repeats.  The
    move runs on copies, so the graph keeps its state."""
    (move,) = graph.moves
    coef, noise, a = move.nodes
    layout = graph.nodes[coef].layout
    eta = summed_eta(graph, coef)
    factor_s, moments = timed(lambda: two_level_moments(eta, layout), repeats)
    ETs = [expfam.expected_sufficient_statistic(
        expfam.NatParam(graph.nodes[name].family, summed_eta(graph, name), graph.nodes[name].d))
        for name in (noise, a)]
    best = np.inf
    for _ in range(repeats):
        moved, messages = copy.deepcopy(moments), [graph.fac_to_node[e].copy() for e in move.edges]
        t0 = perf_counter()
        alpha = scale_move_alpha(*scale_move_coefficients(move, moved, *ETs))
        move.rescale(alpha, moved, messages)
        best = min(best, perf_counter() - t0)
    return factor_s, best


def measure(data, repeats, outdir):
    grid = np.linspace(np.min(data[1]), np.max(data[1]), 201)

    def build():
        model = build_group_curves(*data)
        return model, build_factor_graph(model)

    def sweep():
        return run_vmp(graph, max_iter=1, tol=1e-300, track_elbo=True)

    def coef_q():
        return q_density(graph, "coef")

    def band():
        return [fitted_curve(q_coef, design, grid) for design in model.curves.values()]

    def output():
        qtable, curves, extras = _posterior_output(model, graph)
        with open(outdir / "fit.json", "w", encoding="utf-8") as fh:
            _write_json({"q_densities": qtable, "curves": curves, **extras}, fh)

    build_s, (model, graph) = timed(build, repeats)
    sweep_s, _ = timed(sweep, repeats)
    factor_s, move_s = factor_times(graph, repeats)
    q_s, q_coef = timed(coef_q, repeats)
    band_s, _ = timed(band, repeats)
    out_s, _ = timed(output, repeats)
    coef = graph.nodes["coef"]
    peaks = [peak_bytes(fn) for fn in (build, sweep, coef_q, band, output)]
    file_mb = (outdir / "fit.json").stat().st_size / 1e6
    times = (build_s, sweep_s, factor_s, move_s, q_s, band_s, out_s)
    return coef.d, coef.layout.packed_size, times, peaks, file_mb


def to_tol(data, tol, max_sweeps):
    """(p, [(sweeps, seconds, converged, accepted, rejected, moves)] plain, then accelerated)."""
    model = build_group_curves(*data)
    runs = []
    for accelerate in (False, True):
        graph = build_factor_graph(model)
        t0 = perf_counter()
        report = run_vmp(graph, max_iter=max_sweeps, tol=tol, track_elbo=False,
                         accelerate=accelerate)
        runs.append((report.iterations, perf_counter() - t0, report.converged,
                     report.steps_accepted, report.steps_rejected, report.moves_applied))
    return graph.nodes["coef"].d, runs


def print_to_tol(args):
    print(f"{'m':>6} {'p':>6} {'plain sweeps':>13} {'plain s':>9} {'accel. sweeps':>15} "
          f"{'accel. s':>10} {'acc/rej':>9} {'moves':>6} {'sweep ratio':>12}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for m in args.groups:
            data = grouped_data(Path(tmp) / f"m{m}", m, args.per_group, args.seed)
            p, runs = to_tol(data, args.to_tol, args.max_sweeps)
            (n0, s0, c0, *_), (n1, s1, c1, acc, rej, moves) = runs
            plain, fast = f"{n0}{'' if c0 else '*'}", f"{n1}{'' if c1 else '*'}"
            print(f"{m:>6} {p:>6} {plain:>13} {s0:>9.2f} {fast:>15} {s1:>10.2f} "
                  f"{f'{acc}/{rej}':>9} {moves:>6} {n1 / n0:>12.3f}", flush=True)
    print(f"tol {args.to_tol:g}; * marks a fit stopped at --max-sweeps {args.max_sweeps}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--groups", type=int, nargs="+", default=[200, 400, 1000])
    ap.add_argument("--per-group", type=int, default=25)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--to-tol", type=float, nargs="?", const=1e-8, default=None,
                    help="fit each m to this tol, plain against accelerated (default 1e-8)")
    ap.add_argument("--max-sweeps", type=int, default=20000,
                    help="sweep cap of each --to-tol fit")
    args = ap.parse_args(argv)
    if args.repeats < 1 or min(args.groups) < 1:
        ap.error("--repeats and every --groups value must be at least 1")
    if args.to_tol is not None:
        if not args.to_tol > 0 or args.max_sweeps < 1:
            ap.error("--to-tol must be positive and --max-sweeps at least 1")
        return print_to_tol(args)

    print(f"{'m':>6} {'p':>6} {'build s':>9} {'sweep ms':>9} {'factor ms':>10} {'move ms':>8} "
          f"{'q_density s':>12} {'band s':>8} "
          f"{'output s':>9} {'build MB':>9} {'sweep MB':>9} {'q_density MB':>13} {'band MB':>8} "
          f"{'output MB':>10} {'file MB':>8} {'packed MB':>10} {'p x p MB':>9}",
          flush=True)
    first = None
    with tempfile.TemporaryDirectory() as tmp:
        for m in args.groups:
            outdir = Path(tmp) / f"m{m}"
            data = grouped_data(outdir, m, args.per_group, args.seed)
            p, packed, times, peaks, file_mb = measure(data, args.repeats, outdir)
            build_s, sweep_s, factor_s, move_s, q_s, band_s, out_s = times
            first = first or (m, *times)
            mb = [x / 1e6 for x in peaks]
            print(f"{m:>6} {p:>6} {build_s:>9.4f} {1e3 * sweep_s:>9.2f} {1e3 * factor_s:>10.3f} "
                  f"{1e3 * move_s:>8.3f} {q_s:>12.4f} "
                  f"{band_s:>8.4f} {out_s:>9.4f} {mb[0]:>9.1f} {mb[1]:>9.1f} {mb[2]:>13.1f} "
                  f"{mb[3]:>8.1f} {mb[4]:>10.1f} {file_mb:>8.2f} {8 * packed / 1e6:>10.2f} "
                  f"{8 * p * p / 1e6:>9.0f}", flush=True)
            last = (m, *times)
    if len(args.groups) > 1:
        ratios = [b / a for a, b in zip(first[1:], last[1:])]
        print(f"m={last[0]} against m={first[0]} ({last[0] / first[0]:g}x the groups): build "
              f"{ratios[0]:.2f}x, sweep {ratios[1]:.2f}x, factor {ratios[2]:.2f}x, "
              f"move {ratios[3]:.2f}x, q_density {ratios[4]:.2f}x, band {ratios[5]:.2f}x, "
              f"output {ratios[6]:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
