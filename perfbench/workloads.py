"""The three benchmark workloads: their inputs, one timed pass each, and the checks.

Inputs come from ``scripts/make_synthetic_data.py``, the README's generator,
run in-process.  Each run uses several datasets derived from its seed; dataset
``j`` of run seed ``s`` is generated with data seed ``s + 1000 * j``, so
dataset 0 of seed 1 is the README's own data.

A pass fits every model of one workload on one dataset and returns the raw
results; ``judge`` then checks them outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import runpy
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import logit, ndtri

from semivmp import cli, engine, models
from semivmp.mfvb import mfvb_linear_regression

# glm-large: logit and probit need 72-200+ sweeps to reach tol 1e-8 at n=10000,
# depending on the seed, which would make the pass cost follow the seed.  A cap
# below that range keeps the per-sweep GLM work in view at a steady cost.
GLM_LINKS = ("logit", "probit", "log")
GLM_N = 10_000
GLM_SWEEP_CAP = 40
GROUPS_M = 200
GROUPS_PER_GROUP = 25
GROUPS_SWEEP_BUDGET = 4
TOL = 1e-8

# Curves are scored on the interior of the data range, as acceptance criterion 08 does.
GRID = np.linspace(0.02, 0.98, 201)
# A curve further than this from the generating function (root mean square,
# linear-predictor scale) is wrong, whatever the sweep budget.
RMSE_LIMIT = 1.0
# Converged fits against the stored tol-1e-12 fixed points.  At tol 1e-8 the
# README fits land within 1.5e-8 (curve) and 7e-14 (relative ELBO) of them.
REF_CURVE_ATOL = 1e-5
REF_ELBO_RTOL = 1e-9
REF_STRIDE = 10  # stored curve means keep every tenth grid point
MFVB_RTOL = 1e-6

README_FITS = (
    ("penspline", "gaussian_spline.csv",
     ["--model", "penspline", "--response", "y", "--predictor", "x", "--knots", "15"]),
    ("probit", "binary_spline.csv",
     ["--model", "glmspline", "--response", "y", "--predictor", "x", "--link", "probit",
      "--iters", "400"]),
    ("groupcurves", "grouped_curves.csv",
     ["--model", "groupcurves", "--response", "y", "--predictor", "x", "--group", "subject",
      "--label", "arm"]),
)
README_JSON_KEYS = ("meta", "q_densities", "elbo_trace", "convergence", "curves")
CONJUGATE_FITS = ("penspline", "groupcurves", "groups")


def group_truth(name, x):
    """Population curves of the make_synthetic_data grouped model (random lines have mean 0)."""
    base = np.sin(2 * np.pi * x)
    contrast = 0.8 * x - 0.3
    return {"group_0": base, "group_1": base + contrast, "contrast": contrast}[name]


TO_LP = {"identity": lambda m: m, "logit": logit, "probit": ndtri, "log": np.log}


def spline_truth(link, x):
    """The spline datasets' generating function on the linear-predictor scale
    (counts have mean 10 f)."""
    f = models.demo_mean_function(x)
    return TO_LP[link](10.0 * f if link == "log" else f)


@dataclass
class Dataset:
    seed: int
    dir: Path
    arrays: dict = field(default_factory=dict)


@dataclass
class RawFit:
    """What one fit produced inside the timed pass."""

    name: str
    setup_s: float = 0.0
    sweep_s: float = 0.0
    sweeps: int = 0
    converged: bool = False
    elbo_trace: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)  # name -> (grid, mean on the response scale)
    link: str = "identity"
    doc: dict = None
    model: object = None  # library fits: for curves formed after the clock stops
    q_coef: object = None
    exit_code: int = 0
    error: str = None


@dataclass
class Outcome:
    name: str
    ok: bool
    capped: bool
    sweeps: int
    sq_errors: list  # one mean squared error per curve
    detail: str = ""


def generate(script, outdir, data_seed, extra):
    """Run the README data generator in-process into outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    saved = sys.argv
    sys.argv = [str(script), "--outdir", str(outdir), "--seed", str(data_seed), *extra]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = saved


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = list(zip(*reader))
    return {name: np.array(col) for name, col in zip(header, cols)}


def _fit_library(name, build, run_kwargs, curve_names):
    """Build, sweep, read every q-density and the named curves, as a library user would."""
    raw = RawFit(name)
    try:
        t0 = perf_counter()
        model = build()
        graph = engine.build_factor_graph(model)
        t1 = perf_counter()
        report = engine.run_vmp(graph, **run_kwargs)
        t2 = perf_counter()
        qs = {node: engine.q_density(graph, node) for node in graph.nodes}
        for cname in curve_names:
            fc = models.fitted_curve(qs[model.coef_node], model.curves[cname], GRID, link=model.link)
            raw.curves[cname] = (fc.grid, fc.mean)
    except Exception as err:  # a fit that raises is a failed fit, not a failed benchmark
        raw.error = f"{type(err).__name__}: {err}"
        return raw
    raw.setup_s, raw.sweep_s = t1 - t0, t2 - t1
    raw.sweeps, raw.converged = report.iterations, report.converged
    raw.elbo_trace, raw.link = report.elbo_trace, model.link
    raw.model, raw.q_coef = model, qs[model.coef_node]
    return raw


# ---------------------------------------------------------------------------
# glm-large


def prepare_glm(ds):
    for link, fname in (("logit", "binary_spline.csv"), ("log", "count_spline.csv")):
        cols = read_csv(ds.dir / fname)
        ds.arrays[link] = (cols["x"].astype(float), cols["y"].astype(float))
    ds.arrays["probit"] = ds.arrays["logit"]


def run_glm(ds, label):
    fits = []
    for link in GLM_LINKS:
        label(link)
        x, y = ds.arrays[link]
        fits.append(_fit_library(
            link,
            lambda: models.build_glm_spline(y, x, K=25, link=link),
            {"max_iter": GLM_SWEEP_CAP, "tol": TOL},
            ("fit",),
        ))
    return fits


# ---------------------------------------------------------------------------
# groups-wide


def prepare_groups(ds):
    cols = read_csv(ds.dir / "grouped_curves.csv")
    ds.arrays["groups"] = (
        cols["y"].astype(float), cols["x"].astype(float), cols["subject"], cols["arm"].astype(float)
    )


def run_groups(ds, label):
    # No curve bands in the timed pass: at p=1424 their quadratic forms would
    # take a third of it.  judge() scores the posterior-mean curves.
    y, x, gid, arm = ds.arrays["groups"]
    label("groups")
    return [_fit_library(
        "groups",
        lambda: models.build_group_curves(y, x, gid, arm),
        {"max_iter": GROUPS_SWEEP_BUDGET, "tol": TOL},
        (),
    )]


# ---------------------------------------------------------------------------
# readme-cli


class SweepClock:
    """Wraps ``run_vmp`` where ``semivmp.cli`` looks it up, so that a CLI fit
    splits into set-up (before the first sweep) and the sweep phase."""

    def __init__(self):
        self.enter = self.leave = None
        self._inner = None

    def install(self):
        self._inner = inner = cli.run_vmp

        def timed(*args, **kwargs):
            self.enter = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.leave = perf_counter()

        cli.run_vmp = timed

    def uninstall(self):
        cli.run_vmp = self._inner


def readme_argv(ds, name):
    for fit, fname, args in README_FITS:
        if fit == name:
            return ["fit", *args, "--data", str(ds.dir / fname), "--out", str(ds.dir / f"fit_{name}.json")]
    raise KeyError(name)


def run_readme(ds, label):
    fits = []
    clock = SweepClock()
    clock.install()
    try:
        for name, _, _ in README_FITS:
            label(name)
            raw = RawFit(name)
            sink = io.StringIO()
            clock.enter = None
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    raw.exit_code = cli.main(readme_argv(ds, name))
            except Exception as err:  # cli.main reports errors itself; anything else is a failed fit
                raw.exit_code, raw.error = 1, f"{type(err).__name__}: {err}"
            if raw.exit_code == 1 or clock.enter is None:
                raw.error = raw.error or f"exit code {raw.exit_code}: {sink.getvalue().strip()}"
            else:
                raw.setup_s, raw.sweep_s = clock.enter - t0, clock.leave - clock.enter
            fits.append(raw)
    finally:
        clock.uninstall()
    return fits


def _load_readme_doc(ds, raw):
    with open(ds.dir / f"fit_{raw.name}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    missing = [k for k in README_JSON_KEYS if k not in doc]
    if missing:
        raise ValueError(f"JSON output lacks {missing}")
    raw.doc = doc
    raw.sweeps = int(doc["convergence"]["iterations"])
    raw.converged = bool(doc["convergence"]["converged"])
    raw.elbo_trace = doc["elbo_trace"]
    raw.link = doc["meta"]["link"]
    raw.curves = {k: (np.asarray(v["grid"]), np.asarray(v["mean"])) for k, v in doc["curves"].items()}
    if raw.exit_code != (0 if raw.converged else 2):
        raise ValueError(f"exit code {raw.exit_code} but converged={raw.converged}")


def mfvb_judge(ds, doc):
    """Largest relative gap between the CLI's q(coef) for the penalized spline
    and the coordinate-ascent oracle run with the same expected spline precision."""
    cols = read_csv(ds.dir / "gaussian_spline.csv")
    y, x = cols["y"].astype(float), cols["x"].astype(float)
    C = models.build_penalized_spline(y, x, K=15).meta["C"]
    sigsq_u = doc["q_densities"]["sigsq_u"]["common"]
    spline_precision = sigsq_u["kappa"] / sigsq_u["lam"]  # E{1/sigma_u^2}
    K = C.shape[1] - 2
    prior_var = np.concatenate([[1e10, 1e10], np.full(K, 1.0 / spline_precision)])
    oracle = mfvb_linear_regression(y, C, Sigma_beta=np.diag(prior_var), track_elbo=False)
    mu = np.asarray(doc["q_densities"]["coef"]["common"]["mu"])
    return float(np.max(np.abs(mu - oracle.mu_q_beta) / np.maximum(1.0, np.abs(oracle.mu_q_beta))))


# ---------------------------------------------------------------------------
# checks


def _curve_errors(raw, truth_of):
    errs = []
    for cname, (grid, mean) in raw.curves.items():
        keep = (grid >= GRID[0]) & (grid <= GRID[-1])
        lp = TO_LP[raw.link](mean[keep])
        errs.append(float(np.mean((lp - truth_of(cname, grid[keep])) ** 2)))
    return errs


def _compare_reference(raw, ref):
    """Problems found comparing a converged fit with its stored fixed point."""
    problems = []
    gap = abs(raw.elbo_trace[-1] - ref["elbo"])
    if gap > REF_ELBO_RTOL * abs(ref["elbo"]):
        problems.append(f"final ELBO off the reference by {gap:.3g}")
    for cname, ref_mean in ref["mean"].items():
        if cname not in raw.curves:
            problems.append(f"curve {cname} missing")
            continue
        mean = raw.curves[cname][1][::REF_STRIDE]
        worst = float(np.max(np.abs(mean - np.asarray(ref_mean))))
        if worst > REF_CURVE_ATOL:
            problems.append(f"curve {cname} off the reference by {worst:.3g}")
    return problems


def _problems(workload, ds, raw, reference):
    """(problems, per-curve mean squared errors) of one finished fit."""
    if workload == "readme-cli":
        _load_readme_doc(ds, raw)
    problems = []
    elbo = np.asarray(raw.elbo_trace, dtype=float)
    if elbo.size == 0 or not np.all(np.isfinite(elbo)):
        problems.append("ELBO trace missing or not finite")
    elif raw.name in CONJUGATE_FITS and np.any(np.diff(elbo) < -1e-9 * np.abs(elbo[1:])):
        problems.append(f"ELBO decreased on a conjugate graph (min step {np.min(np.diff(elbo)):.3g})")
    if raw.model is not None and not raw.curves:
        mu = np.asarray(raw.q_coef.common["mu"])
        raw.curves = {c: (GRID, b(GRID) @ mu) for c, b in raw.model.curves.items()}
    truth = group_truth if raw.name in ("groups", "groupcurves") else (
        lambda _c, g: spline_truth(raw.link, g))
    errs = _curve_errors(raw, truth)
    if not errs or not all(math.isfinite(e) for e in errs):
        problems.append("curve missing or not finite")
    elif max(errs) > RMSE_LIMIT**2:
        problems.append(f"curve RMSE {math.sqrt(max(errs)):.3g} exceeds {RMSE_LIMIT}")
    ref = reference.get(workload, {}).get(str(ds.seed), {}).get(raw.name)
    if raw.converged and ref is not None:
        problems += _compare_reference(raw, ref)
    if raw.converged and raw.name == "penspline":
        gap = mfvb_judge(ds, raw.doc)
        if gap > MFVB_RTOL:
            problems.append(f"q(coef) off the mean-field oracle by {gap:.3g}")
    return problems, errs


def judge(workload, ds, fits, reference):
    """Check each fit of one pass; returns one Outcome per fit."""
    outcomes = []
    for raw in fits:
        problems, errs = [raw.error], []
        if raw.error is None:
            try:
                problems, errs = _problems(workload, ds, raw, reference)
            except Exception as err:  # output the checks cannot read is a failed fit
                problems = [f"{type(err).__name__}: {err}"]
        capped = raw.sweeps > 0 and not raw.converged
        outcomes.append(Outcome(raw.name, not problems, capped, raw.sweeps, errs, "; ".join(problems)))
    return outcomes


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: int  # datasets per run, derived from the seed; the last two are untimed
    data_args: tuple  # extra make_synthetic_data arguments
    prepare: object
    run: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("glm-large", 5, ("--n", str(GLM_N), "--groups", "2", "--per-group", "5"),
                 prepare_glm, run_glm),
        Workload("groups-wide", 3, ("--groups", str(GROUPS_M), "--per-group", str(GROUPS_PER_GROUP)),
                 prepare_groups, run_groups),
        Workload("readme-cli", 11, (), lambda ds: None, run_readme),
    )
}


def datasets(workload, seed, script, outroot):
    out = []
    for j in range(workload.datasets):
        ds = Dataset(seed + 1000 * j, outroot / f"data-{seed + 1000 * j}")
        generate(script, ds.dir, ds.seed, workload.data_args)
        workload.prepare(ds)
        out.append(ds)
    return out
