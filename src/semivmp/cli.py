"""Command-line interface: fit models from CSV, validate the installation.

``semivmp fit`` reads a UTF-8 CSV with a header row, assembles the requested
model, runs message passing, and writes one JSON document holding q-densities,
the ELBO trace, convergence diagnostics and fitted-curve grids.  Exit code 0
means converged, 2 means the sweep limit was reached first, 1 means error.

``semivmp validate`` runs a quick bundled invariant suite and prints one
pass/fail line per check.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, expfam, models
from .engine import build_factor_graph, q_density, run_vmp
from .fragments_glm import zeta_prime
from .mfvb import mfvb_linear_regression, moment_oracle


class CliError(Exception):
    pass


KNOT_MODELS = ("penspline", "glmspline")  # the models whose spline basis --knots sizes


@dataclass
class FitRequest:
    model: str
    data: str
    response: str
    predictor: str = None
    group: str = None
    label: str = None
    knots: int = 25
    link: str = None
    iters: int = 200
    tol: float = 1e-8
    sigma_beta_sq: float = 1e10
    a_hyper: float = 1e5
    seed: int = 0
    out: str = "semivmp_fit.json"


def _load_csv(path):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot open data file: {err}")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CliError("empty CSV file")
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise CliError(
                    f"line {lineno}: expected {len(header)} fields, found {len(row)}"
                )
            rows.append((lineno, [c.strip() for c in row]))
    if not rows:
        raise CliError("no data rows after the header")
    return header, rows


def _raw_column(header, rows, name):
    """The cells of column ``name``, one per data row."""
    if name not in header:
        raise CliError(f"column '{name}' not found (available: {', '.join(header)})")
    j = header.index(name)
    return [row[j] for _, row in rows]


def _numeric_column(header, rows, name):
    cells = _raw_column(header, rows, name)
    out = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            out[i] = float(cell)
        except ValueError:
            raise CliError(f"line {rows[i][0]}: cannot parse '{cell}' in column '{name}' as a number")
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = bad[0]
        raise CliError(f"line {rows[i][0]}: non-finite value '{cells[i]}' in column '{name}'")
    return out


def _write_json(obj, fh, nl="\n"):
    """Write ``obj`` to ``fh`` as ``json.dump(obj, fh, indent=2,
    sort_keys=True)`` writes it, numpy arrays and scalars as their
    ``tolist()``, byte for byte.

    With an indent the stdlib switches to its pure-Python encoder, one
    generator step and one ``float.__repr__`` per number.  Here a finite
    float64 array is read in blocks of ``_FLOAT_BLOCK`` entries (C order):
    a block forms the repr of each of its distinct values once (distinct by
    bit pattern, so -0.0 keeps its sign), and an innermost row is joined in
    C, at most a block at a time.  A symmetric covariance block holds each
    value about twice, a triangular factor is half zeros, and a natural
    vector repeats the mirror halves and zeros of its matrix part, each
    close to its mirror in C order; the blocks keep the writer's memory to
    a few times that of one block, whatever the array's size.  No
    group-curve entry is a p x p array: the coef q-density is written in
    its two-level blocks (see ``_q_entry``).  ``nl`` is the newline and
    indent of the enclosing level.
    """
    inner = nl + "  "
    if isinstance(obj, str):
        fh.write(encode_basestring_ascii(obj))
    elif obj is None:
        fh.write("null")
    elif obj is True:
        fh.write("true")
    elif obj is False:
        fh.write("false")
    elif isinstance(obj, int):
        fh.write(int.__repr__(obj))
    elif isinstance(obj, float):
        fh.write(_float_token(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            fh.write("[]")
            return
        sep = "["
        for item in obj:
            fh.write(sep + inner)
            _write_json(item, fh, inner)
            sep = ","
        fh.write(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        sep = "{"
        for key in sorted(obj):
            fh.write(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(obj[key], fh, inner)
            sep = ","
        fh.write(nl + "}")
    elif (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim and obj.size
          and np.isfinite(obj).all()):
        _write_float_rows(obj.shape, _FloatTokens(obj), fh, nl)
    elif isinstance(obj, (np.ndarray, np.generic)):
        _write_json(obj.tolist(), fh, nl)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_token(x):
    """A float as json writes it, ``NaN`` and ``Infinity`` included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_FLOAT_BLOCK = 1 << 14


class _FloatTokens:
    """The reprs of a finite float64 array's entries in C order, formed
    ``_FLOAT_BLOCK`` entries at a time, the repr of each distinct value of a
    block once."""

    def __init__(self, a):
        self._flat, self._read = a.reshape(-1), 0
        self._tokens, self._pos = [], 0

    def take(self, n):
        """The next n tokens, as a list."""
        if self._pos + n > len(self._tokens):
            rest = self._tokens[self._pos :]
            while len(rest) < n:
                block = self._flat[self._read : self._read + _FLOAT_BLOCK]
                self._read += block.size
                distinct, which = np.unique(block.view(np.int64), return_inverse=True)
                reprs = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
                rest += reprs[which].tolist()
            self._tokens, self._pos = rest, 0
        self._pos += n
        return self._tokens[self._pos - n : self._pos]


def _write_float_rows(shape, tokens, fh, nl):
    """The next entries of ``tokens`` as nested JSON lists of ``shape``."""
    inner = nl + "  "
    if len(shape) == 1:
        sep = "[" + inner
        for start in range(0, shape[0], _FLOAT_BLOCK):
            fh.write(sep + ("," + inner).join(tokens.take(min(_FLOAT_BLOCK, shape[0] - start))))
            sep = "," + inner
        fh.write(nl + "]")
        return
    sep = "["
    for _ in range(shape[0]):
        fh.write(sep + inner)
        _write_float_rows(shape[1:], tokens, fh, inner)
        sep = ","
    fh.write(nl + "]")


def _build_model(req: FitRequest, header, rows):
    y = _numeric_column(header, rows, req.response)
    hyper = models.Hyperparameters(sigma_beta_sq=req.sigma_beta_sq, A=req.a_hyper)
    if req.model == "linreg":
        if not req.predictor:
            raise CliError("linreg needs --predictor (comma-separated column names)")
        cols = [c.strip() for c in req.predictor.split(",") if c.strip()]
        X = np.column_stack(
            [np.ones(y.size)] + [_numeric_column(header, rows, c) for c in cols]
        )
        return models.build_linear_regression(
            y, X, sigma_beta_sq=req.sigma_beta_sq, A_hyper=req.a_hyper
        )
    if not req.predictor:
        raise CliError(f"{req.model} needs --predictor")
    x = _numeric_column(header, rows, req.predictor)
    if req.model == "penspline":
        return models.build_penalized_spline(y, x, K=req.knots, hyper=hyper)
    if req.model == "glmspline":
        link = req.link or "logit"
        return models.build_glm_spline(y, x, K=req.knots, link=link, hyper=hyper)
    if req.model == "groupcurves":
        if not (req.group and req.label):
            raise CliError("groupcurves needs --group and --label")
        gid = _raw_column(header, rows, req.group)
        lab = _numeric_column(header, rows, req.label)
        return models.build_group_curves(y, x, gid, lab, hyper=hyper)
    raise CliError(f"unknown model '{req.model}'")


def _q_entry(qd, layout):
    """A q-density as the JSON holds it: its natural vector and common
    parameters.  On a node with a layout both stay as the graph holds them,
    so no p x p array is formed: ``eta_packed`` in the layout's packed order,
    the layout's column indices, and ``mu`` with the covariance blocks
    Sigma_GG, Sigma_iG, Sigma_ii and the Schur factor L (L L^T =
    Sigma_GG^{-1}).  A reader gets the dense eta and Sigma bit for bit from
    ``TwoLevelLayout(global, groups).unpack(eta_packed)`` and
    ``TwoLevelMoments(...).covariance()``.  The dense keys ``eta`` and
    ``Sigma`` are absent there, so a reader of dense entries fails loudly."""
    if layout is None:
        return {"family": qd.family, "d": qd.d, "eta": qd.eta_q, "common": qd.common}
    mom = qd.moments
    return {
        "family": qd.family,
        "d": qd.d,
        "layout": {"global": layout.glob, "groups": layout.groups},
        "eta_packed": qd.eta_q,
        "common": {"mu": mom.mu, "Sigma_GG": mom.Sigma_GG, "Sigma_iG": mom.Sigma_iG,
                   "Sigma_ii": mom.Sigma_ii, "schur_factor": mom.schur_factor},
    }


def _posterior_output(model, graph):
    """The q-density table, the curve grids and the original-scale
    coefficients (when the model has a transform) of a fitted graph, as the
    JSON holds them."""
    qds = {node: q_density(graph, node) for node in graph.nodes}
    qtable = {node: _q_entry(qd, graph.nodes[node].layout) for node, qd in qds.items()}
    qc = qds[model.coef_node]

    curves = {}
    if model.curves:
        x = model.meta["x"]
        grid = np.linspace(float(np.min(x)), float(np.max(x)), 201)
        for name, builder in model.curves.items():
            fc = models.fitted_curve(qc, builder, grid, link=model.link)
            curves[name] = {
                "grid": fc.grid,
                "mean": fc.mean,
                "lower95": fc.lower95,
                "upper95": fc.upper95,
            }

    extras = {}
    if "coef_transform" in model.meta:
        mu, Sigma = models.original_coefficients(model, qc)
        extras["coefficients_original_scale"] = {"mu": mu, "Sigma": Sigma}
    return qtable, curves, extras


def cmd_fit(req: FitRequest) -> int:
    header, rows = _load_csv(req.data)
    model = _build_model(req, header, rows)
    graph = build_factor_graph(model)
    t0 = time.perf_counter()
    report = run_vmp(graph, max_iter=req.iters, tol=req.tol)
    elapsed = time.perf_counter() - t0
    qtable, curves, extras = _posterior_output(model, graph)

    doc = {
        "meta": {
            "package": "semivmp",
            "version": __version__,
            "model": req.model,
            "data": req.data,
            "columns": {
                "response": req.response,
                "predictor": req.predictor,
                "group": req.group,
                "label": req.label,
            },
            "n": int(len(rows)),
            "knots": req.knots if req.model in KNOT_MODELS else None,
            "link": model.link,
            "iters": req.iters,
            "tol": req.tol,
            "sigma_beta_sq": req.sigma_beta_sq,
            "a_hyper": req.a_hyper,
            "seed": req.seed,
            "rng": "numpy PCG64 (seed recorded for provenance; fitting is deterministic)",
        },
        "q_densities": qtable,
        "elbo_trace": report.elbo_trace,
        "convergence": {
            "iterations": report.iterations,
            "converged": report.converged,
            "max_relative_delta": report.max_relative_delta,
            "moves_applied": report.moves_applied,
            "steps_accepted": report.steps_accepted,
            "steps_rejected": report.steps_rejected,
        },
        "curves": curves,
        **extras,
    }
    with open(req.out, "w", encoding="utf-8") as fh:
        _write_json(doc, fh)
        fh.write("\n")
    status = "converged" if report.converged else "hit sweep limit"
    print(
        f"{req.model}: n={len(rows)} sweeps={report.iterations} {status} "
        f"elbo={report.elbo_trace[-1]:.6f} ({elapsed:.2f}s) -> {req.out}"
    )
    return 0 if report.converged else 2


# ---------------------------------------------------------------------------
# validate


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check_expfam_oracles():
    worst = 0.0
    cases = [
        (expfam.INVERSE_CHI_SQUARED, {"kappa": 3.0, "lam": 2.0}, 1),
        (expfam.UNIVARIATE_NORMAL, {"mu": -0.7, "sigma_sq": 2.3}, 1),
        (expfam.BETA, {"alpha": 2.5, "beta": 4.0}, 1),
        (expfam.INVERSE_GAUSSIAN, {"mu": 1.7, "lam": 2.2}, 1),
        (expfam.BERNOULLI, {"p": 0.880797}, 1),
    ]
    for fam, common, d in cases:
        nat = expfam.common_to_natural(fam, common, d)
        ours = expfam.expected_sufficient_statistic(nat)
        est = moment_oracle(fam, nat.eta, d=d, method="quadrature")
        worst = max(worst, float(np.max(np.abs(ours - est.estimate))))
        hours = expfam.entropy(nat)
        hest = moment_oracle(fam, nat.eta, d=d, method="quadrature", statistic="entropy")
        worst = max(worst, float(np.max(np.abs(hours - hest.estimate))))
    return worst < 1e-7, f"max |closed form - quadrature| = {worst:.2e}"


def _check_gradient_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    nats = [
        expfam.common_to_natural(expfam.INVERSE_CHI_SQUARED, {"kappa": 4.0, "lam": 1.5}),
        expfam.common_to_natural(expfam.BETA, {"alpha": 3.0, "beta": 2.0}),
        expfam.common_to_natural(
            expfam.MULTIVARIATE_NORMAL, {"mu": rng.normal(size=2), "Sigma": np.eye(2) + 0.3}, 2
        ),
    ]
    for nat in nats:
        ET = expfam.expected_sufficient_statistic(nat)
        h = 1e-6
        for i in range(nat.eta.size):
            e = np.zeros(nat.eta.size)
            e[i] = h
            up = expfam.log_partition(expfam.NatParam(nat.family, nat.eta + e, nat.d))
            dn = expfam.log_partition(expfam.NatParam(nat.family, nat.eta - e, nat.d))
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - ET[i]) / max(1.0, abs(ET[i])))
    return worst < 1e-5, f"max relative gradient error = {worst:.2e}"


def _check_mfvb_vs_vmp():
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
    y = X @ np.array([1.0, -0.5, 2.0]) + rng.normal(scale=0.8, size=50)
    st = mfvb_linear_regression(y, X)
    model = models.build_linear_regression(y, X)
    graph = build_factor_graph(model)
    run_vmp(graph, tol=1e-12)
    mu, Sigma = models.original_coefficients(model, q_density(graph, "coef"))
    lam_s = q_density(graph, "sigsq_eps").common["lam"]
    lam_a = q_density(graph, "a_eps").common["lam"]
    diffs = [
        np.max(np.abs(mu - st.mu_q_beta) / np.maximum(1.0, np.abs(st.mu_q_beta))),
        np.max(np.abs(Sigma - st.Sigma_q_beta) / np.maximum(1.0, np.abs(st.Sigma_q_beta))),
        abs(lam_s - st.lambda_q_sigsq) / max(1.0, st.lambda_q_sigsq),
        abs(lam_a - st.lambda_q_a) / max(1.0, st.lambda_q_a),
    ]
    worst = float(np.max(diffs))
    return worst < 1e-6, f"max relative disagreement = {worst:.2e}"


def _small_penspline():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=120)
    y = np.sin(2 * np.pi * x) + rng.normal(scale=0.3, size=120)
    return models.build_penalized_spline(y, x, K=7)


def _check_schedule_invariance():
    model = _small_penspline()
    rng = np.random.default_rng(3)
    names = [f.name for f in model.fragments]
    results = []
    for _ in range(2):
        sched = list(rng.permutation(names))
        graph = build_factor_graph(model)
        run_vmp(graph, schedule=sched, tol=1e-11, max_iter=1000)
        results.append(q_density(graph, "coef").eta_q)
    worst = float(np.max(np.abs(results[0] - results[1]) / np.maximum(1.0, np.abs(results[0]))))
    return worst < 1e-6, f"fixed-point eta difference = {worst:.2e}"


def _check_elbo_monotone():
    graph = build_factor_graph(_small_penspline())
    report = run_vmp(graph, max_iter=60, tol=1e-13)
    inc = np.diff(report.elbo_trace)
    worst = float(np.min(inc)) if inc.size else 0.0
    return worst >= -1e-8, f"smallest per-sweep ELBO increment = {worst:.2e}"


def _check_d1_specialization():
    from .fragments_gaussian import IteratedIGWSpec, iterated_igw_messages, SCALAR_D1, TOTALLY_CONNECTED

    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10):
        kappa = float(rng.uniform(1.0, 4.0))
        to1 = np.array([-rng.uniform(2.0, 5.0), -rng.uniform(0.5, 3.0)])
        to2 = np.array([-rng.uniform(2.0, 5.0), -rng.uniform(0.5, 3.0)])
        f1 = np.array([-rng.uniform(1.0, 2.0), -rng.uniform(0.2, 1.0)])
        f2 = np.array([-rng.uniform(1.0, 2.0), -rng.uniform(0.2, 1.0)])
        s1, s2 = iterated_igw_messages(IteratedIGWSpec(SCALAR_D1, kappa), to1, to2, f1, f2)
        m1, m2 = iterated_igw_messages(
            IteratedIGWSpec(TOTALLY_CONNECTED, kappa, 1, SCALAR_D1), to1, to2, f1, f2
        )
        worst = max(worst, float(np.max(np.abs(s1 - m1))), float(np.max(np.abs(s2 - m2))))
    return worst < 1e-14, f"max scalar/matrix path difference = {worst:.2e}"


def _check_zeta_prime():
    err = abs(zeta_prime(0.0) - np.sqrt(2.0 / np.pi))
    return err < 1e-12, f"|zeta_prime(0) - sqrt(2/pi)| = {err:.2e}"


def cmd_validate() -> int:
    checks = [
        ("expected statistics and entropies vs quadrature", _check_expfam_oracles),
        ("log-partition gradient identity", _check_gradient_identity),
        ("coordinate-ascent oracle vs message passing", _check_mfvb_vs_vmp),
        ("schedule invariance of the fixed point", _check_schedule_invariance),
        ("ELBO monotonicity", _check_elbo_monotone),
        ("d=1 scalar/matrix path agreement", _check_d1_specialization),
        ("inverse-Mills ratio at zero", _check_zeta_prime),
    ]
    t0 = time.perf_counter()
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as err:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name, passed, detail))
    width = max(len(r.name) for r in results)
    for r in results:
        tag = "pass" if r.passed else "FAIL"
        print(f"[{tag}] {r.name.ljust(width)}  {r.detail}")
    n_bad = sum(not r.passed for r in results)
    print(f"{len(results) - n_bad}/{len(results)} checks passed in {time.perf_counter() - t0:.1f}s")
    return 0 if n_bad == 0 else 1


def make_parser():
    parser = argparse.ArgumentParser(
        prog="semivmp",
        description="Variational message passing for semiparametric regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model from a CSV file")
    fit.add_argument("--model", required=True, choices=["linreg", "penspline", "groupcurves", "glmspline"])
    fit.add_argument("--data", required=True, help="CSV file with a header row")
    fit.add_argument("--response", required=True, help="response column name")
    fit.add_argument("--predictor", help="predictor column (comma-separated list for linreg)")
    fit.add_argument("--group", help="group id column (groupcurves)")
    fit.add_argument("--label", help="binary group label column (groupcurves)")
    fit.add_argument("--knots", type=int, default=argparse.SUPPRESS,
                     help=f"number of spline basis functions ({', '.join(KNOT_MODELS)}; "
                          f"default {FitRequest.knots})")
    fit.add_argument("--link", choices=["logit", "probit", "log"], help="glmspline link")
    fit.add_argument("--iters", type=int, default=200, help="maximum sweeps")
    fit.add_argument("--tol", type=float, default=1e-8)
    fit.add_argument("--sigma-beta-sq", type=float, default=1e10)
    fit.add_argument("--a-hyper", type=float, default=1e5)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", default="semivmp_fit.json", help="output JSON path")

    sub.add_parser("validate", help="run the bundled invariant checks")
    return parser


def main(argv=None) -> int:
    args = vars(make_parser().parse_args(argv))
    if args.pop("command") == "validate":
        return cmd_validate()
    req = FitRequest(**args)
    try:
        if "knots" in args and req.model not in KNOT_MODELS:
            raise CliError(f"--knots does not apply to --model {req.model} "
                           f"(only to {', '.join(KNOT_MODELS)})")
        return cmd_fit(req)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
