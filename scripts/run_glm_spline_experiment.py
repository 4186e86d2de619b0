#!/usr/bin/env python3
"""Fit the non-Gaussian spline models on simulated data and report accuracy.

For each requested link the script draws responses from a known smooth mean
function, runs the message-passing fit, and prints the root-mean-square error
of the posterior-mean curve on the linear-predictor scale together with the
wall-clock time of the fit.  Beside it stands the same error for the exact
posterior mean (the seeded sampler in semivmp.mfvb) and the RMS gap between
the two mean curves, so a large error can be told apart as a limit of the
data (the exact posterior misses too) or an error of the approximation.

    python3 scripts/run_glm_spline_experiment.py --seed 3
"""

import argparse
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import logit as logit_fn
from scipy.stats import norm

from semivmp.engine import build_factor_graph, q_density, run_vmp
from semivmp.mfvb import sample_glm_spline_posterior
from semivmp.models import build_glm_spline, demo_mean_function, design, fitted_curve


DRAWS = 10_000  # exact-posterior draws: Monte-Carlo SE of the mean curve about 0.01


@dataclass
class LinkResult:
    link: str
    rmse: float
    rmse_exact: float
    gap: float
    seconds: float
    sweeps: int
    converged: bool


def simulate(link, n, rng):
    x = rng.uniform(size=n)
    f = demo_mean_function(x)
    if link == "logit":
        return x, rng.binomial(1, f), logit_fn
    if link == "probit":
        return x, rng.binomial(1, f), norm.ppf
    if link == "log":
        return x, rng.poisson(10.0 * f), lambda p: np.log(10.0 * p)
    raise ValueError(f"unknown link {link!r}")


def run_one(link, n, knots, iters, seed):
    rng = np.random.default_rng(seed)
    x, y, to_lp = simulate(link, n, rng)
    model = build_glm_spline(y, x, K=knots, link=link)
    graph = build_factor_graph(model)
    t0 = time.perf_counter()
    report = run_vmp(graph, max_iter=iters, tol=1e-300, track_elbo=False)
    dt = time.perf_counter() - t0

    grid = np.linspace(0.02, 0.98, 201)
    curve = fitted_curve(
        q_density(graph, model.coef_node), model.curves["fit"], grid, link="identity"
    )
    hyper = model.meta["hyper"]
    exact = sample_glm_spline_posterior(
        y, design(model), link, sigma_beta_sq=hyper.sigma_beta_sq, A=hyper.A,
        n_draws=DRAWS, burn=DRAWS // 10, seed=seed,
    )
    exact_mean = exact.coef.mean(axis=0) @ model.curves["fit"](grid).T
    truth = to_lp(demo_mean_function(grid))

    def rms(v):
        return float(np.sqrt(np.mean(v**2)))

    return LinkResult(link, rms(curve.mean - truth), rms(exact_mean - truth),
                      rms(curve.mean - exact_mean), dt, report.iterations, report.converged)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--links", nargs="+", default=["logit", "probit", "log"])
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--knots", type=int, default=25)
    ap.add_argument("--iters", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"n={args.n} knots={args.knots} iters={args.iters} seed={args.seed} draws={DRAWS}")
    print("rmse: posterior-mean curve vs the truth on the linear-predictor scale; "
          "gap: VMP vs exact mean curve")
    print(f"{'link':<10} {'vmp rmse':>9} {'exact rmse':>11} {'gap':>7} {'seconds':>9} {'sweeps':>7}")
    for link in args.links:
        res = run_one(link, args.n, args.knots, args.iters, args.seed)
        print(f"{res.link:<10} {res.rmse:>9.4f} {res.rmse_exact:>11.4f} {res.gap:>7.4f} "
              f"{res.seconds:>9.3f} {res.sweeps:>7d}")


if __name__ == "__main__":
    main()
