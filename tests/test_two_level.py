"""Group-curve fits on the two-level path agree with the dense path.

The dense path (the same model with the layout stripped from the coefficient
node) is the reference.  Natural parameters are compared with the relative
measure run_vmp converges on: |a - b| / max(1, |b|).
"""

import csv
import dataclasses
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from semivmp.engine import build_factor_graph, q_density, run_vmp
from semivmp.models import build_group_curves

GENERATOR = Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic_data.py"


def readme_group_data(tmp_path, groups, per_group=25, seed=1):
    """The grouped dataset of scripts/make_synthetic_data.py (m=20 is the README's)."""
    saved = sys.argv
    sys.argv = [str(GENERATOR), "--outdir", str(tmp_path), "--seed", str(seed),
                "--groups", str(groups), "--per-group", str(per_group)]
    try:
        runpy.run_path(str(GENERATOR), run_name="__main__")
    finally:
        sys.argv = saved
    with open(tmp_path / "grouped_curves.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    col = lambda name: np.array([r[name] for r in rows])  # noqa: E731
    return col("y").astype(float), col("x").astype(float), col("subject"), col("arm").astype(float)


def strip_layout(model):
    nodes = tuple(dataclasses.replace(n, layout=None) for n in model.nodes)
    return dataclasses.replace(model, nodes=nodes)


def rel_gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def fit_both(data, sweeps):
    model = build_group_curves(*data)
    assert model.nodes[0].layout is not None
    fits = []
    for variant in (model, strip_layout(model)):
        graph = build_factor_graph(variant)
        report = run_vmp(graph, max_iter=sweeps, tol=1e-300)
        fits.append((graph, report))
    return model, fits


@pytest.mark.parametrize("groups, sweeps", [(20, 200), (200, 4)])
def test_two_level_fit_matches_dense_fit(tmp_path, groups, sweeps):
    model, ((g2, rep2), (gd, repd)) = fit_both(readme_group_data(tmp_path, groups), sweeps)
    assert rep2.iterations == repd.iterations == sweeps
    for node in gd.nodes:
        assert rel_gap(q_density(g2, node).eta_q, q_density(gd, node).eta_q) <= 1e-10, node
    assert rel_gap(rep2.elbo_trace, repd.elbo_trace) <= 1e-10
    mu2 = q_density(g2, model.coef_node).common["mu"]
    mud = q_density(gd, model.coef_node).common["mu"]
    grid = np.linspace(0.02, 0.98, 201)
    for name, design in model.curves.items():
        D = design(grid)
        assert np.max(np.abs(D @ mu2 - D @ mud)) <= 1e-8, name
