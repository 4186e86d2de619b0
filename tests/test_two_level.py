"""Group-curve fits on the two-level path agree with the dense path.

The dense path (the same model with the layout stripped from the coefficient
node) is the reference.  Natural parameters are compared with the relative
measure run_vmp converges on: |a - b| / max(1, |b|).  Messages on a layout
node are packed; the packed penalization and likelihood messages must be the
dense ones with their structural zeros dropped.
"""

import csv
import dataclasses
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivmp.engine import build_factor_graph, q_density, run_vmp
from semivmp.fragments_gaussian import (
    SCALAR_D1,
    TOTALLY_CONNECTED,
    GaussianLikelihoodSpec,
    GaussianPenalizationSpec,
    PenalizedBlock,
    gaussian_likelihood_messages,
    gaussian_penalization_messages,
)
from semivmp.models import build_group_curves
from semivmp.natparam import TwoLevelLayout, mvn_moments, vec

from conftest import random_spd
from test_models import assert_statistics_match
from test_natparam import arrowhead_precision, assert_rel

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
    layout, p = model.nodes[0].layout, model.nodes[0].d
    for graph, size in zip((g for g, _ in fits), (layout.packed_size, p + p * p)):
        coef_msgs = [msg for (_, node), msg in graph.fac_to_node.items() if node == "coef"]
        assert len(coef_msgs) == 2 and all(msg.shape == (size,) for msg in coef_msgs)
    assert layout.packed_size < p + p * p  # no silent dense fallback on the layout graph
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


def test_q_density_moments_match_the_dense_path(tmp_path):
    """q_density of a layout node assembles the dense Sigma from the
    two-level factors.  The precision here has condition number ~1e5, so
    the dense mean itself is only good to a few 1e-12 (checked against an
    iteratively refined solve), which bounds how close the two means can be."""
    model = build_group_curves(*readme_group_data(tmp_path, 20))
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=30, tol=1e-300)
    qd = q_density(graph, model.coef_node)
    p = qd.d
    assert qd.eta_q.shape == (p + p * p,)  # unpacked
    dense = mvn_moments(qd.eta_q, p)
    assert_rel(qd.common["Sigma"], dense.Sigma, tol=1e-12)
    assert_rel(qd.common["mu"], dense.mu, tol=1e-11)


def test_layout_sweep_forms_no_dense_matrix(tmp_path):
    """One sweep at m=200 (p=1424), ELBO included, allocates less than one
    dense p x p array at its peak."""
    model = build_group_curves(*readme_group_data(tmp_path, 200))
    p = model.nodes[0].d
    graph = build_factor_graph(model)
    tracemalloc.start()
    try:
        report = run_vmp(graph, max_iter=1, tol=1e-300, track_elbo=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == 1 and len(report.elbo_trace) == 1
    assert peak < 8 * p * p, f"peak {peak / 1e6:.1f} MB"


def test_group_statistics_match_the_dense_design(tmp_path):
    """At m=200 (p=1424) the statistics accumulated group by group are those
    of the dense 5000 x 1424 design."""
    y, x, subject, arm = data = readme_group_data(tmp_path, 200)
    assert_statistics_match(build_group_curves(*data), y, subject, arm)


def blocked_covariance(mom):
    """The dense covariance assembled with the group columns first and then
    permuted: the reference the one-buffer assembly must reproduce bit for bit."""
    lay = mom.layout
    G, I = lay.glob, lay.groups
    U = mom.Sigma_iG.reshape(-1, lay.g)
    X = U @ mom.schur_factor
    inverse = np.argsort(np.concatenate([I.ravel(), G]))
    blocked = np.block([[X @ X.T, U], [U.T, mom.Sigma_GG]])
    Sigma = blocked.take(inverse, axis=0).take(inverse, axis=1)
    Sigma[I[:, :, None], I[:, None, :]] = mom.Sigma_ii
    return Sigma


def test_q_density_sigma_takes_one_dense_buffer(tmp_path):
    """q_density of the coef node at m=200 holds the unpacked eta and the
    dense Sigma, and allocates little beside them at its peak."""
    model = build_group_curves(*readme_group_data(tmp_path, 200))
    p = model.nodes[0].d
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=2, tol=1e-300, track_elbo=False)
    tracemalloc.start()
    try:
        qd = q_density(graph, model.coef_node)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * p * p, f"peak {peak / (8 * p * p):.2f} p x p arrays"
    layout = model.nodes[0].layout
    mom = mvn_moments(layout.pack(qd.eta_q), p, layout=layout)
    assert np.array_equal(qd.common["Sigma"], blocked_covariance(mom))


def test_build_and_sweep_at_m1000_stay_below_one_dense_array(tmp_path):
    """At m=1000 (p=7024, a p x p array is 395 MB) neither the build nor one
    sweep with the ELBO holds anything close to a dense p x p array."""
    data = readme_group_data(tmp_path, 1000)
    tracemalloc.start()
    try:
        model = build_group_curves(*data)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = run_vmp(build_factor_graph(model), max_iter=1, tol=1e-300, track_elbo=True)
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = model.nodes[0].d
    assert p == 7024 and report.iterations == 1 and len(report.elbo_trace) == 1
    for what, peak in (("build", build_peak), ("sweep", sweep_peak)):
        assert peak < 8 * p * p, f"{what} peak {peak / 1e6:.1f} MB"


def packed_setting(rng, m, q, g):
    """A penalization and a likelihood on contiguous two-level columns (g
    global, then m groups of q), with a dense coefficient vector on the pattern."""
    d0 = int(rng.integers(1, g + 1))
    blocks = [PenalizedBlock(m, q, TOTALLY_CONNECTED if q > 1 else SCALAR_D1)]
    if g > d0:
        blocks.insert(0, PenalizedBlock(g - d0, 1, SCALAR_D1))
    pen = GaussianPenalizationSpec(rng.normal(size=d0), random_spd(rng, d0), blocks)
    layout = TwoLevelLayout(np.arange(g), g + np.arange(m * q).reshape(m, q))
    A = np.zeros((3 * m, layout.p))
    for i, cols in enumerate(layout.groups):
        A[3 * i : 3 * i + 3, layout.glob] = rng.normal(size=(3, g))
        A[3 * i : 3 * i + 3, cols] = rng.normal(size=(3, q))
    lik = GaussianLikelihoodSpec.from_design(rng.normal(size=3 * m), A)
    eta = np.concatenate([rng.normal(size=layout.p), -0.5 * vec(arrowhead_precision(rng, layout))])
    return pen, lik, layout, eta


def packed_likelihood(lik, layout):
    """The same likelihood with A^T A packed on ``layout``."""
    return dataclasses.replace(lik, AtA=layout.pack_matrix(lik.AtA), layout=layout)


def variance_eta(kind, d):
    if kind == SCALAR_D1:
        return np.array([-3.5, -2.0])
    return np.concatenate([[-0.5 * (5.0 + d + 1.0)], -0.5 * vec(np.eye(d))])


@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_packed_messages_match_dense(m, q, g, seed):
    rng = np.random.default_rng(seed)
    pen, lik, layout, eta = packed_setting(rng, m, q, g)
    packed = layout.pack(eta)
    assert packed.size == layout.packed_size
    assert np.array_equal(layout.unpack(packed), eta)
    assert np.array_equal(layout.pack(layout.unpack(packed)), packed)

    thetas = [variance_eta(b.kind, b.d) / 2 for b in pen.blocks]
    dense_coef, dense_th = gaussian_penalization_messages(pen, eta / 2, thetas, eta / 2, thetas)
    msg_coef, msgs_th = gaussian_penalization_messages(
        pen.for_layout(layout), packed / 2, thetas, packed / 2, thetas
    )
    assert np.array_equal(layout.pack(dense_coef), msg_coef)
    for got, want in zip(msgs_th, dense_th):
        assert_rel(got, want)

    var = variance_eta(SCALAR_D1, 1) / 2
    dense_1, dense_2 = gaussian_likelihood_messages(lik, eta / 2, var, eta / 2, var)
    packed_lik = packed_likelihood(lik, layout)
    assert np.array_equal(packed_lik.for_layout(None).AtA, lik.AtA)  # A is on the pattern
    msg_1, msg_2 = gaussian_likelihood_messages(packed_lik, packed / 2, var, packed / 2, var)
    assert np.array_equal(layout.pack(dense_1), msg_1)
    assert_rel(msg_2, dense_2)
    fixed = dataclasses.replace(lik, sigma_sq_fixed=0.5)
    want, _ = gaussian_likelihood_messages(fixed, eta, None, eta, None)
    got, _ = gaussian_likelihood_messages(packed_likelihood(fixed, layout), packed, None, packed, None)
    assert np.array_equal(layout.pack(want), got)

    dense = mvn_moments(eta, layout.p)
    two = mvn_moments(packed, layout.p, layout=layout)
    assert_rel(two.mu, dense.mu)
    assert_rel(two.logdet, dense.logdet)
    assert_rel(two.covariance(), dense.Sigma)
    AtA = lik.AtA
    assert_rel(
        two.expected_quadratic(layout.pack_matrix(AtA), lik.Aty, lik.yty),
        dense.expected_quadratic(AtA, lik.Aty, lik.yty),
    )
