"""Group-curve fits on the two-level path agree with the dense path.

The dense path (the same model with the layout stripped from the coefficient
node and from the penalization and likelihood specs, whose A^T A is
unpacked) is the reference.  Natural parameters are compared with the relative
measure run_vmp converges on: |a - b| / max(1, |b|).  Messages on a layout
node are packed; the packed penalization and likelihood messages must be the
dense ones with their structural zeros dropped.
"""

import copy
import csv
import dataclasses
import runpy
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivmp import expfam, fragments_gaussian, natparam
from semivmp.engine import (
    GraphStructureError,
    ImproperQDensityError,
    build_factor_graph,
    elbo,
    q_density,
    run_vmp,
)
from semivmp.fragments_gaussian import (
    SCALAR_D1,
    TOTALLY_CONNECTED,
    GaussianLikelihoodSpec,
    GaussianPenalizationSpec,
    InverseWishartPriorSpec,
    PenalizedBlock,
    ScaleMove,
    gaussian_likelihood_messages,
    gaussian_penalization_messages,
    scale_move_alpha,
    scale_move_coefficients,
    scale_move_gain,
)
from semivmp.models import _Z975, build_group_curves, build_penalized_spline, fitted_curve
from semivmp.natparam import TwoLevelLayout, mvn_moments, row_quadratic, symmetrize, vec

from conftest import random_spd
from test_engine import assert_accelerated_fit_agrees, assert_fit_matches_reference, summed_eta
from test_models import assert_statistics_match
from test_natparam import arrowhead_precision, assert_rel, pattern_mask

GENERATOR = Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic_data.py"


def write_synthetic_data(outdir, *args):
    """Run scripts/make_synthetic_data.py into ``outdir`` with ``args``."""
    saved = sys.argv
    sys.argv = [str(GENERATOR), "--outdir", str(outdir), *args]
    try:
        runpy.run_path(str(GENERATOR), run_name="__main__")
    finally:
        sys.argv = saved


def readme_group_data(tmp_path, groups, per_group=25, seed=1):
    """The grouped dataset of scripts/make_synthetic_data.py (m=20 is the README's)."""
    write_synthetic_data(tmp_path, "--seed", str(seed), "--groups", str(groups),
                         "--per-group", str(per_group))
    with open(tmp_path / "grouped_curves.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    col = lambda name: np.array([r[name] for r in rows])  # noqa: E731
    return col("y").astype(float), col("x").astype(float), col("subject"), col("arm").astype(float)


def strip_layout(model):
    """The model on dense coefficient vectors: no layout on its nodes, its
    two Gaussian specs rebuilt without one (A^T A unpacked, zero off the
    pattern), and no moves (the scale move reads the packed blocks)."""
    nodes = tuple(dataclasses.replace(n, layout=None) for n in model.nodes)
    fragments = []
    for binding in model.fragments:
        spec = binding.fragment
        if getattr(spec, "layout", None) is not None:
            changes = {"layout": None}
            if isinstance(spec, GaussianLikelihoodSpec):
                p = spec.layout.p
                packed = np.r_[np.zeros(p), spec.AtA]
                changes["AtA"] = spec.layout.unpack(packed)[p:].reshape((p, p), order="F")
            binding = dataclasses.replace(binding, fragment=dataclasses.replace(spec, **changes))
        fragments.append(binding)
    return dataclasses.replace(model, nodes=nodes, fragments=tuple(fragments), moves=())


def rel_gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def dense_eta(graph, qd):
    """The natural vector of a q-density in dense form (unpacked on a layout)."""
    layout = graph.nodes[qd.node].layout
    return qd.eta_q if layout is None else layout.unpack(qd.eta_q)


def fit_both(data, sweeps):
    model = build_group_curves(*data)
    assert model.nodes[0].layout is not None
    fits = []
    for variant in (model, strip_layout(model)):
        graph = build_factor_graph(variant)
        report = run_vmp(graph, max_iter=sweeps, tol=1e-300, accelerate=False)
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
        eta2 = dense_eta(g2, q_density(g2, node))
        assert rel_gap(eta2, q_density(gd, node).eta_q) <= 1e-10, node
    assert rel_gap(rep2.elbo_trace, repd.elbo_trace) <= 1e-10
    mu2 = q_density(g2, model.coef_node).common["mu"]
    mud = q_density(gd, model.coef_node).common["mu"]
    grid = np.linspace(0.02, 0.98, 201)
    for name, design in model.curves.items():
        D = design(grid)
        assert np.max(np.abs(D @ mu2 - D @ mud)) <= 1e-8, name


def test_q_density_moments_match_the_dense_path(tmp_path):
    """q_density of a layout node keeps eta packed and the covariance in the
    two-level blocks; the dense Sigma they assemble matches the dense
    factorization of the unpacked eta.  The precision here has condition
    number ~1e5, so the dense mean itself is only good to a few 1e-12
    (checked against an iteratively refined solve), which bounds how close
    the two means can be."""
    model = build_group_curves(*readme_group_data(tmp_path, 20))
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=30, tol=1e-300)
    qd = q_density(graph, model.coef_node)
    p, layout = qd.d, graph.nodes[model.coef_node].layout
    assert qd.eta_q.shape == (layout.packed_size,) and set(qd.common) == {"mu"}
    dense = mvn_moments(layout.unpack(qd.eta_q), p)
    assert_rel(qd.moments.covariance(), dense.Sigma, tol=1e-12)
    assert_rel(qd.common["mu"], dense.mu, tol=1e-11)


def test_elbo_forms_each_expectation_once(tmp_path, monkeypatch):
    """One ELBO forms E{T} of each non-normal q-density once, in the engine,
    on the README penspline and groupcurves graphs: the fragments' terms
    read it and never form it again."""
    groups = build_group_curves(*readme_group_data(tmp_path, 20))
    x, y = np.loadtxt(tmp_path / "gaussian_spline.csv", delimiter=",", skiprows=1, unpack=True)
    for model in (build_penalized_spline(y, x, K=15), groups):
        graph = build_factor_graph(model)
        run_vmp(graph, max_iter=3, tol=1e-300, track_elbo=False)
        formed = Counter()
        real = expfam.expected_sufficient_statistic

        def counting(nat):
            formed[nat.eta.tobytes()] += 1
            return real(nat)

        monkeypatch.setattr(expfam, "expected_sufficient_statistic", counting)
        elbo(graph)
        monkeypatch.undo()
        etas = [q_density(graph, n).eta_q for n, node in graph.nodes.items()
                if node.family != expfam.MULTIVARIATE_NORMAL]
        assert formed == Counter(eta.tobytes() for eta in etas)


def test_elbo_factors_the_full_variance_twice(tmp_path, monkeypatch):
    """One ELBO on the README groupcurves graph factors -M of the
    inverse-Wishart q(Sigma_subject) twice: once for its properness and
    log det in the entropy, once for its E{T}; the coef moments are kept.
    An improper q(Sigma_subject) still raises, naming the node."""
    graph = build_factor_graph(build_group_curves(*readme_group_data(tmp_path, 20)))
    run_vmp(graph, max_iter=3, tol=1e-300, track_elbo=False)
    shapes = []
    real = natparam.spd_chol

    def counting(M, context=""):
        shapes.append(np.shape(M))
        return real(M, context)

    for module in (expfam, natparam):
        monkeypatch.setattr(module, "spd_chol", counting)
    elbo(graph)
    assert shapes == [(2, 2), (2, 2)]
    monkeypatch.undo()
    factor = graph.node_factors["Sigma_subject"][0]
    graph.fac_to_node[(factor, "Sigma_subject")] += np.concatenate([[0.0], vec(1e6 * np.eye(2))])
    with pytest.raises(ImproperQDensityError, match="'Sigma_subject'"):
        elbo(graph)


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


def test_layout_sweep_peaks_within_eleven_packed_vectors(tmp_path):
    """One sweep at m=200, ELBO included, peaks below 11 packed coefficient
    vectors of 45 400 numbers (it measured 9.39).  Storing each
    global-by-group pair twice makes the vector 79 000 numbers long and the
    peak 13.1 vectors of 45 400."""
    model = build_group_curves(*readme_group_data(tmp_path, 200))
    layout = model.nodes[0].layout
    assert layout.packed_size == 45_400
    graph = build_factor_graph(model)
    tracemalloc.start()
    try:
        report = run_vmp(graph, max_iter=1, tol=1e-300, track_elbo=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == 1 and len(report.elbo_trace) == 1
    vectors = peak / (layout.packed_size * 8)
    assert vectors < 11, f"peak {vectors:.2f} packed vectors of {layout.packed_size}"


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


def curve_grid(model):
    """The 201-point grid over the data's x range that ``semivmp fit`` uses."""
    x = model.meta["x"]
    return np.linspace(np.min(x), np.max(x), 201)


def output_peak(graph, model):
    """tracemalloc peak of the coef q-density and its three curve bands."""
    grid = curve_grid(model)
    tracemalloc.start()
    try:
        qd = q_density(graph, model.coef_node)
        bands = [fitted_curve(qd, design, grid) for design in model.curves.values()]
        return qd, bands, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_output_at_m200_stays_below_a_quarter_dense_array(tmp_path):
    """At m=200 the q-density of the coef node and the 201-point bands of
    its three curves together peak below a quarter of one p x p array; the
    dense Sigma, assembled only on request, takes one p x p buffer and is
    the old assembly bit for bit."""
    model = build_group_curves(*readme_group_data(tmp_path, 200))
    p = model.nodes[0].d
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=2, tol=1e-300, track_elbo=False)
    qd, bands, peak = output_peak(graph, model)
    assert len(bands) == 3 and all(np.all(np.isfinite(b.upper95)) for b in bands)
    assert peak < 0.25 * 8 * p * p, f"peak {peak / (8 * p * p):.3f} p x p arrays"
    tracemalloc.start()
    try:
        Sigma = qd.moments.covariance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * p * p, f"covariance peak {peak / (8 * p * p):.2f} p x p arrays"
    assert np.array_equal(Sigma, blocked_covariance(qd.moments))


def band_designs(rng, layout, n=40):
    """Three kinds of curve design: rows on the global columns only (as the
    population curves), rows inside one group (with the global columns), and
    sparse random rows that span several groups."""
    p, G = layout.p, layout.glob
    glob_only = np.zeros((n, p))
    glob_only[:, G] = rng.normal(size=(n, G.size))
    one_group = glob_only.copy()
    cols = layout.groups[layout.m // 2]
    one_group[:, cols] = rng.normal(size=(n, cols.size))
    several = np.zeros((n, p))
    for row in several:
        pick = rng.choice(p, size=min(p, 12), replace=False)
        row[pick] = rng.normal(size=pick.size)
    return {"global only": glob_only, "one group": one_group, "several groups": several}


@pytest.mark.parametrize("groups, sweeps", [(20, 30), (200, 4)])
def test_row_variance_matches_the_dense_band(tmp_path, groups, sweeps):
    """Band variances from the two-level blocks equal diag(C Sigma C^T) of the
    dense Sigma, for designs on any set of groups and for the model's curves."""
    model = build_group_curves(*readme_group_data(tmp_path, groups))
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=sweeps, tol=1e-300, track_elbo=False)
    qd = q_density(graph, model.coef_node)
    Sigma = qd.moments.covariance()
    rng = np.random.default_rng(groups)
    for kind, C in band_designs(rng, qd.moments.layout).items():
        want = row_quadratic(C, Sigma)
        assert np.all(want > 0.0)
        got = qd.moments.row_variance(C)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=kind)
    grid = curve_grid(model)
    for name, design in model.curves.items():
        fc = fitted_curve(qd, design, grid)
        C = design(grid)
        sd = np.sqrt(row_quadratic(C, Sigma))
        assert np.array_equal(fc.mean, C @ qd.common["mu"]), name
        assert_rel(fc.lower95, fc.mean - _Z975 * sd, tol=1e-12)
        assert_rel(fc.upper95, fc.mean + _Z975 * sd, tol=1e-12)


def test_dense_row_variance_is_the_row_quadratic():
    rng = np.random.default_rng(7)
    mom = mvn_moments(np.concatenate([rng.normal(size=5), -0.5 * vec(random_spd(rng, 5))]), 5)
    C = rng.normal(size=(11, 5))
    assert np.array_equal(mom.row_variance(C), row_quadratic(C, mom.Sigma))


def test_build_and_sweep_at_m1000_stay_below_one_dense_array(tmp_path):
    """At m=1000 (p=7024, a p x p array is 395 MB) neither the build, nor one
    sweep with the ELBO, nor the output (the coef q-density and its three
    201-point curve bands) holds anything close to a dense p x p array."""
    data = readme_group_data(tmp_path, 1000)
    tracemalloc.start()
    try:
        model = build_group_curves(*data)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        graph = build_factor_graph(model)
        report = run_vmp(graph, max_iter=1, tol=1e-300, track_elbo=True)
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, bands, output_peak_ = output_peak(graph, model)
    p = model.nodes[0].d
    assert p == 7024 and report.iterations == 1 and len(report.elbo_trace) == 1
    assert len(bands) == 3
    for what, peak in (("build", build_peak), ("sweep", sweep_peak), ("output", output_peak_)):
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
        dataclasses.replace(pen, layout=layout), packed / 2, thetas, packed / 2, thetas
    )
    assert np.array_equal(layout.pack(dense_coef), msg_coef)
    for got, want in zip(msgs_th, dense_th):
        assert_rel(got, want)

    var = variance_eta(SCALAR_D1, 1) / 2
    dense_1, dense_2 = gaussian_likelihood_messages(lik, eta / 2, var, eta / 2, var)
    packed_lik = packed_likelihood(lik, layout)
    assert np.array_equal(layout.unpack(packed_lik.natural), lik.natural)  # A is on the pattern
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
    C = rng.normal(size=(4, layout.p))
    assert_rel(two.row_variance(C), row_quadratic(C, dense.Sigma))
    AtA = lik.AtA
    assert_rel(
        two.expected_quadratic(layout.pack_matrix(AtA), lik.Aty, lik.yty),
        dense.expected_quadratic(AtA, lik.Aty, lik.yty),
    )


@pytest.mark.parametrize("subject_lines", [True, False])
@pytest.mark.parametrize("K_grp", [0, 3])
def test_group_curves_match_fresh_factorizations(tmp_path, subject_lines, K_grp):
    """Kept moments change no bit of a group-curve fit, on the two-level path
    and (no group columns at all) on the dense one."""
    model = build_group_curves(
        *readme_group_data(tmp_path, 12, per_group=10), K_gbl=6, K_grp=K_grp,
        include_subject_lines=subject_lines,
    )
    assert (model.nodes[0].layout is None) == (not subject_lines and K_grp == 0)
    assert_fit_matches_reference(model)


def test_group_curve_sweep_factors_coef_twice(tmp_path, monkeypatch):
    """A sweep with the ELBO factors q(coef) in the penalization and in the
    likelihood only; the ELBO and the q_density after the fit reuse the
    likelihood's factorization."""
    model = build_group_curves(*readme_group_data(tmp_path, 20))
    graph = build_factor_graph(model)
    calls = []
    real = natparam.two_level_moments

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("context"))
        return real(*args, **kwargs)

    monkeypatch.setattr(natparam, "two_level_moments", counted)
    report = run_vmp(graph, max_iter=3, tol=1e-300, track_elbo=True)
    assert report.iterations == 3 and len(report.elbo_trace) == 3
    assert calls == 3 * [
        "penalization combined coefficients", "likelihood [coefficients]"
    ]
    for node in graph.nodes:
        q_density(graph, node)
    assert len(calls) == 6


def test_accelerated_group_curve_fit_agrees_with_plain_fit(tmp_path):
    # the README fit (m=20): plain VMP takes about 1200 sweeps to tol 1e-12
    assert_accelerated_fit_agrees(build_group_curves(*readme_group_data(tmp_path, 20)))


def test_acceleration_holds_no_layout_sized_array(tmp_path):
    """At m=200 a 4-sweep fit (the groups-wide budget) tries no candidate,
    and the accelerated sweeps peak within a small fraction of one packed
    coefficient message of the plain ones: a cycle keeps only the messages
    on edges without a layout (here 20 vectors of 2 or 5 numbers)."""
    model = build_group_curves(*readme_group_data(tmp_path, 200))
    peaks = {}
    for accelerate in (False, True):
        graph = build_factor_graph(model)
        tracemalloc.start()
        try:
            report = run_vmp(graph, max_iter=4, tol=1e-8, accelerate=accelerate)
            peaks[accelerate] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 4 and report.steps_accepted + report.steps_rejected == 0
    message = graph.fac_to_node[("penalization", model.coef_node)].nbytes
    assert peaks[True] - peaks[False] < message / 10


# --- the scale move of the group splines -------------------------------------


def move_expectations(graph, move):
    """What the engine hands a move: the moments of each normal node it
    reads (one factorization of its summed vector) and E{T} of the others."""
    out = []
    for name in move.nodes:
        node, eta = graph.nodes[name], summed_eta(graph, name)
        if node.family == expfam.MULTIVARIATE_NORMAL:
            out.append(mvn_moments(eta, node.d, layout=node.layout))
        else:
            out.append(expfam.expected_sufficient_statistic(expfam.NatParam(node.family, eta, node.d)))
    return out


def moved_copy(graph, move, alpha):
    """A copy of the graph with the move applied at ``alpha``."""
    moved = copy.deepcopy(graph)
    moments = move_expectations(moved, move)[0]
    move.rescale(alpha, moments, [moved.fac_to_node[edge] for edge in move.edges])
    moved.kept_moments.clear()
    return moved


def test_scale_move_changes_the_elbo_by_its_closed_form(tmp_path):
    """ELBO(alpha) - ELBO(1) = c2 (alpha^2 - 1) + c1 (alpha - 1) + b log alpha
    against engine.elbo of the moved graph, and alpha* is the best alpha."""
    model = build_group_curves(*readme_group_data(tmp_path, 20))
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=10, tol=1e-300, accelerate=False)
    (move,) = graph.moves
    base = elbo(graph)
    c2, c1, b = scale_move_coefficients(move, *move_expectations(graph, move))
    assert c2 < 0.0 and b == 1.0
    for alpha in np.exp(np.linspace(-0.6, 0.6, 7)):
        change = c2 * (alpha**2 - 1.0) + c1 * (alpha - 1.0) + b * np.log(alpha)
        assert abs(elbo(moved_copy(graph, move, alpha)) - base - change) <= 1e-12 * abs(base), alpha
    best = scale_move_alpha(c2, c1, b)
    assert abs(2.0 * c2 * best**2 + c1 * best + b) <= 1e-12 * abs(c1 * best)
    gain = scale_move_gain(c2, c1, b, best)
    assert gain > 0.0
    assert abs(elbo(moved_copy(graph, move, best)) - base - gain) <= 1e-12 * abs(base)
    for alpha in (best * 0.99, best * 1.01):
        assert scale_move_gain(c2, c1, b, alpha) < gain


def test_moved_moments_are_those_of_the_moved_vector():
    """On a well-conditioned two-level normal, the moments a move rescales
    in place agree with a fresh factorization of the summed moved vector to
    1e-13; the variance chain's q-densities scale by alpha^2 and 1/alpha^2."""
    rng = np.random.default_rng(3)
    m, q, g, K = 6, 5, 3, 3
    layout = TwoLevelLayout(np.arange(g), g + np.arange(m * q).reshape(m, q))
    AtA = layout.pack_matrix(arrowhead_precision(rng, layout))
    lik = GaussianLikelihoodSpec(40, rng.normal(size=layout.p), 9.0, AtA, layout)
    prior = InverseWishartPriorSpec(1.0, np.eye(1) * 0.3)
    move = ScaleMove(lik, prior, slice(q - K, q), ("coef", "noise", "a"), [("e", "n")] * 6)
    pen_P = arrowhead_precision(rng, layout)
    messages = [
        layout.pack(np.concatenate([rng.normal(size=layout.p), -0.5 * vec(pen_P)])), lik.natural * 1.7,
        np.array([-1.5, -0.8]), np.array([-4.0, -2.5]),
        np.array([-1.5, -0.3]), np.array([-1.0, -0.9]),
    ]
    before = [msg.copy() for msg in messages]
    moments = mvn_moments(messages[0] + messages[1], layout.p, layout=layout)
    alpha = 1.3
    move.rescale(alpha, moments, messages)
    fresh = mvn_moments(messages[0] + messages[1], layout.p, layout=layout)
    for name in ("mu", "Sigma_GG", "Sigma_iG", "Sigma_ii", "schur_factor", "logdet"):
        assert_rel(getattr(moments, name), getattr(fresh, name), tol=1e-13)
    assert np.array_equal(messages[1], before[1])  # only the written message of a pair moves
    for (k, scale) in ((2, alpha**2), (4, alpha**-2)):
        assert np.array_equal(messages[k + 1], before[k + 1])
        assert messages[k][0] == before[k][0]
        assert_rel(messages[k][1] + messages[k + 1][1], scale * (before[k][1] + before[k + 1][1]), 1e-15)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("block", [slice(2, 7), slice(1, 4)])
def test_scale_move_touches_only_the_rows_and_columns_of_u(block):
    """Every entry of the written coef message outside u's rows and columns
    keeps its bits through a move (-0.0 included), the other message keeps
    all of them, and so do the kept moments outside u: mu off u, Sigma_GG,
    the Schur factor, Sigma_iG off u's rows and Sigma_ii off u's rows and
    columns.  Each entry in u's rows or columns moves."""
    rng = np.random.default_rng(5)
    m, q, g = 6, 7, 3
    layout = TwoLevelLayout(np.arange(g), g + np.arange(m * q).reshape(m, q))
    AtA = layout.pack_matrix(arrowhead_precision(rng, layout))
    lik = GaussianLikelihoodSpec(40, rng.normal(size=layout.p), 9.0, AtA, layout)
    move = ScaleMove(lik, InverseWishartPriorSpec(1.0, np.eye(1) * 0.3), block, ("coef", "noise", "a"),
                     [("e", "n")] * 6)
    written = layout.pack(np.concatenate([rng.normal(size=layout.p), -0.5 * vec(arrowhead_precision(rng, layout))]))
    in_u = np.zeros(layout.p, dtype=bool)
    in_u[layout.groups[:, block]] = True
    written[: layout.p][~in_u] = -0.0
    messages = [written, lik.natural * 1.7, np.array([-1.5, -0.8]), np.array([-4.0, -2.5]),
                np.array([-1.5, -0.3]), np.array([-1.0, -0.9])]
    moments = mvn_moments(messages[0] + messages[1], layout.p, layout=layout)
    before = [msg.copy() for msg in messages[:2]]
    kept = {name: np.copy(getattr(moments, name))
            for name in ("mu", "Sigma_GG", "schur_factor", "Sigma_iG", "Sigma_ii")}
    move.rescale(1.3, moments, messages)
    rows, cols = np.nonzero(pattern_mask(layout))
    touched = np.zeros(layout.packed_size, dtype=bool)
    touched[: layout.p] = in_u
    touched[layout.position(rows, cols)[in_u[rows] | in_u[cols]]] = True
    assert np.array_equal(bits(messages[0])[~touched], bits(before[0])[~touched])
    assert np.all(messages[0][touched] != before[0][touched])
    assert np.array_equal(bits(messages[1]), bits(before[1]))
    off_u = ~in_u[layout.groups]  # (m, q): a group's columns outside u
    off_ii = off_u[:, :, None] & off_u[:, None, :]
    for name, keep in (("mu", ~in_u), ("Sigma_GG", ...), ("schur_factor", ...), ("Sigma_iG", off_u),
                       ("Sigma_ii", off_ii)):
        assert np.array_equal(bits(getattr(moments, name)[keep]), bits(kept[name][keep])), name
    assert np.all(moments.mu[in_u] != kept["mu"][in_u])
    assert np.all(moments.Sigma_iG[~off_u] != kept["Sigma_iG"][~off_u])
    assert np.all(moments.Sigma_ii[~off_ii] != kept["Sigma_ii"][~off_ii])


def test_move_without_a_gain_leaves_the_fit_bit_equal(tmp_path, monkeypatch):
    """A move whose closed-form gain is not positive changes nothing: the
    accelerated fit is bit for bit that of the model without moves."""
    model = build_group_curves(*readme_group_data(tmp_path, 20))
    monkeypatch.setattr(fragments_gaussian, "scale_move_gain", lambda *args: 0.0)
    fits = []
    for variant in (model, dataclasses.replace(model, moves=())):
        graph = build_factor_graph(variant)
        fits.append((graph, run_vmp(graph, max_iter=40, tol=1e-300)))
    (graph, report), (bare, bare_report) = fits
    assert report == bare_report and report.moves_applied == 0
    assert report.steps_accepted + report.steps_rejected > 0
    for key, msg in bare.fac_to_node.items():
        assert np.array_equal(graph.fac_to_node[key], msg), key


def test_plain_fit_runs_no_move(tmp_path):
    """accelerate=False is the loop without moves, bit for bit; the
    accelerated fit applies the move after each sweep from the third on."""
    model = build_group_curves(*readme_group_data(tmp_path, 20))
    fits = []
    for variant in (model, dataclasses.replace(model, moves=())):
        graph = build_factor_graph(variant)
        fits.append((graph, run_vmp(graph, max_iter=30, tol=1e-300, accelerate=False)))
    (graph, report), (bare, bare_report) = fits
    assert report == bare_report and report.moves_applied == 0
    for key, msg in bare.fac_to_node.items():
        assert np.array_equal(graph.fac_to_node[key], msg), key
    fast = run_vmp(build_factor_graph(model), max_iter=4, tol=1e-300)
    assert fast.steps_accepted + fast.steps_rejected == 0 and fast.moves_applied == 2


def test_graph_rejects_a_move_it_cannot_run(tmp_path):
    model = build_group_curves(*readme_group_data(tmp_path, 12, per_group=10), K_gbl=6, K_grp=3)
    (move,) = model.moves
    cases = {
        "not in the graph": move.edges[:5] + (("link_grp", "coef"),),
        "does not name every edge into node 'a_grp'": move.edges[:5] + (("prior_a_eps", "a_eps"),),
    }
    for message, edges in cases.items():
        bad = dataclasses.replace(model, moves=(dataclasses.replace(move, edges=edges),))
        with pytest.raises(GraphStructureError, match=message):
            build_factor_graph(bad)
    dense = dataclasses.replace(strip_layout(model), moves=model.moves)
    with pytest.raises(GraphStructureError, match="layout is not that of node 'coef'"):
        build_factor_graph(dense)


def extended_moments(eta, layout):
    """(mu, Sigma) of a packed natural vector: the dense factorization
    refined three times with residuals in extended precision."""
    p = layout.p
    dense = layout.unpack(eta)
    P = np.asarray(-2.0 * symmetrize(dense[p:].reshape((p, p), order="F")), dtype=np.longdouble)
    moments = mvn_moments(dense, p)
    mu, Sigma = moments.mu, moments.Sigma
    for _ in range(3):
        Sigma = Sigma + Sigma @ np.asarray(np.eye(p) - P @ Sigma, dtype=float)
        mu = mu + Sigma @ np.asarray(eta[:p] - P @ mu, dtype=float)
    return mu, symmetrize(Sigma), moments


def test_q_density_refines_the_two_level_moments(tmp_path):
    """The README precision has condition number ~1e5, and the two-level
    elimination's Schur complement of the global block cancels, so its mu
    and Sigma_GG are up to 6.7e-12 off an extended-precision solve (relative
    to the largest entry) at these three states; after the refinement step
    of q_density they are within 1.5e-12, where the dense Cholesky
    factorization is up to 1.2e-12 off."""
    model = build_group_curves(*readme_group_data(tmp_path, 20))
    layout = model.nodes[0].layout
    G, I = layout.glob, layout.groups
    raw_worst = 0.0
    for sweeps in (3, 10, 30):
        graph = build_factor_graph(model)
        run_vmp(graph, max_iter=sweeps, tol=1e-300)
        eta = summed_eta(graph, "coef")
        raw = mvn_moments(eta, layout.p, layout=layout)
        got = q_density(graph, "coef").moments
        mu, Sigma, dense = extended_moments(eta, layout)
        blocks = lambda S: (S[G[:, None], G], S[I[:, :, None], G])  # noqa: E731
        for name, want, refined, dense_part, raw_part in (
            ("mu", mu, got.mu, dense.mu, raw.mu),
            *zip(("Sigma_GG", "Sigma_iG"), blocks(Sigma), (got.Sigma_GG, got.Sigma_iG),
                 blocks(dense.Sigma), (raw.Sigma_GG, raw.Sigma_iG)),
        ):
            scale = np.max(np.abs(want))
            err = lambda x: np.max(np.abs(x - want)) / scale  # noqa: E731
            assert err(refined) <= 1.5e-12, (sweeps, name, err(dense_part))
            raw_worst = max(raw_worst, err(raw_part))
    assert raw_worst > 2e-12  # the step has something to mend
