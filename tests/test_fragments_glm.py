import dataclasses
import tracemalloc
import types
import warnings

import mpmath
import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.special import log_ndtr

from semivmp import fragments_glm, models
from semivmp.engine import (
    VmpNumericsError,
    build_factor_graph,
    elbo,
    q_density,
    run_vmp,
    update_factor,
)
from semivmp.fragments_glm import (
    OVERFLOW_LIMIT,
    DenseRows,
    LinearPredictorOverflowError,
    LogisticFragmentState,
    PoissonFragmentState,
    ProbitFragmentState,
    SplineDesign,
    SplineRows,
    albert_chib_elbo,
    albert_chib_update,
    jaakkola_jordan_elbo,
    jaakkola_jordan_update,
    knowles_minka_wand_elbo,
    knowles_minka_wand_update,
    tangent_offset,
    tangent_weight,
    zeta_prime,
)
from semivmp.models import TRUNCATED_LINEAR, build_glm_spline, demo_mean_function
from semivmp.natparam import mvn_moments, row_quadratic, vec

from conftest import random_spd
from test_acceptance import kmw_local_objective


def mvn_eta(mu, Sigma):
    P = np.linalg.inv(Sigma)
    return np.concatenate([P @ mu, -0.5 * vec(P)])


def split(eta):
    """Arbitrary two-way split of a combined vector for the message arguments."""
    return 0.25 * eta, 0.75 * eta


# --- logistic tangent pieces -------------------------------------------------


def test_tangent_weight_values():
    assert tangent_weight(0.0) == pytest.approx(0.125, abs=1e-15)
    assert tangent_weight(1.0) == pytest.approx(np.tanh(0.5) / 4.0, rel=1e-14)
    assert tangent_weight(-1.0) == tangent_weight(1.0)  # even function


def test_tangent_weight_branch_continuity():
    # series branch and direct branch must agree around the 1e-4 switch
    for xi in (9.9e-5, 1.01e-4):
        direct = np.tanh(0.5 * xi) / (4.0 * xi)
        assert tangent_weight(xi) == pytest.approx(direct, rel=1e-12)


def test_tangent_weight_range():
    xi = np.linspace(0.0, 40.0, 1001)
    w = tangent_weight(xi)
    assert np.all(w > 0.0) and np.all(w <= 0.125)
    assert np.all(np.diff(w) <= 0)  # decreasing on [0, inf)


def test_tangent_offset_at_zero():
    assert tangent_offset(0.0) == pytest.approx(-np.log(2.0), rel=1e-14)


def reference_tangent_offset(xi, W=None):
    """The tangent offset in its defining form xi/2 - log(1 + e^xi) + W xi^2."""
    xi = np.asarray(xi, dtype=float)
    W = tangent_weight(xi) if W is None else W
    return 0.5 * xi - np.logaddexp(0.0, xi) + W * xi**2


def test_tangent_offset_matches_its_defining_form_and_mpmath():
    mpmath.mp.dps = 40
    xi = np.concatenate([[1e-8, 9.9e-5, 1.01e-4], np.linspace(0.0, 60.0, 601), [700.0, 1e6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tangent_offset(xi)
    exact = np.array([float(mpmath.mpf(v) / 2 - mpmath.log1p(mpmath.exp(v))
                            + mpmath.tanh(mpmath.mpf(v) / 2) * v / 4) for v in xi])
    np.testing.assert_allclose(got, exact, rtol=1e-13)
    np.testing.assert_allclose(got, reference_tangent_offset(xi), rtol=1e-13)
    np.testing.assert_array_equal(tangent_offset(-xi), got)  # even in xi, like the bound


def test_jj_update_identity_design():
    state = LogisticFragmentState(np.array([0.0, 1.0]), np.eye(2))
    eta = mvn_eta(np.zeros(2), np.eye(2))
    new, msg = jaakkola_jordan_update(state, *split(eta))
    np.testing.assert_allclose(new.xi, [1.0, 1.0], rtol=1e-14)
    W = np.tanh(0.5) / 4.0
    np.testing.assert_allclose(msg[:2], [-0.5, 0.5], rtol=1e-14)
    np.testing.assert_allclose(msg[2:], -vec(W * np.eye(2)), rtol=1e-13)


def test_jj_xi_nonnegative(rng):
    for _ in range(5):
        n, d = 7, 3
        state = LogisticFragmentState(rng.integers(0, 2, n).astype(float), rng.normal(size=(n, d)))
        eta = mvn_eta(rng.normal(size=d), random_spd(rng, d))
        new, _ = jaakkola_jordan_update(state, *split(eta))
        assert np.all(new.xi >= 0.0)


def test_jj_xi_update_never_decreases_bound(rng):
    # holding q fixed, refreshing xi maximizes the tangent bound over xi
    n, d = 8, 2
    y = rng.integers(0, 2, n).astype(float)
    A = rng.normal(size=(n, d))
    eta = mvn_eta(rng.normal(size=d), 0.5 * random_spd(rng, d))
    for _ in range(10):
        xi0 = rng.uniform(0.0, 4.0, size=n)
        before = jaakkola_jordan_elbo(LogisticFragmentState(y, A, xi=xi0), eta)
        new, _ = jaakkola_jordan_update(LogisticFragmentState(y, A, xi=xi0), *split(eta))
        after = jaakkola_jordan_elbo(new, eta)
        assert after >= before - 1e-12


def test_jj_elbo_is_lower_bound_on_exact_expectation(rng):
    n, d = 5, 2
    y = rng.integers(0, 2, n).astype(float)
    A = rng.normal(size=(n, d))
    mu, Sigma = rng.normal(size=d), 0.4 * random_spd(rng, d)
    eta = mvn_eta(mu, Sigma)
    state, _ = jaakkola_jordan_update(LogisticFragmentState(y, A), *split(eta))
    draws = rng.multivariate_normal(mu, Sigma, size=400_000)
    h = draws @ A.T
    ll = np.sum(y * h - np.logaddexp(0.0, h), axis=1)
    se = ll.std() / np.sqrt(ll.size)
    assert jaakkola_jordan_elbo(state, eta) <= ll.mean() + 4 * se


# --- probit ------------------------------------------------------------------


def test_zeta_prime_at_zero():
    assert zeta_prime(0.0) == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-12)


def test_zeta_prime_against_mpmath():
    mpmath.mp.dps = 40
    for x in (-30.0, -8.5, -8.0001, -7.9999, -3.0, 0.0, 2.0, 10.0, 40.0):
        expect = float(mpmath.npdf(x) / mpmath.ncdf(x))
        assert zeta_prime(x) == pytest.approx(expect, rel=1e-12), x


_LOG_2PI = float(np.log(2.0 * np.pi))


def reference_zeta_prime(x):
    """phi(x)/Phi(x) through log space, and for x < -8 by the classical
    continued fraction for the Mills ratio."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)
    left = x_arr < -8.0
    xm = x_arr[~left]
    out[~left] = np.exp(-0.5 * xm**2 - 0.5 * _LOG_2PI - log_ndtr(xm))
    t = -x_arr[left]
    cf = np.zeros_like(t)
    for k in range(60, 0, -1):
        cf = k / (t + cf)
    out[left] = t + cf
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def test_zeta_prime_on_the_whole_line():
    # one erfcx call against mpmath and the log-space / continued-fraction
    # reference: full relative accuracy wherever the true value is a normal
    # double; past x = 37.6 erfcx overflows and the ratio is 0
    mpmath.mp.dps = 60
    x = np.concatenate([np.linspace(-40.0, 40.0, 801), [-1e6, 1e6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = zeta_prime(x)
        ref = reference_zeta_prime(x)
    exact = np.array([float(mpmath.npdf(v) / mpmath.ncdf(v)) for v in x])
    normal = exact >= np.finfo(float).tiny
    assert np.sum(~normal) >= 20 and np.all(x[~normal] > 37.6)
    np.testing.assert_allclose(got[normal], exact[normal], rtol=1e-12)
    np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-12)
    assert np.all(got[~normal] >= 0.0) and np.all(got[~normal] <= 1e-300)


def test_zeta_prime_deep_tail_asymptote():
    # zeta_prime(-t) ~ t + 1/t - 2/t^3 for large t
    t = 1e6
    assert zeta_prime(-t) == pytest.approx(t + 1.0 / t, rel=1e-12)


def test_zeta_prime_scalar_and_array_forms():
    out = zeta_prime(np.array([-1.0, 0.0, 1.0]))
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    assert isinstance(zeta_prime(-1.0), float)
    assert np.all(np.diff(zeta_prime(np.linspace(-40, 40, 500))) <= 0)  # non-increasing
    assert np.all(np.diff(zeta_prime(np.linspace(-12, 6, 500))) < 0)  # strictly so away from underflow


def test_ac_second_block_constant(rng):
    n, d = 6, 3
    y = rng.integers(0, 2, n).astype(float)
    A = rng.normal(size=(n, d))
    expected = -0.5 * vec(A.T @ A)
    for _ in range(5):
        eta = mvn_eta(rng.normal(size=d), random_spd(rng, d))
        _, msg = albert_chib_update(ProbitFragmentState(y, A), *split(eta))
        np.testing.assert_array_equal(msg[d:], expected)


def test_ac_first_block_truncated_normal_means(rng):
    n, d = 4, 2
    y = np.array([1.0, 0.0, 1.0, 0.0])
    A = rng.normal(size=(n, d))
    mu = rng.normal(size=d)
    eta = mvn_eta(mu, random_spd(rng, d))
    _, msg = albert_chib_update(ProbitFragmentState(y, A), *split(eta))
    nu = A @ mu
    sgn = 2.0 * y - 1.0
    shifted = nu + sgn * zeta_prime(sgn * nu)
    np.testing.assert_allclose(msg[:d], A.T @ shifted, rtol=1e-12)


def test_ac_elbo_is_the_row_sum_form(rng):
    # the trace tr(Sigma A^T A) stands for the sum of the row forms a_i^T Sigma a_i
    n, d = 40, 4
    y = rng.integers(0, 2, n).astype(float)
    A = rng.normal(size=(n, d))
    for _ in range(5):
        eta = mvn_eta(rng.normal(size=d), random_spd(rng, d, 0.3))
        state = ProbitFragmentState(y, A)
        kept, _ = albert_chib_update(state, *split(eta))
        assert state.AtA is None  # formed by the first update, and kept by it
        np.testing.assert_array_equal(kept.AtA, A.T @ A)
        for s in (state, kept):
            assert albert_chib_elbo(s, eta) == pytest.approx(
                reference_albert_chib_elbo(s, eta), rel=1e-12
            )


# --- Poisson -----------------------------------------------------------------


def test_kmw_update_unit_case():
    state = PoissonFragmentState(np.array([2.0]), np.array([[1.0]]))
    eta = mvn_eta(np.zeros(1), np.eye(1))  # mu=0, Sigma=1 -> lin = 1/2
    _, msg = knowles_minka_wand_update(state, *split(eta))
    w = np.exp(0.5)
    np.testing.assert_allclose(msg, [2.0 - w, -0.5 * w], rtol=1e-14)


def test_kmw_stationarity_gradient(rng):
    # iterate the fragment against a fixed Gaussian prior message to a fixed
    # point, then check the local objective is stationary in mu
    n, d = 30, 2
    A = np.column_stack([np.ones(n), rng.uniform(-1, 1, n)])
    truth = np.array([1.0, 0.8])
    y = rng.poisson(np.exp(A @ truth)).astype(float)
    state = PoissonFragmentState(y, A)
    eta_other = mvn_eta(np.zeros(d), 100.0 * np.eye(d))
    msg = np.concatenate([np.zeros(d), -0.5 * vec(np.eye(d))])
    for _ in range(200):
        state, msg = knowles_minka_wand_update(state, msg, eta_other)
    from semivmp.natparam import mvn_moments_from_natural

    mu, Sigma = mvn_moments_from_natural(eta_other + msg, d)
    grad = np.empty(d)
    for i in range(d):
        h = 1e-6
        e = np.zeros(d)
        e[i] = h
        grad[i] = (
            kmw_local_objective(state, mu + e, Sigma, eta_other)
            - kmw_local_objective(state, mu - e, Sigma, eta_other)
        ) / (2 * h)
    assert np.max(np.abs(grad)) <= 1e-4


def test_kmw_elbo_exact_log_likelihood_expectation(rng):
    n, d = 6, 2
    A = rng.normal(size=(n, d)) * 0.3
    y = rng.poisson(1.0, size=n).astype(float)
    mu, Sigma = 0.1 * rng.normal(size=d), 0.2 * random_spd(rng, d)
    eta = mvn_eta(mu, Sigma)
    state = PoissonFragmentState(y, A)
    draws = rng.multivariate_normal(mu, Sigma, size=300_000)
    h = draws @ A.T
    from scipy.special import gammaln

    ll = np.sum(y * h - np.exp(h) - gammaln(y + 1.0), axis=1)
    se = ll.std() / np.sqrt(ll.size)
    assert knowles_minka_wand_elbo(state, eta) == pytest.approx(ll.mean(), abs=5 * se)


def test_kmw_overflow_raises():
    state = PoissonFragmentState(np.array([1.0]), np.array([[1.0]]))
    eta = mvn_eta(np.array([OVERFLOW_LIMIT + 100.0]), np.eye(1))
    with pytest.raises(LinearPredictorOverflowError) as exc:
        knowles_minka_wand_update(state, *split(eta))
    assert exc.value.worst > OVERFLOW_LIMIT
    assert "damping" in str(exc.value)


# --- shared behavior ---------------------------------------------------------


@pytest.mark.parametrize(
    "update, state_cls", [(jaakkola_jordan_update, LogisticFragmentState),
                          (albert_chib_update, ProbitFragmentState)],
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_binary_linear_predictor_divergence_raises(update, state_cls, sign):
    state = state_cls(np.array([1.0, 0.0]), np.array([[1.0], [0.5]]))
    eta = mvn_eta(np.array([sign * (OVERFLOW_LIMIT + 100.0)]), np.eye(1))
    with pytest.raises(LinearPredictorOverflowError) as exc:
        update(state, *split(eta))
    assert exc.value.worst == pytest.approx(OVERFLOW_LIMIT + 100.0)
    inside = mvn_eta(np.array([sign * (OVERFLOW_LIMIT - 100.0)]), np.eye(1))
    update(state, *split(inside))


def test_updates_are_pure(rng):
    n, d = 5, 2
    A = rng.normal(size=(n, d))
    eta = mvn_eta(rng.normal(size=d), random_spd(rng, d))
    yb = rng.integers(0, 2, n).astype(float)
    yc = rng.poisson(1.0, size=n).astype(float)
    cases = [
        (jaakkola_jordan_update, LogisticFragmentState(yb, A)),
        (albert_chib_update, ProbitFragmentState(yb, A)),
        (knowles_minka_wand_update, PoissonFragmentState(yc, A * 0.2)),
    ]
    for update, state in cases:
        names = [f.name for f in dataclasses.fields(state)]
        before = {name: np.copy(getattr(state, name)) for name in names}
        s1, m1 = update(state, *split(eta))
        s2, m2 = update(state, *split(eta))
        np.testing.assert_array_equal(m1, m2)
        # input state untouched; returned states identical in every field
        assert [f.name for f in dataclasses.fields(s1)] == names
        for name in names:
            np.testing.assert_array_equal(getattr(state, name), before[name])
            np.testing.assert_array_equal(getattr(s1, name), getattr(s2, name))


def test_state_validation():
    with pytest.raises(ValueError):
        LogisticFragmentState(np.array([0.0, 2.0]), np.eye(2))
    with pytest.raises(ValueError):
        LogisticFragmentState(np.array([0.0, 1.0]), np.eye(2), xi=np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        ProbitFragmentState(np.array([0.5, 1.0]), np.eye(2))
    with pytest.raises(ValueError):
        PoissonFragmentState(np.array([-1.0, 2.0]), np.eye(2))
    with pytest.raises(ValueError):
        PoissonFragmentState(np.array([1.5, 2.0]), np.eye(2))


@pytest.mark.parametrize(
    "elbo_fn, state_cls",
    [(jaakkola_jordan_elbo, LogisticFragmentState), (albert_chib_elbo, ProbitFragmentState),
     (knowles_minka_wand_elbo, PoissonFragmentState)],
)
def test_glm_elbo_reads_given_moments(rng, elbo_fn, state_cls):
    # moments passed in by the caller give the same number as factoring q_eta
    A = rng.normal(scale=0.3, size=(12, 3))
    state = state_cls(rng.integers(0, 2, size=12).astype(float), A)
    eta = mvn_eta(rng.normal(size=3), random_spd(rng, 3, 0.2))
    assert elbo_fn(state, eta, moments=mvn_moments(eta, 3)) == elbo_fn(state, eta)


# --- the BLAS row forms against the reference they replace -------------------


def einsum_row_quadratic(A, S):
    return np.einsum("ij,jk,ik->i", A, S, A)


def reference_albert_chib_elbo(state, q_eta, moments=None):
    """The probit ELBO term as the row sum of its a_i^T Sigma a_i."""
    q = mvn_moments(q_eta, state.A.shape[1]) if moments is None else moments
    sgn = 2.0 * state.y - 1.0
    return float(np.sum(log_ndtr(sgn * (state.A @ q.mu)))
                 - 0.5 * np.sum(einsum_row_quadratic(state.A, q.Sigma)))


def criterion_08_model(link, n=500):
    """The criterion-08 data (n=500, K=25, data seed 0) and its model; other
    sizes n draw their data the same way."""
    r = np.random.default_rng(0)
    x = r.uniform(size=n)
    f = demo_mean_function(x)
    y = r.binomial(1, f) if link != "log" else r.poisson(10.0 * f)
    return build_glm_spline(y, x, K=25, link=link)


def likelihood_state(model):
    return next(b.fragment for b in model.fragments if b.name == "likelihood")


def on_dense_rows(model):
    """The model with its likelihood state rebuilt on the explicit dense
    design from ``models.design``, so every update and ELBO term runs the
    dense kernels."""
    C = models.design(model)

    def dense(binding):
        if binding.name != "likelihood":
            return binding
        state = binding.fragment
        return dataclasses.replace(binding, fragment=type(state)(state.y, C))

    return dataclasses.replace(model, fragments=tuple(dense(b) for b in model.fragments))


def fit_to_fixed_point(model):
    """q-density vectors and ELBO of the model fitted to tol 1e-12."""
    graph = build_factor_graph(model)
    report = run_vmp(graph, max_iter=2000, tol=1e-12, track_elbo=False)
    assert report.converged
    etas = {node: q_density(graph, node).eta_q for node in graph.nodes}
    return etas, elbo(graph)


def assert_same_fixed_point(got, ref):
    (etas, bound), (ref_etas, ref_bound) = got, ref
    for node, eta in ref_etas.items():
        gap = np.max(np.abs(etas[node] - eta) / np.maximum(1.0, np.abs(eta)))
        assert gap <= 1e-12, node
    assert bound == pytest.approx(ref_bound, rel=1e-12)


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_fixed_point_matches_einsum_reference(monkeypatch, link):
    # the builder's fit (B-spline rows, one-call special functions) against a
    # fit on the dense design whose row forms are the three-index einsum, whose
    # probit ELBO term is the row sum, and whose zeta_prime and tangent offset
    # are the log-space / continued-fraction and logaddexp references
    etas, bound = fit_to_fixed_point(criterion_08_model(link))
    reference_calls = []

    def counted_einsum(A, S):
        reference_calls.append(A.shape)
        return einsum_row_quadratic(A, S)

    monkeypatch.setattr(fragments_glm, "row_quadratic", counted_einsum)
    monkeypatch.setattr(fragments_glm, "albert_chib_elbo", reference_albert_chib_elbo)
    monkeypatch.setattr(fragments_glm, "zeta_prime", reference_zeta_prime)
    monkeypatch.setattr(fragments_glm, "tangent_offset", reference_tangent_offset)
    ref = fit_to_fixed_point(on_dense_rows(criterion_08_model(link)))
    assert reference_calls or link == "probit"  # the reference ran the dense row forms
    assert_same_fixed_point((etas, bound), ref)


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_band_built_fit_matches_an_explicit_dense_design(link):
    # at n=10^4 on the criterion-08 data: the builder's fit, run from x and
    # the basis on the B-spline band, against a fit whose state holds the
    # dense C that models.design forms, run by the dense kernels
    model = criterion_08_model(link, n=10_000)
    dense = on_dense_rows(model)
    assert isinstance(likelihood_state(dense).A, np.ndarray)  # run by DenseRows
    assert_same_fixed_point(fit_to_fixed_point(model), fit_to_fixed_point(dense))


# --- the B-spline row kernels against the dense ones --------------------------


def spline_rows_case(x, K):
    """(dense design, SplineRows) of the O'Sullivan design the GLM builder
    forms on x with K spline columns."""
    model = build_glm_spline(np.zeros(x.size), x, K=K, link="log")
    C = models.design(model)
    return C, SplineRows(C[:, 1], model.meta["basis"])


def spline_cases(rng):
    uniform = rng.uniform(size=200)
    ends = np.concatenate([[0.0, 0.0, 1.0, 1.0, 1.0], rng.uniform(size=60)])
    tied = rng.integers(0, 12, size=150) / 11.0
    crowded = np.concatenate([np.linspace(0.0, 1.0, 40), np.full(120, 0.37)])
    return [("one interval", uniform[:30], 2), ("both ends", ends, 6), ("tied", tied, 8),
            ("uneven", crowded, 10), ("builder size", uniform, 25)]


def test_spline_rows_match_the_dense_kernels(rng):
    def close(got, dense, name):  # relative to the largest entry of the dense result
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense)), name

    for name, x, K in spline_cases(rng):
        C, rows = spline_rows_case(x, K)
        n, p = C.shape
        J, _, n_max = rows.band.shape
        assert J == K - 1, name
        if name == "uneven":
            assert n_max > 3 * n / J  # one interval holds most rows
        for _ in range(3):
            S = random_spd(rng, p)
            w = rng.uniform(0.05, 3.0, size=n)
            v, r = rng.normal(size=p), rng.normal(size=n)
            np.testing.assert_allclose(rows.quadratic(S), row_quadratic(C, S), rtol=1e-12,
                                       err_msg=name)
            dense = C.T @ (w[:, None] * C)
            close(rows.gram(w), dense, name)
            close(rows.matvec(v), C @ v, name)
            close(rows.rmatvec(r), C.T @ r, name)
            dense_rows = DenseRows(C)
            np.testing.assert_array_equal(dense_rows.quadratic(S), row_quadratic(C, S))
            np.testing.assert_array_equal(dense_rows.gram(w), dense)
            np.testing.assert_array_equal(dense_rows.matvec(v), C @ v)
            np.testing.assert_array_equal(dense_rows.rmatvec(r), C.T @ r)


def test_spline_rows_hold_the_design_matrix_bsplines(rng):
    # the band's B-spline values are BSpline.design_matrix's, bit for bit, and
    # its padding is zero
    for name, x, K in spline_cases(rng):
        model = build_glm_spline(np.zeros(x.size), x, K=K, link="log")
        xs, basis = likelihood_state(model).A.x, model.meta["basis"]
        rows = SplineRows(xs, basis)
        B = BSpline.design_matrix(xs, basis.full_knots, 3)
        flat = rows.band.transpose(0, 2, 1).reshape(-1, 6)
        np.testing.assert_array_equal(flat[rows.where, 2:], B.data.reshape(-1, 4), err_msg=name)
        np.testing.assert_array_equal(rows.cols[rows.where // rows.band.shape[2], 2],
                                      2 + B.indices[::4], err_msg=name)
        pad = np.ones(flat.shape[0], dtype=bool)
        pad[rows.where] = False
        assert not np.any(flat[pad]), name


def row_sum_jaakkola_jordan_elbo(state, q_eta, A):
    """The logistic ELBO term as the sum over rows of its tangent bound, on
    the dense design A of the state."""
    q = mvn_moments(q_eta, A.shape[1])
    second = einsum_row_quadratic(A, q.Sigma + np.outer(q.mu, q.mu))
    return float((state.y - 0.5) @ (A @ q.mu) - tangent_weight(state.xi) @ second
                 + np.sum(tangent_offset(state.xi)))


def test_jj_elbo_trace_form_is_the_row_sum(rng):
    n, d = 40, 4
    y = rng.integers(0, 2, n).astype(float)
    A = rng.normal(size=(n, d))
    model = criterion_08_model("logit")
    spline, C = likelihood_state(model), models.design(model)
    p = spline.A.shape[1]
    for _ in range(5):
        eta = mvn_eta(rng.normal(size=d), random_spd(rng, d, 0.3))
        tilted, _ = jaakkola_jordan_update(LogisticFragmentState(y, A), *split(eta))
        direct = LogisticFragmentState(y, A, xi=rng.uniform(0.0, 4.0, size=n))
        eta_p = mvn_eta(rng.normal(scale=0.3, size=p), random_spd(rng, p, 0.01))
        on_spline, _ = jaakkola_jordan_update(spline, *split(eta_p))
        assert tilted.AtWA is not None and on_spline.AtWA is not None  # kept by the update
        for state, q_eta, dense in ((tilted, eta, A), (direct, eta, A), (on_spline, eta_p, C)):
            assert jaakkola_jordan_elbo(state, q_eta) == pytest.approx(
                row_sum_jaakkola_jordan_elbo(state, q_eta, dense), rel=1e-12
            )


def reachable_arrays(root):
    """Every numpy array reachable from ``root`` through object attributes,
    dataclass fields, dicts, lists, tuples and closure cells."""
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_spline_rows_live_only_in_the_graph(link):
    # the model holds the O'Sullivan design as x and the basis, and no array
    # of n x p; the band is built by the first update and kept by the graph
    model = criterion_08_model(link)
    graph = build_factor_graph(model)
    run_vmp(graph, max_iter=5)
    own, kept = likelihood_state(model), graph.factors["likelihood"].fragment
    assert isinstance(own.A, SplineDesign) and own.rows is None
    assert own.A.basis is model.meta["basis"] and own.A.shape == (500, 27)
    assert isinstance(kept.rows, SplineRows) and kept.A is own.A
    shapes = {a.shape for a in reachable_arrays(model)}
    assert (500,) in shapes and not any(len(s) == 2 and 500 in s for s in shapes)


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_spline_build_stays_below_one_dense_design(link):
    # n=2*10^4: building the model and its graph allocates less, at its
    # peak, than one dense n x (K + 2) design, and keeps no array of that shape
    n, K = 20_000, 25
    model = criterion_08_model(link, n=n)  # outside the trace: the data draw
    y, x = model.meta["y"], model.meta["x"]
    tracemalloc.start()
    try:
        model = build_glm_spline(y, x, K=K, link=link)
        graph = build_factor_graph(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * (K + 2) * 8
    assert not any(a.size >= n * (K + 2) for a in reachable_arrays((model, graph)))


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_spline_rows_overflow_names_the_factor(link):
    # the band's A mu feeds the overflow check of every link
    graph = build_factor_graph(criterion_08_model(link))
    p = graph.nodes["coef"].d
    mu = np.zeros(p)
    mu[0] = 3.0 * OVERFLOW_LIMIT  # halved by the unit-precision start: A mu = 1050
    graph.fac_to_node[("penalization", "coef")] = mvn_eta(mu, np.eye(p))
    with pytest.raises(VmpNumericsError) as exc:
        update_factor(graph, "likelihood")
    assert exc.value.factor == "likelihood"
    assert isinstance(exc.value.__cause__, LinearPredictorOverflowError)
    assert exc.value.__cause__.worst >= 1.5 * OVERFLOW_LIMIT - 1e-6


def test_other_designs_keep_the_dense_kernels():
    r = np.random.default_rng(0)
    x = r.uniform(size=200)
    y = r.binomial(1, demo_mean_function(x)).astype(float)
    for link in ("logit", "probit"):
        model = build_glm_spline(y, x, K=10, link=link, spline_kind=TRUNCATED_LINEAR)
        graph = build_factor_graph(model)
        run_vmp(graph, max_iter=3)
        state = graph.factors["likelihood"].fragment
        assert isinstance(state.A, np.ndarray) and state.rows is None, link
        assert isinstance(fragments_glm._rows(state), DenseRows), link


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_bspline_design_never_formed_by_a_fit(monkeypatch, link):
    # the builder forms only the knots and the penalty transform; the first
    # sweep's band evaluates the B-splines itself, so no B-spline design of
    # the data is formed
    calls = []
    real = BSpline.design_matrix

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(models.BSpline, "design_matrix", counted)  # the class every caller reads
    graph = build_factor_graph(criterion_08_model(link))
    run_vmp(graph, max_iter=2, track_elbo=True)
    assert isinstance(graph.factors["likelihood"].fragment.rows, SplineRows)
    assert calls == []
