import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.special import log_ndtr

from semivmp import fragments_glm
from semivmp.engine import build_factor_graph, elbo, q_density, run_vmp
from semivmp.fragments_glm import (
    OVERFLOW_LIMIT,
    LinearPredictorOverflowError,
    LogisticFragmentState,
    PoissonFragmentState,
    ProbitFragmentState,
    albert_chib_elbo,
    albert_chib_update,
    jaakkola_jordan_elbo,
    jaakkola_jordan_update,
    kmw_local_objective,
    knowles_minka_wand_elbo,
    knowles_minka_wand_update,
    tangent_offset,
    tangent_weight,
    zeta_prime,
)
from semivmp.models import build_glm_spline, demo_mean_function
from semivmp.natparam import mvn_moments, vec

from conftest import random_spd


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
        np.testing.assert_array_equal(state.AtA, A.T @ A)
        assert albert_chib_elbo(state, eta) == pytest.approx(
            reference_albert_chib_elbo(state, eta), rel=1e-12
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


def criterion_08_fit(link):
    """The criterion-08 data (n=500, K=25, data seed 0) fitted to tol 1e-12."""
    r = np.random.default_rng(0)
    x = r.uniform(size=500)
    f = demo_mean_function(x)
    y = r.binomial(1, f) if link != "log" else r.poisson(10.0 * f)
    graph = build_factor_graph(build_glm_spline(y, x, K=25, link=link))
    report = run_vmp(graph, max_iter=2000, tol=1e-12, track_elbo=False)
    assert report.converged
    etas = {node: q_density(graph, node).eta_q for node in graph.nodes}
    return etas, elbo(graph)


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_fixed_point_matches_einsum_reference(monkeypatch, link):
    etas, bound = criterion_08_fit(link)
    monkeypatch.setattr(fragments_glm, "row_quadratic", einsum_row_quadratic)
    monkeypatch.setattr(fragments_glm, "albert_chib_elbo", reference_albert_chib_elbo)
    ref_etas, ref_bound = criterion_08_fit(link)
    for node, ref in ref_etas.items():
        gap = np.max(np.abs(etas[node] - ref) / np.maximum(1.0, np.abs(ref)))
        assert gap <= 1e-12, node
    assert bound == pytest.approx(ref_bound, rel=1e-12)
