"""Message and ELBO-contribution checks for the conjugate Gaussian fragments.

Every expectation-style quantity is cross-checked against either a hand
derivation or seeded Monte Carlo draws from the same q-densities.
"""

import numpy as np
import pytest
from scipy import stats

from semivmp import expfam
from semivmp.fragments_gaussian import (
    SCALAR_D1,
    TOTALLY_CONNECTED,
    TOTALLY_DISCONNECTED,
    GaussianLikelihoodSpec,
    GaussianPenalizationSpec,
    GaussianPriorSpec,
    ImproperCombinedMessageError,
    InverseWishartPriorSpec,
    IteratedIGWSpec,
    PenalizedBlock,
    _inverse_moment,
    gaussian_likelihood_logp,
    gaussian_likelihood_messages,
    gaussian_penalization_logp,
    gaussian_penalization_messages,
    gaussian_prior_logp,
    gaussian_prior_message,
    inverse_wishart_prior_logp,
    inverse_wishart_prior_message,
    iterated_igw_logp,
    iterated_igw_messages,
    penalty_selector,
    variance_expectations,
)
from semivmp.natparam import g_vmp, mvn_moments_from_natural, vec

from conftest import random_spd


def mvn_eta(mu, Sigma):
    P = np.linalg.inv(Sigma)
    return np.concatenate([P @ mu, -0.5 * vec(P)])


def invchisq_eta(kappa, lam):
    return np.array([-0.5 * (kappa + 2.0), -0.5 * lam])


def iw_eta(kappa, Lambda):
    d = Lambda.shape[0]
    return np.concatenate([[-0.5 * (kappa + d + 1.0)], -0.5 * vec(Lambda)])


# --- constant prior messages -------------------------------------------------


def test_gaussian_prior_message_form(rng):
    mu = rng.normal(size=3)
    Sigma = random_spd(rng, 3)
    msg = gaussian_prior_message(GaussianPriorSpec(mu, Sigma))
    P = np.linalg.inv(Sigma)
    np.testing.assert_allclose(msg[:3], P @ mu, rtol=1e-10)
    np.testing.assert_allclose(msg[3:], -0.5 * vec(P), rtol=1e-10)


def test_inverse_wishart_prior_message_form():
    msg = inverse_wishart_prior_message(InverseWishartPriorSpec(1.0, [[4.0]]))
    np.testing.assert_allclose(msg, [-1.5, -2.0])

    Lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    msg = inverse_wishart_prior_message(
        InverseWishartPriorSpec(3.0, Lam, graph_kind=TOTALLY_CONNECTED)
    )
    np.testing.assert_allclose(msg[0], -3.0)  # -(kappa + d + 1)/2
    np.testing.assert_allclose(msg[1:], -0.5 * vec(Lam))


# --- variance expectations ---------------------------------------------------


def test_variance_expectations_scalar_against_quadrature():
    from semivmp.mfvb import moment_oracle

    eta = invchisq_eta(5.0, 3.0)
    elog, einv = variance_expectations(eta, 1, SCALAR_D1)
    oracle = moment_oracle("inverse_chi_squared", eta).estimate  # (E log x, E 1/x)
    assert elog == pytest.approx(oracle[0], rel=1e-8)
    assert einv == pytest.approx(oracle[1], rel=1e-8)


def test_variance_expectations_connected(rng):
    kappa, Lam = 7.0, random_spd(rng, 2)
    elog, einv = variance_expectations(iw_eta(kappa, Lam), 2, TOTALLY_CONNECTED)
    np.testing.assert_allclose(einv, kappa * np.linalg.inv(Lam), rtol=1e-10)
    draws = stats.invwishart(df=kappa, scale=Lam).rvs(size=50_000, random_state=rng)
    mc = np.mean([np.linalg.slogdet(S)[1] for S in draws])
    assert elog == pytest.approx(mc, abs=0.02)


# --- iterated inverse-G-Wishart ---------------------------------------------


def test_iterated_scalar_path_values():
    kappa = 1.0
    spec = IteratedIGWSpec(SCALAR_D1, kappa)
    c1 = invchisq_eta(4.0, 2.0)
    c2 = invchisq_eta(6.0, 5.0)
    msg1, msg2 = iterated_igw_messages(spec, c1 / 2, c2 / 2, c1 / 2, c2 / 2)
    # E{1/theta2} under combined c2 = (eta1+1)/eta2 = kappa2/lambda2
    assert msg1[0] == -1.5
    assert msg1[1] == pytest.approx(-0.5 * (6.0 / 5.0), rel=1e-12)
    # theta2 message reads the *new* combined theta1 vector
    comb1 = c1 / 2 + msg1
    inv1 = (comb1[0] + 1.0) / comb1[1]
    np.testing.assert_allclose(msg2, [-0.5 * kappa, -0.5 * inv1], rtol=1e-12)


def test_iterated_matrix_d1_matches_scalar(rng):
    for _ in range(10):
        kappa = float(rng.uniform(0.5, 6.0))
        ks, ls = rng.uniform(2.0, 9.0), rng.uniform(0.5, 4.0)
        c1 = invchisq_eta(ks, ls)
        c2 = invchisq_eta(rng.uniform(2.0, 9.0), rng.uniform(0.5, 4.0))
        s_scalar = IteratedIGWSpec(SCALAR_D1, kappa)
        s_matrix = IteratedIGWSpec(TOTALLY_CONNECTED, kappa, 1, TOTALLY_CONNECTED)
        a1, a2 = iterated_igw_messages(s_scalar, c1 / 2, c2 / 2, c1 / 2, c2 / 2)
        b1, b2 = iterated_igw_messages(s_matrix, c1 / 2, c2 / 2, c1 / 2, c2 / 2)
        np.testing.assert_allclose(a1, b1, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(a2, b2, rtol=1e-14, atol=1e-14)


def test_iterated_matrix_message_heads(rng):
    d, kappa = 2, 2.0
    Lam1, Lam2 = random_spd(rng, d), random_spd(rng, d)
    c1, c2 = iw_eta(6.0, Lam1), iw_eta(7.0, Lam2)

    con = IteratedIGWSpec(TOTALLY_CONNECTED, kappa, d, TOTALLY_CONNECTED)
    m1, m2 = iterated_igw_messages(con, c1 / 2, c2 / 2, c1 / 2, c2 / 2)
    assert m1[0] == -0.5 * (kappa + d + 1.0)
    assert m2[0] == -0.5 * kappa
    # E{Theta2^{-1}} = kappa2 Lambda2^{-1} under the combined vector
    np.testing.assert_allclose(m1[1:], -0.5 * vec(7.0 * np.linalg.inv(Lam2)), rtol=1e-10)

    dis = IteratedIGWSpec(TOTALLY_DISCONNECTED, kappa, d, TOTALLY_DISCONNECTED)
    Ld1, Ld2 = np.diag([2.0, 3.0]), np.diag([1.5, 0.8])
    m1, m2 = iterated_igw_messages(
        dis, iw_eta(6.0, Ld1) / 2, iw_eta(7.0, Ld2) / 2,
        iw_eta(6.0, Ld1) / 2, iw_eta(7.0, Ld2) / 2
    )
    assert m2[0] == -0.5 * (kappa + d - 1.0)
    # off-diagonal entries of the projected expectations vanish
    M1 = m1[1:].reshape(2, 2, order="F")
    assert M1[0, 1] == 0.0 and M1[1, 0] == 0.0


def test_iterated_improper_combined_raises():
    spec = IteratedIGWSpec(SCALAR_D1, 1.0)
    healthy = invchisq_eta(3.0, 2.0) / 2
    bad = np.array([0.0, -1.0])  # lead >= -1: not a proper inverse-chi-squared
    with pytest.raises(ImproperCombinedMessageError):
        iterated_igw_messages(spec, healthy, bad, healthy, bad)


def test_iterated_improper_diagonal_theta2_names_the_port():
    spec = IteratedIGWSpec(TOTALLY_CONNECTED, 3.0, 2, TOTALLY_DISCONNECTED)
    theta1 = iw_eta(5.0, np.eye(2))
    bad = iw_eta(3.0, np.diag([1.0, -1.0]))  # a positive diagonal entry of eta
    with pytest.raises(ImproperCombinedMessageError) as info:
        iterated_igw_messages(spec, theta1 / 2, bad / 2, theta1 / 2, bad / 2, context="link_A")
    assert info.value.context == "link_A [theta2]"


@pytest.mark.parametrize(
    "kind, d",
    [(SCALAR_D1, 1), (TOTALLY_DISCONNECTED, 1), (TOTALLY_DISCONNECTED, 3),
     (TOTALLY_CONNECTED, 1), (TOTALLY_CONNECTED, 3)],
)
def test_inverse_moment_matches_expected_statistic(rng, kind, d):
    # the update path reads E{Theta^{-1}} off the vector for the diagonal kinds;
    # it must give the very numbers of the expected sufficient statistic
    for _ in range(5):
        kappa = rng.uniform(0.5, 6.0) + d
        if kind == TOTALLY_CONNECTED:
            Lam = random_spd(rng, d)
        else:
            Lam = np.diag(rng.uniform(0.1, 5.0, size=d))
        eta = iw_eta(kappa, Lam)
        _, Einv = variance_expectations(eta, d, kind)
        np.testing.assert_array_equal(_inverse_moment(eta, d, kind, "test"), np.atleast_2d(Einv))


# --- Gaussian penalization ---------------------------------------------------


def make_penalization(rng):
    mu0 = rng.normal(size=2)
    Sigma0 = random_spd(rng, 2)
    blocks = (
        PenalizedBlock(3, 1, SCALAR_D1),
        PenalizedBlock(2, 1, SCALAR_D1, fixed_Theta=np.array([[4.0]])),
    )
    spec = GaussianPenalizationSpec(mu0, Sigma0, blocks)
    assert spec.total_dim == 7
    p = spec.total_dim
    mu = rng.normal(size=p)
    Sigma = random_spd(rng, p)
    eta_coef = mvn_eta(mu, Sigma)
    eta_theta = invchisq_eta(5.0, 4.0)
    return spec, eta_coef, eta_theta


def test_penalization_coef_message_structure(rng):
    spec, eta_coef, eta_theta = make_penalization(rng)
    msg_coef, msgs_theta = gaussian_penalization_messages(
        spec, eta_coef / 2, [eta_theta / 2], eta_coef / 2, [eta_theta / 2]
    )
    p = spec.total_dim
    S0inv = np.linalg.inv(spec.Sigma0)
    einv = (eta_theta[0] + 1.0) / eta_theta[1]  # E{1/theta} under combined
    P = np.zeros((p, p))
    P[:2, :2] = S0inv
    P[2:5, 2:5] = einv * np.eye(3)
    P[5:, 5:] = 0.25 * np.eye(2)  # fixed Theta = 4
    np.testing.assert_allclose(msg_coef[:p], np.concatenate([S0inv @ spec.mu0, np.zeros(5)]),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(msg_coef[p:], -0.5 * vec(P), rtol=1e-10, atol=1e-12)


def test_penalization_theta_message_is_quadratic_expectation(rng):
    spec, eta_coef, eta_theta = make_penalization(rng)
    msg_coef, msgs_theta = gaussian_penalization_messages(
        spec, eta_coef / 2, [eta_theta / 2], eta_coef / 2, [eta_theta / 2]
    )
    assert len(msgs_theta) == 1
    (msg_th,) = msgs_theta
    assert msg_th[0] == -1.5  # -m/2 with m=3
    # the quadratic part is G_VMP with the 0/1 selector of block 0, evaluated
    # at the combined coefficient vector refreshed by the new message
    comb = eta_coef / 2 + msg_coef
    D = penalty_selector(spec, 0)
    assert msg_th[1] == pytest.approx(g_vmp(comb, D, np.zeros(7), 0.0), rel=1e-12)


def test_penalization_improper_raises(rng):
    spec, eta_coef, _ = make_penalization(rng)
    bad = np.array([0.0, -1.0])
    with pytest.raises(ImproperCombinedMessageError):
        gaussian_penalization_messages(spec, eta_coef / 2, [bad], eta_coef / 2, [bad])


def test_penalization_improper_connected_block_names_the_port(rng):
    blocks = (PenalizedBlock(3, 1, SCALAR_D1), PenalizedBlock(3, 2, TOTALLY_CONNECTED))
    spec = GaussianPenalizationSpec(np.zeros(2), np.eye(2), blocks)
    eta_coef = mvn_eta(rng.normal(size=11), random_spd(rng, 11))
    good = invchisq_eta(5.0, 4.0)
    bad = iw_eta(5.0, np.diag([1.0, -1.0]))  # Lambda not positive definite
    with pytest.raises(ImproperCombinedMessageError) as info:
        gaussian_penalization_messages(
            spec, eta_coef / 2, [good / 2, bad / 2], eta_coef / 2, [good / 2, bad / 2],
            context="penalization",
        )
    assert info.value.context == "penalization block 1"


# --- Gaussian likelihood -----------------------------------------------------


def make_likelihood(rng, n=6, d=2):
    A = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return GaussianLikelihoodSpec(y, A)


def test_likelihood_messages_hand_check(rng):
    spec = make_likelihood(rng)
    eta1 = mvn_eta(rng.normal(size=2), random_spd(rng, 2))
    eta2 = invchisq_eta(8.0, 3.0)
    msg1, msg2 = gaussian_likelihood_messages(
        spec, eta1 / 2, eta2 / 2, eta1 / 2, eta2 / 2
    )
    w = 8.0 / 3.0  # E{1/theta2} = kappa/lambda under the combined vector
    np.testing.assert_allclose(msg1, w * np.concatenate([spec.Aty, -0.5 * vec(spec.AtA)]),
                               rtol=1e-12)
    comb1 = eta1 / 2 + msg1
    assert msg2[0] == -3.0  # -n/2
    assert msg2[1] == pytest.approx(g_vmp(comb1, spec.AtA, spec.Aty, spec.yty), rel=1e-12)


def test_likelihood_fixed_variance_mode(rng):
    A = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    spec = GaussianLikelihoodSpec(y, A, sigma_sq_fixed=2.5)
    msg1, msg2 = gaussian_likelihood_messages(spec, None, None, None, None)
    assert msg2 is None
    np.testing.assert_allclose(
        msg1, np.concatenate([A.T @ y, -0.5 * vec(A.T @ A)]) / 2.5, rtol=1e-12
    )


def test_likelihood_improper_variance_raises(rng):
    spec = make_likelihood(rng)
    eta1 = mvn_eta(np.zeros(2), np.eye(2))
    bad = np.array([-0.25, -0.5])  # kappa would be -1.5: improper
    with pytest.raises(ImproperCombinedMessageError):
        gaussian_likelihood_messages(spec, eta1 / 2, bad / 2, eta1 / 2, bad / 2)


# --- ELBO contributions vs Monte Carlo --------------------------------------


def q_mvn_draws(rng, q_eta, d, size):
    mu, Sigma = mvn_moments_from_natural(q_eta, d)
    return rng.multivariate_normal(mu, Sigma, size=size)


def q_invchisq_draws(rng, q_eta, size):
    kappa, lam = -2.0 * q_eta[0] - 2.0, -2.0 * q_eta[1]
    return stats.invgamma.rvs(a=0.5 * kappa, scale=0.5 * lam, size=size, random_state=rng)


def test_gaussian_prior_logp_monte_carlo(rng):
    mu0, Sigma0 = rng.normal(size=3), random_spd(rng, 3)
    spec = GaussianPriorSpec(mu0, Sigma0)
    q_eta = mvn_eta(rng.normal(size=3), 0.5 * random_spd(rng, 3))
    vals = stats.multivariate_normal.logpdf(
        q_mvn_draws(rng, q_eta, 3, 200_000), mu0, Sigma0
    )
    se = vals.std() / np.sqrt(vals.size)
    assert gaussian_prior_logp(spec, q_eta) == pytest.approx(vals.mean(), abs=5 * se)


def test_inverse_wishart_prior_logp_monte_carlo_scalar(rng):
    spec = InverseWishartPriorSpec(1.0, [[1e-2]])
    q_eta = invchisq_eta(6.0, 4.0)
    draws = q_invchisq_draws(rng, q_eta, 200_000)
    vals = stats.invgamma.logpdf(draws, a=0.5, scale=0.5e-2)
    se = vals.std() / np.sqrt(vals.size)
    assert inverse_wishart_prior_logp(spec, q_eta) == pytest.approx(vals.mean(), abs=5 * se)


def test_inverse_wishart_prior_logp_monte_carlo_matrix(rng):
    Lam = random_spd(rng, 2)
    spec = InverseWishartPriorSpec(4.0, Lam, graph_kind=TOTALLY_CONNECTED)
    q_kappa, q_Lam = 9.0, random_spd(rng, 2)
    q_eta = iw_eta(q_kappa, q_Lam)
    draws = stats.invwishart(df=q_kappa, scale=q_Lam).rvs(size=100_000, random_state=rng)
    vals = stats.invwishart(df=4.0, scale=Lam).logpdf(np.moveaxis(draws, 0, -1))
    se = vals.std() / np.sqrt(vals.size)
    assert inverse_wishart_prior_logp(spec, q_eta) == pytest.approx(vals.mean(), abs=5 * se)


def test_iterated_igw_logp_monte_carlo_scalar(rng):
    kappa = 1.0
    spec = IteratedIGWSpec(SCALAR_D1, kappa)
    q1, q2 = invchisq_eta(7.0, 3.0), invchisq_eta(5.0, 2.0)
    th1 = q_invchisq_draws(rng, q1, 200_000)
    th2 = q_invchisq_draws(rng, q2, 200_000)
    # theta1 | theta2 ~ Inv-chi^2(kappa, 1/theta2)
    vals = stats.invgamma.logpdf(th1, a=0.5 * kappa, scale=0.5 / th2)
    se = vals.std() / np.sqrt(vals.size)
    assert iterated_igw_logp(spec, q1, q2) == pytest.approx(vals.mean(), abs=5 * se)


def test_iterated_igw_logp_monte_carlo_matrix(rng):
    d, kappa = 2, 3.0
    spec = IteratedIGWSpec(TOTALLY_CONNECTED, kappa, d, TOTALLY_CONNECTED)
    q1 = iw_eta(8.0, random_spd(rng, d))
    q2 = iw_eta(9.0, random_spd(rng, d))
    n = 40_000
    k1, L1 = 8.0, -2.0 * q1[1:].reshape(2, 2, order="F")
    k2, L2 = 9.0, -2.0 * q2[1:].reshape(2, 2, order="F")
    th1 = stats.invwishart(df=k1, scale=L1).rvs(size=n, random_state=rng)
    th2 = stats.invwishart(df=k2, scale=L2).rvs(size=n, random_state=rng)
    vals = np.array(
        [
            stats.invwishart(df=kappa, scale=np.linalg.inv(t2)).logpdf(t1)
            for t1, t2 in zip(th1, th2)
        ]
    )
    se = vals.std() / np.sqrt(vals.size)
    assert iterated_igw_logp(spec, q1, q2) == pytest.approx(vals.mean(), abs=5 * se)


def test_penalization_logp_monte_carlo(rng):
    mu0, Sigma0 = rng.normal(size=1), random_spd(rng, 1)
    spec = GaussianPenalizationSpec(mu0, Sigma0, (PenalizedBlock(2, 1, SCALAR_D1),))
    q_coef = mvn_eta(rng.normal(size=3), 0.3 * random_spd(rng, 3))
    q_th = invchisq_eta(9.0, 5.0)
    coefs = q_mvn_draws(rng, q_coef, 3, 200_000)
    th = q_invchisq_draws(rng, q_th, 200_000)
    vals = (
        stats.norm.logpdf(coefs[:, 0], mu0[0], np.sqrt(Sigma0[0, 0]))
        + stats.norm.logpdf(coefs[:, 1], 0.0, np.sqrt(th))
        + stats.norm.logpdf(coefs[:, 2], 0.0, np.sqrt(th))
    )
    se = vals.std() / np.sqrt(vals.size)
    got = gaussian_penalization_logp(spec, q_coef, [q_th])
    assert got == pytest.approx(vals.mean(), abs=5 * se)


def test_likelihood_logp_monte_carlo(rng):
    spec = make_likelihood(rng, n=5, d=2)
    q_coef = mvn_eta(rng.normal(size=2), 0.4 * random_spd(rng, 2))
    q_var = invchisq_eta(10.0, 6.0)
    coefs = q_mvn_draws(rng, q_coef, 2, 200_000)
    v = q_invchisq_draws(rng, q_var, 200_000)
    resid = spec.y[None, :] - coefs @ spec.A.T
    vals = np.sum(stats.norm.logpdf(resid, scale=np.sqrt(v)[:, None]), axis=1)
    se = vals.std() / np.sqrt(vals.size)
    got = gaussian_likelihood_logp(spec, q_coef, q_var)
    assert got == pytest.approx(vals.mean(), abs=5 * se)


def test_likelihood_logp_fixed_variance_closed_form(rng):
    A = rng.normal(size=(4, 2))
    y = rng.normal(size=4)
    spec = GaussianLikelihoodSpec(y, A, sigma_sq_fixed=1.7)
    mu, Sigma = rng.normal(size=2), 0.2 * random_spd(rng, 2)
    q_eta = mvn_eta(mu, Sigma)
    # E log N(y; A theta, s2 I) has a closed form under q = N(mu, Sigma)
    s2 = 1.7
    expect = (
        -0.5 * 4 * np.log(2 * np.pi * s2)
        - 0.5 / s2 * (np.sum((y - A @ mu) ** 2) + np.trace(A @ Sigma @ A.T))
    )
    assert gaussian_likelihood_logp(spec, q_eta) == pytest.approx(expect, rel=1e-10)
