"""Exponential-family table checks: oracle comparisons, gradient identity,
properness boundaries, and the special-function helpers."""

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from semivmp import expfam
from semivmp.expfam import (
    BERNOULLI,
    BETA,
    INVERSE_CHI_SQUARED,
    INVERSE_G_WISHART_DIAG,
    INVERSE_GAUSSIAN,
    INVERSE_WISHART,
    MULTIVARIATE_NORMAL,
    UNIVARIATE_NORMAL,
    ImproperParameterError,
    NatParam,
    UnknownFamilyError,
    common_to_natural,
    digamma,
    entropy,
    eta_length,
    expected_log_base,
    expected_sufficient_statistic,
    is_proper,
    log_partition,
    natural_to_common,
    scaled_ei_neg,
)
from semivmp.mfvb import moment_oracle
from semivmp.natparam import vec

from conftest import random_spd

# at least five settings per family, spread over the proper region
SCALAR_SETTINGS = {
    BERNOULLI: [{"p": p} for p in (0.02, 0.2, 0.5, 0.731, 0.97)],
    UNIVARIATE_NORMAL: [
        {"mu": m, "sigma_sq": s}
        for m, s in [(0.0, 1.0), (-2.0, 0.25), (5.0, 9.0), (0.3, 0.01), (100.0, 50.0)]
    ],
    INVERSE_CHI_SQUARED: [
        {"kappa": k, "lam": l}
        for k, l in [(1.0, 1.0), (3.0, 2.0), (5.0, 0.5), (10.0, 10.0), (2.5, 4.0)]
    ],
    BETA: [
        {"alpha": a, "beta": b}
        for a, b in [(1.0, 1.0), (2.0, 5.0), (0.5, 0.5), (7.0, 3.0), (20.0, 20.0)]
    ],
    INVERSE_GAUSSIAN: [
        {"mu": m, "lam": l}
        for m, l in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.8), (2.0, 10.0), (0.1, 0.3)]
    ],
}


def matrix_settings(rng):
    out = []
    for d in (1, 2, 3):
        mu = rng.normal(size=d)
        Sigma = random_spd(rng, d)
        out.append((MULTIVARIATE_NORMAL, {"mu": mu, "Sigma": Sigma}, d))
    for d, kappa in [(1, 3.0), (2, 5.0), (2, 8.5), (3, 7.0)]:
        out.append((INVERSE_WISHART, {"kappa": kappa, "Lambda": random_spd(rng, d)}, d))
    for d, kappa in [(1, 3.0), (2, 4.0), (3, 6.0)]:
        Lam = np.diag(rng.uniform(0.5, 3.0, size=d))
        out.append((INVERSE_G_WISHART_DIAG, {"kappa": kappa, "Lambda": Lam}, d))
    return out


@pytest.mark.parametrize("family", sorted(SCALAR_SETTINGS))
def test_round_trip_scalar(family):
    for common in SCALAR_SETTINGS[family]:
        x = common_to_natural(family, common)
        back = natural_to_common(x)
        for key, val in common.items():
            np.testing.assert_allclose(back[key], val, rtol=1e-12)


def test_round_trip_matrix(rng):
    for family, common, d in matrix_settings(rng):
        x = common_to_natural(family, common, d=d)
        back = natural_to_common(x)
        for key, val in common.items():
            np.testing.assert_allclose(back[key], val, rtol=1e-10, atol=1e-12)


@given(st.floats(0.01, 0.99))
def test_bernoulli_round_trip(p):
    x = common_to_natural(BERNOULLI, {"p": p})
    assert natural_to_common(x)["p"] == pytest.approx(p, rel=1e-12)


@given(st.floats(-30, 30), st.floats(1e-4, 1e4))
def test_normal_round_trip(mu, sigma_sq):
    x = common_to_natural(UNIVARIATE_NORMAL, {"mu": mu, "sigma_sq": sigma_sq})
    back = natural_to_common(x)
    assert back["mu"] == pytest.approx(mu, rel=1e-10, abs=1e-10)
    assert back["sigma_sq"] == pytest.approx(sigma_sq, rel=1e-10)


# --- oracle comparisons (quadrature for scalar families, MC for matrix) -----


@pytest.mark.parametrize("family", sorted(SCALAR_SETTINGS))
def test_suff_stat_matches_quadrature(family):
    for common in SCALAR_SETTINGS[family]:
        x = common_to_natural(family, common)
        oracle = moment_oracle(family, x.eta, method="quadrature")
        np.testing.assert_allclose(
            expected_sufficient_statistic(x), oracle.estimate, rtol=1e-8, atol=1e-10
        )


@pytest.mark.parametrize("family", sorted(SCALAR_SETTINGS))
def test_entropy_matches_quadrature(family):
    for common in SCALAR_SETTINGS[family]:
        x = common_to_natural(family, common)
        oracle = moment_oracle(family, x.eta, method="quadrature", statistic="entropy")
        np.testing.assert_allclose(entropy(x), oracle.estimate[0], rtol=1e-8, atol=1e-10)


def test_suff_stat_matrix_families_monte_carlo(rng):
    for family, common, d in matrix_settings(rng):
        x = common_to_natural(family, common, d=d)
        oracle = moment_oracle(family, x.eta, d=d, method="monte_carlo",
                               budget=60_000, seed=11)
        err = np.abs(expected_sufficient_statistic(x) - oracle.estimate)
        assert np.all(err <= 4.0 * oracle.se + 1e-12), (family, d)


def test_entropy_matrix_families_monte_carlo(rng):
    for family, common, d in matrix_settings(rng):
        x = common_to_natural(family, common, d=d)
        oracle = moment_oracle(family, x.eta, d=d, method="monte_carlo",
                               statistic="entropy", budget=60_000, seed=13)
        assert abs(entropy(x) - oracle.estimate[0]) <= 4.0 * oracle.se[0] + 1e-12, family


# --- closed-form spot checks against scipy ---------------------------------


def test_entropy_closed_forms():
    x = common_to_natural(UNIVARIATE_NORMAL, {"mu": 1.3, "sigma_sq": 4.0})
    assert entropy(x) == pytest.approx(stats.norm(1.3, 2.0).entropy(), rel=1e-12)

    x = common_to_natural(BETA, {"alpha": 2.0, "beta": 5.0})
    assert entropy(x) == pytest.approx(stats.beta(2.0, 5.0).entropy(), rel=1e-12)

    # Inverse-chi^2(kappa, lam) == inverse-gamma(kappa/2, lam/2)
    x = common_to_natural(INVERSE_CHI_SQUARED, {"kappa": 3.0, "lam": 2.0})
    assert entropy(x) == pytest.approx(stats.invgamma(1.5, scale=1.0).entropy(), rel=1e-12)

    x = common_to_natural(BERNOULLI, {"p": 0.3})
    assert entropy(x) == pytest.approx(stats.bernoulli(0.3).entropy(), rel=1e-12)


def test_mvn_entropy_closed_form(rng):
    d = 3
    Sigma = random_spd(rng, d)
    x = common_to_natural(MULTIVARIATE_NORMAL, {"mu": np.zeros(d), "Sigma": Sigma}, d=d)
    expect = 0.5 * (d * (1 + np.log(2 * np.pi)) + np.linalg.slogdet(Sigma)[1])
    assert entropy(x) == pytest.approx(expect, rel=1e-12)


def test_inverse_chi_squared_moments_closed_form():
    # x ~ Inv-chi^2(3, 2): E{1/x} = kappa/lam = 1.5
    x = common_to_natural(INVERSE_CHI_SQUARED, {"kappa": 3.0, "lam": 2.0})
    assert expected_sufficient_statistic(x)[1] == pytest.approx(1.5, rel=1e-12)


def test_bernoulli_mean_at_eta_two():
    x = NatParam(BERNOULLI, np.array([2.0]), 1)
    assert expected_sufficient_statistic(x)[0] == pytest.approx(0.8807970779778823, rel=1e-12)


def test_inverse_wishart_matches_scipy_sampling(rng):
    d, kappa = 2, 6.0
    Lam = random_spd(rng, d)
    x = common_to_natural(INVERSE_WISHART, {"kappa": kappa, "Lambda": Lam}, d=d)
    draws = stats.invwishart(df=kappa, scale=Lam).rvs(size=40_000, random_state=rng)
    # E{Theta^{-1}} = kappa * Lambda^{-1} for this df convention
    inv_mean = np.mean([np.linalg.inv(S) for S in draws], axis=0)
    np.testing.assert_allclose(inv_mean, kappa * np.linalg.inv(Lam), rtol=0.05)
    ET = expected_sufficient_statistic(x)
    np.testing.assert_allclose(ET[1:], vec(kappa * np.linalg.inv(Lam)), rtol=1e-10)


# --- gradient identity: E{T} = dA/deta --------------------------------------


def fd_gradient(f, eta, h_scale=2e-6):
    eta = np.asarray(eta, dtype=float)
    g = np.empty_like(eta)
    for i in range(eta.size):
        h = h_scale * max(1.0, abs(eta[i]))
        step = np.zeros_like(eta)
        step[i] = h
        g[i] = (f(eta + step) - f(eta - step)) / (2.0 * h)
    return g


def all_settings(rng):
    for family in sorted(SCALAR_SETTINGS):
        for common in SCALAR_SETTINGS[family]:
            yield common_to_natural(family, common)
    for family, common, d in matrix_settings(rng):
        yield common_to_natural(family, common, d=d)


def test_log_partition_gradient_is_suff_stat(rng):
    for x in all_settings(rng):
        grad = fd_gradient(lambda e: log_partition(NatParam(x.family, e, x.d)), x.eta)
        ET = expected_sufficient_statistic(x)
        rel = np.abs(grad - ET) / np.maximum(1.0, np.abs(ET))
        assert rel.max() <= 1e-5, (x.family, x.d, rel.max())


def test_entropy_identity(rng):
    # H = A(eta) - eta.E{T} - E{log h}
    for x in all_settings(rng):
        direct = (
            log_partition(x)
            - float(np.dot(x.eta, expected_sufficient_statistic(x)))
            - expected_log_base(x)
        )
        assert entropy(x) == pytest.approx(direct, rel=1e-10, abs=1e-9)


# --- properness boundaries ---------------------------------------------------


def test_properness_rules():
    assert is_proper(NatParam(BERNOULLI, np.array([50.0]), 1))
    assert is_proper(NatParam(INVERSE_CHI_SQUARED, np.array([-1.01, -0.5]), 1))
    assert not is_proper(NatParam(INVERSE_CHI_SQUARED, np.array([-1.0, -0.5]), 1))
    assert not is_proper(NatParam(INVERSE_CHI_SQUARED, np.array([-2.0, 0.0]), 1))
    assert not is_proper(NatParam(BETA, np.array([-1.0, 0.0]), 1))
    assert not is_proper(NatParam(INVERSE_GAUSSIAN, np.array([-1.0, 0.0]), 1))

    # multivariate normal: second block must give positive-definite precision
    good = np.concatenate([np.zeros(2), -0.5 * vec(np.eye(2))])
    bad = np.concatenate([np.zeros(2), 0.5 * vec(np.eye(2))])
    assert is_proper(NatParam(MULTIVARIATE_NORMAL, good, 2))
    assert not is_proper(NatParam(MULTIVARIATE_NORMAL, bad, 2))

    # inverse Wishart: eta1 < -d and SPD scale
    assert is_proper(NatParam(INVERSE_WISHART, np.concatenate([[-2.6], -0.5 * vec(np.eye(2))]), 2))
    assert not is_proper(NatParam(INVERSE_WISHART, np.concatenate([[-2.0], -0.5 * vec(np.eye(2))]), 2))

    # diagonal variant: eta1 < -1 and negative diagonal entries
    assert is_proper(
        NatParam(INVERSE_G_WISHART_DIAG, np.concatenate([[-1.5], -0.5 * vec(np.eye(2))]), 2)
    )
    assert not is_proper(
        NatParam(INVERSE_G_WISHART_DIAG, np.concatenate([[-0.5], -0.5 * vec(np.eye(2))]), 2)
    )


def test_improper_moment_request_raises():
    x = NatParam(INVERSE_CHI_SQUARED, np.array([-0.5, -0.5]), 1)
    with pytest.raises(ImproperParameterError):
        expected_sufficient_statistic(x)
    with pytest.raises(ImproperParameterError):
        entropy(x)


def test_unknown_family_raises():
    with pytest.raises(UnknownFamilyError):
        eta_length("laplace")


def test_natparam_validates_length():
    with pytest.raises(ValueError):
        NatParam(MULTIVARIATE_NORMAL, np.zeros(5), 2)  # needs 2 + 4


# --- special-function helpers ------------------------------------------------


def test_digamma_against_mpmath():
    for x in (1e-3, 0.1, 1.0, 4.5, 123.0, 1e6):
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-12)


def test_scaled_ei_neg_both_branches():
    for z in (1.0, 10.0, 100.0, 499.0, 500.0, 501.0, 600.0, 5000.0):
        expect = float(mpmath.exp(z) * mpmath.ei(-z))
        assert scaled_ei_neg(z) == pytest.approx(expect, rel=1e-9), z
