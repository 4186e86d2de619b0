"""Likelihood fragments for non-Gaussian responses.

Three updates, all emitting multivariate-normal natural-parameter messages to
the coefficient node: a tangent (variational-bound) logistic fragment, a
probit fragment that integrates out truncated-normal auxiliaries in closed
form, and a fixed-point Poisson fragment for the log link.  Each update is
pure: it takes the current fragment state plus the two message vectors on the
coefficient edge and returns the state to keep and a fresh outbound message.
Only the logistic state changes: it carries the tangent points xi that its
ELBO term reads.  Every row quadratic form a_i^T S a_i goes through
``natparam.row_quadratic``, one matrix product over the n rows; the probit
state holds its constant A^T A, so the probit ELBO term is a trace.
Each state is also the fragment the engine runs: its ``ports``, ``update``
and ``logp`` methods call these module functions by name at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln, log_ndtr

from .expfam import MULTIVARIATE_NORMAL
from .natparam import mvn_moments_from_natural, row_quadratic, vec, vec_inverse

_LOG_2PI = float(np.log(2.0 * np.pi))

OVERFLOW_LIMIT = 700.0


class LinearPredictorOverflowError(ArithmeticError):
    """A linear predictor left the range where a GLM fragment is meaningful.

    Raised when exp() of the Poisson linear predictor would overflow, or when
    a binary (logistic or probit) fit's mean linear predictor exceeds the
    same limit in magnitude.  Past it exp(-|A mu|) is below 1e-304, so every
    fitted probability is 0 or 1 to double precision and further growth
    fits nothing.  This is a modeling signal, not a numerics bug, so it is
    raised instead of silently clipping.  Completely separated binary data
    under a flat coefficient prior also diverge, but slowly: at 200 sweeps
    their max |A mu| is tens, so such a fit returns unconverged instead.
    """

    def __init__(self, worst):
        self.worst = float(worst)
        super().__init__(
            f"linear predictor {worst:.3g} exceeds {OVERFLOW_LIMIT:g}; the fit is "
            "diverging: consider damping (rho < 1) or a tighter coefficient prior"
        )


def _check_linear_predictor(worst):
    if worst > OVERFLOW_LIMIT:
        raise LinearPredictorOverflowError(worst)


def _check_binary(y):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binary response must contain only 0/1 values")
    return y


class _GlmFragment:
    """The one port every GLM fragment has: the coefficient node."""

    # unit precision instead of the engine's 10^-2: the exp-moment updates of
    # the count/binary fragments diverge when the first combined density has
    # variance ~100 on the coefficient scale
    start_precision = 1.0

    def ports(self):
        return [(MULTIVARIATE_NORMAL, self.A.shape[1])]


@dataclass(frozen=True)
class LogisticFragmentState(_GlmFragment):
    y: np.ndarray
    A: np.ndarray
    xi: np.ndarray = None

    def __post_init__(self):
        y = _check_binary(self.y)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        xi = np.ones(y.size) if self.xi is None else np.atleast_1d(np.asarray(self.xi, dtype=float))
        if np.any(xi < 0):
            raise ValueError("xi must be nonnegative")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "xi", xi)

    def update(self, n2f, f2n, nodes, context):
        state, msg = jaakkola_jordan_update(self, f2n[0], n2f[0])
        return state, [msg]

    def logp(self, q_etas, moments):
        return jaakkola_jordan_elbo(self, q_etas[0], moments=moments[0])


@dataclass(frozen=True)
class ProbitFragmentState(_GlmFragment):
    y: np.ndarray
    A: np.ndarray
    AtA: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = _check_binary(self.y)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "AtA", A.T @ A)  # the constant message precision

    def update(self, n2f, f2n, nodes, context):
        state, msg = albert_chib_update(self, f2n[0], n2f[0])
        return state, [msg]

    def logp(self, q_etas, moments):
        return albert_chib_elbo(self, q_etas[0], moments=moments[0])


@dataclass(frozen=True)
class PoissonFragmentState(_GlmFragment):
    y: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("count response must contain nonnegative integers")
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)

    def update(self, n2f, f2n, nodes, context):
        state, msg = knowles_minka_wand_update(self, f2n[0], n2f[0])
        return state, [msg]

    def logp(self, q_etas, moments):
        return knowles_minka_wand_elbo(self, q_etas[0], moments=moments[0])


def _q_moments(state, q_eta, moments, context):
    """(mu, Sigma) of q(theta): from ``moments`` (dense) when the caller has
    them already, else from one factorization of q_eta."""
    if moments is None:
        return mvn_moments_from_natural(q_eta, state.A.shape[1], context=context)
    return moments.mu, moments.Sigma


def _combined_moments(state, eta_factor_to_theta, eta_theta_to_factor, context):
    eta = np.asarray(eta_factor_to_theta) + np.asarray(eta_theta_to_factor)
    d = state.A.shape[1]
    return mvn_moments_from_natural(eta, d, context=context)


def tangent_weight(xi):
    """tanh(xi/2)/(4 xi), with the removable xi=0 singularity filled by series.

    Even in xi, valued in (0, 1/8].
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty_like(xi)
    small = np.abs(xi) < 1e-4
    xs = xi[small]
    out[small] = 0.125 - xs**2 / 96.0 + xs**4 / 960.0
    xl = xi[~small]
    out[~small] = np.tanh(0.5 * xl) / (4.0 * xl)
    return out


def tangent_offset(xi):
    """Constant term of the quadratic logistic lower bound at tilt xi."""
    xi = np.asarray(xi, dtype=float)
    return 0.5 * xi - np.logaddexp(0.0, xi) + tangent_weight(xi) * xi**2


def jaakkola_jordan_update(state: LogisticFragmentState, eta_factor_to_theta, eta_theta_to_factor):
    mu, Sigma = _combined_moments(state, eta_factor_to_theta, eta_theta_to_factor, "logistic fragment")
    A = state.A
    _check_linear_predictor(float(np.max(np.abs(A @ mu))))
    Xi = Sigma + np.outer(mu, mu)  # second moment of the combined coefficient density
    xi = np.sqrt(np.maximum(row_quadratic(A, Xi), 0.0))
    W = tangent_weight(xi)
    msg = np.concatenate([A.T @ (state.y - 0.5), -vec(A.T @ (W[:, None] * A))])
    return replace(state, xi=xi), msg


def zeta_prime(x):
    """phi(x)/Phi(x), the N(0,1) density over its cdf, stable on [-40, 40].

    Moderate arguments go through log space; deep left-tail arguments use the
    classical continued fraction for the Mills ratio, giving
    zeta_prime(x) ~ -x + 1/x for x << 0.
    """
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
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def albert_chib_update(state: ProbitFragmentState, eta_factor_to_theta, eta_theta_to_factor):
    mu, _ = _combined_moments(state, eta_factor_to_theta, eta_theta_to_factor, "probit fragment")
    A = state.A
    nu = A @ mu
    _check_linear_predictor(float(np.max(np.abs(nu))))
    sgn = 2.0 * state.y - 1.0
    shifted = nu + sgn * zeta_prime(sgn * nu)  # truncated-normal means, auxiliaries integrated out
    msg = np.concatenate([A.T @ shifted, -0.5 * vec(state.AtA)])
    return state, msg


def knowles_minka_wand_update(state: PoissonFragmentState, eta_factor_to_theta, eta_theta_to_factor):
    mu, Sigma = _combined_moments(state, eta_factor_to_theta, eta_theta_to_factor, "poisson fragment")
    A = state.A
    lin = A @ mu + 0.5 * row_quadratic(A, Sigma)
    _check_linear_predictor(float(np.max(lin)))
    omega = np.exp(lin)
    AtOA = A.T @ (omega[:, None] * A)
    first = A.T @ (state.y - omega) + AtOA @ mu
    msg = np.concatenate([first, -0.5 * vec(AtOA)])
    return state, msg


# ---------------------------------------------------------------------------
# ELBO contributions: E_q{log p(y | theta)} (exact or lower bound)


def jaakkola_jordan_elbo(state: LogisticFragmentState, q_eta, moments=None):
    """Tangent lower bound on the logistic log likelihood under q; ``moments``
    are q's dense moments when the caller has them already."""
    mu, Sigma = _q_moments(state, q_eta, moments, "logistic elbo")
    A = state.A
    second = row_quadratic(A, Sigma + np.outer(mu, mu))
    W = tangent_weight(state.xi)
    return float((state.y - 0.5) @ (A @ mu) - W @ second + np.sum(tangent_offset(state.xi)))


def albert_chib_elbo(state: ProbitFragmentState, q_eta, moments=None):
    """Exact E_q log p(y | theta) for the probit model with the auxiliaries
    collapsed; truncated-normal entropies cancel the cross terms.  ``moments``
    are q's dense moments when the caller has them already.  The sum of the
    row forms a_i^T Sigma a_i is the trace tr(Sigma A^T A)."""
    mu, Sigma = _q_moments(state, q_eta, moments, "probit elbo")
    sgn = 2.0 * state.y - 1.0
    return float(np.sum(log_ndtr(sgn * (state.A @ mu))) - 0.5 * np.sum(state.AtA * Sigma))


def knowles_minka_wand_elbo(state: PoissonFragmentState, q_eta, moments=None):
    """E_q log p(y | theta) for the Poisson log-link model; ``moments`` are
    q's dense moments when the caller has them already."""
    mu, Sigma = _q_moments(state, q_eta, moments, "poisson elbo")
    A = state.A
    lin = A @ mu + 0.5 * row_quadratic(A, Sigma)
    _check_linear_predictor(float(np.max(lin)))
    return float(state.y @ (A @ mu) - np.sum(np.exp(lin)) - np.sum(gammaln(state.y + 1.0)))


def kmw_local_objective(state: PoissonFragmentState, mu, Sigma, eta_other):
    """Local objective whose mu-gradient vanishes at the Poisson fixed point.

    eta_other is the sum of all non-Poisson messages into the coefficient
    node.  Sigma is held fixed; terms constant in mu are dropped.
    """
    mu = np.asarray(mu, dtype=float)
    A = state.A
    lin = A @ mu + 0.5 * row_quadratic(A, Sigma)
    eta_other = np.asarray(eta_other)
    d = mu.size
    M = vec_inverse(eta_other[d:], d)
    return float(
        state.y @ (A @ mu) - np.sum(np.exp(lin)) + eta_other[:d] @ mu + mu @ M @ mu
    )
