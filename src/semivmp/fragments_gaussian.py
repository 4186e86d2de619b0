"""Closed-form natural-parameter update rules for the conjugate-Gaussian fragments.

Five fragment kinds: multivariate normal prior, inverse-Wishart-type prior,
the iterated inverse-G-Wishart link (variance/covariance hierarchies), Gaussian
penalization of random-effect blocks, and the Gaussian likelihood.  Each update
function is pure: it maps the current inbound/outbound message vectors to fresh
outbound messages.  "Combined" vectors (inbound + outbound on the same edge)
are always formed at call time, never cached, and port updates inside one
factor are sequential — each later port sees the earlier ports' new messages,
which is what makes a full sweep an exact coordinate-ascent pass.

The companion ``*_logp`` functions give each factor's contribution
E_q{log factor} to the evidence lower bound.  Each spec is also the fragment
the engine runs: its ``ports``, ``update`` and ``logp`` methods call these
module functions by name at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import expfam
from .expfam import NatParam
from .natparam import g_vmp, mvn_moments, spd_inverse, spd_logdet, vec, vec_inverse
from .natparam import mvn_moments_from_natural  # noqa: F401  (perfbench/tracing.py wraps it here)

# A variance node's graph kind is the family of its q-density: a scalar
# variance is the d=1 member of the diagonal-graph inverse G-Wishart.
SCALAR_D1 = expfam.INVERSE_CHI_SQUARED
TOTALLY_CONNECTED = expfam.INVERSE_WISHART
TOTALLY_DISCONNECTED = expfam.INVERSE_G_WISHART_DIAG

_LOG_2PI = float(np.log(2.0 * np.pi))


class ImproperCombinedMessageError(ValueError):
    """A combined (inbound+outbound) message was not proper where the update needs it."""

    def __init__(self, context, detail=""):
        self.context = context
        super().__init__(f"improper combined message ({context}) {detail}".rstrip())


def variance_expectations(eta, d, kind):
    """(E{log det Theta}, E{Theta^{-1}}) for a proper variance-type vector.

    The second element is a float in the scalar kind and a d x d matrix
    otherwise.  Both are read off the expected sufficient statistic of the
    matching family, since T(Theta) = (log det Theta, vec(Theta^{-1})).
    """
    nat = NatParam(kind, eta, d)
    ET = expfam.expected_sufficient_statistic(nat)
    if kind == SCALAR_D1:
        return float(ET[0]), float(ET[1])
    return float(ET[0]), vec_inverse(ET[1:], d)


def _inverse_moment(c, d, kind, context):
    """E{Theta^{-1}} as a d x d matrix for a combined variance-type vector.

    The diagonal kinds (d=1 included) read (eta1 + 1)/eta_jj straight off the
    vector; the full covariance goes through its expected sufficient statistic.
    """
    if kind == TOTALLY_CONNECTED:
        try:
            return variance_expectations(c, d, kind)[1]
        except expfam.ImproperParameterError as err:
            raise ImproperCombinedMessageError(context, str(err)) from None
    diag = c[1 :: d + 1]
    if not (c[0] < -1.0 and diag.max() < 0.0):
        raise ImproperCombinedMessageError(context, f"eta={c}")
    return np.diag((c[0] + 1.0) / diag)


def _project(M, kind):
    """Drop entries a receiving node cannot carry (off-diagonals for diagonal graphs)."""
    if kind == TOTALLY_DISCONNECTED:
        return np.diag(np.diag(M))
    return M


def _log_iw_norm(d, kappa):
    """log of the inverse-Wishart normalizer piece that depends on (d, kappa) only."""
    js = np.arange(1, d + 1)
    return float(0.5 * kappa * d * np.log(2.0) + np.sum(gammaln(0.5 * (kappa + 1.0 - js))))


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class GaussianPriorSpec:
    mu: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "Sigma", np.atleast_2d(np.asarray(self.Sigma, dtype=float)))
        if self.Sigma.shape != (self.mu.size, self.mu.size):
            raise ValueError("Sigma must be square and match mu")

    @property
    def d(self):
        return self.mu.size

    def ports(self):
        return [(expfam.MULTIVARIATE_NORMAL, self.d)]

    def update(self, n2f, f2n, nodes, context):
        return self, [gaussian_prior_message(self)]

    def logp(self, q_etas, moments):
        return gaussian_prior_logp(self, q_etas[0], moments=moments[0])


@dataclass(frozen=True)
class InverseWishartPriorSpec:
    """Constant prior factor for a variance/covariance node; graph_kind is
    the receiving node's family (d=1 is the inverse-chi-squared prior)."""

    kappa: float
    Lambda: np.ndarray
    graph_kind: str = SCALAR_D1

    def __post_init__(self):
        object.__setattr__(self, "Lambda", np.atleast_2d(np.asarray(self.Lambda, dtype=float)))
        if self.graph_kind == SCALAR_D1 and self.Lambda.shape != (1, 1):
            raise ValueError("scalar prior wants a 1x1 Lambda")

    @property
    def d(self):
        return self.Lambda.shape[0]

    def ports(self):
        return [(self.graph_kind, self.d)]

    def update(self, n2f, f2n, nodes, context):
        return self, [inverse_wishart_prior_message(self)]

    def logp(self, q_etas, moments):
        return inverse_wishart_prior_logp(self, q_etas[0])


@dataclass(frozen=True)
class IteratedIGWSpec:
    """Link factor Theta1 | Theta2 ~ Inverse-G-Wishart(G, kappa, Theta2^{-1}).

    graph_kind is the family of Theta1, set by its graph G; theta2_kind is
    the family of the Theta2 node (needed to project matrix expectations onto
    what that node can carry).  The scalar half-Cauchy link is the d=1 case of
    the diagonal graph.
    """

    graph_kind: str
    kappa: float
    d_Theta: int = 1
    theta2_kind: str = SCALAR_D1

    def ports(self):
        return [
            (self.graph_kind, self.d_Theta),
            (self.theta2_kind, self.d_Theta),
        ]

    def update(self, n2f, f2n, nodes, context):
        msg1, msg2 = iterated_igw_messages(self, n2f[0], n2f[1], f2n[0], f2n[1], context=context)
        return self, [msg1, msg2]

    def logp(self, q_etas, moments):
        return iterated_igw_logp(self, q_etas[0], q_etas[1])


@dataclass(frozen=True)
class PenalizedBlock:
    m: int
    d: int = 1
    kind: str = SCALAR_D1
    fixed_Theta: np.ndarray | None = None

    @property
    def size(self):
        return self.m * self.d


@dataclass(frozen=True)
class GaussianPenalizationSpec:
    """Joint prior on (theta_0, theta_1, ..., theta_L): fixed-effects block
    N(mu0, Sigma0) and independent N(0, I_m kron Theta_l) penalties."""

    mu0: np.ndarray
    Sigma0: np.ndarray
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu0", np.atleast_1d(np.asarray(self.mu0, dtype=float)))
        object.__setattr__(self, "Sigma0", np.atleast_2d(np.asarray(self.Sigma0, dtype=float)))
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def d0(self):
        return self.mu0.size

    @property
    def total_dim(self):
        return self.d0 + sum(b.size for b in self.blocks)

    def stochastic_blocks(self):
        return [b for b in self.blocks if b.fixed_Theta is None]

    def ports(self):
        return [(expfam.MULTIVARIATE_NORMAL, self.total_dim)] + [
            (b.kind, b.d) for b in self.stochastic_blocks()
        ]

    def update(self, n2f, f2n, nodes, context):
        msg_coef, msgs_theta = gaussian_penalization_messages(
            self, n2f[0], n2f[1:], f2n[0], f2n[1:], context=context, layout=nodes[0].layout
        )
        return self, [msg_coef, *msgs_theta]

    def logp(self, q_etas, moments):
        return gaussian_penalization_logp(self, q_etas[0], q_etas[1:], moments=moments[0])


@dataclass(frozen=True)
class GaussianLikelihoodSpec:
    """y | theta1, theta2 ~ N(A theta1, theta2 I); theta2 may be a known constant."""

    y: np.ndarray
    A: np.ndarray
    sigma_sq_fixed: float | None = None

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.shape[0] != y.size or y.size < 1:
            raise ValueError("A rows must match y length (and n >= 1)")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "AtA", A.T @ A)
        object.__setattr__(self, "Aty", A.T @ y)
        object.__setattr__(self, "yty", float(y @ y))

    @property
    def n(self):
        return self.y.size

    @property
    def d(self):
        return self.A.shape[1]

    def ports(self):
        if self.sigma_sq_fixed is None:
            return [(expfam.MULTIVARIATE_NORMAL, self.d), (expfam.INVERSE_CHI_SQUARED, 1)]
        return [(expfam.MULTIVARIATE_NORMAL, self.d)]

    def update(self, n2f, f2n, nodes, context):
        n2f_var, f2n_var = (n2f[1], f2n[1]) if len(n2f) > 1 else (None, None)
        msg1, msg2 = gaussian_likelihood_messages(
            self, n2f[0], n2f_var, f2n[0], f2n_var, context=context, layout=nodes[0].layout
        )
        return self, [msg1] if msg2 is None else [msg1, msg2]

    def logp(self, q_etas, moments):
        q_var = q_etas[1] if len(q_etas) > 1 else None
        return gaussian_likelihood_logp(self, q_etas[0], q_var, moments=moments[0])


# ---------------------------------------------------------------------------
# message updates


def gaussian_prior_message(spec: GaussianPriorSpec):
    Sinv = spd_inverse(spec.Sigma, context="gaussian prior Sigma")
    return np.concatenate([Sinv @ spec.mu, -0.5 * vec(Sinv)])


def inverse_wishart_prior_message(spec: InverseWishartPriorSpec):
    d = spec.d
    return np.concatenate([[-0.5 * (spec.kappa + d + 1.0)], -0.5 * vec(spec.Lambda)])


def iterated_igw_messages(
    spec: IteratedIGWSpec,
    eta_theta1_to_factor,
    eta_theta2_to_factor,
    eta_factor_to_theta1,
    eta_factor_to_theta2,
    context="iterated igw",
):
    """Updated (factor->Theta1, factor->Theta2) messages.

    The Theta1 update reads E{Theta2^{-1}} off the combined Theta2 vector; the
    Theta2 update then reads E{Theta1^{-1}} off the combined Theta1 vector
    formed with the new factor->Theta1 message.
    """
    kappa, d = spec.kappa, spec.d_Theta
    c2 = np.asarray(eta_theta2_to_factor) + np.asarray(eta_factor_to_theta2)
    Einv2 = _inverse_moment(c2, d, spec.theta2_kind, context + " [theta2]")
    msg1 = np.concatenate(
        [[-0.5 * (kappa + (d + 1.0))], -0.5 * vec(_project(Einv2, spec.graph_kind))]
    )
    c1 = np.asarray(eta_theta1_to_factor) + msg1
    Einv1 = _inverse_moment(c1, d, spec.graph_kind, context + " [theta1]")
    if spec.graph_kind == TOTALLY_CONNECTED:
        lead2 = -0.5 * kappa
    else:  # per-diagonal conditionals carry shape kappa + d - 1
        lead2 = -0.5 * (kappa + (d - 1.0))
    msg2 = np.concatenate([[lead2], -0.5 * vec(_project(Einv1, spec.theta2_kind))])
    return msg1, msg2


def _penalty_precisions(spec, etas_theta_to_factor, etas_factor_to_theta, context):
    """One expected precision matrix Omega_l per block, honoring fixed blocks."""
    omegas = []
    k = 0
    for b in spec.blocks:
        if b.fixed_Theta is not None:
            Th = np.atleast_2d(np.asarray(b.fixed_Theta, dtype=float))
            omegas.append(spd_inverse(Th, context=f"{context} fixed block"))
            continue
        c = np.asarray(etas_theta_to_factor[k]) + np.asarray(etas_factor_to_theta[k])
        omegas.append(_inverse_moment(c, b.d, b.kind, f"{context} block {k}"))
        k += 1
    return omegas


def _block_columns(spec):
    """Each penalized block with its (m, d) array of coefficient columns."""
    off = spec.d0
    for b in spec.blocks:
        yield b, off + np.arange(b.size).reshape(b.m, b.d)
        off += b.size


def _second_moments(moments, cols):
    """E{theta_k theta_k^T} = Sigma_kk + mu_k mu_k^T for each row k of cols,
    as an (m, d, d) array."""
    mu = moments.mu[cols]
    return moments.entries(cols[:, :, None], cols[:, None, :]) + mu[:, :, None] * mu[:, None, :]


def gaussian_penalization_messages(
    spec: GaussianPenalizationSpec,
    eta_coef_to_factor,
    etas_theta_to_factor,
    eta_factor_to_coef,
    etas_factor_to_theta,
    context="gaussian penalization",
    layout=None,
):
    """Updated (factor->coefficients, [factor->Theta_l ...]) messages.

    etas_theta_to_factor / etas_factor_to_theta list only the stochastic
    blocks, in block order; fixed-Theta blocks contribute their known
    precision to the coefficient message and receive nothing.  ``layout``
    (the coefficient node's TwoLevelLayout, if any) selects the two-level
    moments of the combined coefficient density.
    """
    p = spec.total_dim
    d0 = spec.d0
    S0inv = spd_inverse(spec.Sigma0, context=f"{context} Sigma0")
    omegas = _penalty_precisions(spec, etas_theta_to_factor, etas_factor_to_theta, context)

    precision = np.zeros((p, p))
    precision[:d0, :d0] = S0inv
    off = d0
    for b, Om in zip(spec.blocks, omegas):
        blk = np.kron(np.eye(b.m), Om)
        precision[off : off + b.size, off : off + b.size] = blk
        off += b.size
    first = np.zeros(p)
    first[:d0] = S0inv @ spec.mu0
    msg_coef = np.concatenate([first, -0.5 * vec(precision)])

    c_coef = np.asarray(eta_coef_to_factor) + msg_coef
    moments = mvn_moments(c_coef, p, f"{context} combined coefficients", layout)

    msgs_theta = []
    for b, cols in _block_columns(spec):
        if b.fixed_Theta is not None:
            continue
        S = _second_moments(moments, cols).sum(axis=0)
        msgs_theta.append(np.concatenate([[-0.5 * b.m], -0.5 * vec(_project(S, b.kind))]))
    return msg_coef, msgs_theta


def penalty_selector(spec: GaussianPenalizationSpec, ell):
    """0/1 quadratic-form selector matrix for penalized block ell (diagnostics/tests)."""
    p = spec.total_dim
    D = np.zeros((p, p))
    off = spec.d0
    for i, b in enumerate(spec.blocks):
        if i == ell:
            ones = np.ones((b.d, b.d))
            D[off : off + b.size, off : off + b.size] = np.kron(np.eye(b.m), ones)
        off += b.size
    return D


def gaussian_likelihood_messages(
    spec: GaussianLikelihoodSpec,
    eta_theta1_to_factor,
    eta_theta2_to_factor,
    eta_factor_to_theta1,
    eta_factor_to_theta2,
    context="gaussian likelihood",
    layout=None,
):
    """Updated (factor->theta1, factor->theta2) messages; theta2 parts are None
    when sigma_sq_fixed pins the noise variance.  ``layout`` is theta1's
    TwoLevelLayout, if any; A^T A must then be zero off its pattern."""
    if spec.sigma_sq_fixed is not None:
        w = 1.0 / spec.sigma_sq_fixed
        msg1 = np.concatenate([spec.Aty * w, -0.5 * w * vec(spec.AtA)])
        return msg1, None
    c2 = np.asarray(eta_theta2_to_factor) + np.asarray(eta_factor_to_theta2)
    w = _inverse_moment(c2, 1, SCALAR_D1, context + " [variance]")[0, 0]  # E{1/theta2}
    msg1 = np.concatenate([spec.Aty, -0.5 * vec(spec.AtA)]) * w
    c1 = np.asarray(eta_theta1_to_factor) + msg1
    msg2 = np.array(
        [
            -0.5 * spec.n,
            g_vmp(c1, spec.AtA, spec.Aty, spec.yty, context + " [coefficients]", layout),
        ]
    )
    return msg1, msg2


# ---------------------------------------------------------------------------
# ELBO contributions: E_q{log factor}


def gaussian_prior_logp(spec: GaussianPriorSpec, q_eta, moments=None):
    """E_q{log N(theta; mu, Sigma)}; ``moments`` are q's moments when the
    caller has them already."""
    d = spec.d
    if moments is None:
        moments = mvn_moments(q_eta, d, "prior logp")
    Sinv = spd_inverse(spec.Sigma, context="prior logp")
    log_norm = (
        -0.5 * d * _LOG_2PI
        - 0.5 * spd_logdet(spec.Sigma, context="prior logp")
        - 0.5 * float(spec.mu @ Sinv @ spec.mu)
    )
    return moments.expected_quadratic(Sinv, Sinv @ spec.mu, 0.0) + log_norm


def inverse_wishart_prior_logp(spec: InverseWishartPriorSpec, q_eta):
    msg = inverse_wishart_prior_message(spec)
    q = NatParam(spec.graph_kind, q_eta, spec.d)
    prior = NatParam(spec.graph_kind, msg, spec.d)
    return (
        float(msg @ expfam.expected_sufficient_statistic(q))
        - expfam.log_partition(prior)
        + expfam.expected_log_base(q)
    )


def iterated_igw_logp(spec: IteratedIGWSpec, q_eta_theta1, q_eta_theta2):
    kappa, d = spec.kappa, spec.d_Theta
    Elogdet2, Einv2 = variance_expectations(q_eta_theta2, d, spec.theta2_kind)
    ET1 = expfam.expected_sufficient_statistic(NatParam(spec.graph_kind, q_eta_theta1, d))
    Einv2 = _project(np.atleast_2d(Einv2), spec.graph_kind)
    coeff = np.concatenate([[-0.5 * (kappa + (d + 1.0))], -0.5 * vec(Einv2)])
    if spec.graph_kind == TOTALLY_CONNECTED:
        return (
            float(coeff @ ET1)
            - 0.5 * kappa * Elogdet2
            - _log_iw_norm(d, kappa)
            - 0.25 * d * (d - 1.0) * np.log(np.pi)
        )
    kt = kappa + (d - 1.0)  # per-diagonal shape
    return (
        float(coeff @ ET1)
        - 0.5 * kt * Elogdet2
        - d * (0.5 * kt * np.log(2.0) + float(gammaln(0.5 * kt)))
    )


def gaussian_penalization_logp(
    spec: GaussianPenalizationSpec, q_eta_coef, q_etas_theta, moments=None
):
    """E_q{log penalization factor}; ``moments`` are q(coefficients)'s moments
    when the caller has them already."""
    if moments is None:
        moments = mvn_moments(q_eta_coef, spec.total_dim, "penalization logp")
    d0 = spec.d0
    S0inv = spd_inverse(spec.Sigma0, context="penalization logp Sigma0")
    dm = moments.mu[:d0] - spec.mu0
    fixed = np.arange(d0)
    Sigma00 = moments.entries(fixed[:, None], fixed[None, :])
    total = (
        -0.5 * d0 * _LOG_2PI
        - 0.5 * spd_logdet(spec.Sigma0, context="penalization logp Sigma0")
        - 0.5 * (float(dm @ S0inv @ dm) + float(np.sum(S0inv * Sigma00)))
    )
    k = 0
    for b, cols in _block_columns(spec):
        if b.fixed_Theta is not None:
            Th = np.atleast_2d(np.asarray(b.fixed_Theta, dtype=float))
            Elogdet = spd_logdet(Th, context="penalization logp fixed")
            Einv = spd_inverse(Th, context="penalization logp fixed")
        else:
            Elogdet, Einv = variance_expectations(q_etas_theta[k], b.d, b.kind)
            Einv = np.atleast_2d(Einv)
            k += 1
        total += -0.5 * b.m * b.d * _LOG_2PI - 0.5 * b.m * Elogdet
        total += -0.5 * float(np.sum(_second_moments(moments, cols) * Einv))
    return float(total)


def gaussian_likelihood_logp(spec: GaussianLikelihoodSpec, q_eta_coef, q_eta_var=None, moments=None):
    """E_q{log likelihood factor}; ``moments`` are q(theta1)'s moments when
    the caller has them already."""
    if moments is None:
        moments = mvn_moments(q_eta_coef, spec.d, "likelihood logp")
    gv = moments.expected_quadratic(spec.AtA, spec.Aty, spec.yty)
    n = spec.n
    if spec.sigma_sq_fixed is not None:
        s2 = spec.sigma_sq_fixed
        return gv / s2 - 0.5 * n * (np.log(s2) + _LOG_2PI)
    Elog, Einv = variance_expectations(q_eta_var, 1, SCALAR_D1)
    return Einv * gv - 0.5 * n * Elog - 0.5 * n * _LOG_2PI
