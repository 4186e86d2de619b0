"""Closed-form natural-parameter update rules for the conjugate-Gaussian fragments.

Five fragment kinds: multivariate normal prior, inverse-Wishart-type prior,
the iterated inverse-G-Wishart link (variance/covariance hierarchies), Gaussian
penalization of random-effect blocks, and the Gaussian likelihood.  Each update
function is pure: it maps the current inbound/outbound message vectors to fresh
outbound messages.  "Combined" vectors (inbound + outbound on the same edge)
are formed at call time from the messages passed in, and port updates inside
one factor are sequential — each later port sees the earlier ports' new
messages, which is what makes a full sweep an exact coordinate-ascent pass.

The penalization and the likelihood (with its noise variance unknown) factor
the combined coefficient vector, their node-to-factor message plus their new
message.  That is the coefficient q-density right after the update, so
through an optional ``formed`` dict they hand the vector and its moments to
the caller: the specs' ``update`` returns them, and the engine reads them in
the ELBO and ``q_density`` instead of factoring again.  Constant matrices,
the prior's Sigma, the penalization's Sigma0 and each fixed-Theta block, are
factored once, when a spec is made.

The companion ``*_logp`` functions give each factor's contribution
E_q{log factor} to the evidence lower bound.  They take a variance port's
q-density as its expected sufficient statistic E{T}, which the engine forms
once per ELBO, and a normal port's as its moments.  Each spec is also the fragment
the engine runs: its ``ports``, ``update(n2f, f2n, context)`` and
``logp(moments)`` methods call these module functions by name at call time.

The penalization and the likelihood store the coefficient vectors on their
``layout``, which the model builder sets to the coefficient node's: packed
on a TwoLevelLayout, or dense when it is None.  The engine checks the two
agree when it builds the graph.

``ScaleMove`` is not a fragment but a move (see ``engine``): the
parameter-expanded rescaling of one penalized block of a two-level
coefficient node together with its half-Cauchy variance chain.  Its
``scale_move_coefficients`` is the exact ELBO change along that path, read
off the ``*_logp`` terms above, so the best scale has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import expfam
from .expfam import NatParam
from .natparam import (
    TwoLevelLayout,
    mvn_moments,
    natural_position,
    natural_size,
    spd_inverse,
    spd_logdet,
    vec,
    vec_inverse,
)
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
    """(E{log det Theta}, E{Theta^{-1}}) for a proper variance-type vector,
    the second a d x d matrix for every kind (d=1 included)."""
    return _split_statistic(expfam.expected_sufficient_statistic(NatParam(kind, eta, d)), d)


def _split_statistic(ET, d):
    """(E{log det Theta}, E{Theta^{-1}} as a d x d matrix) from the expected
    sufficient statistic of a variance-type q-density, since
    T(Theta) = (log det Theta, vec(Theta^{-1}))."""
    return float(ET[0]), vec_inverse(ET[1:], d)


def _inverse_moment(c, d, kind, context):
    """E{Theta^{-1}} as a d x d matrix for a combined variance-type vector.

    The diagonal kinds (d=1 included) read (eta1 + 1)/eta_jj straight off the
    vector; the full covariance takes (eta1 + (d+1)/2) M^{-1} from one
    factorization of -M.
    """
    if kind == TOTALLY_CONNECTED:
        factor = expfam.inverse_wishart_factor(c, d)
        if factor is None:
            raise ImproperCombinedMessageError(context, f"eta={c}")
        return expfam.inverse_wishart_inverse_mean(c, factor, d)
    diag = c[1 :: d + 1]
    if not (c[0] < -1.0 and all(x < 0.0 for x in diag.tolist())):  # NaN fails too
        raise ImproperCombinedMessageError(context, f"eta={c}")
    E = np.zeros((d, d))
    E.flat[:: d + 1] = (c[0] + 1.0) / diag
    return E


def _variance_message(lead, M, kind):
    """The message (lead, -1/2 vec(M)) to a variance node of ``kind``, with M
    projected onto what that node carries (off-diagonals dropped for the
    diagonal graph), written into one array."""
    d = M.shape[0]
    msg = np.zeros(1 + d * d)
    msg[0] = lead
    if kind == TOTALLY_DISCONNECTED:
        msg[1 :: d + 1] = -0.5 * M.diagonal()
    else:
        msg[1:] = -0.5 * M.ravel(order="F")
    return msg


def _log_iw_norm(d, kappa):
    """log of the inverse-Wishart normalizer piece that depends on (d, kappa) only."""
    js = np.arange(1, d + 1)
    return float(0.5 * kappa * d * np.log(2.0) + np.sum(gammaln(0.5 * (kappa + 1.0 - js))))


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class GaussianPriorSpec:
    """Constant prior N(mu, Sigma); Sigma^{-1} and log det Sigma are factored
    once, when the spec is made."""

    mu: np.ndarray
    Sigma: np.ndarray
    Sinv: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_Sigma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "Sigma", np.atleast_2d(np.asarray(self.Sigma, dtype=float)))
        if self.Sigma.shape != (self.mu.size, self.mu.size):
            raise ValueError("Sigma must be square and match mu")
        object.__setattr__(self, "Sinv", spd_inverse(self.Sigma, context="gaussian prior Sigma"))
        object.__setattr__(self, "logdet_Sigma", spd_logdet(self.Sigma, context="gaussian prior Sigma"))

    @property
    def d(self):
        return self.mu.size

    def ports(self):
        return [(expfam.MULTIVARIATE_NORMAL, self.d)]

    def update(self, n2f, f2n, context):
        return self, [gaussian_prior_message(self)], {}

    def logp(self, moments):
        return gaussian_prior_logp(self, moments[0])


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

    def update(self, n2f, f2n, context):
        return self, [inverse_wishart_prior_message(self)], {}

    def logp(self, moments):
        return inverse_wishart_prior_logp(self, moments[0])


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

    def update(self, n2f, f2n, context):
        msg1, msg2 = iterated_igw_messages(self, n2f[0], n2f[1], f2n[0], f2n[1], context=context)
        return self, [msg1, msg2], {}

    def logp(self, moments):
        return iterated_igw_logp(self, moments[0], moments[1])


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
    N(mu0, Sigma0) and independent N(0, I_m kron Theta_l) penalties.

    ``layout`` is the coefficient node's TwoLevelLayout, if any: the
    coefficient vectors are then packed on it.  ``positions`` holds, once per
    spec, where S0^{-1} (a d0 x d0 array) and each block's Omega_l (an
    (m, d, d) array) sit in the coefficient natural vector stored that way;
    the update writes the message there and reads the covariance there.
    ``S0inv`` and ``logdet_Sigma0`` are factored once per spec too, and so
    is each fixed-Theta block: ``fixed_expectations`` holds, per block,
    (log det Theta, Theta^{-1}) of its fixed Theta, or None for a
    stochastic block."""

    mu0: np.ndarray
    Sigma0: np.ndarray
    blocks: tuple
    layout: TwoLevelLayout | None = None
    positions: tuple = field(init=False, repr=False, compare=False)
    S0inv: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_Sigma0: float = field(init=False, repr=False, compare=False)
    fixed_expectations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu0", np.atleast_1d(np.asarray(self.mu0, dtype=float)))
        object.__setattr__(self, "Sigma0", np.atleast_2d(np.asarray(self.Sigma0, dtype=float)))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        context = "gaussian penalization Sigma0"
        object.__setattr__(self, "S0inv", spd_inverse(self.Sigma0, context=context))
        object.__setattr__(self, "logdet_Sigma0", spd_logdet(self.Sigma0, context=context))
        fixed_expectations = []
        for i, b in enumerate(self.blocks):
            if b.fixed_Theta is None:
                fixed_expectations.append(None)
                continue
            Th = np.atleast_2d(np.asarray(b.fixed_Theta, dtype=float))
            where = f"gaussian penalization fixed block {i}"
            fixed_expectations.append((spd_logdet(Th, context=where), spd_inverse(Th, context=where)))
        object.__setattr__(self, "fixed_expectations", tuple(fixed_expectations))
        p, fixed = self.total_dim, np.arange(self.d0)
        positions = [natural_position(fixed[:, None], fixed[None, :], p, self.layout)]
        for _, cols in _block_columns(self):
            positions.append(natural_position(cols[:, :, None], cols[:, None, :], p, self.layout))
        object.__setattr__(self, "positions", tuple(positions))

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

    def update(self, n2f, f2n, context):
        formed = {}
        msg_coef, msgs_theta = gaussian_penalization_messages(
            self, n2f[0], n2f[1:], f2n[0], f2n[1:], context=context, formed=formed
        )
        return self, [msg_coef, *msgs_theta], formed

    def logp(self, moments):
        return gaussian_penalization_logp(self, moments[0], moments[1:])


@dataclass(frozen=True)
class GaussianLikelihoodSpec:
    """y | theta1, theta2 ~ N(A theta1, theta2 I); theta2 may be a known constant.

    The fragment is its sufficient statistics: n, A^T y, y^T y and A^T A,
    the last stored as the theta1 node stores its precision, a d x d array
    or, on ``layout``, its packed pattern entries.  :meth:`from_design`
    forms them from a dense A; ``build_group_curves`` accumulates the packed
    ones group by group.  ``natural`` is (A^T y, -1/2 A^T A) stored the same
    way, the theta1 message at unit noise precision."""

    n: int
    Aty: np.ndarray
    yty: float
    AtA: np.ndarray
    layout: TwoLevelLayout | None = None
    sigma_sq_fixed: float | None = None
    natural: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Aty = np.atleast_1d(np.asarray(self.Aty, dtype=float))
        AtA = np.asarray(self.AtA, dtype=float)
        lay = self.layout
        shape = (Aty.size, Aty.size) if lay is None else (lay.packed_size - lay.p,)
        if self.n < 1 or AtA.shape != shape or (lay is not None and Aty.size != lay.p):
            raise ValueError(
                f"likelihood statistics do not fit: n={self.n}, A^T y of length {Aty.size}, "
                f"A^T A of shape {AtA.shape}"
            )
        object.__setattr__(self, "Aty", Aty)
        object.__setattr__(self, "AtA", AtA)
        object.__setattr__(self, "yty", float(self.yty))
        quad = vec(AtA) if self.layout is None else AtA
        object.__setattr__(self, "natural", np.concatenate([Aty, -0.5 * quad]))

    @classmethod
    def from_design(cls, y, A, sigma_sq_fixed=None):
        """The likelihood of y on the dense design A."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[0] != y.size or y.size < 1:
            raise ValueError("A rows must match y length (and n >= 1)")
        return cls(y.size, A.T @ y, float(y @ y), A.T @ A, sigma_sq_fixed=sigma_sq_fixed)

    @property
    def d(self):
        return self.Aty.size

    def ports(self):
        if self.sigma_sq_fixed is None:
            return [(expfam.MULTIVARIATE_NORMAL, self.d), (expfam.INVERSE_CHI_SQUARED, 1)]
        return [(expfam.MULTIVARIATE_NORMAL, self.d)]

    def update(self, n2f, f2n, context):
        formed = {}
        n2f_var, f2n_var = (n2f[1], f2n[1]) if len(n2f) > 1 else (None, None)
        msg1, msg2 = gaussian_likelihood_messages(
            self, n2f[0], n2f_var, f2n[0], f2n_var, context=context, formed=formed
        )
        return self, [msg1] if msg2 is None else [msg1, msg2], formed

    def logp(self, moments):
        ET_var = moments[1] if len(moments) > 1 else None
        return gaussian_likelihood_logp(self, moments[0], ET_var)


# ---------------------------------------------------------------------------
# message updates


def gaussian_prior_message(spec: GaussianPriorSpec):
    Sinv = spec.Sinv
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
    msg1 = _variance_message(-0.5 * (kappa + (d + 1.0)), Einv2, spec.graph_kind)
    c1 = np.asarray(eta_theta1_to_factor) + msg1
    Einv1 = _inverse_moment(c1, d, spec.graph_kind, context + " [theta1]")
    if spec.graph_kind == TOTALLY_CONNECTED:
        lead2 = -0.5 * kappa
    else:  # per-diagonal conditionals carry shape kappa + d - 1
        lead2 = -0.5 * (kappa + (d - 1.0))
    msg2 = _variance_message(lead2, Einv1, spec.theta2_kind)
    return msg1, msg2


def _penalty_precisions(spec, etas_theta_to_factor, etas_factor_to_theta, context):
    """One expected precision matrix Omega_l per block; a fixed block's
    Theta^{-1} was factored when the spec was made."""
    omegas = []
    k = 0
    for b, fixed in zip(spec.blocks, spec.fixed_expectations):
        if fixed is not None:
            omegas.append(fixed[1])
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


def _second_moments(moments, cols, pos):
    """E{theta_k theta_k^T} = Sigma_kk + mu_k mu_k^T for each row k of cols,
    as an (m, d, d) array; pos holds the positions of the Sigma_kk entries."""
    mu = moments.mu[cols]
    return moments.covariance_at(pos) + mu[:, :, None] * mu[:, None, :]


def gaussian_penalization_messages(
    spec: GaussianPenalizationSpec,
    eta_coef_to_factor,
    etas_theta_to_factor,
    eta_factor_to_coef,
    etas_factor_to_theta,
    context="gaussian penalization",
    formed=None,
):
    """Updated (factor->coefficients, [factor->Theta_l ...]) messages.

    etas_theta_to_factor / etas_factor_to_theta list only the stochastic
    blocks, in block order; fixed-Theta blocks contribute their known
    precision to the coefficient message and receive nothing.  The
    coefficient vectors are stored as on ``spec.layout`` (dense when None);
    S0^{-1} and each Omega_l are written at ``spec.positions``.  A dict
    ``formed`` receives, under port 0, the combined coefficient vector and
    the moments this update factored it into.
    """
    p = spec.total_dim
    S0inv = spec.S0inv
    omegas = _penalty_precisions(spec, etas_theta_to_factor, etas_factor_to_theta, context)

    msg_coef = np.zeros(natural_size(p, spec.layout))
    msg_coef[: spec.d0] = S0inv @ spec.mu0
    msg_coef[spec.positions[0]] = -0.5 * S0inv
    for pos, Om in zip(spec.positions[1:], omegas):
        msg_coef[pos] = -0.5 * Om

    c_coef = np.asarray(eta_coef_to_factor) + msg_coef
    moments = mvn_moments(c_coef, p, f"{context} combined coefficients", spec.layout)
    if formed is not None:
        formed[0] = (c_coef, moments)

    msgs_theta = []
    for (b, cols), pos in zip(_block_columns(spec), spec.positions[1:]):
        if b.fixed_Theta is not None:
            continue
        S = _second_moments(moments, cols, pos).sum(axis=0)
        msgs_theta.append(_variance_message(-0.5 * b.m, S, b.kind))
    return msg_coef, msgs_theta


def gaussian_likelihood_messages(
    spec: GaussianLikelihoodSpec,
    eta_theta1_to_factor,
    eta_theta2_to_factor,
    eta_factor_to_theta1,
    eta_factor_to_theta2,
    context="gaussian likelihood",
    formed=None,
):
    """Updated (factor->theta1, factor->theta2) messages; theta2 parts are None
    when sigma_sq_fixed pins the noise variance.  theta1's vectors are stored
    as its A^T A is: packed on ``spec.layout``, or dense when that is None.
    With theta2 unknown, a dict ``formed`` receives, under port 0, the
    combined theta1 vector and the moments this update factored it into."""
    if spec.sigma_sq_fixed is not None:
        return spec.natural * (1.0 / spec.sigma_sq_fixed), None
    c2 = np.asarray(eta_theta2_to_factor) + np.asarray(eta_factor_to_theta2)
    w = _inverse_moment(c2, 1, SCALAR_D1, context + " [variance]")[0, 0]  # E{1/theta2}
    msg1 = spec.natural * w
    c1 = np.asarray(eta_theta1_to_factor) + msg1
    moments = mvn_moments(c1, spec.d, context + " [coefficients]", spec.layout)
    if formed is not None:
        formed[0] = (c1, moments)
    msg2 = np.array([-0.5 * spec.n, moments.expected_quadratic(spec.AtA, spec.Aty, spec.yty)])
    return msg1, msg2


# ---------------------------------------------------------------------------
# ELBO contributions: E_q{log factor}


def gaussian_prior_logp(spec: GaussianPriorSpec, moments):
    """E_q{log N(theta; mu, Sigma)} from the moments of q."""
    d = spec.d
    Sinv = spec.Sinv
    log_norm = (
        -0.5 * d * _LOG_2PI
        - 0.5 * spec.logdet_Sigma
        - 0.5 * float(spec.mu @ Sinv @ spec.mu)
    )
    return moments.expected_quadratic(Sinv, Sinv @ spec.mu, 0.0) + log_norm


def inverse_wishart_prior_logp(spec: InverseWishartPriorSpec, ET):
    """E_q{log prior} from E{T} of q; E{log h} is taken under the prior,
    as for these families it depends on the family and d only."""
    msg = inverse_wishart_prior_message(spec)
    prior = NatParam(spec.graph_kind, msg, spec.d)
    return float(msg @ ET) - expfam.log_partition(prior) + expfam.expected_log_base(prior)


def iterated_igw_logp(spec: IteratedIGWSpec, ET_theta1, ET_theta2):
    """E_q{log link factor} from E{T} of q(Theta1) and q(Theta2)."""
    kappa, d = spec.kappa, spec.d_Theta
    Elogdet2, Einv2 = _split_statistic(ET_theta2, d)
    coeff = _variance_message(-0.5 * (kappa + (d + 1.0)), Einv2, spec.graph_kind)
    if spec.graph_kind == TOTALLY_CONNECTED:
        return (
            float(coeff @ ET_theta1)
            - 0.5 * kappa * Elogdet2
            - _log_iw_norm(d, kappa)
            - 0.25 * d * (d - 1.0) * np.log(np.pi)
        )
    kt = kappa + (d - 1.0)  # per-diagonal shape
    return (
        float(coeff @ ET_theta1)
        - 0.5 * kt * Elogdet2
        - d * (0.5 * kt * np.log(2.0) + float(gammaln(0.5 * kt)))
    )


def gaussian_penalization_logp(spec: GaussianPenalizationSpec, moments, ETs_theta):
    """E_q{log penalization factor} from the moments of q(coefficients),
    stored as on ``spec.layout``, and E{T} of each stochastic block's
    q(Theta_l), in block order."""
    d0 = spec.d0
    S0inv = spec.S0inv
    dm = moments.mu[:d0] - spec.mu0
    Sigma00 = moments.covariance_at(spec.positions[0])
    total = (
        -0.5 * d0 * _LOG_2PI
        - 0.5 * spec.logdet_Sigma0
        - 0.5 * (float(dm @ S0inv @ dm) + float(np.sum(S0inv * Sigma00)))
    )
    ETs = iter(ETs_theta)
    blocks = zip(_block_columns(spec), spec.positions[1:], spec.fixed_expectations)
    for (b, cols), pos, fixed in blocks:
        Elogdet, Einv = fixed if fixed is not None else _split_statistic(next(ETs), b.d)
        total += -0.5 * b.m * b.d * _LOG_2PI - 0.5 * b.m * Elogdet
        total += -0.5 * float(np.sum(_second_moments(moments, cols, pos) * Einv))
    return float(total)


def gaussian_likelihood_logp(spec: GaussianLikelihoodSpec, moments, ET_var=None):
    """E_q{log likelihood factor} from the moments of q(theta1), stored as on
    ``spec.layout`` (two-level moments read A^T A packed), with E{T} of
    q(theta2) when the noise variance is unknown."""
    gv = moments.expected_quadratic(spec.AtA, spec.Aty, spec.yty)
    n = spec.n
    if spec.sigma_sq_fixed is not None:
        s2 = spec.sigma_sq_fixed
        return gv / s2 - 0.5 * n * (np.log(s2) + _LOG_2PI)
    return ET_var[1] * gv - 0.5 * n * float(ET_var[0]) - 0.5 * n * _LOG_2PI


# ---------------------------------------------------------------------------
# the scale move of a penalized block and its variance chain


@dataclass(frozen=True)
class ScaleMove:
    """Parameter-expanded scale move (Qi & Jaakkola, NIPS 2006; PX-EM, Liu,
    Rubin & Wu, Biometrika 1998) of a penalized block u of a two-level
    coefficient node, together with u's scalar variance theta and theta's
    auxiliary variance a (the half-Cauchy chain).

    For alpha > 0 it moves q(u) to the law of alpha u (mu_u -> alpha mu_u,
    Sigma -> D Sigma D with D = diag(alpha on u, 1 elsewhere)), q(theta) to
    that of alpha^2 theta and q(a) to that of a / alpha^2.  Along this path
    the ELBO changes by exactly c2 (alpha^2 - 1) + c1 (alpha - 1) + b log alpha
    (:func:`scale_move_coefficients`), which is concave in alpha, so the
    best alpha is the positive root of 2 c2 alpha^2 + c1 alpha + b = 0.

    ``block`` is the slice of u's positions within each group's block of
    ``likelihood.layout``; ``a_prior`` is the prior factor of a.  ``nodes``
    names (coef, noise variance of the likelihood, a), the nodes whose
    moments or E{T} :meth:`apply` reads, and ``edges`` the (factor, node)
    edges into the three moved nodes, as (written, other) pairs for coef,
    theta and a: the move writes its change into the first edge of each
    pair, the penalization -> coef, link -> theta and prior -> a messages.
    """

    likelihood: GaussianLikelihoodSpec
    a_prior: InverseWishartPriorSpec
    block: slice
    nodes: tuple
    edges: tuple

    def __post_init__(self):
        if self.likelihood.layout is None or self.a_prior.d != 1:
            raise ValueError("a scale move needs a two-level coefficient node and a scalar chain")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        if len(self.nodes) != 3 or len(self.edges) != 6:
            raise ValueError("a scale move reads 3 nodes and 6 edges")

    @property
    def layout(self):
        return self.likelihood.layout

    def apply(self, expectations, messages):
        """The move to the best alpha, in place, when the ELBO gains by it.
        ``expectations`` holds the moments of q(coef) and E{T} of the other
        two ``nodes``; ``messages`` the messages of ``edges``.  Returns
        {coef node: its moments, moved} after a move, else None, with
        nothing changed."""
        moments, ET_noise, ET_a = expectations
        c2, c1, b = scale_move_coefficients(self, moments, ET_noise, ET_a)
        alpha = scale_move_alpha(c2, c1, b)
        if not scale_move_gain(c2, c1, b, alpha) > 0.0:
            return None
        self.rescale(alpha, moments, messages)
        return {self.nodes[0]: moments}

    def rescale(self, alpha, moments, messages):
        """Move the three q-densities to ``alpha``: each change goes into
        the written message of its pair, and the moments of q(coef) become
        the D-scaled ones.  Done in place, one pass per block of the packed
        vector: the ufuncs of each update run with ``where`` set to u's
        columns of the first part, u's rows of each iG block and u's rows
        and columns of each ii block, whose entries scale by 1/alpha
        (1/alpha^2 where a row and a column of u meet), and the moments by
        alpha (alpha^2).  No entry outside u's rows and columns is touched:
        Sigma_GG and the Schur factor do not move (u has no global column),
        and the log det of the precision falls by 2 |u| log alpha."""
        lay, u = self.layout, self.block
        coef, coef_other, theta, theta_other, a, a_other = messages
        in_u = np.zeros(lay.q, dtype=bool)
        in_u[u] = True
        on_mu = np.zeros(lay.p, dtype=bool)  # masks of the first part and of one group's blocks
        on_mu[lay.groups[:, in_u]] = True
        on_iG, on_ii = in_u[:, None], in_u[:, None] | in_u
        scale_ii = np.where(in_u[:, None] & in_u, alpha * alpha, alpha)
        (_, iG, ii), (_, other_iG, other_ii) = lay.split(coef[lay.p :]), lay.split(coef_other[lay.p :])
        _rescale_sum(coef[: lay.p], coef_other[: lay.p], 1.0 / alpha, on_mu)
        _rescale_sum(iG, other_iG, 1.0 / alpha, on_iG)
        _rescale_sum(ii, other_ii, 1.0 / scale_ii, on_ii)
        _rescale_sum(theta[1:], theta_other[1:], alpha * alpha)
        _rescale_sum(a[1:], a_other[1:], 1.0 / (alpha * alpha))
        np.multiply(moments.mu, alpha, out=moments.mu, where=on_mu)
        moments.Sigma_iG[:, u] *= alpha
        np.multiply(moments.Sigma_ii, scale_ii, out=moments.Sigma_ii, where=on_ii)
        moments.logdet -= 2.0 * int(np.count_nonzero(on_mu)) * float(np.log(alpha))


def _rescale_sum(written, other, s, where=True):
    """written -> (written + other) s - other, in place where ``where``
    holds: the sum of the two messages scaled by s, with the change in
    ``written``."""
    np.add(written, other, out=written, where=where)
    np.multiply(written, s, out=written, where=where)
    np.subtract(written, other, out=written, where=where)


def scale_move_coefficients(move: ScaleMove, moments, ET_noise, ET_a):
    """(c2, c1, b) of the ELBO change c2 (alpha^2 - 1) + c1 (alpha - 1)
    + b log alpha along ``move``, from the moments of q(coef) and E{T} of
    q(noise variance) and q(a).

    Two terms change with alpha^2 or alpha.  With w = E{1/sigma^2} of the
    noise, Q = A^T A, r = A^T y, E = Sigma + mu mu^T and o the columns other
    than u, the likelihood's w E{-1/2 |y - A theta|^2} is
    w (-1/2 (alpha^2 T_uu + 2 alpha T_uo + T_oo) + alpha r_u^T mu_u + r_o^T mu_o)
    with T_uu = tr(Q_uu E_uu) and T_uo = tr(Q_uo E_ou) (Q is zero between
    groups, so both sum over each group's rows of u); and the a-prior's
    -1/2 Lambda E{1/a} is multiplied by alpha^2.  Every other term moves
    by a multiple of log alpha: the entropy of q(coef) gains |u| and the
    penalization's -1/2 |u| E{log theta} loses |u| (its E{u^T u} E{1/theta}
    does not move); the entropy of q(theta) gains 2, the link's
    -1/2 (kappa + 2) E{log theta} - 1/2 kappa E{log a} loses 2 (its
    E{1/a} E{1/theta} does not move), the entropy of q(a) loses 2 and the
    a-prior's -1/2 (kappa_a + 2) E{log a} gains kappa_a + 2.  So b = kappa_a.
    """
    lay, u = move.layout, move.block
    _, Q_iG, Q_ii = lay.split(move.likelihood.AtA)
    mu_G, mu_I = moments.mu[lay.glob], moments.mu[lay.groups]
    mu_u, Q_uG, Q_uI, Q_uu = mu_I[:, u], Q_iG[:, u], Q_ii[:, u], Q_ii[:, u, u]
    # tr(Q E) on u's rows: against the global columns, its group's columns and u's own
    QG_mu = (Q_iG.reshape(-1, lay.g) @ mu_G).reshape(lay.m, lay.q)[:, u]  # Q_uG mu_G
    rows_G = np.einsum("ika,ika->", Q_uG, moments.Sigma_iG[:, u])
    rows_G += np.vdot(mu_u, QG_mu)
    rows_I = np.einsum("ikl,ikl->", Q_uI, moments.Sigma_ii[:, u])
    rows_I += np.vdot(mu_u, np.einsum("ikl,il->ik", Q_uI, mu_I))
    T_uu = np.einsum("ikl,ikl->", Q_uu, moments.Sigma_ii[:, u, u])
    T_uu += np.vdot(mu_u, np.einsum("ikl,il->ik", Q_uu, mu_u))
    w = float(ET_noise[1])
    r_u = move.likelihood.Aty[lay.groups[:, u]]
    c2 = -0.5 * (w * T_uu + float(move.a_prior.Lambda[0, 0]) * float(ET_a[1]))
    c1 = w * (float(np.sum(r_u * mu_u)) - (rows_G + rows_I - T_uu))
    return float(c2), float(c1), float(move.a_prior.kappa)


def scale_move_alpha(c2, c1, b):
    """The positive root of 2 c2 alpha^2 + c1 alpha + b = 0 (c2 < 0 < b, so
    there is one), in the form without cancellation for the sign of c1."""
    root = np.sqrt(c1 * c1 - 8.0 * c2 * b)
    return float(2.0 * b / (root - c1) if c1 <= 0.0 else (c1 + root) / (-4.0 * c2))


def scale_move_gain(c2, c1, b, alpha):
    """c2 (alpha^2 - 1) + c1 (alpha - 1) + b log alpha, accurate near alpha = 1."""
    d = alpha - 1.0
    return float(d * (c2 * (alpha + 1.0) + c1) + b * np.log1p(d))
