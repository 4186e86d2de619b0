"""Exponential-family catalog in natural-parameter coordinates.

Eight families, each identified by a string tag plus (for the matrix-variate
ones) a dimension d.  For a member with density

    p(x) = h(x) exp{ eta^T T(x) - A(eta) }

this module supplies the natural <-> common parameter maps, E{T(x)},
differential entropy, the log partition A, and E{log h} under the member
itself.  Sufficient statistics follow the column-stacking (vec) convention of
:mod:`semivmp.natparam` for matrix arguments.

Vectors that do not correspond to a normalizable density ("improper") are
representable — message passing sums them freely — but every operation that
interprets the vector as a distribution raises ImproperParameterError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import psi as _scipy_psi, expi as _scipy_expi, gammaln, expit

from .natparam import (
    SpdFactorizationError,
    chol_logdet,
    chol_solve,
    spd_chol,
    spd_inverse,
    spd_logdet,
    symmetrize,
    vec,
    vec_inverse,
    mvn_moments_from_natural,
)

BERNOULLI = "bernoulli"
UNIVARIATE_NORMAL = "univariate_normal"
INVERSE_CHI_SQUARED = "inverse_chi_squared"
BETA = "beta"
INVERSE_GAUSSIAN = "inverse_gaussian"
MULTIVARIATE_NORMAL = "multivariate_normal"
INVERSE_WISHART = "inverse_wishart"
INVERSE_G_WISHART_DIAG = "inverse_g_wishart_diag"

_LOG_2PI = float(np.log(2.0 * np.pi))


class ImproperParameterError(ValueError):
    """Natural vector does not identify a proper (normalizable) member."""


class UnknownFamilyError(ValueError):
    pass


def eta_length(family, d=1):
    if family == BERNOULLI:
        return 1
    if family in (UNIVARIATE_NORMAL, INVERSE_CHI_SQUARED, BETA, INVERSE_GAUSSIAN):
        return 2
    if family == MULTIVARIATE_NORMAL:
        return d + d * d
    if family in (INVERSE_WISHART, INVERSE_G_WISHART_DIAG):
        return 1 + d * d
    raise UnknownFamilyError(family)


@dataclass(frozen=True)
class NatParam:
    """A natural-parameter vector tagged with its family (and dimension)."""

    family: str
    eta: np.ndarray
    d: int = 1

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "eta", e)
        if e.size != eta_length(self.family, self.d):
            raise ValueError(
                f"{self.family}(d={self.d}) wants eta of length "
                f"{eta_length(self.family, self.d)}, got {e.size}"
            )
        if not np.isfinite(e).all():
            raise ValueError(f"non-finite natural parameter for {self.family}")

    def matrix_block(self):
        """The trailing d*d entries as a (symmetrized) matrix."""
        if self.family == MULTIVARIATE_NORMAL:
            return symmetrize(vec_inverse(self.eta[self.d:], self.d))
        if self.family in (INVERSE_WISHART, INVERSE_G_WISHART_DIAG):
            return symmetrize(vec_inverse(self.eta[1:], self.d))
        raise UnknownFamilyError(f"{self.family} has no matrix block")


def digamma(x):
    """psi(x) for x > 0 (delegates to scipy; the domain check is ours)."""
    xa = np.asarray(x, dtype=float)
    if (xa <= 0.0).any():
        raise ValueError("digamma requires a positive argument")
    out = _scipy_psi(xa)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def scaled_ei_neg(z):
    """exp(z) * Ei(-z) for z > 0, stable for large z.

    The direct product underflows/overflows once exp(z) does; past z=500 a
    continued fraction for exp(z)*E1(z) takes over (E1(z) = -Ei(-z)).
    """
    z = float(z)
    if z <= 0.0:
        raise ValueError("scaled_ei_neg wants z > 0")
    if z < 500.0:
        return float(np.exp(z) * _scipy_expi(-z))
    # modified Lentz on E1's continued fraction: e^z E1(z) = 1/(z+1- 1/(z+3- 4/(z+5- ...)))
    tiny = 1e-300
    f = tiny
    C = f
    D = 0.0
    b = z + 1.0
    a = 1.0
    for k in range(1, 80):
        D = b + a * D
        if D == 0.0:
            D = tiny
        C = b + a / C
        if C == 0.0:
            C = tiny
        D = 1.0 / D
        delta = C * D
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
        a = -(k * k)
        b = z + 2.0 * k + 1.0
    return -f  # Ei(-z) = -E1(z)


# ---------------------------------------------------------------------------
# properness


def is_proper(x: NatParam) -> bool:
    e, d = x.eta, x.d
    if x.family == BERNOULLI:
        return True
    if x.family == UNIVARIATE_NORMAL:
        return e[1] < 0.0
    if x.family == INVERSE_CHI_SQUARED:
        return e[0] < -1.0 and e[1] < 0.0
    if x.family == BETA:
        return e[0] > -1.0 and e[1] > -1.0
    if x.family == INVERSE_GAUSSIAN:
        return e[0] < 0.0 and e[1] < 0.0
    if x.family == MULTIVARIATE_NORMAL:
        try:
            spd_chol(-2.0 * x.matrix_block(), context=f"properness[{x.family}]")
            return True
        except SpdFactorizationError:
            return False
    if x.family == INVERSE_WISHART:
        return inverse_wishart_factor(e, d) is not None
    if x.family == INVERSE_G_WISHART_DIAG:
        return e[0] < -1.0 and bool((np.diag(x.matrix_block()) < 0.0).all())
    raise UnknownFamilyError(x.family)


def inverse_wishart_factor(eta, d):
    """The Cholesky factor of -M for an inverse-Wishart natural vector
    (eta[0], vec M), or None when the vector is improper: eta[0] >= -d or
    -M not positive definite.  One factor decides properness and gives
    log det(-M) and (-M)^{-1}."""
    if not eta[0] < -d:
        return None
    try:
        return spd_chol(-symmetrize(vec_inverse(eta[1:], d)), context="inverse wishart")
    except SpdFactorizationError:
        return None


def inverse_wishart_inverse_mean(eta, factor, d):
    """E{Theta^{-1}} = (eta[0] + (d+1)/2) M^{-1} of a proper inverse-Wishart
    vector, from ``factor = inverse_wishart_factor(eta, d)``."""
    return (eta[0] + 0.5 * (d + 1.0)) * -symmetrize(chol_solve(factor, np.eye(d)))


def _improper(x: NatParam):
    return ImproperParameterError(
        f"improper {x.family}(d={x.d}) natural parameter {np.array2string(x.eta, precision=4)}"
    )


def _require_proper(x: NatParam):
    if not is_proper(x):
        raise _improper(x)


# ---------------------------------------------------------------------------
# parameter maps


def common_to_natural(family, common, d=None) -> NatParam:
    """Map a dict of common parameters to the natural vector.

    Keys by family: bernoulli {p}; univariate_normal {mu, sigma_sq};
    inverse_chi_squared {kappa, lam}; beta {alpha, beta};
    inverse_gaussian {mu, lam}; multivariate_normal {mu, Sigma};
    inverse_wishart / inverse_g_wishart_diag {kappa, Lambda}.
    """
    if family == BERNOULLI:
        p = float(common["p"])
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie strictly inside (0, 1)")
        return NatParam(family, [np.log(p / (1.0 - p))])
    if family == UNIVARIATE_NORMAL:
        mu, s2 = float(common["mu"]), float(common["sigma_sq"])
        if s2 <= 0.0:
            raise ValueError("sigma_sq must be positive")
        return NatParam(family, [mu / s2, -0.5 / s2])
    if family == INVERSE_CHI_SQUARED:
        kappa, lam = float(common["kappa"]), float(common["lam"])
        if kappa <= 0.0 or lam <= 0.0:
            raise ValueError("kappa and lam must be positive")
        return NatParam(family, [-0.5 * (kappa + 2.0), -0.5 * lam])
    if family == BETA:
        a, b = float(common["alpha"]), float(common["beta"])
        if a <= 0.0 or b <= 0.0:
            raise ValueError("alpha and beta must be positive")
        return NatParam(family, [a - 1.0, b - 1.0])
    if family == INVERSE_GAUSSIAN:
        mu, lam = float(common["mu"]), float(common["lam"])
        if mu <= 0.0 or lam <= 0.0:
            raise ValueError("mu and lam must be positive")
        return NatParam(family, [-0.5 * lam / mu**2, -0.5 * lam])
    if family == MULTIVARIATE_NORMAL:
        mu = np.atleast_1d(np.asarray(common["mu"], dtype=float))
        Sigma = np.atleast_2d(np.asarray(common["Sigma"], dtype=float))
        dd = mu.size if d is None else d
        Sinv = spd_inverse(Sigma, context="common_to_natural[mvn]")
        return NatParam(family, np.concatenate([Sinv @ mu, -0.5 * vec(Sinv)]), dd)
    if family in (INVERSE_WISHART, INVERSE_G_WISHART_DIAG):
        kappa = float(common["kappa"])
        Lam = np.atleast_2d(np.asarray(common["Lambda"], dtype=float))
        dd = Lam.shape[0] if d is None else d
        if family == INVERSE_WISHART and kappa <= dd - 1:
            raise ValueError(f"kappa must exceed d-1={dd - 1}")
        if family == INVERSE_G_WISHART_DIAG:
            if np.any(np.abs(Lam - np.diag(np.diag(Lam))) > 0.0):
                raise ValueError("Lambda must be diagonal for the diagonal-graph family")
            if kappa + dd - 1 <= 0.0:
                raise ValueError("per-diagonal shape kappa+d-1 must be positive")
        return NatParam(
            family, np.concatenate([[-0.5 * (kappa + dd + 1.0)], -0.5 * vec(Lam)]), dd
        )
    raise UnknownFamilyError(family)


def natural_to_common(x: NatParam) -> dict:
    """Invert :func:`common_to_natural`; requires a proper vector."""
    _require_proper(x)
    e, d = x.eta, x.d
    if x.family == BERNOULLI:
        return {"p": float(expit(e[0]))}
    if x.family == UNIVARIATE_NORMAL:
        s2 = -0.5 / e[1]
        return {"mu": float(e[0] * s2), "sigma_sq": float(s2)}
    if x.family == INVERSE_CHI_SQUARED:
        return {"kappa": float(-2.0 - 2.0 * e[0]), "lam": float(-2.0 * e[1])}
    if x.family == BETA:
        return {"alpha": float(e[0] + 1.0), "beta": float(e[1] + 1.0)}
    if x.family == INVERSE_GAUSSIAN:
        return {"mu": float(np.sqrt(e[1] / e[0])), "lam": float(-2.0 * e[1])}
    if x.family == MULTIVARIATE_NORMAL:
        mu, Sigma = mvn_moments_from_natural(e, d, context="natural_to_common[mvn]")
        return {"mu": mu, "Sigma": Sigma}
    if x.family == INVERSE_WISHART:
        return {"kappa": float(-d - 1.0 - 2.0 * e[0]), "Lambda": -2.0 * x.matrix_block()}
    if x.family == INVERSE_G_WISHART_DIAG:
        # per-diagonal members are Inverse-chi^2 with shape kappa+d-1 and the
        # matching diagonal of Lambda
        return {
            "kappa": float(-d - 1.0 - 2.0 * e[0]),
            "Lambda": np.diag(-2.0 * np.diag(x.matrix_block())),
        }
    raise UnknownFamilyError(x.family)


# ---------------------------------------------------------------------------
# moments, entropy, partition


def expected_sufficient_statistic(x: NatParam) -> np.ndarray:
    if x.family == INVERSE_WISHART:
        return _inverse_wishart_statistic(x)
    _require_proper(x)
    e, d = x.eta, x.d
    if x.family == BERNOULLI:
        return np.array([expit(e[0])])
    if x.family == UNIVARIATE_NORMAL:
        return np.array(
            [-e[0] / (2.0 * e[1]), (e[0] ** 2 - 2.0 * e[1]) / (4.0 * e[1] ** 2)]
        )
    if x.family == INVERSE_CHI_SQUARED:
        return np.array(
            [np.log(-e[1]) - _scipy_psi(-e[0] - 1.0), (e[0] + 1.0) / e[1]]
        )
    if x.family == BETA:
        tot = _scipy_psi(e[0] + e[1] + 2.0)
        return np.array([_scipy_psi(e[0] + 1.0) - tot, _scipy_psi(e[1] + 1.0) - tot])
    if x.family == INVERSE_GAUSSIAN:
        return np.array(
            [np.sqrt(e[1] / e[0]), np.sqrt(e[0] / e[1]) - 1.0 / (2.0 * e[1])]
        )
    if x.family == MULTIVARIATE_NORMAL:
        mu, Sigma = mvn_moments_from_natural(e, d, context="E[T] mvn")
        return np.concatenate([mu, vec(Sigma + np.outer(mu, mu))])
    if x.family == INVERSE_G_WISHART_DIAG:
        m = np.diag(x.matrix_block())
        e_logdet = float(np.sum(np.log(-m))) - d * float(_scipy_psi(-e[0] - 1.0))
        return np.concatenate([[e_logdet], vec(np.diag((e[0] + 1.0) / m))])
    raise UnknownFamilyError(x.family)


def _inverse_wishart_statistic(x: NatParam) -> np.ndarray:
    """E{T} of an inverse-Wishart member from one Cholesky factorization of
    -M (M the matrix block)."""
    e, d = x.eta, x.d
    c = _proper_inverse_wishart_factor(x)
    js = np.arange(1, d + 1)
    e_logdet = chol_logdet(c) - float(np.sum(_scipy_psi(-e[0] - 0.5 * (d + js))))
    return np.concatenate([[e_logdet], vec(inverse_wishart_inverse_mean(e, c, d))])


def _proper_inverse_wishart_factor(x: NatParam):
    c = inverse_wishart_factor(x.eta, x.d)
    if c is None:
        raise _improper(x)
    return c


def log_partition(x: NatParam) -> float:
    _require_proper(x)
    e, d = x.eta, x.d
    if x.family == BERNOULLI:
        return float(np.logaddexp(0.0, e[0]))
    if x.family == UNIVARIATE_NORMAL:
        return float(-(e[0] ** 2) / (4.0 * e[1]) - 0.5 * np.log(-2.0 * e[1]))
    if x.family == INVERSE_CHI_SQUARED:
        return float((e[0] + 1.0) * np.log(-e[1]) + gammaln(-e[0] - 1.0))
    if x.family == BETA:
        return float(
            gammaln(e[0] + 1.0) + gammaln(e[1] + 1.0) - gammaln(e[0] + e[1] + 2.0)
        )
    if x.family == INVERSE_GAUSSIAN:
        return float(-2.0 * np.sqrt(e[0] * e[1]) - 0.5 * np.log(-2.0 * e[1]))
    if x.family == MULTIVARIATE_NORMAL:
        mu, _ = mvn_moments_from_natural(e, d, context="A(eta) mvn")
        P = -2.0 * x.matrix_block()
        return float(0.5 * mu @ e[:d] - 0.5 * spd_logdet(P, context="A(eta) mvn"))
    if x.family == INVERSE_WISHART:
        M = x.matrix_block()
        js = np.arange(1, d + 1)
        return float(
            (e[0] + 0.5 * (d + 1.0)) * spd_logdet(-M, context="A(eta) iw")
            + np.sum(gammaln(-e[0] - 0.5 * (d + js)))
        )
    if x.family == INVERSE_G_WISHART_DIAG:
        m = np.diag(x.matrix_block())
        return float((e[0] + 1.0) * np.sum(np.log(-m)) + d * gammaln(-e[0] - 1.0))
    raise UnknownFamilyError(x.family)


def entropy(x: NatParam) -> float:
    """Differential entropy; raises ImproperParameterError for an improper
    vector (an inverse-Wishart one is checked on the factor that gives its
    log det)."""
    if x.family == INVERSE_WISHART:
        e, d = x.eta, x.d
        logdet = chol_logdet(_proper_inverse_wishart_factor(x))
        a = -e[0] - 0.5 * (d + np.arange(1, d + 1))
        return float(
            np.sum(gammaln(a) + e[0] * _scipy_psi(a))
            + 0.5 * (d + 1.0) * logdet
            - d * e[0]
            - 0.5 * d * (d + 1.0)
            + 0.25 * d * (d - 1.0) * np.log(np.pi)
        )
    _require_proper(x)
    e, d = x.eta, x.d
    if x.family == BERNOULLI:
        p = expit(e[0])
        return float(np.logaddexp(0.0, e[0]) - e[0] * p)
    if x.family == UNIVARIATE_NORMAL:
        return float(0.5 * (1.0 + _LOG_2PI) + 0.5 * np.log(-0.5 / e[1]))
    if x.family == INVERSE_CHI_SQUARED:
        a = -e[0] - 1.0
        return float(gammaln(a) + e[0] * _scipy_psi(a) + np.log(-e[1]) - e[0] - 1.0)
    if x.family == BETA:
        return float(
            log_partition(x)
            - e[0] * _scipy_psi(e[0] + 1.0)
            - e[1] * _scipy_psi(e[1] + 1.0)
            + (e[0] + e[1]) * _scipy_psi(e[0] + e[1] + 2.0)
        )
    if x.family == INVERSE_GAUSSIAN:
        z = 4.0 * np.sqrt(e[0] * e[1])
        return float(
            0.5
            + 0.25 * np.log(np.pi**2 * (-e[1]) / (-e[0]) ** 3)
            + 1.5 * scaled_ei_neg(z)
        )
    if x.family == MULTIVARIATE_NORMAL:
        return mvn_entropy(d, spd_logdet(-2.0 * x.matrix_block(), context="entropy mvn"))
    if x.family == INVERSE_G_WISHART_DIAG:
        m = np.diag(x.matrix_block())
        a = -e[0] - 1.0
        per = gammaln(a) + e[0] * _scipy_psi(a) + np.log(-m) - e[0] - 1.0
        return float(np.sum(per))
    raise UnknownFamilyError(x.family)


def mvn_entropy(d, logdet_precision):
    """Entropy of a d-variate normal from the log determinant of its precision."""
    return float(0.5 * d * (1.0 + _LOG_2PI) - 0.5 * logdet_precision)


def expected_log_base(x: NatParam) -> float:
    """E{log h(x)} under the member itself (constant for most families)."""
    _require_proper(x)
    e, d = x.eta, x.d
    if x.family in (BERNOULLI, INVERSE_CHI_SQUARED, BETA, INVERSE_G_WISHART_DIAG):
        return 0.0
    if x.family == UNIVARIATE_NORMAL:
        return -0.5 * _LOG_2PI
    if x.family == INVERSE_GAUSSIAN:
        # h = (2 pi x^3)^{-1/2}; E log x = log mu + exp(z) Ei(-z), z = 4 sqrt(e1 e2)
        z = 4.0 * np.sqrt(e[0] * e[1])
        e_log_x = 0.5 * np.log(e[1] / e[0]) + scaled_ei_neg(z)
        return float(-0.5 * _LOG_2PI - 1.5 * e_log_x)
    if x.family == MULTIVARIATE_NORMAL:
        return -0.5 * d * _LOG_2PI
    if x.family == INVERSE_WISHART:
        return float(-0.25 * d * (d - 1.0) * np.log(np.pi))
    raise UnknownFamilyError(x.family)
