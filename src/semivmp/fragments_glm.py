"""Likelihood fragments for non-Gaussian responses.

Three updates, all emitting multivariate-normal natural-parameter messages to
the coefficient node: a tangent (variational-bound) logistic fragment, a
probit fragment that integrates out truncated-normal auxiliaries in closed
form, and a fixed-point Poisson fragment for the log link.  Each update is
pure: it takes the current fragment state plus the two message vectors on the
coefficient edge and returns the state to keep and a fresh outbound message.
Each state is also the fragment the engine runs: its ``ports``, ``update``
and ``logp`` methods call these module functions by name at call time.

Every fragment reads the design A only through a row-kernel object: the
products A v and A^T r, and for the logistic and Poisson fragments the two
O(n p^2) kernels, the row quadratic forms a_i^T S a_i and the weighted Gram
A^T diag(w) A.  ``DenseRows`` runs them on A itself (``natparam.row_quadratic``
and matrix products).  When A is an O'Sullivan spline design [1, x, Z] and the
state carries its basis, the first update builds ``SplineRows`` instead,
which runs all four on the cubic B-spline rows (six nonzeros each) in O(n)
and keeps them only in the state it returns.  The logistic state also keeps
A^T W A and the summed tangent offsets at the tilts it sets, so its ELBO term
is a trace; the probit state holds its constant A^T A, formed when the state
is built, so the probit ELBO term is a trace too.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx, gammaln, log_ndtr

from .expfam import MULTIVARIATE_NORMAL
from .natparam import mvn_moments_from_natural, row_quadratic, vec

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_SQRT_HALF = float(np.sqrt(0.5))

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


class DenseRows:
    """The row kernels of a GLM fragment on a dense design A."""

    def __init__(self, A):
        self.A = A

    def matvec(self, v):
        """A v."""
        return self.A @ v

    def rmatvec(self, r):
        """A^T r."""
        return self.A.T @ r

    def quadratic(self, S):
        """The row forms a_i^T S a_i."""
        return row_quadratic(self.A, S)

    def gram(self, w):
        """A^T diag(w) A."""
        return self.A.T @ (w[:, None] * self.A)


class SplineRows:
    """The same kernels on an O'Sullivan design, through its B-spline rows.

    Row i of A is [1, x_i, b_i] M, where b_i is the cubic B-spline row of
    x_i and M = blockdiag(I_2, T) maps the B-splines to the basis columns.
    b_i is nonzero only on the four B-splines of the knot interval j of
    x_i, so d_i = [1, x_i, b_i] touches the six columns {0, 1, 2+j .. 5+j}.
    The rows are grouped by interval and zero-padded to the largest one, an
    (intervals, 6, n_max) array D with the rows D_j of interval j in its
    columns, and each kernel is one batched matrix product over the
    intervals: a_i^T S a_i = d_i^T (M S M^T)_j d_i, A v = D_j^T (M v)_j,
    A^T r = M^T (sum_j of D_j r_j placed in the six columns of j), and
    A^T diag(w) A = M^T (sum_j of the 6 x 6 blocks D_j W_j D_j^T) M.
    """

    def __init__(self, x, basis):
        knots = basis.full_knots
        n, J = x.size, knots.size - 7  # J knot intervals
        # knots[j + 3] <= x_i < knots[j + 4], the last interval closed
        interval = np.minimum(np.searchsorted(knots, x, side="right") - 4, J - 1)
        counts = np.bincount(interval, minlength=J)
        n_max = int(counts.max())
        # each row's position in the padded array: its interval's block, then
        # its place among that interval's rows (in row order); a small
        # unsigned key gets numpy's O(n) radix sort
        order = np.argsort(interval.astype(np.min_scalar_type(J)), kind="stable")
        slot = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        self.where = np.empty(n, dtype=np.intp)
        self.where[order] = interval[order] * n_max + slot
        self.shape = (J, n_max)
        present = self._padded(1.0)
        self.band = np.empty((J, 6, n_max))
        self.band[:, 0] = present
        self.band[:, 1] = self._padded(x)
        _cubic_bsplines(self.band[:, 1], knots, [self.band[:, 2 + k] for k in range(4)])
        self.band[:, 2:] *= present[:, None, :]  # zero on the padding
        self.cols = np.column_stack(
            [np.zeros(J, dtype=np.intp), np.ones(J, dtype=np.intp),
             2 + np.arange(J)[:, None] + np.arange(4)]
        )
        P = J + 5  # columns of [1, x, B]
        self.flat = (self.cols[:, :, None] * P + self.cols[:, None, :]).ravel()
        p = basis.transform.shape[1] + 2
        self.M = np.zeros((P, p))
        self.M[[0, 1], [0, 1]] = 1.0
        self.M[2:, 2:] = basis.transform

    def _padded(self, r):
        """The length-n vector r (or a scalar) in the (intervals, n_max)
        layout, zero on the padding."""
        out = np.zeros(self.shape[0] * self.shape[1])
        out[self.where] = r
        return out.reshape(self.shape)

    def _unpadded(self, padded):
        """The length-n vector held in an (intervals, n_max) layout."""
        return padded.ravel()[self.where]

    def matvec(self, v):
        return self._unpadded((self.M @ v)[self.cols][:, None, :] @ self.band)

    def rmatvec(self, r):
        blocks = self.band @ self._padded(r)[:, :, None]
        P = self.M.shape[0]
        return self.M.T @ np.bincount(self.cols.ravel(), weights=blocks.ravel(), minlength=P)

    def quadratic(self, S):
        St = self.M @ S @ self.M.T
        forms = St[self.cols[:, :, None], self.cols[:, None, :]] @ self.band
        forms *= self.band
        return self._unpadded(forms.sum(axis=1))

    def gram(self, w):
        blocks = (self.band * self._padded(w)[:, None, :]) @ self.band.transpose(0, 2, 1)
        P = self.M.shape[0]
        X = np.bincount(self.flat, weights=blocks.ravel(), minlength=P * P).reshape(P, P)
        return self.M.T @ X @ self.M


def _cubic_bsplines(x, knots, out):
    """Write into out[0..3] the four cubic B-splines nonzero on knot interval
    j at each x[j, :] (out[k] and x are (intervals, rows) arrays), by the de
    Boor recurrence that ``BSpline.design_matrix`` runs, operation for
    operation.  The knots of interval j broadcast over its row, and each
    degree is raised in place from the top down, with two scratch arrays."""
    J = x.shape[0]

    def knot(offset):  # knots[j + 3 + offset] for every interval j
        return knots[3 + offset + np.arange(J), None]

    w, carry = np.empty_like(x), np.empty_like(x)
    out[0][...] = 1.0
    for degree in range(1, 4):
        for m in range(degree, 0, -1):  # out[m] from the old out[m - 1] and the carry of m + 1
            right, left = knot(m), knot(m - degree)
            np.divide(out[m - 1], right - left, out=w)
            np.subtract(x, left, out=out[m])
            out[m] *= w
            if m < degree:
                out[m] += carry
            np.subtract(right, x, out=carry)
            carry *= w
        out[0][...] = carry


class _GlmFragment:
    """The one port every GLM fragment has: the coefficient node."""

    # unit precision instead of the engine's 10^-2: the exp-moment updates of
    # the count/binary fragments diverge when the first combined density has
    # variance ~100 on the coefficient scale
    start_precision = 1.0

    def ports(self):
        return [(MULTIVARIATE_NORMAL, self.A.shape[1])]


def _rows(state):
    """The row kernels of a state: the spline rows an update kept, else
    spline rows built from its basis (A[:, 1] is the standardized x), else
    the dense kernels on A."""
    if state.rows is not None:
        return state.rows
    if state.basis is not None:
        return SplineRows(state.A[:, 1], state.basis)
    return DenseRows(state.A)


def _evolve(state, rows, **changes):
    """``state`` with ``changes``, and with ``rows`` when they are spline rows
    built for this update; every other field is shared, not re-validated."""
    if state.basis is not None and state.rows is None:
        changes["rows"] = rows
    if not changes:
        return state
    new = copy.copy(state)
    for name, value in changes.items():
        object.__setattr__(new, name, value)
    return new


@dataclass(frozen=True)
class LogisticFragmentState(_GlmFragment):
    """``basis`` is the O'Sullivan basis when A is [1, x, basis(x)]; the
    fields after it are derived: ``rows`` (kept by the first update on a
    basis), and b = A^T (y - 1/2) with A^T W A and the summed tangent
    offsets at ``xi`` (kept by each update; formed when absent)."""

    y: np.ndarray
    A: np.ndarray
    xi: np.ndarray = None
    basis: object = field(default=None, repr=False, compare=False)
    rows: object = field(default=None, init=False, repr=False, compare=False)
    Atb: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    AtWA: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    offset_sum: float = field(default=None, init=False, repr=False, compare=False)

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
        return state, [msg], {}

    def logp(self, q_etas, moments):
        return jaakkola_jordan_elbo(self, q_etas[0], moments=moments[0])


@dataclass(frozen=True)
class ProbitFragmentState(_GlmFragment):
    """``basis`` and ``rows`` as for the logistic state; A^T A, the constant
    message precision, is formed when the state is built."""

    y: np.ndarray
    A: np.ndarray
    basis: object = field(default=None, repr=False, compare=False)
    rows: object = field(default=None, init=False, repr=False, compare=False)
    AtA: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = _check_binary(self.y)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "AtA", A.T @ A)

    def update(self, n2f, f2n, nodes, context):
        state, msg = albert_chib_update(self, f2n[0], n2f[0])
        return state, [msg], {}

    def logp(self, q_etas, moments):
        return albert_chib_elbo(self, q_etas[0], moments=moments[0])


@dataclass(frozen=True)
class PoissonFragmentState(_GlmFragment):
    """``basis`` and ``rows`` as for the logistic state; ``log_y_factorial``,
    the sum of log y_i! in the ELBO term, is kept by the first update."""

    y: np.ndarray
    A: np.ndarray
    basis: object = field(default=None, repr=False, compare=False)
    rows: object = field(default=None, init=False, repr=False, compare=False)
    log_y_factorial: float = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("count response must contain nonnegative integers")
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)

    def update(self, n2f, f2n, nodes, context):
        state, msg = knowles_minka_wand_update(self, f2n[0], n2f[0])
        return state, [msg], {}

    def logp(self, q_etas, moments):
        return knowles_minka_wand_elbo(self, q_etas[0], moments=moments[0])


def _moments(state, eta, context, moments=None):
    """(mu, Sigma) of the coefficient density with natural vector ``eta``:
    from ``moments`` (dense) when the caller has them already, else from one
    factorization of eta."""
    if moments is None:
        return mvn_moments_from_natural(eta, state.A.shape[1], context=context)
    return moments.mu, moments.Sigma


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


def tangent_offset(xi, W=None):
    """Constant term of the quadratic logistic lower bound at tilt xi;
    ``W`` is tangent_weight(xi) when the caller has it already.

    The offset xi/2 - log(1 + e^xi) + W xi^2 is even in xi, so it is
    evaluated at |xi| as W xi^2 - |xi|/2 - log1p(e^-|xi|), which needs no
    logaddexp and never overflows."""
    xi = np.abs(np.asarray(xi, dtype=float))
    W = tangent_weight(xi) if W is None else W
    return W * xi**2 - 0.5 * xi - np.log1p(np.exp(-xi))


def jaakkola_jordan_update(state: LogisticFragmentState, eta_factor_to_theta, eta_theta_to_factor):
    mu, Sigma = _moments(state, np.add(eta_factor_to_theta, eta_theta_to_factor), "logistic fragment")
    rows = _rows(state)
    _check_linear_predictor(float(np.max(np.abs(rows.matvec(mu)))))
    Atb = rows.rmatvec(state.y - 0.5) if state.Atb is None else state.Atb  # constant
    Xi = Sigma + np.outer(mu, mu)  # second moment of the combined coefficient density
    xi = np.sqrt(np.maximum(rows.quadratic(Xi), 0.0))
    W = tangent_weight(xi)
    AtWA = rows.gram(W)
    msg = np.concatenate([Atb, -vec(AtWA)])
    offset_sum = float(np.sum(tangent_offset(xi, W)))
    return _evolve(state, rows, xi=xi, Atb=Atb, AtWA=AtWA, offset_sum=offset_sum), msg


def zeta_prime(x):
    """phi(x)/Phi(x), the N(0,1) density over its cdf, for every x.

    Phi(x) = erfc(-x/sqrt 2)/2 = exp(-x^2/2) erfcx(-x/sqrt 2)/2, so the
    Gaussian factors cancel and phi(x)/Phi(x) = sqrt(2/pi) / erfcx(-x/sqrt 2),
    one call that keeps full relative accuracy in the left tail, where it
    tends to -x + 1/x.  Above x = 37.6 or so erfcx overflows to inf and the
    ratio is 0, where the true value is already below the smallest normal
    double.
    """
    out = _SQRT_2_OVER_PI / erfcx(-_SQRT_HALF * np.asarray(x, dtype=float))
    if np.ndim(out) == 0:
        return float(out)
    return out


def albert_chib_update(state: ProbitFragmentState, eta_factor_to_theta, eta_theta_to_factor):
    mu, _ = _moments(state, np.add(eta_factor_to_theta, eta_theta_to_factor), "probit fragment")
    rows = _rows(state)
    nu = rows.matvec(mu)
    _check_linear_predictor(float(np.max(np.abs(nu))))
    sgn = 2.0 * state.y - 1.0
    shifted = nu + sgn * zeta_prime(sgn * nu)  # truncated-normal means, auxiliaries integrated out
    msg = np.concatenate([rows.rmatvec(shifted), -0.5 * vec(state.AtA)])
    return _evolve(state, rows), msg


def knowles_minka_wand_update(state: PoissonFragmentState, eta_factor_to_theta, eta_theta_to_factor):
    mu, Sigma = _moments(state, np.add(eta_factor_to_theta, eta_theta_to_factor), "poisson fragment")
    rows = _rows(state)
    lin = rows.matvec(mu) + 0.5 * rows.quadratic(Sigma)
    _check_linear_predictor(float(np.max(lin)))
    omega = np.exp(lin)
    AtOA = rows.gram(omega)
    first = rows.rmatvec(state.y - omega) + AtOA @ mu
    msg = np.concatenate([first, -0.5 * vec(AtOA)])
    kept = {} if state.log_y_factorial is not None else {"log_y_factorial": _log_y_factorial(state)}
    return _evolve(state, rows, **kept), msg


# ---------------------------------------------------------------------------
# ELBO contributions: E_q{log p(y | theta)} (exact or lower bound)


def jaakkola_jordan_elbo(state: LogisticFragmentState, q_eta, moments=None):
    """Tangent lower bound on the logistic log likelihood under q; ``moments``
    are q's dense moments when the caller has them already.  The sum of the
    row terms (y_i - 1/2) a_i^T mu - w_i a_i^T (Sigma + mu mu^T) a_i is the
    trace form b^T mu - tr(A^T W A (Sigma + mu mu^T)), with b = A^T (y - 1/2)."""
    mu, Sigma = _moments(state, q_eta, "logistic elbo", moments)
    Atb, AtWA, offset_sum = state.Atb, state.AtWA, state.offset_sum
    if AtWA is None:  # no update has set xi: a state built with its tilts
        rows = _rows(state)
        Atb = rows.rmatvec(state.y - 0.5)
        AtWA = rows.gram(tangent_weight(state.xi))
        offset_sum = float(np.sum(tangent_offset(state.xi)))
    return float(Atb @ mu - np.sum(AtWA * Sigma) - mu @ AtWA @ mu + offset_sum)


def albert_chib_elbo(state: ProbitFragmentState, q_eta, moments=None):
    """Exact E_q log p(y | theta) for the probit model with the auxiliaries
    collapsed; truncated-normal entropies cancel the cross terms.  ``moments``
    are q's dense moments when the caller has them already.  The sum of the
    row forms a_i^T Sigma a_i is the trace tr(Sigma A^T A)."""
    mu, Sigma = _moments(state, q_eta, "probit elbo", moments)
    sgn = 2.0 * state.y - 1.0
    return float(np.sum(log_ndtr(sgn * _rows(state).matvec(mu))) - 0.5 * np.sum(state.AtA * Sigma))


def knowles_minka_wand_elbo(state: PoissonFragmentState, q_eta, moments=None):
    """E_q log p(y | theta) for the Poisson log-link model; ``moments`` are
    q's dense moments when the caller has them already."""
    mu, Sigma = _moments(state, q_eta, "poisson elbo", moments)
    rows = _rows(state)
    Amu = rows.matvec(mu)
    lin = Amu + 0.5 * rows.quadratic(Sigma)
    _check_linear_predictor(float(np.max(lin)))
    log_y_factorial = state.log_y_factorial
    if log_y_factorial is None:
        log_y_factorial = _log_y_factorial(state)
    return float(state.y @ Amu - np.sum(np.exp(lin)) - log_y_factorial)


def _log_y_factorial(state: PoissonFragmentState):
    return float(np.sum(gammaln(state.y + 1.0)))

