"""Likelihood fragments for non-Gaussian responses.

Three updates, all emitting multivariate-normal natural-parameter messages to
the coefficient node: a tangent (variational-bound) logistic fragment, a
probit fragment that integrates out truncated-normal auxiliaries in closed
form, and a fixed-point Poisson fragment for the log link.  Each update is
pure: it takes the current fragment state plus the two message vectors on the
coefficient edge and returns the state to keep and a fresh outbound message.
Each ELBO term takes the state and the dense moments of q(coefficients),
which the engine hands over.  Each state is also the fragment the engine
runs: its ``ports``, ``update(n2f, f2n, context)`` and ``logp(moments)``
methods call these module functions by name at call time.  A state declares
no ``layout``: its coefficient node is stored dense.

Every fragment reads the design A only through a row-kernel object: the
products A v and A^T r, the row quadratic forms a_i^T S a_i and the weighted
Gram A^T diag(w) A.  A state's A is either a dense array, run by
``DenseRows`` (``natparam.row_quadratic`` and matrix products), or a
``SplineDesign``: an O'Sullivan design [1, x, B(x) T] held as its predictor
x and basis alone, which the first update turns into ``SplineRows``, all
four kernels on the cubic B-spline rows (six nonzeros each) in O(n).  No
state on a spline design holds an n x p array; its dense form exists only
where ``models.design`` is asked for it.  The band is kept only in the
state the first update returns.  Each update also keeps the constants it
derives from its kernels: the logistic state keeps A^T W A and the summed
tangent offsets at the tilts it sets, so its ELBO term is a trace, and the
probit state its constant A^T A, so the probit ELBO term is a trace too.
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
            "diverging: consider damping, run_vmp(damping=...) below 1, or a tighter "
            "coefficient prior, a smaller --sigma-beta-sq in semivmp fit"
        )


def _check_linear_predictor(worst):
    if worst > OVERFLOW_LIMIT:
        raise LinearPredictorOverflowError(worst)


def _check_binary(y):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binary response must contain only 0/1 values")
    return y


@dataclass(frozen=True)
class SplineDesign:
    """The O'Sullivan design A = [1, x, B(x) T] of a basis (its transform is
    T), held as the predictor x and the basis: n + O(K^2) numbers in place of
    n (K + 2).  Its width is the basis's; the fragments run it as
    ``SplineRows(x, basis)``."""

    x: np.ndarray
    basis: object = field(repr=False)

    @property
    def shape(self):
        return (self.x.size, self.basis.transform.shape[1] + 2)


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

    def gram(self, w=None):
        """A^T diag(w) A, or A^T A without w."""
        return self.A.T @ (self.A if w is None else w[:, None] * self.A)


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
        interval = np.searchsorted(knots, x, side="right")
        interval -= 4
        np.minimum(interval, J - 1, out=interval)
        counts = np.bincount(interval, minlength=J)
        n_max = int(counts.max())
        # each row's position in the padded array: its interval's block, then
        # its place among that interval's rows (in row order), that is its
        # rank k in the stable sort by interval less the interval's first
        # rank; a small unsigned key gets numpy's O(n) radix sort
        self.where = np.empty(n, dtype=np.intp)
        self.where[np.argsort(interval.astype(np.min_scalar_type(J)), kind="stable")] = np.arange(n)
        self.where += (np.arange(J) * n_max - (np.cumsum(counts) - counts))[interval]
        del interval
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

    def gram(self, w=None):
        weighted = self.band if w is None else self.band * self._padded(w)[:, None, :]
        blocks = weighted @ self.band.transpose(0, 2, 1)
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


def _design(A):
    """A state's design: a ``SplineDesign`` as given, else a 2-d float array."""
    return A if isinstance(A, SplineDesign) else np.atleast_2d(np.asarray(A, dtype=float))


def _rows(state):
    """The row kernels of a state: the ones an update kept, else the spline
    rows of its ``SplineDesign``, else the dense kernels on its A."""
    if state.rows is not None:
        return state.rows
    if isinstance(state.A, SplineDesign):
        return SplineRows(state.A.x, state.A.basis)
    return DenseRows(state.A)


def _evolve(state, rows, **changes):
    """``state`` with ``changes``, and with ``rows`` when they are spline rows
    built for this update; every other field is shared, not re-validated."""
    if state.rows is None and isinstance(rows, SplineRows):
        changes["rows"] = rows
    if not changes:
        return state
    new = copy.copy(state)
    for name, value in changes.items():
        object.__setattr__(new, name, value)
    return new


@dataclass(frozen=True)
class LogisticFragmentState(_GlmFragment):
    """``A`` is a dense design or a ``SplineDesign``; the fields after
    ``xi`` are derived: ``rows`` (kept by the first update), and
    b = A^T (y - 1/2) with A^T W A and the summed tangent offsets at ``xi``
    (kept by each update; formed when absent)."""

    y: np.ndarray
    A: np.ndarray | SplineDesign
    xi: np.ndarray = None
    rows: object = field(default=None, init=False, repr=False, compare=False)
    Atb: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    AtWA: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    offset_sum: float = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        y = _check_binary(self.y)
        A = _design(self.A)
        xi = np.ones(y.size) if self.xi is None else np.atleast_1d(np.asarray(self.xi, dtype=float))
        if np.any(xi < 0):
            raise ValueError("xi must be nonnegative")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "xi", xi)

    def update(self, n2f, f2n, context):
        state, msg = jaakkola_jordan_update(self, f2n[0], n2f[0])
        return state, [msg], {}

    def logp(self, moments):
        return jaakkola_jordan_elbo(self, moments[0])


@dataclass(frozen=True)
class ProbitFragmentState(_GlmFragment):
    """``A`` and ``rows`` as for the logistic state; A^T A, the constant
    message precision, is kept by the first update (formed when absent)."""

    y: np.ndarray
    A: np.ndarray | SplineDesign
    rows: object = field(default=None, init=False, repr=False, compare=False)
    AtA: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "y", _check_binary(self.y))
        object.__setattr__(self, "A", _design(self.A))

    def update(self, n2f, f2n, context):
        state, msg = albert_chib_update(self, f2n[0], n2f[0])
        return state, [msg], {}

    def logp(self, moments):
        return albert_chib_elbo(self, moments[0])


@dataclass(frozen=True)
class PoissonFragmentState(_GlmFragment):
    """``A`` and ``rows`` as for the logistic state; ``log_y_factorial``,
    the sum of log y_i! in the ELBO term, is kept by the first update."""

    # the fixed-point update is only known to be stationary at the bound's
    # optimum, not to raise it each sweep, so run_vmp does not extrapolate it
    ascends_elbo = False

    y: np.ndarray
    A: np.ndarray | SplineDesign
    rows: object = field(default=None, init=False, repr=False, compare=False)
    log_y_factorial: float = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("count response must contain nonnegative integers")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "A", _design(self.A))

    def update(self, n2f, f2n, context):
        state, msg = knowles_minka_wand_update(self, f2n[0], n2f[0])
        return state, [msg], {}

    def logp(self, moments):
        return knowles_minka_wand_elbo(self, moments[0])


def _moments(state, eta, context):
    """(mu, Sigma) of the coefficient density with natural vector ``eta``,
    from one factorization."""
    return mvn_moments_from_natural(eta, state.A.shape[1], context=context)


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
    AtA = rows.gram() if state.AtA is None else state.AtA  # constant
    msg = np.concatenate([rows.rmatvec(shifted), -0.5 * vec(AtA)])
    return _evolve(state, rows, AtA=AtA), msg


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


def jaakkola_jordan_elbo(state: LogisticFragmentState, moments):
    """Tangent lower bound on the logistic log likelihood under q, from q's
    dense moments.  The sum of the row terms
    (y_i - 1/2) a_i^T mu - w_i a_i^T (Sigma + mu mu^T) a_i is the trace form
    b^T mu - tr(A^T W A (Sigma + mu mu^T)), with b = A^T (y - 1/2)."""
    mu, Sigma = moments.mu, moments.Sigma
    Atb, AtWA, offset_sum = state.Atb, state.AtWA, state.offset_sum
    if AtWA is None:  # no update has set xi: a state built with its tilts
        rows = _rows(state)
        Atb = rows.rmatvec(state.y - 0.5)
        AtWA = rows.gram(tangent_weight(state.xi))
        offset_sum = float(np.sum(tangent_offset(state.xi)))
    return float(Atb @ mu - np.sum(AtWA * Sigma) - mu @ AtWA @ mu + offset_sum)


def albert_chib_elbo(state: ProbitFragmentState, moments):
    """Exact E_q log p(y | theta) for the probit model with the auxiliaries
    collapsed, from q's dense moments; truncated-normal entropies cancel the
    cross terms.  The sum of the row forms a_i^T Sigma a_i is the trace
    tr(Sigma A^T A)."""
    mu, Sigma = moments.mu, moments.Sigma
    rows = _rows(state)
    AtA = rows.gram() if state.AtA is None else state.AtA
    sgn = 2.0 * state.y - 1.0
    return float(np.sum(log_ndtr(sgn * rows.matvec(mu))) - 0.5 * np.sum(AtA * Sigma))


def knowles_minka_wand_elbo(state: PoissonFragmentState, moments):
    """E_q log p(y | theta) for the Poisson log-link model, from q's dense
    moments."""
    mu, Sigma = moments.mu, moments.Sigma
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

