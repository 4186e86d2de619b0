"""Model builders: design matrices, spline bases, fragment wiring, curves.

Each builder returns a ModelSpec — the stochastic-node declarations plus
fragment bindings that the engine assembles into a factor graph — together
with curve-design closures for posterior summaries.  Predictors are
standardized internally for conditioning; coefficient reports and fitted
curves are mapped back to the original scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline
from scipy.stats import norm
from scipy.special import expit, ndtr

from . import expfam
from .engine import FragmentBinding, StochasticNode
from .fragments_gaussian import (
    SCALAR_D1,
    TOTALLY_CONNECTED,
    TOTALLY_DISCONNECTED,
    GaussianLikelihoodSpec,
    GaussianPenalizationSpec,
    GaussianPriorSpec,
    InverseWishartPriorSpec,
    IteratedIGWSpec,
    PenalizedBlock,
    ScaleMove,
)
from .fragments_glm import (
    LogisticFragmentState,
    PoissonFragmentState,
    ProbitFragmentState,
    SplineDesign,
)
from .natparam import TwoLevelLayout

TRUNCATED_LINEAR = "truncated_linear"
OSULLIVAN_LIKE = "osullivan_like"

LINKS = ("identity", "logit", "probit", "log")

_Z975 = float(norm.ppf(0.975))


@dataclass(frozen=True)
class Hyperparameters:
    """Default prior settings: very flat normal on fixed effects, huge
    half-Cauchy-type scale on standard deviations, and nu=2 on the covariance
    hierarchy (uniform correlation priors)."""

    sigma_beta_sq: float = 1e10
    A: float = 1e5
    nu: float = 2.0

    def __post_init__(self):
        for name in ("sigma_beta_sq", "A", "nu"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(
                    f"Hyperparameters.{name} must be finite and positive, got {value!r}"
                )


@dataclass(frozen=True)
class SplineBasis:
    knots: np.ndarray
    kind: str
    range: tuple
    transform: np.ndarray | None = None
    full_knots: np.ndarray | None = None

    def evaluate(self, x):
        """Basis columns at new points (same transform as the training design)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.range
        if np.any(x < lo) or np.any(x > hi):
            warnings.warn("evaluating spline basis outside its fitted range (extrapolation)")
        if self.kind == TRUNCATED_LINEAR:
            return np.maximum(x[:, None] - self.knots[None, :], 0.0)
        B = BSpline.design_matrix(np.clip(x, lo, hi), self.full_knots, 3).toarray()
        return B @ self.transform


@dataclass(frozen=True)
class FittedCurve:
    grid: np.ndarray
    mean: np.ndarray
    lower95: np.ndarray
    upper95: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    nodes: tuple
    fragments: tuple
    link: str
    coef_node: str
    curves: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    moves: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "fragments", tuple(self.fragments))
        object.__setattr__(self, "moves", tuple(self.moves))


def _sorted_quantiles(a, probs):
    """np.quantile(a, probs) of a sorted array, bit for bit (the linear rule:
    the lerp at (n - 1) p, from the upper end when its weight is >= 1/2),
    without the partition np.quantile runs."""
    virtual = (a.size - 1) * probs
    below = np.floor(virtual)
    gamma = virtual - below
    lo = below.astype(np.intp)
    lower, upper = a[lo], a[np.minimum(lo + 1, a.size - 1)]
    diff = upper - lower
    out = lower + diff * gamma
    np.subtract(upper, diff * (1.0 - gamma), out=out, where=gamma >= 0.5)
    return out


def _quantile_knots(ux, count, inner=False):
    """``count`` knots at equally spaced quantiles of the sorted unique x."""
    if count == 0:
        return np.array([])
    probs = np.arange(1, count + 1) / (count + 1.0)
    knots = _sorted_quantiles(ux, probs)
    if np.unique(knots).size < count:
        raise ValueError(f"too few distinct x values to place {count} knots")
    if inner and (knots[0] <= ux[0] or knots[-1] >= ux[-1]):
        raise ValueError("interior knots collide with the data range")
    return knots


def _osullivan_basis(x, ux, K):
    """The cubic B-splines on quantile knots of x (``ux``: its sorted unique
    values), with the transform T that maps them to K columns on which the
    curvature penalty is the identity (its nullspace is carried by [1, x]).
    Only the knots and the penalty are formed, not the B-spline design of x."""
    if K < 2:
        raise ValueError("osullivan_like basis needs K >= 2")
    lo, hi = float(np.min(x)), float(np.max(x))
    interior = _quantile_knots(ux, K - 2, inner=True)
    t = np.concatenate([[lo] * 4, interior, [hi] * 4])
    nb = t.size - 4

    # exact curvature penalty: B'' is piecewise linear, so 3-point Gauss-Legendre
    # per inter-knot interval integrates the products exactly
    second = BSpline(t, np.eye(nb), 3).derivative(2)
    breaks = np.unique(t[(t >= lo) & (t <= hi)])
    gl_x, gl_w = np.polynomial.legendre.leggauss(3)
    Omega = np.zeros((nb, nb))
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        pts = a + half * (gl_x + 1.0)
        Bpp = second(pts)
        Omega += (Bpp.T * (half * gl_w)) @ Bpp

    evals, evecs = np.linalg.eigh(Omega)
    pos = evals > evals[-1] * 1e-10
    if int(np.sum(pos)) != K:
        raise ValueError(
            f"curvature penalty rank {int(np.sum(pos))} != requested K={K}; knot layout degenerate"
        )
    T = evecs[:, pos] / np.sqrt(evals[pos])
    return SplineBasis(interior, OSULLIVAN_LIKE, (lo, hi), transform=T, full_knots=t)


def spline_basis(x, K, kind=TRUNCATED_LINEAR):
    """The SplineBasis of K columns with knots at quantiles of the unique x
    (x is sorted once, for the distinct-value check and the knots)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if K < 1:
        raise ValueError("K must be >= 1")
    if x.size <= K:
        raise ValueError("need n > K observations")
    ux = np.unique(x)
    if ux.size < K:
        raise ValueError("too few distinct x values")
    if kind == TRUNCATED_LINEAR:
        return SplineBasis(_quantile_knots(ux, K), kind, (float(np.min(x)), float(np.max(x))))
    if kind == OSULLIVAN_LIKE:
        return _osullivan_basis(x, ux, K)
    raise ValueError(f"unknown spline kind '{kind}'")


def spline_design(x, K, kind=TRUNCATED_LINEAR):
    """(n x K design, SplineBasis) with knots at quantiles of the unique x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    basis = spline_basis(x, K, kind)
    return basis.evaluate(x), basis


def demo_mean_function(x):
    """Smooth bump-plus-trend test function on [0, 1], scaled into (0, 1)."""
    x = np.asarray(x, dtype=float)
    raw = (
        1.05
        - 1.02 * x
        + 0.018 * x**2
        + 0.4 * norm.pdf(x, loc=0.38, scale=0.08)
        + 0.08 * norm.pdf(x, loc=0.75, scale=0.03)
    )
    return raw / 2.7


def inverse_link(link):
    if link == "identity":
        return lambda v: v
    if link == "logit":
        return expit
    if link == "probit":
        return ndtr
    if link == "log":
        return np.exp
    raise ValueError(f"unknown link '{link}'")


def fitted_curve(q_coef, design_builder, grid, link="identity") -> FittedCurve:
    """Pointwise posterior mean and 95% band of the curve implied by q(coefficients).

    The band is formed on the linear predictor and mapped through the inverse
    link, so monotone links preserve the ordering.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    C = np.atleast_2d(design_builder(grid))
    center = C @ np.asarray(q_coef.common["mu"])
    sd = np.sqrt(np.maximum(q_coef.moments.row_variance(C), 0.0))
    g = inverse_link(link)
    return FittedCurve(grid, g(center), g(center - _Z975 * sd), g(center + _Z975 * sd))


# ---------------------------------------------------------------------------
# standardization helpers


def _standardize_design(X):
    """X -> X @ M with centered/scaled columns; constant columns untouched.

    Centering uses the first constant (intercept-like) column when present,
    so the transform stays exactly linear and invertible.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    M = np.eye(d)
    const_cols = [j for j in range(d) if np.ptp(X[:, j]) == 0.0]
    icol = None
    for j in const_cols:
        if X[0, j] != 0.0:
            icol = j
            break
    for j in range(d):
        if j in const_cols:
            continue
        s = float(np.std(X[:, j]))
        M[j, j] = 1.0 / s
        if icol is not None:
            M[icol, j] = -float(np.mean(X[:, j])) / (X[0, icol] * s)
    return X @ M, M


def _standardize_x(x):
    x = np.asarray(x, dtype=float)
    mean, sd = float(np.mean(x)), float(np.std(x))
    if sd == 0.0:
        raise ValueError("predictor is constant")
    return (x - mean) / sd, mean, sd


def _require_finite(name, values):
    """Reject NaN/inf input at build time, naming the argument and the row."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name} has a non-finite value ({values[bad[0]]}) at row {bad[0]}")


def original_coefficients(model: ModelSpec, q_coef):
    """Posterior mean/covariance of the coefficients on the caller's scale."""
    mu = np.asarray(q_coef.common["mu"])
    Sigma = q_coef.moments.covariance()
    M = model.meta.get("coef_transform")
    if M is None:
        return mu, Sigma
    return M @ mu, M @ Sigma @ M.T


# ---------------------------------------------------------------------------
# builders


def _variance_chain(nodes, fragments, tag, theta, a, A_hyper, d=1, nu=1.0):
    """Append the Huang-Wand construction for one d x d variance node theta:
    theta | a ~ Inverse-G-Wishart(G, nu + d - 1, a^{-1}) with G full, and a
    diagonal a ~ Inverse-G-Wishart(diag, 1, I/(nu A^2)).

    At d=1 and nu=1 it is the half-Cauchy(A) chain of a scalar variance,
    sigma^2 | a ~ Inv-chi^2(1, 1/a), a ~ Inv-chi^2(1, 1/A^2)."""
    kind, a_kind = (SCALAR_D1, SCALAR_D1) if d == 1 else (TOTALLY_CONNECTED, TOTALLY_DISCONNECTED)
    nodes.append(StochasticNode(theta, kind, d))
    nodes.append(StochasticNode(a, a_kind, d))
    link = IteratedIGWSpec(kind, kappa=nu + (d - 1.0), d_Theta=d, theta2_kind=a_kind)
    fragments.append(FragmentBinding(f"link_{tag}", link, (theta, a)))
    prior = InverseWishartPriorSpec(1.0, np.eye(d) * (A_hyper**-2.0 / nu), a_kind)
    fragments.append(FragmentBinding(f"prior_{a}", prior, (a,)))


def build_linear_regression(
    y,
    X,
    sigma_beta_sq: float = 1e10,
    A_hyper: float = 1e5,
    mu_beta=None,
    Sigma_beta=None,
    standardize: bool = True,
    fixed_sigma_sq: float | None = None,
) -> ModelSpec:
    """Bayesian linear regression with a half-Cauchy noise-scale hierarchy.

    With fixed_sigma_sq the noise variance is held at a known constant and the
    variance chain disappears (fully conjugate sub-model).
    """
    hyper = Hyperparameters(sigma_beta_sq=sigma_beta_sq, A=A_hyper)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if y.size == 0:
        raise ValueError("empty response")
    if X.shape[0] != y.size:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} entries")
    _require_finite("y", y)
    d = X.shape[1]
    for j in range(d):
        _require_finite(f"X[:, {j}]", X[:, j])
    mu_beta = np.zeros(d) if mu_beta is None else np.asarray(mu_beta, dtype=float)
    Sigma_beta = (
        sigma_beta_sq * np.eye(d) if Sigma_beta is None else np.asarray(Sigma_beta, dtype=float)
    )

    meta = {"y": y, "X": X, "hyper": hyper}
    if standardize:
        Xs, M = _standardize_design(X)
        Minv = np.linalg.inv(M)
        mu_s = Minv @ mu_beta
        Sigma_s = Minv @ Sigma_beta @ Minv.T
        meta["coef_transform"] = M
    else:
        Xs, mu_s, Sigma_s = X, mu_beta, Sigma_beta

    nodes = [StochasticNode("coef", expfam.MULTIVARIATE_NORMAL, d)]
    lik_spec = GaussianLikelihoodSpec.from_design(y, Xs, sigma_sq_fixed=fixed_sigma_sq)
    fragments = [FragmentBinding("prior_coef", GaussianPriorSpec(mu_s, Sigma_s), ("coef",))]
    if fixed_sigma_sq is None:
        fragments.append(FragmentBinding("likelihood", lik_spec, ("coef", "sigsq_eps")))
        _variance_chain(nodes, fragments, "eps", "sigsq_eps", "a_eps", A_hyper)
    else:
        fragments.append(FragmentBinding("likelihood", lik_spec, ("coef",)))
    return ModelSpec(nodes, fragments, "identity", "coef", {}, meta)


def _spline_block(y, x, K, hyper, spline_kind, fixed_sigma_u_sq=None):
    """Shared body of the spline builders: the checked data, the standardized
    predictor xs and its spline basis, the coef node with its penalization
    fragment, and the meta and curve design of the fit.  It forms no design:
    the caller forms C = [1, xs, Z] on its own terms.

    The spline block is shrunk by the variance node sigsq_u unless
    fixed_sigma_u_sq pins it; the caller adds the sigsq_u chain."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if y.size != x.size:
        raise ValueError("x and y lengths differ")
    _require_finite("y", y)
    _require_finite("x", x)
    hyper = hyper or Hyperparameters()
    xs, x_mean, x_sd = _standardize_x(x)
    basis = spline_basis(xs, K, spline_kind)

    if fixed_sigma_u_sq is None:
        block, pen_ports = PenalizedBlock(K, 1, SCALAR_D1), ("coef", "sigsq_u")
    else:
        fixed = np.array([[fixed_sigma_u_sq]])
        block, pen_ports = PenalizedBlock(K, 1, SCALAR_D1, fixed_Theta=fixed), ("coef",)
    pen = GaussianPenalizationSpec(np.zeros(2), hyper.sigma_beta_sq * np.eye(2), (block,))
    nodes = [StochasticNode("coef", expfam.MULTIVARIATE_NORMAL, 2 + K)]
    fragments = [FragmentBinding("penalization", pen, pen_ports)]
    meta = {"y": y, "x": x, "x_mean": x_mean, "x_sd": x_sd, "basis": basis, "hyper": hyper}

    def fit_design(grid):
        gs = (np.asarray(grid, dtype=float) - x_mean) / x_sd
        return np.column_stack([np.ones(gs.size), gs, basis.evaluate(gs)])

    return xs, nodes, fragments, meta, {"fit": fit_design}


def design(model: ModelSpec):
    """The dense n x (K + 2) design C = [1, x, Z] of a spline model on its
    standardized predictor, formed on each call.  A GLM spline model keeps
    no dense design (its fragments run C from x and the basis), so this is
    the one place it is formed; on a penalized-spline model it equals
    meta["C"]."""
    return model.curves["fit"](model.meta["x"])


def build_penalized_spline(
    y,
    x,
    K: int = 25,
    hyper: Hyperparameters = None,
    spline_kind: str = TRUNCATED_LINEAR,
    fixed_sigma_u_sq: float | None = None,
) -> ModelSpec:
    """Gaussian penalized-spline regression on one predictor.

    Coefficients are (intercept, slope, K spline weights); the spline block is
    shrunk by its own variance with a half-Cauchy hierarchy unless
    fixed_sigma_u_sq pins it.  meta["C"] keeps the dense design.
    """
    _, nodes, fragments, meta, curves = _spline_block(y, x, K, hyper, spline_kind, fixed_sigma_u_sq)
    A_hyper = meta["hyper"].A
    if fixed_sigma_u_sq is None:
        _variance_chain(nodes, fragments, "u", "sigsq_u", "a_u", A_hyper)
    meta["C"] = curves["fit"](meta["x"])
    lik = GaussianLikelihoodSpec.from_design(meta["y"], meta["C"])
    fragments.append(FragmentBinding("likelihood", lik, ("coef", "sigsq_eps")))
    _variance_chain(nodes, fragments, "eps", "sigsq_eps", "a_eps", A_hyper)
    return ModelSpec(nodes, fragments, "identity", "coef", curves, meta)


def build_glm_spline(
    y, x, K: int = 25, link: str = "logit", hyper: Hyperparameters = None,
    spline_kind: str = OSULLIVAN_LIKE,
) -> ModelSpec:
    """Penalized-spline regression with a binary or count response.

    Same coefficient block and shrinkage chain as the Gaussian spline model,
    with the likelihood fragment swapped for the link-specific one and no
    noise-variance chain.  An O'Sullivan fit keeps its design as the
    ``SplineDesign`` of the standardized x and the basis, which the fragments
    run on the B-spline band: nothing n x p is formed or kept, and
    ``design(model)`` forms C on request.  A truncated-linear fit keeps the
    dense C in its likelihood state.
    """
    if link not in ("logit", "probit", "log"):
        raise ValueError(f"link must be logit, probit or log, got '{link}'")
    xs, nodes, fragments, meta, curves = _spline_block(y, x, K, hyper, spline_kind)
    y = meta["y"]
    if spline_kind == OSULLIVAN_LIKE:
        A = SplineDesign(xs, meta["basis"])
    else:
        A = curves["fit"](meta["x"])
    if link in ("logit", "probit"):
        if not np.all((y == 0) | (y == 1)):
            raise ValueError(f"{link} link needs a 0/1 response")
        state_cls = LogisticFragmentState if link == "logit" else ProbitFragmentState
        state = state_cls(y, A)
    else:
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("log link needs a nonnegative integer response")
        state = PoissonFragmentState(y, A)
    fragments.append(FragmentBinding("likelihood", state, ("coef",)))
    _variance_chain(nodes, fragments, "u", "sigsq_u", "a_u", meta["hyper"].A)
    return ModelSpec(nodes, fragments, link, "coef", curves, meta)


def _two_level_statistics(y, X_G, local, gidx, sizes, layout):
    """(C^T y, packed C^T C) of the design C whose global columns are X_G and
    whose row r holds local[r] in the columns of its group gidx[r] (zero in
    every other group's), accumulated group by group without forming C.
    ``local`` is given as a list of columns (1-d) and column blocks (2-d).

    With C_i = local[rows of group i]: C^T C is X_G^T X_G on the global
    block, C_i^T X_G[rows of i] on group i's rows against the global columns
    and C_i^T C_i on its own block, and zero between two groups.  The rows
    are sorted by group once; then one (q x n_i) by (n_i x (q + g + 1))
    product per group gives its blocks and C_i^T y_i, O(n (q + g) q) in all.
    The blocks are written straight into the packed vector.
    """
    q, g = layout.q, layout.g
    out = _group_products(_rows_by_group([*local, X_G, y], gidx), sizes, q)
    Aty = np.empty(layout.p)
    Aty[layout.glob] = X_G.T @ y
    Aty[layout.groups] = out[:, :, -1]
    AtA = np.empty(layout.packed_size - layout.p)
    GG, iG, ii = layout.split(AtA)
    GG[...] = X_G.T @ X_G
    iG[...] = out[:, :, q : q + g]
    np.add(out[:, :, :q], out[:, :, :q].swapaxes(1, 2), out=ii)
    ii *= 0.5
    return Aty, AtA


def _rows_by_group(columns, gidx, block=1024):
    """``columns`` (1-d columns, 2-d blocks) side by side, rows sorted by
    group (stably), gathered ``block`` rows at a time so that no unsorted
    copy is made."""
    order = np.argsort(gidx, kind="stable")
    R = np.empty((order.size, sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)))
    for start in range(0, order.size, block):
        rows = order[start : start + block]
        R[start : start + block] = np.column_stack([c[rows] for c in columns])
    return R


def _group_products(R, sizes, q):
    """(m, q, columns) array of R_i[:, :q]^T R_i over each group's rows R_i
    of the group-sorted R."""
    out = np.empty((sizes.size, q, R.shape[1]))
    start = 0
    for i, end in enumerate(np.cumsum(sizes)):
        rows = R[start:end]
        np.matmul(rows[:, :q].T, rows, out=out[i])
        start = end
    return out


def build_group_curves(
    y,
    x,
    group_id,
    group_label,
    K_gbl: int = 10,
    K_grp: int = 5,
    hyper: Hyperparameters = None,
    spline_kind: str = TRUNCATED_LINEAR,
    include_subject_lines: bool = True,
) -> ModelSpec:
    """Two-population group-specific curve model.

    Mean structure: a reference-population curve, a contrast curve added for
    label-1 groups, per-group random intercept/slope lines with an
    unstructured 2x2 covariance (marginally noninformative hierarchy), and
    per-group spline deviations.  The contrast carries its own spline block so
    the between-population difference is itself a flexible curve.

    With K_grp > 0 the model declares one move, the ``ScaleMove`` of the
    group spline deviations (the last K_grp columns of each group block)
    with ``sigsq_grp`` and ``a_grp``: the mean-field sweeps crawl along that
    scale, where the deviations and their variance each wait for the other.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gid = np.atleast_1d(np.asarray(group_id))
    lab = np.atleast_1d(np.asarray(group_label, dtype=float))
    if not (y.size == x.size == gid.size == lab.size):
        raise ValueError("y, x, group_id, group_label lengths differ")
    _require_finite("y", y)
    _require_finite("x", x)
    _require_finite("group_label", lab)
    if not np.all((lab == 0) | (lab == 1)):
        raise ValueError("group labels must be binary 0/1")
    hyper = hyper or Hyperparameters()

    _, gidx = np.unique(gid, return_inverse=True)
    m = int(gidx.max()) + 1
    sizes = np.bincount(gidx, minlength=m)
    ones = np.bincount(gidx, weights=lab, minlength=m)  # label-1 rows of each group
    mixed = np.flatnonzero((ones > 0) & (ones < sizes))
    if mixed.size:
        raise ValueError(f"group {mixed[0]} has mixed labels")
    if np.unique(lab).size == 1:
        warnings.warn("all group labels equal; contrast columns are identically zero")

    xs, x_mean, x_sd = _standardize_x(x)
    n = y.size
    ind_b = lab  # 1 for the contrast population
    Z_gbl, basis_gbl = spline_design(xs, K_gbl, spline_kind)
    X_G = np.column_stack(  # the global columns: population lines and curves
        [np.ones(n), xs, ind_b, ind_b * xs, (1.0 - ind_b)[:, None] * Z_gbl, ind_b[:, None] * Z_gbl]
    )
    del Z_gbl  # only X_G reads it: free it before the group statistics, the build's peak

    blocks = [PenalizedBlock(K_gbl, 1, SCALAR_D1), PenalizedBlock(K_gbl, 1, SCALAR_D1)]
    chains = [(tag, f"sigsq_{tag}", f"a_{tag}", 1.0) for tag in ("gbl_w", "gbl_b")]
    n_glob = X_G.shape[1]
    local = []  # each row's entries in its own group's columns
    group_cols = []  # per block of group columns: an (m, columns per group) array

    if include_subject_lines:
        local += [np.ones(n), xs]
        blocks.append(PenalizedBlock(m, 2, TOTALLY_CONNECTED))
        chains.append(("subject", "Sigma_subject", "A_subject", hyper.nu))
        group_cols.append(n_glob + np.arange(2 * m).reshape(m, 2))

    if K_grp > 0:
        Z_grp_base, basis_grp = spline_design(xs, K_grp, spline_kind)
        local.append(Z_grp_base)
        blocks.append(PenalizedBlock(m * K_grp, 1, SCALAR_D1))
        chains.append(("grp", "sigsq_grp", "a_grp", 1.0))
        start = n_glob + (2 * m if include_subject_lines else 0)
        group_cols.append(start + np.arange(m * K_grp).reshape(m, K_grp))
    else:
        basis_grp = None

    if group_cols:
        layout = TwoLevelLayout(np.arange(n_glob), np.hstack(group_cols))
        Aty, AtA = _two_level_statistics(y, X_G, local, gidx, sizes, layout)
        lik = GaussianLikelihoodSpec(n, Aty, float(y @ y), AtA, layout)
    else:
        layout = None
        lik = GaussianLikelihoodSpec.from_design(y, X_G)
    p = lik.d
    pen = GaussianPenalizationSpec(
        np.zeros(4), hyper.sigma_beta_sq * np.eye(4), tuple(blocks), layout
    )

    nodes = [StochasticNode("coef", expfam.MULTIVARIATE_NORMAL, p, layout)]
    fragments = []
    for (tag, theta, a, nu), blk in zip(chains, blocks):
        _variance_chain(nodes, fragments, tag, theta, a, hyper.A, blk.d, nu)
    pen_ports = ("coef", *(theta for _, theta, _, _ in chains))
    fragments.insert(0, FragmentBinding("penalization", pen, pen_ports))
    fragments.append(FragmentBinding("likelihood", lik, ("coef", "sigsq_eps")))
    _variance_chain(nodes, fragments, "eps", "sigsq_eps", "a_eps", hyper.A)
    moves = ()
    if K_grp > 0:  # the scale move of the group splines: their columns close each group block
        a_prior = next(b.fragment for b in fragments if b.name == "prior_a_grp")
        edges = [("penalization", "coef"), ("likelihood", "coef"),
                 ("link_grp", "sigsq_grp"), ("penalization", "sigsq_grp"),
                 ("prior_a_grp", "a_grp"), ("link_grp", "a_grp")]
        block = slice(layout.q - K_grp, layout.q)
        moves = (ScaleMove(lik, a_prior, block, ("coef", "sigsq_eps", "a_grp"), edges),)

    meta = {
        "y": y, "x": x, "x_mean": x_mean, "x_sd": x_sd, "hyper": hyper,
        "basis_gbl": basis_gbl, "basis_grp": basis_grp,
        "m_groups": m, "K_gbl": K_gbl, "K_grp": K_grp,
        "include_subject_lines": include_subject_lines,
    }

    def _on_global_columns(G):
        """The p-column grid design with global columns G and zero group
        columns, in one array (no separate zero block to stack)."""
        D = np.zeros((G.shape[0], p))
        D[:, : G.shape[1]] = G
        return D

    def _pop_design(grid, contrast_population):
        gs = (np.asarray(grid, dtype=float) - x_mean) / x_sd
        z = basis_gbl.evaluate(gs)
        ng = gs.size
        Xg = np.column_stack(
            [np.ones(ng), gs, np.full(ng, contrast_population), contrast_population * gs]
        )
        Zwg = (1.0 - contrast_population) * z
        Zbg = contrast_population * z
        return _on_global_columns(np.column_stack([Xg, Zwg, Zbg]))

    def contrast_design(grid):
        gs = (np.asarray(grid, dtype=float) - x_mean) / x_sd
        z = basis_gbl.evaluate(gs)
        ng = gs.size
        Xg = np.column_stack([np.zeros(ng), np.zeros(ng), np.ones(ng), gs])
        return _on_global_columns(np.column_stack([Xg, -z, z]))

    curves = {
        "group_0": lambda grid: _pop_design(grid, 0.0),
        "group_1": lambda grid: _pop_design(grid, 1.0),
        "contrast": contrast_design,
    }
    return ModelSpec(nodes, fragments, "identity", "coef", curves, meta, moves)
