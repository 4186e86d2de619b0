"""Matrix/vector primitives for natural-parameter message algebra.

Everything here is a pure function of numpy arrays.  The central object is
``g_vmp``, the expectation of a quadratic form under a multivariate normal
supplied in natural-parameter coordinates; the surrounding helpers (column
stacking, symmetry enforcement, SPD solves with named error context) exist
because message arithmetic accumulates round-off asymmetry and the failure
modes need to say *which* node went bad.

Normal moments come from one factorization each: dense, or — for a
coefficient vector whose precision is block-arrowhead (global columns plus
one block per group, as in the group-curves model) — the two-level
factorization of Nolan & Wand (2020), which costs O(m) in the group count
and forms only the covariance blocks on that pattern.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class SpdFactorizationError(ValueError):
    """A matrix that must be symmetric positive definite failed to factor.

    Carries the context string (node/factor name) supplied by the caller so
    errors surfacing from deep inside a sweep identify the offending part of
    the graph.
    """

    def __init__(self, context, detail=""):
        self.context = context
        msg = f"matrix not symmetric positive definite ({context})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DimensionError(ValueError):
    pass


def vec(M):
    """Stack the columns of a square matrix into one vector (left to right)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"vec expects a square matrix, got shape {M.shape}")
    return M.reshape(-1, order="F").copy()


def vec_inverse(a, d):
    """Unstack a length-d**2 vector into a d x d matrix, column-wise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size != d * d:
        raise DimensionError(f"vec_inverse expects length {d * d}, got {a.shape}")
    return a.reshape((d, d), order="F").copy()


def symmetrize(M):
    return (M + M.T) / 2.0


def spd_chol(M, context=""):
    """Cholesky factor of a (symmetrized) SPD matrix, with structured failure."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    M = symmetrize(M)
    if not np.all(np.isfinite(M)):
        raise SpdFactorizationError(context, "non-finite entries")
    try:
        return cho_factor(M, lower=True)
    except np.linalg.LinAlgError as e:
        raise SpdFactorizationError(context, _eigen_range(M)) from e


def _eigen_range(M):
    evals = np.linalg.eigvalsh(M)
    return f"eigenvalue range [{evals.min():.3e}, {evals.max():.3e}]"


def spd_solve(M, B, context=""):
    """Solve M X = B for SPD M (symmetrized before factorization)."""
    c = spd_chol(M, context=context)
    return cho_solve(c, np.asarray(B, dtype=float))


def spd_inverse(M, context=""):
    c = spd_chol(M, context=context)
    return symmetrize(cho_solve(c, np.eye(M.shape[0])))


def spd_logdet(M, context=""):
    c, _ = spd_chol(M, context=context)
    return 2.0 * float(np.sum(np.log(np.diag(c))))


# ---------------------------------------------------------------------------
# multivariate normal moments


class _Moments:
    """Mean ``mu``, ``logdet`` (log det of the precision) and covariance
    entries of one multivariate normal, all read off a single factorization."""

    def expected_quadratic(self, Q, r, s):
        """E{-1/2 (theta^T Q theta - 2 r^T theta + s)}, through the mean and
        covariance: -1/2 (tr(Q Sigma) + mu^T Q mu) + r^T mu - s/2."""
        quad = float(self.mu @ Q @ self.mu) + self.trace_product(Q)
        return -0.5 * quad + float(r @ self.mu) - 0.5 * float(s)


class DenseMoments(_Moments):
    def __init__(self, mu, Sigma, logdet):
        self.mu, self.Sigma, self.logdet = mu, Sigma, logdet

    def entries(self, rows, cols):
        """Sigma[rows, cols] for broadcastable integer index arrays."""
        return self.Sigma[rows, cols]

    def trace_product(self, Q):
        """tr(Q Sigma) for symmetric Q."""
        return float(np.sum(Q * self.Sigma))


def _dense_moments(eta, d, context):
    eta = np.asarray(eta, dtype=float)
    if eta.size != d + d * d:
        raise DimensionError(f"expected natural vector of length {d + d * d}, got {eta.size}")
    P = -2.0 * symmetrize(vec_inverse(eta[d:], d))  # precision matrix
    c = spd_chol(P, context=context)
    Sigma = symmetrize(cho_solve(c, np.eye(d)))
    mu = cho_solve(c, eta[:d])
    return DenseMoments(mu, Sigma, 2.0 * float(np.sum(np.log(np.diag(c[0])))))


def mvn_moments_from_natural(eta, d, context=""):
    """Mean and covariance of a multivariate normal given its natural vector.

    eta has length d + d*d: the first block multiplies x, the trailing block
    (column-stacked) multiplies vec(x x^T).  The matrix block must correspond
    to a negative definite matrix, i.e. -2 * vec_inverse(eta2) is SPD.
    """
    m = _dense_moments(eta, d, context)
    return m.mu, m.Sigma


class TwoLevelLayout:
    """Column bookkeeping of a coefficient vector with two-level structure.

    ``glob`` lists the g global columns and row i of the (m, q) array
    ``groups`` the q columns of group i; together they name each of the
    p = g + m q columns exactly once.  A precision matrix on this layout may
    be nonzero only in the global rows and columns and in each group's own
    q x q block (groups meet only through the global columns), which is the
    block-arrowhead pattern that :func:`two_level_moments` factors in O(m).
    """

    def __init__(self, glob, groups):
        glob = np.asarray(glob, dtype=np.intp)
        groups = np.asarray(groups, dtype=np.intp)
        if glob.ndim != 1 or groups.ndim != 2 or glob.size == 0 or groups.size == 0:
            raise DimensionError(
                f"layout wants g >= 1 global columns and an (m, q) group array, "
                f"got shapes {glob.shape} and {groups.shape}"
            )
        p = glob.size + groups.size
        if not np.array_equal(np.sort(np.concatenate([glob, groups.ravel()])), np.arange(p)):
            raise DimensionError(f"layout must name each of the {p} columns exactly once")
        m, q = groups.shape
        owner = np.empty(p, dtype=np.intp)  # group of each column, -1 for global
        pos = np.empty(p, dtype=np.intp)  # position inside that group (or the global block)
        owner[glob], pos[glob] = -1, np.arange(glob.size)
        owner[groups], pos[groups] = np.arange(m)[:, None], np.arange(q)[None, :]
        self.glob, self.groups, self.owner, self.pos = glob, groups, owner, pos
        self.p, self.g, self.m, self.q = p, glob.size, m, q

    def blocks(self, M):
        """Pattern blocks of a p x p array: M_GG (g, g), M_iG (m, q, g),
        M_Gi transposed to (m, q, g), and M_ii (m, q, q)."""
        G, I = self.glob, self.groups
        return (
            M[np.ix_(G, G)],
            M[I[:, :, None], G],
            M[G[:, None], I[:, None, :]].swapaxes(1, 2),
            M[I[:, :, None], I[:, None, :]],
        )

    def off_pattern_group(self, M):
        """First group whose rows of the p x p array M hold a nonzero entry
        off the pattern, or None (global rows are all on the pattern)."""
        if np.count_nonzero(M) == sum(np.count_nonzero(b) for b in self.blocks(M)):
            return None
        for i, cols in enumerate(self.groups):
            rows = M[cols]  # a copy: clear the on-pattern part, look for anything left
            rows[:, self.glob] = 0.0
            rows[:, cols] = 0.0
            if rows.any():
                return i
        return None


class TwoLevelMoments(_Moments):
    """Moments on a :class:`TwoLevelLayout`: the mean, log det of the
    precision and the covariance blocks on the pattern only."""

    def __init__(self, layout, mu, logdet, Sigma_GG, Sigma_iG, Sigma_ii):
        self.layout, self.mu, self.logdet = layout, mu, logdet
        self.Sigma_GG, self.Sigma_iG, self.Sigma_ii = Sigma_GG, Sigma_iG, Sigma_ii

    def entries(self, rows, cols):
        """Sigma[rows, cols] for index pairs on the pattern (both global, one
        global, or both in the same group)."""
        rows, cols = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
        lay = self.layout
        gr, pr, gc, pc = lay.owner[rows], lay.pos[rows], lay.owner[cols], lay.pos[cols]
        out = np.empty(rows.shape)
        both = (gr < 0) & (gc < 0)
        out[both] = self.Sigma_GG[pr[both], pc[both]]
        row_grp = (gr >= 0) & (gc < 0)
        out[row_grp] = self.Sigma_iG[gr[row_grp], pr[row_grp], pc[row_grp]]
        col_grp = (gr < 0) & (gc >= 0)
        out[col_grp] = self.Sigma_iG[gc[col_grp], pc[col_grp], pr[col_grp]]
        same = (gr >= 0) & (gr == gc)
        out[same] = self.Sigma_ii[gr[same], pr[same], pc[same]]
        if not np.all(both | row_grp | col_grp | same):
            raise DimensionError("covariance entries between two groups are not on the pattern")
        return out

    def trace_product(self, Q):
        """tr(Q Sigma) for a Q that is zero off the pattern."""
        Q_GG, Q_iG, Q_Gi, Q_ii = self.layout.blocks(Q)
        return float(
            np.sum(Q_GG * self.Sigma_GG)
            + np.sum((Q_iG + Q_Gi) * self.Sigma_iG)
            + np.sum(Q_ii * self.Sigma_ii)
        )


def two_level_moments(eta, layout, context=""):
    """Moments of a multivariate normal whose precision has the pattern of
    ``layout``, in O(m) operations.

    Only the pattern entries of the precision are read from eta; entries off
    the pattern are taken to be zero.  The m group blocks D_i are factored as
    one batch and eliminated into the g x g Schur complement
    S = P_GG - sum_i B_i^T D_i^{-1} B_i (B_i = P_iG), so that

        Sigma_GG = S^{-1},  Sigma_iG = -D_i^{-1} B_i Sigma_GG,
        Sigma_ii = D_i^{-1} + D_i^{-1} B_i Sigma_GG B_i^T D_i^{-1},
        log det P = sum_i log det D_i + log det S.
    """
    eta = np.asarray(eta, dtype=float)
    p, g = layout.p, layout.g
    if eta.size != p + p * p:
        raise DimensionError(f"expected natural vector of length {p + p * p}, got {eta.size}")
    M_GG, M_iG, M_Gi, M_ii = layout.blocks(eta[p:].reshape((p, p), order="F"))
    A = -(M_GG + M_GG.T)
    B = -(M_iG + M_Gi)
    D = -(M_ii + M_ii.swapaxes(1, 2))
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B)) and np.all(np.isfinite(D))):
        raise SpdFactorizationError(context, "non-finite entries")
    try:
        L = np.linalg.cholesky(D)
    except np.linalg.LinAlgError as e:
        for i, Di in enumerate(D):
            try:
                np.linalg.cholesky(Di)
            except np.linalg.LinAlgError:
                raise SpdFactorizationError(context, f"group {i} block, {_eigen_range(Di)}") from e
        raise
    h = eta[:p]
    Li = np.linalg.inv(L)  # lower triangular L_i^{-1}
    LiT = Li.swapaxes(1, 2)
    W = Li @ B  # L_i^{-1} B_i
    w = (Li @ h[layout.groups][:, :, None])[:, :, 0]  # L_i^{-1} h_i
    Wf = W.reshape(-1, g)
    c = spd_chol(A - Wf.T @ Wf, context=f"{context} global Schur complement")
    Sigma_GG = symmetrize(cho_solve(c, np.eye(g)))
    mu_G = cho_solve(c, h[layout.glob] - Wf.T @ w.ravel())
    V = LiT @ W  # D_i^{-1} B_i
    mu_I = (LiT @ (w - W @ mu_G)[:, :, None])[:, :, 0]
    Sigma_iG = -(V @ Sigma_GG)
    Sigma_ii = LiT @ Li - Sigma_iG @ V.swapaxes(1, 2)
    Sigma_ii = 0.5 * (Sigma_ii + Sigma_ii.swapaxes(1, 2))
    mu = np.empty(p)
    mu[layout.glob], mu[layout.groups] = mu_G, mu_I
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
    logdet += 2.0 * float(np.sum(np.log(np.diag(c[0]))))
    return TwoLevelMoments(layout, mu, logdet, Sigma_GG, Sigma_iG, Sigma_ii)


def mvn_moments(eta, d, context="", layout=None):
    """Moments of a multivariate normal natural vector: dense when layout is
    None, otherwise on the two-level pattern of ``layout``."""
    if layout is None:
        return _dense_moments(eta, d, context)
    if layout.p != d:
        raise DimensionError(f"layout covers {layout.p} columns, node has d={d}")
    return two_level_moments(eta, layout, context)


def g_vmp(eta, Q, r, s, context="", layout=None):
    """E{-1/2 (theta^T Q theta - 2 r^T theta + s)} for theta ~ MVN given by eta.

    Evaluated through the mean/covariance: -1/2 (tr(Q Sigma) + mu^T Q mu)
    + r^T mu - s/2, which is algebraically identical to the direct
    natural-parameter expression but numerically stabler.  With a layout, Q
    must be zero off its pattern.
    """
    Q = np.asarray(Q, dtype=float)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return mvn_moments(eta, Q.shape[0], context, layout).expected_quadratic(Q, r, s)
