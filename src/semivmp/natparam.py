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
and forms only the covariance blocks on that pattern.  Such a vector is
stored packed, the pattern entries only (block-arrowhead storage, Nolan,
Menictas & Wand, JMLR 2020), so no p x p array is formed while sweeping.
The packed matrix part has three blocks: global by global, group by global
and each group's own block.  The global-by-group mirror of the second is
not stored, as the streamlined two-level solvers take each group's
off-diagonal block once.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs


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


def row_quadratic(A, S):
    """The row quadratic forms a_i^T S a_i of A (n x p) and S (p x p).

    One matrix product and a row-wise sum, so the O(n p^2) work runs in BLAS;
    the three-index ``einsum("ij,jk,ik->i", A, S, A)`` that numpy does not
    hand to BLAS is an order of magnitude slower at GLM sizes.
    """
    return np.einsum("ij,ij->i", A @ S, A)


def spd_chol(M, context=""):
    """Cholesky factor of a (symmetrized) SPD matrix, with structured failure.

    Returns (c, True) as scipy's ``cho_factor(M, lower=True)`` does: c holds
    the lower factor, its upper triangle is left as in M.  LAPACK ``dpotrf``
    is called directly, the routine ``cho_factor`` wraps, so the factor is
    the same to the bit without the wrapper's per-call cost; the finiteness
    check is done here.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    M = symmetrize(M)
    if not np.isfinite(M).all():
        raise SpdFactorizationError(context, "non-finite entries")
    c, info = dpotrf(M, lower=1, clean=0)
    if info != 0:
        raise SpdFactorizationError(context, _eigen_range(M))
    return c, True


def _eigen_range(M):
    evals = np.linalg.eigvalsh(M)
    return f"eigenvalue range [{evals.min():.3e}, {evals.max():.3e}]"


def chol_solve(factor, B):
    """Solve M X = B given ``factor = spd_chol(M)``, through LAPACK ``dpotrs``
    (the routine scipy's ``cho_solve`` wraps); a non-finite B is rejected as
    ``cho_solve`` rejects it."""
    B = np.asarray(B, dtype=float)
    if not np.isfinite(B).all():
        raise ValueError("array must not contain infs or NaNs")
    X, info = dpotrs(factor[0], B, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return X


def spd_inverse(M, context=""):
    c = spd_chol(M, context=context)
    return symmetrize(chol_solve(c, np.eye(M.shape[0])))


def spd_logdet(M, context=""):
    return chol_logdet(spd_chol(M, context=context))


def chol_logdet(factor):
    """log det M given ``factor = spd_chol(M)``."""
    return 2.0 * float(np.sum(np.log(np.diag(factor[0]))))


# ---------------------------------------------------------------------------
# multivariate normal moments


class _Moments:
    """Mean ``mu``, ``logdet`` (log det of the precision) and covariance
    entries of one multivariate normal, all read off a single factorization.
    A matrix Q handed to them is stored as the normal's node stores its
    precision: a p x p array, or on a ``layout`` its packed pattern entries."""

    def expected_quadratic(self, Q, r, s):
        """E{-1/2 (theta^T Q theta - 2 r^T theta + s)}, through the mean and
        covariance: -1/2 (tr(Q Sigma) + mu^T Q mu) + r^T mu - s/2."""
        quad = self.mean_quadratic(Q) + self.trace_product(Q)
        return -0.5 * quad + float(r @ self.mu) - 0.5 * float(s)


class DenseMoments(_Moments):
    def __init__(self, mu, Sigma, logdet):
        self.mu, self.Sigma, self.logdet = mu, Sigma, logdet

    def covariance_at(self, pos):
        """Sigma at the matrix-part positions ``pos`` of the natural vector
        (see :func:`natural_position`).  Sigma is exactly symmetric, so its
        C-order entries are its column-stacked ones."""
        return self.Sigma.ravel()[np.asarray(pos) - self.mu.size]

    def mean_quadratic(self, Q):
        """mu^T Q mu."""
        return float(self.mu @ Q @ self.mu)

    def trace_product(self, Q):
        """tr(Q Sigma) for symmetric Q."""
        return float(np.sum(Q * self.Sigma))

    def covariance(self):
        """The p x p covariance."""
        return self.Sigma

    def row_variance(self, C):
        """diag(C Sigma C^T): the variance of each row's linear form."""
        return row_quadratic(C, self.Sigma)


def _dense_moments(eta, d, context):
    eta = np.asarray(eta, dtype=float)
    if eta.size != d + d * d:
        raise DimensionError(f"expected natural vector of length {d + d * d}, got {eta.size}")
    P = -2.0 * symmetrize(vec_inverse(eta[d:], d))  # precision matrix
    c = spd_chol(P, context=context)
    Sigma = symmetrize(chol_solve(c, np.eye(d)))
    mu = chol_solve(c, eta[:d])
    return DenseMoments(mu, Sigma, chol_logdet(c))


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

    A normal node with a layout stores its natural vector **packed**: the p
    entries of the first part, then the pattern entries of the p x p matrix
    part in three blocks, each in C order:

        GG (g, g): M[G_a, G_b]    iG (m, q, g): M[I_ik, G_a]    ii (m, q, q): M[I_ik, I_il]

    The matrix part is symmetric, so each global-by-group pair is kept once:
    the mirror M[G_a, I_ik] is read from iG's slot, and
    ``packed_size = p + g^2 + m q g + m q^2``.  This is the dense vector with
    its structural zeros and those mirrors dropped.  Sums, damping and
    relative changes are elementwise, so they give the same numbers on both.
    Which form a vector has follows from its node, never from its length.
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
        g = glob.size
        owner = np.empty(p, dtype=np.intp)  # group of each column, -1 for global
        pos = np.empty(p, dtype=np.intp)  # position inside that group (or the global block)
        owner[glob], pos[glob] = -1, np.arange(g)
        owner[groups], pos[groups] = np.arange(m)[:, None], np.arange(q)[None, :]
        self.glob, self.groups, self.owner, self.pos = glob, groups, owner, pos
        # row of each column in its stacked block: GG rows, or the m q rows of iG / ii
        self._stacked = np.where(owner < 0, pos, owner * q + pos)
        self.p, self.g, self.m, self.q = p, g, m, q
        self.upper_GG = np.triu_indices(g, 1)  # the strict upper triangle of a g x g block
        shapes = ((g, g), (m, q, g), (m, q, q))
        ends = np.cumsum([g * g, m * q * g, m * q * q])
        begins = np.r_[0, ends[:-1]]
        self._blocks = tuple(zip(begins, ends, shapes))  # each block among the pattern entries
        self._starts = p + begins  # and where it starts in the packed vector
        self.packed_size = p + int(ends[-1])

    def _index_pairs(self):
        """(rows, cols) index arrays of the three pattern blocks, packed order."""
        G, I = self.glob, self.groups
        return (
            (G[:, None], G[None, :]),
            (I[:, :, None], G),
            (I[:, :, None], I[:, None, :]),
        )

    def pack_matrix(self, M):
        """The pattern entries of a p x p array, in packed order.  Each
        global-by-group entry must equal its mirror bitwise, since only one
        of the two is kept."""
        M = np.asarray(M, dtype=float)
        G, I = self.glob, self.groups
        GG, iG, ii = (M[r, c] for r, c in self._index_pairs())
        Gi = M[G, I[:, :, None]]
        bad = np.flatnonzero(iG.view(np.uint64) != Gi.view(np.uint64))
        if bad.size:
            i, k, a = np.unravel_index(bad[0], iG.shape)
            r, c = I[i, k], G[a]
            raise DimensionError(
                f"matrix part is not symmetric on the pattern: entry ({r}, {c}) is "
                f"{float(iG[i, k, a])!r} but ({c}, {r}) is {float(Gi[i, k, a])!r}"
            )
        return np.concatenate([GG.ravel(), iG.ravel(), ii.ravel()])

    def split(self, Q):
        """The blocks (GG, iG, ii) of packed pattern entries, as views."""
        return tuple(Q[b:e].reshape(shape) for b, e, shape in self._blocks)

    def pack(self, eta):
        """Packed form of a dense natural vector (length p + p^2)."""
        eta = np.asarray(eta, dtype=float)
        p = self.p
        return np.concatenate([eta[:p], self.pack_matrix(eta[p:].reshape((p, p), order="F"))])

    def _scatter(self, M, Q):
        """Write the packed pattern entries Q into the p x p array (or view) M,
        each global-by-group entry also at its mirror."""
        blocks = self.split(Q)
        for (r, c), blk in zip(self._index_pairs(), blocks):
            M[r, c] = blk
        M[self.glob, self.groups[:, :, None]] = blocks[1]

    def unpack(self, eta):
        """Dense natural vector of a packed one; zero off the pattern."""
        p = self.p
        dense = np.zeros(p + p * p)
        dense[:p] = eta[:p]
        self._scatter(dense[p:].reshape((p, p), order="F"), eta[p:])  # a column-stacked view
        return dense

    def position(self, rows, cols):
        """Positions in the packed natural vector of the matrix-part entries
        (rows, cols), which must lie on the pattern.  (G_a, I_ik) and
        (I_ik, G_a) share iG's slot."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        gr, gc = self.owner[rows], self.owner[cols]
        if np.any((gr != gc) & (gr >= 0) & (gc >= 0)):
            raise DimensionError("entries between two groups are not on the pattern")
        block = np.add(gr >= 0, gc >= 0, dtype=np.intp)  # 0-2: GG, iG, ii
        sr, sc = self._stacked[rows], self._stacked[cols]
        offset = np.where(  # the C-order position inside the block
            block == 2,
            sr * self.q + self.pos[cols],
            np.where(gc >= 0, sc * self.g + sr, sr * self.g + sc),
        )
        return self._starts[block] + offset


def natural_size(d, layout=None):
    """Length of the natural vector of a d-variate normal: d + d^2, or the
    packed length on a layout."""
    return d + d * d if layout is None else layout.packed_size


def natural_position(rows, cols, d, layout=None):
    """Positions of the matrix-part entries (rows, cols) in the natural vector
    of a d-variate normal: column-stacked, or packed on a layout."""
    if layout is None:
        return d + np.asarray(rows) + d * np.asarray(cols)
    return layout.position(rows, cols)


class TwoLevelMoments(_Moments):
    """Moments on a :class:`TwoLevelLayout`: the mean, log det of the
    precision and the covariance blocks on the pattern only.  ``schur_factor``
    is the lower Cholesky factor L of Sigma_GG^{-1} = L L^T."""

    def __init__(self, layout, mu, logdet, Sigma_GG, Sigma_iG, Sigma_ii, schur_factor):
        self.layout, self.mu, self.logdet = layout, mu, logdet
        self.Sigma_GG, self.Sigma_iG, self.Sigma_ii = Sigma_GG, Sigma_iG, Sigma_ii
        self.schur_factor = schur_factor

    def covariance_at(self, pos):
        """Sigma at the positions ``pos`` of pattern entries in the packed
        natural vector (see :func:`natural_position`)."""
        starts = self.layout._starts
        block = np.searchsorted(starts, pos, side="right") - 1
        offset = pos - starts[block]
        out = np.empty(np.shape(pos))
        for b, S in enumerate((self.Sigma_GG, self.Sigma_iG, self.Sigma_ii)):
            sel = block == b
            out[sel] = S.ravel()[offset[sel]]
        return out

    def mean_quadratic(self, Q):
        """mu^T Q mu for packed pattern entries Q, as matrix-vector products
        and dot products (each global-by-group entry stands for two)."""
        lay = self.layout
        Q_GG, Q_iG, Q_ii = lay.split(Q)
        mu_G, mu_I = self.mu[lay.glob], self.mu[lay.groups]
        return float(
            mu_G @ Q_GG @ mu_G
            + 2.0 * (mu_I.ravel() @ (Q_iG.reshape(-1, lay.g) @ mu_G))
            + np.vdot(mu_I, (Q_ii @ mu_I[:, :, None])[:, :, 0])
        )

    def trace_product(self, Q):
        """tr(Q Sigma) for packed pattern entries Q: one dot product per
        block of the pattern."""
        Q_GG, Q_iG, Q_ii = self.layout.split(Q)
        return float(
            np.vdot(Q_GG, self.Sigma_GG) + 2.0 * np.vdot(Q_iG, self.Sigma_iG) + np.vdot(Q_ii, self.Sigma_ii)
        )

    def covariance(self):
        """The dense p x p covariance, written into one p x p array.  Between
        two groups i != j it is Sigma_iG Sigma_GG^{-1} Sigma_Gj = X_i X_j^T
        with X_i = Sigma_iG L, so the group rows of one p x g array Y carry
        the X_i and Y Y^T puts every such block in place (O(p^2 g)); the
        global rows and columns and the group blocks are then overwritten."""
        lay = self.layout
        G, I = lay.glob, lay.groups
        U = self.Sigma_iG.reshape(-1, lay.g)
        Y = np.zeros((lay.p, lay.g))
        Y[I.ravel()] = U @ self.schur_factor
        Sigma = Y @ Y.T
        Sigma[I.reshape(-1, 1), G] = U
        Sigma[G[:, None], I.ravel()] = U.T
        Sigma[G[:, None], G] = self.Sigma_GG
        Sigma[I[:, :, None], I[:, None, :]] = self.Sigma_ii
        return Sigma

    def refined(self, eta):
        """These moments after one step of iterative refinement against the
        packed natural vector ``eta`` they were factored from.

        The two-level elimination forms Sigma_GG from the Schur complement
        S = P_GG - sum_i B_i^T D_i^{-1} B_i, which cancels where the global
        columns lie nearly in the span of the group columns (the population
        lines against the subject lines), so mu and Sigma_GG lose digits a
        dense Cholesky keeps.  With the residuals r = h - P mu and
        R = E_G - P [Sigma_GG; Sigma_iG] against the precision P, formed
        block by block, mu and the global columns of Sigma gain Sigma r and
        Sigma R (Sigma applied through these blocks), and the Schur factor
        becomes that of the refined Sigma_GG^{-1}.  Sigma_ii, which no
        cancellation reaches (the group blocks D_i are well conditioned), and
        the log det are kept.
        """
        lay = self.layout
        m, q, g, I = lay.m, lay.q, lay.g, lay.groups
        A, B, D = _precision_blocks(eta, lay)
        B_f, S_f = B.reshape(-1, g), self.Sigma_iG.reshape(-1, g)  # the group rows stacked
        X_f = S_f @ self.schur_factor  # Sigma_ij = X_i X_j^T between groups
        X = X_f.reshape(m, q, g)
        cond = self.Sigma_ii - X @ X.swapaxes(1, 2)  # D_i^{-1}

        def sigma_times(R_G, R_I):  # Sigma [R_G; R_I] for (g, k) and (m, q, k) parts
            k = R_G.shape[1]
            flat = R_I.reshape(-1, k)
            lead = self.Sigma_GG @ R_G + S_f.T @ flat
            return lead, (S_f @ R_G + X_f @ (X_f.T @ flat)).reshape(m, q, k) + cond @ R_I

        mu_G, mu_I = self.mu[lay.glob], self.mu[I][:, :, None]
        r_G = eta[lay.glob] - (A @ mu_G + B_f.T @ mu_I.ravel())
        r_I = eta[I][:, :, None] - ((B_f @ mu_G).reshape(m, q, 1) + D @ mu_I)
        d_G, d_I = sigma_times(r_G[:, None], r_I)
        mu = self.mu.copy()
        mu[lay.glob] += d_G[:, 0]
        mu[I] += d_I[:, :, 0]
        R_G = np.eye(g) - (A @ self.Sigma_GG + B_f.T @ S_f)
        R_I = -((B_f @ self.Sigma_GG).reshape(m, q, g) + D @ self.Sigma_iG)
        d_G, d_I = sigma_times(R_G, R_I)
        Sigma_GG = symmetrize(self.Sigma_GG + d_G)
        Sigma_iG = self.Sigma_iG + d_I
        schur = np.tril(spd_chol(spd_inverse(Sigma_GG, "refined Sigma_GG"), "refined Schur complement")[0])
        return TwoLevelMoments(lay, mu, self.logdet, Sigma_GG, Sigma_iG, self.Sigma_ii, schur)

    def row_variance(self, C):
        """diag(C Sigma C^T) from the blocks, without the dense Sigma.

        With C_G the global columns of C, C_i the columns of group i and
        X_i = Sigma_iG L (so Sigma_ij = X_i X_j^T between groups i != j),

            var = rowsum((C_G Sigma_GG + 2 sum_i C_i Sigma_iG) o C_G)
                  + sum_i rowsum((C_i (Sigma_ii - X_i X_i^T)) o C_i)
                  + ||sum_i C_i X_i||^2_row,

        exact for rows that touch any number of groups.  Only the t groups
        with a nonzero column in C enter, so n rows cost O(n (g^2 + t q (g + q)))
        and population curves (global columns only) cost what their g
        columns do.
        """
        lay = self.layout
        C = np.atleast_2d(np.asarray(C, dtype=float))
        touched = np.flatnonzero(np.any(np.any(C, axis=0)[lay.groups], axis=1))
        C_G = C[:, lay.glob]
        C_t = C[:, lay.groups[touched]]  # (n, t, q)
        U = self.Sigma_iG[touched]
        X = U @ self.schur_factor
        R = self.Sigma_ii[touched] - X @ X.swapaxes(1, 2)
        C_flat = C_t.reshape(C.shape[0], -1)
        lead = C_G @ self.Sigma_GG + 2.0 * (C_flat @ U.reshape(-1, lay.g))
        CX = C_flat @ X.reshape(-1, lay.g)
        return (
            np.einsum("ij,ij->i", lead, C_G)
            + np.einsum("nik,ikl,nil->n", C_t, R, C_t)
            + np.einsum("ij,ij->i", CX, CX)
        )


def _precision_blocks(eta, layout):
    """(P_GG, the (m, q, g) blocks P_iG, the (m, q, q) blocks P_ii) of the
    precision P = -2 M of a packed natural vector, each pair of mirror
    entries summed."""
    M_GG, M_iG, M_ii = layout.split(eta[layout.p :])
    return -(M_GG + M_GG.T), -2.0 * M_iG, -(M_ii + M_ii.swapaxes(1, 2))


def _lower_inverse(L):
    """L_i^{-1} of the (m, q, q) lower triangular factors L, by forward
    substitution over the q rows of all m factors at once: one batched
    product per row, no LAPACK call per group.  Row k of L_i^{-1} has
    1 / L_i[k, k] on its diagonal and, left of it, -L_i[k, :k] / L_i[k, k]
    times the rows above."""
    m, q, _ = L.shape
    inv_diag = 1.0 / np.diagonal(L, axis1=1, axis2=2)
    N = L * -inv_diag[:, :, None]  # -L_i[k, j] / L_i[k, k]
    X = np.zeros((m, q, q))
    X[:, np.arange(q), np.arange(q)] = inv_diag
    for k in range(1, q):
        np.matmul(N[:, k : k + 1, :k], X[:, :k, :k], out=X[:, k : k + 1, :k])
    return X


def two_level_moments(eta, layout, context=""):
    """Moments of a multivariate normal whose precision has the pattern of
    ``layout``, in O(m) operations.

    eta is packed on ``layout`` (see :class:`TwoLevelLayout`): it holds the
    pattern entries only.  The m group blocks D_i are factored as one batch
    and eliminated into the g x g Schur complement
    S = P_GG - sum_i B_i^T D_i^{-1} B_i (B_i = P_iG), so that

        Sigma_GG = S^{-1},  Sigma_iG = -D_i^{-1} B_i Sigma_GG,
        Sigma_ii = D_i^{-1} + D_i^{-1} B_i Sigma_GG B_i^T D_i^{-1},
        log det P = sum_i log det D_i + log det S.

    It factors in three steps: one batched Cholesky D_i = L_i L_i^T, one
    forward substitution over the q rows of all m factors at once, which
    gives L_i^{-1} (no LAPACK call per group), and the Cholesky factor of S
    (``spd_chol``), whose LAPACK ``dpotri`` inverse is Sigma_GG.  The
    products by L_i^{-1} and L_i^{-T} are batched q x q ones; Sigma_iG,
    whose right factor Sigma_GG all groups share, is one (m q x g)(g x g)
    GEMM.
    """
    eta = np.asarray(eta, dtype=float)
    p, m, q, g = layout.p, layout.m, layout.q, layout.g
    if eta.size != layout.packed_size:
        raise DimensionError(
            f"expected a packed natural vector of length {layout.packed_size}, got {eta.size}"
        )
    A, B, D = _precision_blocks(eta, layout)
    if not (np.isfinite(A).all() and np.isfinite(B).all() and np.isfinite(D).all()):
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
    Li = _lower_inverse(L)
    LiT = Li.swapaxes(1, 2)
    W = Li @ B  # L_i^{-1} B_i
    del B, D  # freed before the Sigma_ii products, where a sweep's memory peaks
    w = (Li @ h[layout.groups][:, :, None])[:, :, 0]  # L_i^{-1} h_i
    Wf = W.reshape(-1, g)
    c = spd_chol(A - Wf.T @ Wf, context=f"{context} global Schur complement")
    upper = layout.upper_GG
    Sigma_GG = dpotri(c[0], lower=1)[0]  # S^{-1} in the lower triangle
    Sigma_GG[upper] = Sigma_GG.T[upper]
    mu_G = chol_solve(c, h[layout.glob] - Wf.T @ w.ravel())
    V = LiT @ W  # D_i^{-1} B_i
    mu_I = (LiT @ (w - (Wf @ mu_G).reshape(m, q))[:, :, None])[:, :, 0]
    del W, Wf
    Sigma_iG = (V.reshape(-1, g) @ -Sigma_GG).reshape(m, q, g)
    Sigma_ii = LiT @ Li
    Sigma_ii -= Sigma_iG @ V.swapaxes(1, 2)
    Sigma_ii = 0.5 * (Sigma_ii + Sigma_ii.swapaxes(1, 2))
    mu = np.empty(p)
    mu[layout.glob], mu[layout.groups] = mu_G, mu_I
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
    logdet += chol_logdet(c)
    schur_factor = c[0]
    schur_factor[upper] = 0.0
    return TwoLevelMoments(layout, mu, logdet, Sigma_GG, Sigma_iG, Sigma_ii, schur_factor)


def mvn_moments(eta, d, context="", layout=None):
    """Moments of a multivariate normal natural vector: dense when layout is
    None, otherwise packed on the two-level pattern of ``layout``."""
    if layout is None:
        return _dense_moments(eta, d, context)
    if layout.p != d:
        raise DimensionError(f"layout covers {layout.p} columns, node has d={d}")
    return two_level_moments(eta, layout, context)


def g_vmp(eta, Q, r, s, context="", layout=None):
    """E{-1/2 (theta^T Q theta - 2 r^T theta + s)} for theta ~ MVN given by eta.

    Evaluated through the mean/covariance: -1/2 (tr(Q Sigma) + mu^T Q mu)
    + r^T mu - s/2, which is algebraically identical to the direct
    natural-parameter expression but numerically stabler.  With a layout, eta
    and Q are packed on its pattern.
    """
    Q = np.asarray(Q, dtype=float)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return mvn_moments(eta, r.size, context, layout).expected_quadratic(Q, r, s)
