import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semivmp.natparam import (
    DimensionError,
    SpdFactorizationError,
    TwoLevelLayout,
    chol_solve,
    g_vmp,
    mvn_moments,
    mvn_moments_from_natural,
    natural_position,
    row_quadratic,
    spd_chol,
    spd_inverse,
    spd_logdet,
    symmetrize,
    vec,
    vec_inverse,
)

from conftest import random_spd


def natural_from_moments(mu, Sigma):
    P = np.linalg.inv(Sigma)
    return np.concatenate([P @ mu, -0.5 * vec(P)])


def test_vec_is_column_major():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(M), [1.0, 3.0, 2.0, 4.0])


@given(
    arrays(np.float64, (3, 3), elements=st.floats(-1e6, 1e6, allow_nan=False))
)
def test_vec_round_trip(M):
    np.testing.assert_array_equal(vec_inverse(vec(M), 3), M)


@given(st.integers(1, 6))
def test_vec_inverse_shape(d):
    a = np.arange(d * d, dtype=float)
    assert vec_inverse(a, d).shape == (d, d)


def test_vec_inverse_length_mismatch():
    with pytest.raises(DimensionError):
        vec_inverse(np.arange(5.0), 2)


def test_symmetrize():
    M = np.array([[0.0, 2.0], [4.0, 6.0]])
    np.testing.assert_array_equal(symmetrize(M), [[0.0, 3.0], [3.0, 6.0]])


@given(st.integers(1, 50), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_row_quadratic_matches_three_index_einsum(n, p, seed):
    # the error is judged against the sum of absolute terms, sum_jk |a_j S_jk a_k|,
    # since an indefinite S can make a_i^T S a_i cancel to near zero
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
    S = symmetrize(rng.normal(size=(p, p)))
    want = np.einsum("ij,jk,ik->i", A, S, A)
    scale = np.einsum("ij,jk,ik->i", np.abs(A), np.abs(S), np.abs(A))
    got = row_quadratic(A, S)
    assert got.shape == (n,)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_spd_helpers_match_numpy(rng):
    for d in (1, 2, 5):
        A = random_spd(rng, d)
        B = rng.normal(size=(d, 2))
        np.testing.assert_allclose(chol_solve(spd_chol(A), B), np.linalg.solve(A, B), rtol=1e-10)
        np.testing.assert_allclose(spd_inverse(A), np.linalg.inv(A), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(spd_logdet(A), np.linalg.slogdet(A)[1], rtol=1e-12)


def test_spd_chol_rejects_indefinite():
    M = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SpdFactorizationError) as exc:
        spd_chol(M, context="unit test")
    assert "unit test" in str(exc.value)


def test_spd_chol_rejects_nonsquare():
    with pytest.raises(DimensionError):
        spd_chol(np.zeros((2, 3)))


def test_mvn_moments_round_trip(rng):
    for d in (1, 3, 6):
        mu = rng.normal(size=d)
        Sigma = random_spd(rng, d)
        got_mu, got_Sigma = mvn_moments_from_natural(natural_from_moments(mu, Sigma), d)
        np.testing.assert_allclose(got_mu, mu, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(got_Sigma, Sigma, rtol=1e-9, atol=1e-11)


def test_mvn_moments_rejects_indefinite_precision():
    # eta2 block implies precision -2*sym = -I, not positive definite
    eta = np.concatenate([[0.0], 0.5 * vec(np.eye(1))])
    with pytest.raises(SpdFactorizationError):
        mvn_moments_from_natural(eta, 1)


def test_g_vmp_matches_direct_expectation(rng):
    # E{-(1/2)(x'Qx - 2 r'x + s)} = -(1/2)(tr(Q Sigma) + mu'Q mu - 2 r'mu + s)
    for d in (1, 2, 4):
        mu = rng.normal(size=d)
        Sigma = random_spd(rng, d)
        Q = random_spd(rng, d, scale=0.3)
        r = rng.normal(size=d)
        s = float(rng.normal())
        expect = -0.5 * (np.trace(Q @ Sigma) + mu @ Q @ mu - 2 * r @ mu + s)
        got = g_vmp(natural_from_moments(mu, Sigma), Q, r, s)
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-11)


def test_g_vmp_monte_carlo(rng):
    d = 3
    mu = rng.normal(size=d)
    Sigma = random_spd(rng, d)
    Q = random_spd(rng, d, scale=0.5)
    r = rng.normal(size=d)
    s = 2.5
    draws = rng.multivariate_normal(mu, Sigma, size=200_000)
    vals = -0.5 * (np.einsum("ni,ij,nj->n", draws, Q, draws) - 2 * draws @ r + s)
    se = vals.std() / np.sqrt(vals.size)
    got = g_vmp(natural_from_moments(mu, Sigma), Q, r, s)
    assert abs(got - vals.mean()) < 5 * se


def test_g_vmp_improper_input_raises():
    eta = np.concatenate([[0.0], 0.5 * vec(np.eye(1))])
    with pytest.raises(SpdFactorizationError):
        g_vmp(eta, np.eye(1), np.zeros(1), 0.0)


# --- two-level (block-arrowhead) moments ---------------------------------------


def arrowhead_precision(rng, layout):
    """A random SPD precision on the pattern of ``layout``: its groups meet
    only through the global columns."""
    p = layout.p
    P = np.zeros((p, p))
    G = layout.glob
    schur = random_spd(rng, layout.g)
    for cols in layout.groups:
        D = random_spd(rng, layout.q)
        B = rng.normal(size=(layout.q, layout.g))
        P[np.ix_(cols, cols)] = D
        P[np.ix_(cols, G)] = B
        P[np.ix_(G, cols)] = B.T
        schur = schur + B.T @ np.linalg.solve(D, B)
    P[np.ix_(G, G)] = symmetrize(schur)  # leaves Schur complement random_spd: SPD
    return P


def arrowhead_natural(rng, m, q, g):
    """(layout, dense eta, pattern mask) for a random SPD precision on the
    pattern; columns are shuffled so the layout is not contiguous."""
    p = g + m * q
    perm = rng.permutation(p)
    layout = TwoLevelLayout(perm[:g], perm[g:].reshape(m, q))
    P = arrowhead_precision(rng, layout)
    on = P != 0.0
    on[np.ix_(layout.glob, layout.glob)] = True
    eta = np.concatenate([rng.normal(size=p) * 3.0, -0.5 * vec(P)])
    return layout, eta, on


def assert_rel(got, want, tol=1e-10):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(got) - want)) <= tol * scale


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_two_level_moments_match_dense(m, q, g, seed):
    rng = np.random.default_rng(seed)
    layout, eta, on = arrowhead_natural(rng, m, q, g)
    p = layout.p
    dense = mvn_moments(eta, p)
    two = mvn_moments(layout.pack(eta), p, layout=layout)
    assert_rel(two.mu, dense.mu)
    assert_rel(two.logdet, dense.logdet)
    G = layout.glob
    assert_rel(two.Sigma_GG, dense.Sigma[np.ix_(G, G)])
    for i, cols in enumerate(layout.groups):
        assert_rel(two.Sigma_iG[i], dense.Sigma[np.ix_(cols, G)])
        assert_rel(two.Sigma_ii[i], dense.Sigma[np.ix_(cols, cols)])
    rows, cols = np.nonzero(on)
    got = two.covariance_at(natural_position(rows, cols, p, layout))
    assert_rel(got, dense.Sigma[rows, cols])
    got = dense.covariance_at(natural_position(rows, cols, p))
    assert np.array_equal(got, dense.Sigma[rows, cols])
    assert_rel(two.covariance(), dense.Sigma)
    Q = random_spd(rng, p) * on
    r = rng.normal(size=p)
    packed = (layout.pack(eta), layout.pack_matrix(Q))
    assert_rel(g_vmp(*packed, r, 1.5, layout=layout), g_vmp(eta, Q, r, 1.5))


def pattern_mask(layout):
    """The p x p entries that may be nonzero on ``layout``."""
    own = layout.owner
    return (own[:, None] == own[None, :]) | (own[:, None] < 0) | (own[None, :] < 0)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_packed_layout_keeps_each_symmetric_pair_once(m, q, g, seed):
    """Three blocks, GG, iG and ii: a global-by-group entry and its mirror
    share one slot (GG and ii keep both halves), every slot belongs to some
    pattern entry, and packing a symmetric on-pattern vector puts each
    entry at its position.  So does packing a matrix whose GG and ii blocks
    are not symmetric, and unpacking gives it back."""
    rng = np.random.default_rng(seed)
    layout, eta, _ = arrowhead_natural(rng, m, q, g)
    p = layout.p
    assert layout.packed_size == p + g * g + m * q * g + m * q * q
    on = pattern_mask(layout)
    cross = (layout.owner[:, None] < 0) != (layout.owner[None, :] < 0)  # global by group
    rows, cols = np.nonzero(on)
    pos, mirror = layout.position(rows, cols), layout.position(cols, rows)
    shared = cross[rows, cols]
    assert np.array_equal(pos[shared], mirror[shared])
    apart = ~shared & (rows != cols)
    assert np.all(pos[apart] != mirror[apart])
    assert np.array_equal(np.unique(pos), np.arange(p, layout.packed_size))
    M = eta[p:].reshape((p, p), order="F")
    assert np.array_equal(layout.pack(eta)[pos], M[rows, cols])
    R = rng.normal(size=(p, p)) * on
    R = np.where(cross, R + R.T, R)
    packed = np.concatenate([eta[:p], layout.pack_matrix(R)])
    assert np.array_equal(packed[pos], R[rows, cols])
    assert np.array_equal(layout.unpack(packed)[p:].reshape((p, p), order="F"), R)


def test_pack_rejects_an_asymmetric_pair(rng):
    """Only one of each global-by-group pair is kept, so packing names the
    first pair, in packed order, whose two entries differ in any bit."""
    layout, eta, _ = arrowhead_natural(rng, 3, 2, 2)
    p = layout.p
    M = eta[p:].reshape((p, p), order="F").copy()
    for i, k, a in ((2, 1, 0), (1, 0, 1)):
        r, c = layout.groups[i, k], layout.glob[a]
        M[c, r] = np.nextafter(M[r, c], np.inf)
    r, c = layout.groups[1, 0], layout.glob[1]
    want = re.escape(f"entry ({r}, {c}) is {float(M[r, c])!r} but ({c}, {r}) is {float(M[c, r])!r}")
    with pytest.raises(DimensionError, match=want):
        layout.pack_matrix(M)
    with pytest.raises(DimensionError, match=want):
        layout.pack(np.concatenate([eta[:p], M.ravel(order="F")]))
    M[c, r] = M[r, c]
    r, c = layout.groups[2, 1], layout.glob[0]
    with pytest.raises(DimensionError, match=rf"entry \({r}, {c}\)"):
        layout.pack_matrix(M)


def inverse_factor_moments(eta, layout):
    """(mu, Sigma_GG, Sigma_iG, Sigma_ii, logdet) of a packed natural vector
    through explicit inverses of the group Cholesky factors, L_i^{-1} from
    LAPACK (one solve per group): the two-level formulation that
    two_level_moments replaced, kept here as its reference."""
    p, g = layout.p, layout.g
    M_GG, M_iG, M_ii = layout.split(eta[p:])
    A, B, D = -(M_GG + M_GG.T), -2.0 * M_iG, -(M_ii + M_ii.swapaxes(1, 2))
    L = np.linalg.cholesky(D)
    Li = np.linalg.inv(L)
    LiT = Li.swapaxes(1, 2)
    W = Li @ B
    w = (Li @ eta[layout.groups][:, :, None])[:, :, 0]
    Wf = W.reshape(-1, g)
    c = spd_chol(A - Wf.T @ Wf)
    Sigma_GG = symmetrize(chol_solve(c, np.eye(g)))
    mu_G = chol_solve(c, eta[layout.glob] - Wf.T @ w.ravel())
    V = LiT @ W
    mu = np.empty(p)
    mu[layout.glob] = mu_G
    mu[layout.groups] = (LiT @ (w - W @ mu_G)[:, :, None])[:, :, 0]
    Sigma_iG = -(V @ Sigma_GG)
    Sigma_ii = LiT @ Li - Sigma_iG @ V.swapaxes(1, 2)
    Sigma_ii = 0.5 * (Sigma_ii + Sigma_ii.swapaxes(1, 2))
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))) + 2.0 * np.sum(np.log(np.diag(c[0])))
    return mu, Sigma_GG, Sigma_iG, Sigma_ii, logdet


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_two_level_moments_match_the_inverse_factor_formulation(m, q, g, seed):
    """The forward substitution for L_i^{-1}, the GEMM for Sigma_iG and the
    dpotri inverse of the Schur complement give the moments of the explicit
    inverse formulation to 1e-13 on well-conditioned two-level normals, and
    the Schur factor is the lower triangle of the Schur complement's
    Cholesky factor with zeros above."""
    rng = np.random.default_rng(seed)
    layout, eta, _ = arrowhead_natural(rng, m, q, g)
    packed = layout.pack(eta)
    got = mvn_moments(packed, layout.p, layout=layout)
    mu, Sigma_GG, Sigma_iG, Sigma_ii, logdet = inverse_factor_moments(packed, layout)
    for name, want in (("mu", mu), ("Sigma_GG", Sigma_GG), ("Sigma_iG", Sigma_iG), ("Sigma_ii", Sigma_ii)):
        assert_rel(getattr(got, name), want, tol=1e-13)
    assert abs(got.logdet - logdet) <= 1e-13 * max(1.0, abs(logdet))
    assert np.array_equal(got.Sigma_GG, got.Sigma_GG.T)
    assert np.array_equal(got.Sigma_ii, got.Sigma_ii.swapaxes(1, 2))
    factor = got.schur_factor
    assert np.array_equal(factor, np.tril(factor))
    assert_rel(factor @ factor.T, np.linalg.inv(Sigma_GG), tol=1e-12)


@pytest.mark.parametrize("group", [0, 3, 7])
@pytest.mark.parametrize("pivot", [0, 6])
def test_two_level_moments_name_a_failing_group_block(group, pivot):
    """With q = 7 as in the group curves, a group block that is not SPD
    (its Cholesky factorization failing at its first or its last pivot)
    raises SpdFactorizationError naming that group, whichever group it
    is."""
    rng = np.random.default_rng(group + 10 * pivot)
    layout, eta, _ = arrowhead_natural(rng, 8, 7, 3)
    p = layout.p
    P = -2.0 * vec_inverse(eta[p:], p)
    cols = layout.groups[group]
    block = random_spd(rng, 7)
    # the pivot's leading minor turns negative: its Schur complement in the block drops by one past zero
    block[pivot, pivot] -= 1.0 / np.linalg.inv(block[: pivot + 1, : pivot + 1])[pivot, pivot] + 1.0
    np.linalg.cholesky(block[:pivot, :pivot])
    P[np.ix_(cols, cols)] = block
    bad = layout.pack(np.concatenate([eta[:p], -0.5 * vec(P)]))
    with pytest.raises(SpdFactorizationError, match=rf"\(coef\): group {group} block") as exc:
        mvn_moments(bad, p, context="coef", layout=layout)
    assert exc.value.context == "coef"


def test_two_level_moments_name_the_failing_group(rng):
    layout, eta, _ = arrowhead_natural(rng, 4, 3, 2)
    p = layout.p
    P = -2.0 * vec_inverse(eta[p:], p)
    cols = layout.groups[2]
    P[np.ix_(cols, cols)] = -np.eye(3)
    bad = np.concatenate([eta[:p], -0.5 * vec(P)])
    with pytest.raises(SpdFactorizationError, match=r"\(q coef\): group 2 block") as exc:
        mvn_moments(layout.pack(bad), p, context="q coef", layout=layout)
    assert exc.value.context == "q coef"


def test_two_level_layout_validation(rng):
    with pytest.raises(DimensionError, match="exactly once"):
        TwoLevelLayout([0, 1], [[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        TwoLevelLayout([], [[0, 1]])
    layout, eta, _ = arrowhead_natural(rng, 3, 2, 2)
    with pytest.raises(DimensionError, match="between two groups"):
        layout.position(layout.groups[0, 0], layout.groups[1, 0])
    with pytest.raises(DimensionError, match="layout covers"):
        mvn_moments(layout.pack(eta), layout.p + 1, layout=layout)
    with pytest.raises(DimensionError, match="packed natural vector"):
        mvn_moments(eta, layout.p, layout=layout)  # dense, not packed
