import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semivmp.natparam import (
    DimensionError,
    SpdFactorizationError,
    TwoLevelLayout,
    g_vmp,
    mvn_moments,
    mvn_moments_from_natural,
    row_quadratic,
    spd_chol,
    spd_inverse,
    spd_logdet,
    spd_solve,
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
        np.testing.assert_allclose(spd_solve(A, B), np.linalg.solve(A, B), rtol=1e-10)
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


def arrowhead_natural(rng, m, q, g):
    """(layout, eta, pattern mask) for a random SPD precision whose groups
    meet only through the global columns; columns are shuffled so the layout
    is not contiguous."""
    p = g + m * q
    perm = rng.permutation(p)
    layout = TwoLevelLayout(perm[:g], perm[g:].reshape(m, q))
    P = np.zeros((p, p))
    G = layout.glob
    schur = random_spd(rng, g)
    for cols in layout.groups:
        D = random_spd(rng, q)
        B = rng.normal(size=(q, g))
        P[np.ix_(cols, cols)] = D
        P[np.ix_(cols, G)] = B
        P[np.ix_(G, cols)] = B.T
        schur = schur + B.T @ np.linalg.solve(D, B)
    P[np.ix_(G, G)] = symmetrize(schur)  # leaves Schur complement random_spd: SPD
    on = P != 0.0
    on[np.ix_(G, G)] = True
    eta = np.concatenate([rng.normal(size=p) * 3.0, -0.5 * vec(P)])
    return layout, eta, on


def assert_rel(got, want, tol=1e-10):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(got) - want)) <= tol * scale


@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_two_level_moments_match_dense(m, q, g, seed):
    rng = np.random.default_rng(seed)
    layout, eta, on = arrowhead_natural(rng, m, q, g)
    p = layout.p
    dense = mvn_moments(eta, p)
    two = mvn_moments(eta, p, layout=layout)
    assert_rel(two.mu, dense.mu)
    assert_rel(two.logdet, dense.logdet)
    G = layout.glob
    assert_rel(two.Sigma_GG, dense.Sigma[np.ix_(G, G)])
    for i, cols in enumerate(layout.groups):
        assert_rel(two.Sigma_iG[i], dense.Sigma[np.ix_(cols, G)])
        assert_rel(two.Sigma_ii[i], dense.Sigma[np.ix_(cols, cols)])
    rows, cols = np.nonzero(on)
    assert_rel(two.entries(rows, cols), dense.Sigma[rows, cols])
    Q = random_spd(rng, p) * on
    r = rng.normal(size=p)
    assert_rel(g_vmp(eta, Q, r, 1.5, layout=layout), g_vmp(eta, Q, r, 1.5))


def test_two_level_moments_name_the_failing_group(rng):
    layout, eta, _ = arrowhead_natural(rng, 4, 3, 2)
    p = layout.p
    P = -2.0 * vec_inverse(eta[p:], p)
    cols = layout.groups[2]
    P[np.ix_(cols, cols)] = -np.eye(3)
    bad = np.concatenate([eta[:p], -0.5 * vec(P)])
    with pytest.raises(SpdFactorizationError, match=r"\(q coef\): group 2 block") as exc:
        mvn_moments(bad, p, context="q coef", layout=layout)
    assert exc.value.context == "q coef"


def test_two_level_layout_validation(rng):
    with pytest.raises(DimensionError, match="exactly once"):
        TwoLevelLayout([0, 1], [[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        TwoLevelLayout([], [[0, 1]])
    layout, eta, _ = arrowhead_natural(rng, 3, 2, 2)
    two = mvn_moments(eta, layout.p, layout=layout)
    with pytest.raises(DimensionError, match="between two groups"):
        two.entries(layout.groups[0, 0], layout.groups[1, 0])
    with pytest.raises(DimensionError, match="layout covers"):
        mvn_moments(eta, layout.p + 1, layout=layout)


def test_off_pattern_group_finds_coupled_groups(rng):
    layout, eta, on = arrowhead_natural(rng, 4, 2, 3)
    Q = on.astype(float)
    assert layout.off_pattern_group(Q) is None
    Q[layout.groups[1, 0], layout.groups[3, 1]] = 1e-300
    assert layout.off_pattern_group(Q) == 1
