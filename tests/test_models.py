import warnings

import numpy as np
import pytest
from scipy.special import expit

from semivmp import expfam, models
from semivmp.engine import build_factor_graph, q_density, run_vmp
from semivmp.models import (
    OSULLIVAN_LIKE,
    TRUNCATED_LINEAR,
    Hyperparameters,
    build_glm_spline,
    build_group_curves,
    build_linear_regression,
    build_penalized_spline,
    demo_mean_function,
    fitted_curve,
    original_coefficients,
    spline_design,
)

from semivmp.fragments_gaussian import (
    SCALAR_D1,
    TOTALLY_CONNECTED,
    TOTALLY_DISCONNECTED,
    GaussianLikelihoodSpec,
    GaussianPenalizationSpec,
    GaussianPriorSpec,
    InverseWishartPriorSpec,
    IteratedIGWSpec,
)
from semivmp.fragments_glm import LogisticFragmentState, PoissonFragmentState, ProbitFragmentState

from conftest import make_regression_data


def spline_data(seed, n, noise=0.25):
    r = np.random.default_rng(seed)
    x = r.uniform(size=n)
    y = np.sin(2 * np.pi * x) + r.normal(scale=noise, size=n)
    return y, x


def fit(model, **kw):
    g = build_factor_graph(model)
    kw.setdefault("max_iter", 3000)
    kw.setdefault("tol", 1e-11)
    kw.setdefault("track_elbo", False)
    run_vmp(g, **kw)
    return g


# --- spline bases -------------------------------------------------------------


def test_truncated_linear_basis_values():
    x = np.linspace(0.0, 1.0, 11)
    Z, basis = spline_design(x, 3)
    np.testing.assert_allclose(basis.knots, [0.25, 0.5, 0.75], atol=1e-12)
    np.testing.assert_allclose(Z, np.maximum(x[:, None] - basis.knots[None, :], 0.0))
    assert Z.shape == (11, 3)
    # zero below each knot, slope one above
    assert np.all(Z[x < 0.25, 0] == 0.0)


def test_spline_design_validation():
    with pytest.raises(ValueError):
        spline_design(np.linspace(0, 1, 5), 7)  # K >= n
    with pytest.raises(ValueError):
        spline_design(np.repeat([0.1, 0.9], 15), 5)  # too few distinct values
    with pytest.raises(ValueError):
        spline_design(np.linspace(0, 1, 30), 4, kind="mystery")


def test_osullivan_dimensions_and_extrapolation_warning():
    y, x = spline_data(0, 200)
    Z, basis = spline_design(x, 9, OSULLIVAN_LIKE)
    assert Z.shape == (200, 9)
    with pytest.warns(UserWarning, match="extrapolation"):
        basis.evaluate(np.array([basis.range[1] + 0.5]))


def test_osullivan_curvature_penalty_is_identity():
    """The transformed basis must have unit curvature Gram matrix: the exact
    integral of z_j'' z_k'' over the fitted range equals delta_jk.  Checked by
    finite differences + trapezoid on a fine grid."""
    _, x = spline_data(1, 300)
    K = 8
    Z, basis = spline_design(x, K, OSULLIVAN_LIKE)
    lo, hi = basis.range
    t = np.linspace(lo, hi, 16001)
    Zt = basis.evaluate(t)
    dt = t[1] - t[0]
    Z2 = (Zt[2:] - 2.0 * Zt[1:-1] + Zt[:-2]) / dt**2
    G = np.trapezoid(Z2[:, :, None] * Z2[:, None, :], t[1:-1], axis=0)
    assert np.max(np.abs(G - np.eye(K))) < 5e-3


def test_demo_mean_function_shape():
    x = np.linspace(0.0, 1.0, 401)
    f = demo_mean_function(x)
    assert np.all((f > 0.0) & (f < 1.0))
    # the sharp bump near 0.75 rides on a declining trend
    assert f[np.argmin(np.abs(x - 0.75))] > f[np.argmin(np.abs(x - 0.6))]


# --- fitted curves ------------------------------------------------------------


def test_fitted_curve_band_width_identity_link():
    y, X = make_regression_data(3, n=40)
    g = fit(build_linear_regression(y, X, standardize=False))
    qc = q_density(g, "coef")
    grid = np.linspace(-1, 1, 9)
    builder = lambda gs: np.column_stack([np.ones(gs.size), gs, gs**2])
    fc = fitted_curve(qc, builder, grid)
    C = builder(grid)
    sd = np.sqrt(np.einsum("ij,jk,ik->i", C, qc.common["Sigma"], C))
    np.testing.assert_allclose(fc.upper95 - fc.mean, 1.959964 * sd, rtol=1e-5)
    np.testing.assert_allclose(fc.mean - fc.lower95, 1.959964 * sd, rtol=1e-5)


def test_fitted_curve_monotone_link_ordering():
    y, X = make_regression_data(4, n=40)
    g = fit(build_linear_regression(y, X, standardize=False))
    qc = q_density(g, "coef")
    grid = np.linspace(-2, 2, 25)
    builder = lambda gs: np.column_stack([np.ones(gs.size), gs, gs**2])
    fc = fitted_curve(qc, builder, grid, link="logit")
    assert np.all(fc.lower95 <= fc.mean) and np.all(fc.mean <= fc.upper95)
    assert np.all((fc.lower95 >= 0.0) & (fc.upper95 <= 1.0))
    raw = fitted_curve(qc, builder, grid)
    np.testing.assert_allclose(fc.mean, expit(raw.mean), rtol=1e-12)


# --- linear regression --------------------------------------------------------


def test_standardization_is_exact_reparameterization():
    y, X = make_regression_data(5, n=60)
    g_std = fit(build_linear_regression(y, X, standardize=True))
    g_raw = fit(build_linear_regression(y, X, standardize=False))
    m_std = build_linear_regression(y, X, standardize=True)
    mu_s, Sig_s = original_coefficients(m_std, q_density(g_std, "coef"))
    mu_r = q_density(g_raw, "coef").common["mu"]
    Sig_r = q_density(g_raw, "coef").common["Sigma"]
    np.testing.assert_allclose(mu_s, mu_r, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(Sig_s, Sig_r, rtol=1e-5, atol=1e-9)


# --- penalized spline ---------------------------------------------------------


def test_unpenalized_limit_matches_least_squares():
    y, x = spline_data(6, 200)
    m = build_penalized_spline(y, x, K=8, fixed_sigma_u_sq=1e8)
    g = fit(m)
    grid = np.linspace(np.min(x), np.max(x), 101)
    curve = fitted_curve(q_density(g, "coef"), m.curves["fit"], grid).mean
    C = m.curves["fit"](x)
    beta = np.linalg.lstsq(C, y, rcond=None)[0]
    ols_curve = m.curves["fit"](grid) @ beta
    assert np.max(np.abs(curve - ols_curve)) <= 1e-3


@pytest.mark.parametrize("kind", [TRUNCATED_LINEAR, OSULLIVAN_LIKE])
def test_gaussian_spline_recovers_truth(kind):
    # y = f(x) + N(0, 0.1^2), n=500, K=25: grid RMSE against f at most 0.05
    r = np.random.default_rng(20)
    n, K = 500, 25
    x = r.uniform(size=n)
    y = demo_mean_function(x) + r.normal(scale=0.1, size=n)
    m = build_penalized_spline(y, x, K=K, spline_kind=kind)
    g = fit(m, max_iter=1500)
    grid = np.linspace(0.02, 0.98, 201)
    curve = fitted_curve(q_density(g, "coef"), m.curves["fit"], grid).mean
    rmse = np.sqrt(np.mean((curve - demo_mean_function(grid)) ** 2))
    assert rmse <= 0.05


def test_penalized_beats_unpenalized_on_noise():
    # pure-noise response: shrinkage should kill the spline wiggles
    r = np.random.default_rng(21)
    x = r.uniform(size=150)
    y = r.normal(size=150)
    m = build_penalized_spline(y, x, K=10)
    g = fit(m)
    grid = np.linspace(0.1, 0.9, 50)
    curve = fitted_curve(q_density(g, "coef"), m.curves["fit"], grid).mean
    assert np.ptp(curve) < 1.0  # flat-ish, no chasing of noise


# --- group curves -------------------------------------------------------------


def group_data(seed=8, m=6, per=20):
    r = np.random.default_rng(seed)
    gid = np.repeat(np.arange(m), per)
    lab = np.repeat((np.arange(m) % 2).astype(float), per)
    x = r.uniform(size=m * per)
    y = (
        np.sin(2 * np.pi * x)
        + lab * (0.5 * x)
        + r.normal(scale=0.3, size=m * per)
        + np.repeat(r.normal(scale=0.3, size=m), per)
    )
    return y, x, gid, lab


def test_group_curves_structure():
    y, x, gid, lab = group_data()
    m = build_group_curves(y, x, gid, lab, K_gbl=6, K_grp=3)
    g = build_factor_graph(m)
    assert len(g.nodes) == 11 and len(g.factors) == 12
    assert set(m.curves) == {"group_0", "group_1", "contrast"}


def test_group_curves_contrast_design():
    y, x, gid, lab = group_data()
    m = build_group_curves(y, x, gid, lab, K_gbl=6, K_grp=3)
    grid = np.linspace(0.2, 0.8, 13)
    D0 = m.curves["group_0"](grid)
    D1 = m.curves["group_1"](grid)
    Dc = m.curves["contrast"](grid)
    np.testing.assert_allclose(Dc, D1 - D0, atol=1e-12)
    # contrast hits only the label indicator, its slope, and the second
    # global spline block
    assert np.all(Dc[:, 0] == 0.0) and np.all(Dc[:, 1] == 0.0)
    assert np.all(Dc[:, 2] == 1.0)


def test_group_curves_label_validation():
    y, x, gid, lab = group_data()
    lab2 = lab.copy()
    lab2[0] = 1.0 - lab2[0]  # one observation flips its group's label
    with pytest.raises(ValueError, match="mixed labels"):
        build_group_curves(y, x, gid, lab2)
    with pytest.raises(ValueError, match="binary"):
        build_group_curves(y, x, gid, np.full_like(lab, 0.5))
    with pytest.warns(UserWarning, match="labels equal"):
        build_group_curves(y, x, gid, np.zeros_like(lab))


def test_group_curves_single_population_degenerates_to_spline():
    """With one population, no subject lines and no per-group splines, the
    shared-coefficient marginals must match the plain penalized spline."""
    y, x = spline_data(2, 120)
    K = 7
    gp = fit(build_penalized_spline(y, x, K=K), tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mg = build_group_curves(
            y, x, np.zeros(y.size, dtype=int), np.zeros(y.size),
            K_gbl=K, K_grp=0, include_subject_lines=False,
        )
    gg = fit(mg, max_iter=5000, tol=1e-12)
    qp, qg = q_density(gp, "coef"), q_density(gg, "coef")
    idx_g = np.array([0, 1] + list(range(4, 4 + K)))
    idx_p = np.array([0, 1] + list(range(2, 2 + K)))
    assert np.max(np.abs(qg.common["mu"][idx_g] - qp.common["mu"][idx_p])) <= 1e-6
    assert np.max(np.abs(
        qg.common["Sigma"][np.ix_(idx_g, idx_g)] - qp.common["Sigma"][np.ix_(idx_p, idx_p)]
    )) <= 1e-6
    assert np.max(np.abs(
        q_density(gg, "sigsq_gbl_w").eta_q - q_density(gp, "sigsq_u").eta_q
    )) <= 1e-6
    assert np.max(np.abs(
        q_density(gg, "sigsq_eps").eta_q - q_density(gp, "sigsq_eps").eta_q
    )) <= 1e-6


def test_group_curves_fit_runs_with_full_structure():
    y, x, gid, lab = group_data(m=8, per=25)
    m = build_group_curves(y, x, gid, lab, K_gbl=5, K_grp=2)
    g = build_factor_graph(m)
    rep = run_vmp(g, max_iter=2000, tol=1e-8, track_elbo=False)
    assert rep.converged
    # the 2x2 subject covariance node must carry a proper q
    qS = q_density(g, "Sigma_subject")
    evals = np.linalg.eigvalsh(qS.common["Lambda"])
    assert np.all(evals > 0)


@pytest.mark.parametrize("kind", [TRUNCATED_LINEAR, OSULLIVAN_LIKE])
@pytest.mark.parametrize("K_grp", [0, 3])
@pytest.mark.parametrize("subject_lines", [True, False])
def test_group_curves_two_level_layout(subject_lines, K_grp, kind):
    y, x, gid, lab = group_data()
    m = build_group_curves(y, x, gid, lab, K_gbl=6, K_grp=K_grp, spline_kind=kind,
                           include_subject_lines=subject_lines)
    (coef,) = [n for n in m.nodes if n.name == m.coef_node]
    layout = coef.layout
    if not subject_lines and K_grp == 0:
        assert layout is None  # no group columns: the dense path
        return
    C = m.meta["C"]
    p = C.shape[1]
    cols = np.concatenate([layout.glob, layout.groups.ravel()])
    assert np.array_equal(np.sort(cols), np.arange(p))  # every column exactly once
    assert layout.groups.shape == (6, 2 * subject_lines + K_grp)
    on = np.zeros((p, p), dtype=bool)
    on[layout.glob, :] = on[:, layout.glob] = True
    for g in layout.groups:
        on[np.ix_(g, g)] = True
    assert np.all((C.T @ C)[~on] == 0.0)


# --- wiring: node order and fragment order (the default schedule) ------------


def wiring(model):
    """Node names, and (factor name, fragment class, ports) in schedule order."""
    return (
        [n.name for n in model.nodes],
        [(f.name, type(f.fragment), f.ports) for f in model.fragments],
    )


def chain(tag):
    """Node names and fragments of one sigma^2 | a half-Cauchy chain."""
    a_name = f"a_{tag}"
    return [f"sigsq_{tag}", a_name], [
        (f"link_{tag}", IteratedIGWSpec, (f"sigsq_{tag}", a_name)),
        (f"prior_{a_name}", InverseWishartPriorSpec, (a_name,)),
    ]


def variance_params(model):
    """(kappa, d, Theta1 kind, Theta2 kind) of each iterated-IGW link and
    (kappa, Lambda, kind) of each a-prior, by factor name."""
    out = {}
    for f in model.fragments:
        s = f.fragment
        if isinstance(s, IteratedIGWSpec):
            out[f.name] = (s.kappa, s.d_Theta, s.graph_kind, s.theta2_kind)
        elif isinstance(s, InverseWishartPriorSpec):
            out[f.name] = (s.kappa, s.Lambda.tolist(), s.graph_kind)
    return out


def half_cauchy(tag):
    """variance_params of one scalar half-Cauchy chain at the default A = 1e5:
    the d=1, nu=1 Huang-Wand chain."""
    return {
        f"link_{tag}": (1.0, 1, SCALAR_D1, SCALAR_D1),
        f"prior_a_{tag}": (1.0, [[1e-10]], SCALAR_D1),
    }


# nu = 2 at d = 2: kappa = nu + d - 1 = 3 and Lambda = I / (nu A^2)
SUBJECT = {
    "link_subject": (3.0, 2, TOTALLY_CONNECTED, TOTALLY_DISCONNECTED),
    "prior_A_subject": (1.0, [[5e-11, 0.0], [0.0, 5e-11]], TOTALLY_DISCONNECTED),
}


def test_variance_kinds_are_families():
    assert (SCALAR_D1, TOTALLY_CONNECTED, TOTALLY_DISCONNECTED) == (
        expfam.INVERSE_CHI_SQUARED, expfam.INVERSE_WISHART, expfam.INVERSE_G_WISHART_DIAG,
    )


def test_linear_regression_wiring():
    y, X = make_regression_data(1, n=30)
    nodes, frags = chain("eps")
    model = build_linear_regression(y, X)
    assert wiring(model) == (
        ["coef"] + nodes,
        [("prior_coef", GaussianPriorSpec, ("coef",)),
         ("likelihood", GaussianLikelihoodSpec, ("coef", "sigsq_eps"))] + frags,
    )
    assert variance_params(model) == half_cauchy("eps")
    fixed = build_linear_regression(y, X, fixed_sigma_sq=0.5)
    assert wiring(fixed) == (
        ["coef"],
        [("prior_coef", GaussianPriorSpec, ("coef",)),
         ("likelihood", GaussianLikelihoodSpec, ("coef",))],
    )
    assert variance_params(fixed) == {}


@pytest.mark.parametrize("kind", [TRUNCATED_LINEAR, OSULLIVAN_LIKE])
def test_penalized_spline_wiring(kind):
    y, x = spline_data(1, 60)
    u_nodes, u_frags = chain("u")
    eps_nodes, eps_frags = chain("eps")
    lik = [("likelihood", GaussianLikelihoodSpec, ("coef", "sigsq_eps"))]
    model = build_penalized_spline(y, x, K=5, spline_kind=kind)
    assert wiring(model) == (
        ["coef"] + u_nodes + eps_nodes,
        [("penalization", GaussianPenalizationSpec, ("coef", "sigsq_u"))]
        + u_frags + lik + eps_frags,
    )
    assert variance_params(model) == half_cauchy("u") | half_cauchy("eps")
    fixed = build_penalized_spline(y, x, K=5, spline_kind=kind, fixed_sigma_u_sq=0.3)
    assert wiring(fixed) == (
        ["coef"] + eps_nodes,
        [("penalization", GaussianPenalizationSpec, ("coef",))] + lik + eps_frags,
    )
    assert variance_params(fixed) == half_cauchy("eps")


@pytest.mark.parametrize(
    "link, state",
    [("logit", LogisticFragmentState), ("probit", ProbitFragmentState),
     ("log", PoissonFragmentState)],
)
def test_glm_spline_wiring(link, state):
    r = np.random.default_rng(2)
    x = r.uniform(size=60)
    y = r.integers(0, 2, size=60).astype(float)
    u_nodes, u_frags = chain("u")
    model = build_glm_spline(y, x, K=5, link=link)
    assert wiring(model) == (
        ["coef"] + u_nodes,
        [("penalization", GaussianPenalizationSpec, ("coef", "sigsq_u")),
         ("likelihood", state, ("coef",))] + u_frags,
    )
    assert variance_params(model) == half_cauchy("u")


@pytest.mark.parametrize("K_grp", [0, 3])
@pytest.mark.parametrize("subject_lines", [True, False])
def test_group_curves_wiring(subject_lines, K_grp):
    y, x, gid, lab = group_data()
    m = build_group_curves(y, x, gid, lab, K_gbl=6, K_grp=K_grp,
                           include_subject_lines=subject_lines)
    nodes, frags, pen_ports = ["coef"], [], ["coef"]
    params = half_cauchy("gbl_w") | half_cauchy("gbl_b") | half_cauchy("eps")
    for tag in ("gbl_w", "gbl_b"):
        n, f = chain(tag)
        nodes, frags, pen_ports = nodes + n, frags + f, pen_ports + [f"sigsq_{tag}"]
    if subject_lines:
        nodes += ["Sigma_subject", "A_subject"]
        frags += [("link_subject", IteratedIGWSpec, ("Sigma_subject", "A_subject")),
                  ("prior_A_subject", InverseWishartPriorSpec, ("A_subject",))]
        pen_ports.append("Sigma_subject")
        params |= SUBJECT
    if K_grp:
        n, f = chain("grp")
        nodes, frags, pen_ports = nodes + n, frags + f, pen_ports + ["sigsq_grp"]
        params |= half_cauchy("grp")
    eps_nodes, eps_frags = chain("eps")
    assert wiring(m) == (
        nodes + eps_nodes,
        [("penalization", GaussianPenalizationSpec, tuple(pen_ports))] + frags
        + [("likelihood", GaussianLikelihoodSpec, ("coef", "sigsq_eps"))] + eps_frags,
    )
    assert variance_params(m) == params


def test_variance_chains_follow_the_prior():
    y, x, gid, lab = group_data()
    A, nu = 2.5, 3.0
    params = variance_params(build_group_curves(
        y, x, gid, lab, K_gbl=6, K_grp=3, hyper=Hyperparameters(A=A, nu=nu)
    ))
    # the subject covariance gets kappa = nu + d - 1 and Lambda = I / (nu A^2);
    # each scalar variance keeps the half-Cauchy(A) chain, nu = 1
    assert params["link_subject"] == (nu + 1.0, 2, TOTALLY_CONNECTED, TOTALLY_DISCONNECTED)
    np.testing.assert_allclose(params["prior_A_subject"][1], np.eye(2) / (nu * A**2), rtol=1e-15)
    for tag in ("gbl_w", "gbl_b", "grp", "eps"):
        assert params[f"link_{tag}"] == (1.0, 1, SCALAR_D1, SCALAR_D1)
        np.testing.assert_allclose(params[f"prior_a_{tag}"][1], [[A**-2]], rtol=1e-15)


def test_group_curves_rejects_design_off_the_pattern(monkeypatch):
    real = models.TwoLevelLayout

    def swapped(glob, groups):  # file one column of group 0 under group 1
        groups = groups.copy()
        groups[0, 0], groups[1, 0] = groups[1, 0], groups[0, 0]
        return real(glob, groups)

    monkeypatch.setattr(models, "TwoLevelLayout", swapped)
    y, x, gid, lab = group_data()
    with pytest.raises(ValueError, match="couples group 0"):
        build_group_curves(y, x, gid, lab, K_gbl=6, K_grp=3)


# --- input validation and stored priors ---------------------------------------


def _poison(values, row, bad):
    values = np.array(values, dtype=float)
    values[row] = bad
    return values


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_regression_rejects_non_finite(bad):
    y, X = make_regression_data(3, n=30)
    with pytest.raises(ValueError, match=r"^y has a non-finite value .* at row 4$"):
        build_linear_regression(_poison(y, 4, bad), X)
    X = X.copy()
    X[7, 2] = bad
    with pytest.raises(ValueError, match=r"^X\[:, 2\] has a non-finite value .* at row 7$"):
        build_linear_regression(y, X)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_penalized_spline_rejects_non_finite(bad):
    y, x = spline_data(3, 60)
    with pytest.raises(ValueError, match=r"^y has a non-finite value .* at row 5$"):
        build_penalized_spline(_poison(y, 5, bad), x, K=5)
    with pytest.raises(ValueError, match=r"^x has a non-finite value .* at row 9$"):
        build_penalized_spline(y, _poison(x, 9, bad), K=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_glm_spline_rejects_non_finite(bad):
    r = np.random.default_rng(4)
    x = r.uniform(size=60)
    y = r.integers(0, 2, 60).astype(float)
    with pytest.raises(ValueError, match=r"^y has a non-finite value .* at row 2$"):
        build_glm_spline(_poison(y, 2, bad), x, K=5, link="logit")
    with pytest.raises(ValueError, match=r"^x has a non-finite value .* at row 11$"):
        build_glm_spline(y, _poison(x, 11, bad), K=5, link="log")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_group_curves_rejects_non_finite(bad):
    y, x, gid, lab = group_data()
    with pytest.raises(ValueError, match=r"^y has a non-finite value .* at row 3$"):
        build_group_curves(_poison(y, 3, bad), x, gid, lab, K_gbl=6, K_grp=3)
    with pytest.raises(ValueError, match=r"^x has a non-finite value .* at row 8$"):
        build_group_curves(y, _poison(x, 8, bad), gid, lab, K_gbl=6, K_grp=3)
    with pytest.raises(ValueError, match=r"^group_label has a non-finite value .* at row 21$"):
        build_group_curves(y, x, gid, _poison(lab, 21, bad), K_gbl=6, K_grp=3)


def test_builders_keep_their_prior():
    hyper = Hyperparameters(sigma_beta_sq=37.0, A=2.5, nu=3.0)
    y, x = spline_data(5, 80)
    yb = (y > 0).astype(float)
    assert build_penalized_spline(y, x, K=5, hyper=hyper).meta["hyper"] == hyper
    assert build_glm_spline(yb, x, K=5, link="probit", hyper=hyper).meta["hyper"] == hyper
    gy, gx, gid, lab = group_data()
    assert build_group_curves(gy, gx, gid, lab, K_gbl=6, K_grp=3, hyper=hyper).meta["hyper"] == hyper
    ly, X = make_regression_data(5, n=30)
    kept = build_linear_regression(ly, X, sigma_beta_sq=37.0, A_hyper=2.5).meta["hyper"]
    assert (kept.sigma_beta_sq, kept.A) == (37.0, 2.5)
    assert build_glm_spline(yb, x, K=5).meta["hyper"] == Hyperparameters()


# --- GLM splines --------------------------------------------------------------


def test_glm_builder_validation():
    r = np.random.default_rng(9)
    x = r.uniform(size=50)
    with pytest.raises(ValueError, match="link"):
        models.build_glm_spline(r.integers(0, 2, 50).astype(float), x, K=4, link="cauchit")
    with pytest.raises(ValueError, match="0/1 response"):
        models.build_glm_spline(np.full(50, 2.0), x, K=4, link="logit")
    with pytest.raises(ValueError, match="nonnegative integer"):
        models.build_glm_spline(np.full(50, -3.0), x, K=4, link="log")


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_glm_spline_smoke(link):
    r = np.random.default_rng(15)
    n = 250
    x = r.uniform(size=n)
    f = demo_mean_function(x)
    y = r.poisson(10 * f).astype(float) if link == "log" else r.binomial(1, f).astype(float)
    m = models.build_glm_spline(y, x, K=8, link=link)
    g = build_factor_graph(m)
    rep = run_vmp(g, max_iter=1000, tol=1e-9)
    assert rep.converged
    # Poisson and probit traces are exact-expectation ELBOs; the logistic one
    # is a bound: all should be finite and non-decreasing at the tail
    tail = np.diff(rep.elbo_trace[-20:])
    assert np.all(np.isfinite(rep.elbo_trace))
    assert np.min(tail) >= -1e-6
