import copy
import types
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from semivmp import cli, expfam, fragments_gaussian, fragments_glm, models
from semivmp.engine import (
    ConvergenceReport,
    FragmentBinding,
    GraphStructureError,
    ImproperQDensityError,
    StochasticNode,
    VmpNumericsError,
    build_factor_graph,
    elbo,
    q_density,
    run_vmp,
    update_factor,
    update_node_to_factor,
)
from semivmp.expfam import INVERSE_CHI_SQUARED, INVERSE_WISHART, MULTIVARIATE_NORMAL, NatParam
from semivmp.fragments_gaussian import (
    GaussianLikelihoodSpec,
    GaussianPenalizationSpec,
    GaussianPriorSpec,
    PenalizedBlock,
)
from semivmp.fragments_glm import (
    LinearPredictorOverflowError,
    LogisticFragmentState,
    PoissonFragmentState,
)
from semivmp.natparam import (
    SpdFactorizationError,
    TwoLevelLayout,
    chol_solve,
    mvn_moments_from_natural,
    spd_chol,
    spd_solve,
    vec,
)

from conftest import make_regression_data


def model_of(nodes, fragments):
    return types.SimpleNamespace(nodes=nodes, fragments=fragments)


def mvn_eta(mu, Sigma):
    P = np.linalg.inv(np.atleast_2d(Sigma))
    mu = np.atleast_1d(mu)
    return np.concatenate([P @ mu, -0.5 * vec(P)])


def prior_only_model(d=2):
    return model_of(
        [StochasticNode("theta", MULTIVARIATE_NORMAL, d)],
        [
            FragmentBinding("prior", GaussianPriorSpec(np.zeros(d), 4.0 * np.eye(d)), ("theta",))
        ],
    )


# --- construction and validation ---------------------------------------------


def test_builder_graph_shapes():
    y, X = make_regression_data(1, n=30)
    g = build_factor_graph(models.build_linear_regression(y, X))
    assert set(g.nodes) == {"coef", "sigsq_eps", "a_eps"}
    assert len(g.factors) == 4

    r = np.random.default_rng(0)
    x = r.uniform(size=60)
    yy = np.sin(2 * np.pi * x) + r.normal(scale=0.2, size=60)
    g = build_factor_graph(models.build_penalized_spline(yy, x, K=5))
    assert set(g.nodes) == {"coef", "sigsq_u", "a_u", "sigsq_eps", "a_eps"}
    assert len(g.factors) == 6


def test_duplicate_node_rejected():
    nodes = [StochasticNode("a", MULTIVARIATE_NORMAL, 1), StochasticNode("a", MULTIVARIATE_NORMAL, 1)]
    with pytest.raises(GraphStructureError, match="duplicate node"):
        build_factor_graph(model_of(nodes, []))


class _NoLogp:
    def ports(self):
        return [(MULTIVARIATE_NORMAL, 1)]

    def update(self, n2f, f2n, nodes, context):
        return self, [n2f[0]]


def test_binding_without_protocol_rejected():
    # a kind string, nothing, or an object missing one of the three methods
    for obj in ("gaussian_prior", None, _NoLogp()):
        m = model_of(
            [StochasticNode("t", MULTIVARIATE_NORMAL, 1)],
            [FragmentBinding("mystery", obj, ("t",))],
        )
        with pytest.raises(GraphStructureError, match="factor 'mystery'.*ports, update and logp"):
            build_factor_graph(m)


def test_dangling_port_rejected():
    m = model_of(
        [StochasticNode("t", MULTIVARIATE_NORMAL, 2)],
        [
            FragmentBinding(
                "prior", GaussianPriorSpec(np.zeros(2), np.eye(2)), ("ghost",)
            )
        ],
    )
    with pytest.raises(GraphStructureError, match="undeclared node"):
        build_factor_graph(m)


def test_family_mismatch_rejected():
    m = model_of(
        [StochasticNode("t", INVERSE_CHI_SQUARED, 1)],
        [
            FragmentBinding(
                "prior", GaussianPriorSpec(np.zeros(1), np.eye(1)), ("t",)
            )
        ],
    )
    with pytest.raises(GraphStructureError, match="expects family"):
        build_factor_graph(m)


def test_orphan_node_rejected():
    m = model_of(
        [StochasticNode("t", MULTIVARIATE_NORMAL, 1), StochasticNode("lonely", MULTIVARIATE_NORMAL, 1)],
        [
            FragmentBinding(
                "prior", GaussianPriorSpec(np.zeros(1), np.eye(1)), ("t",)
            )
        ],
    )
    with pytest.raises(GraphStructureError, match="attached to no factor"):
        build_factor_graph(m)


def test_port_count_rejected():
    m = model_of(
        [StochasticNode("t", MULTIVARIATE_NORMAL, 1)],
        [
            FragmentBinding(
                "prior", GaussianPriorSpec(np.zeros(1), np.eye(1)), ("t", "t")
            )
        ],
    )
    with pytest.raises(GraphStructureError, match="ports"):
        build_factor_graph(m)


def test_layout_must_match_its_node():
    layout = TwoLevelLayout([0], [[1, 2], [3, 4]])
    assert StochasticNode("coef", MULTIVARIATE_NORMAL, 5, layout).layout is layout
    with pytest.raises(GraphStructureError, match="5 columns"):
        StochasticNode("coef", MULTIVARIATE_NORMAL, 4, layout)
    with pytest.raises(GraphStructureError, match="multivariate normal"):
        StochasticNode("s", INVERSE_CHI_SQUARED, 5, layout)


def layout_prior_model():
    """A prior that knows nothing of packing, on a node with a layout."""
    layout = TwoLevelLayout([0], [[1, 2], [3, 4]])
    return layout, model_of(
        [StochasticNode("coef", MULTIVARIATE_NORMAL, 5, layout)],
        [FragmentBinding("prior", GaussianPriorSpec(np.zeros(5), np.eye(5)), ("coef",))],
    )


def test_layout_node_starts_packed():
    layout, m = layout_prior_model()
    start = build_factor_graph(m).fac_to_node[("prior", "coef")]
    assert start.shape == (layout.packed_size,) and layout.packed_size < 5 + 25
    np.testing.assert_array_equal(
        layout.unpack(start), np.concatenate([np.zeros(5), -0.5 * vec(0.01 * np.eye(5))])
    )


def test_message_of_another_shape_names_factor_and_node():
    # the dense prior message would otherwise fail later, as a broadcast error
    _, m = layout_prior_model()
    g = build_factor_graph(m)
    with pytest.raises(VmpNumericsError, match=r"factor 'prior'.*node 'coef'") as exc:
        run_vmp(g, max_iter=1)
    assert exc.value.factor == "prior"


def test_initialization_conventions():
    y, X = make_regression_data(1, n=30)
    g = build_factor_graph(models.build_linear_regression(y, X))
    d = X.shape[1]
    np.testing.assert_array_equal(
        g.fac_to_node[("likelihood", "coef")],
        np.concatenate([np.zeros(d), -0.5 * vec(0.01 * np.eye(d))]),
    )
    np.testing.assert_array_equal(g.fac_to_node[("link_eps", "sigsq_eps")], [-1.5, -0.5])

    r = np.random.default_rng(3)
    x = r.uniform(size=40)
    yb = r.integers(0, 2, size=40).astype(float)
    gg = build_factor_graph(models.build_glm_spline(yb, x, K=4, link="logit"))
    p = 4 + 2
    # GLM likelihood edges start at unit precision (vague but tighter than
    # the Gaussian kinds; exp-moment updates diverge from variance-100 starts)
    np.testing.assert_array_equal(
        gg.fac_to_node[("likelihood", "coef")],
        np.concatenate([np.zeros(p), -0.5 * vec(np.eye(p))]),
    )


# --- message bookkeeping -----------------------------------------------------


def test_node_to_factor_is_sum_of_other_factors():
    y, X = make_regression_data(4, n=25)
    g = build_factor_graph(models.build_linear_regression(y, X))
    run_vmp(g, max_iter=3, tol=1e-15, track_elbo=False)
    msg = update_node_to_factor(g, "sigsq_eps", "likelihood")
    np.testing.assert_allclose(msg, g.fac_to_node[("link_eps", "sigsq_eps")])


def test_update_factor_returns_outbound_messages():
    g = build_factor_graph(prior_only_model())
    (out,) = update_factor(g, "prior")
    assert out is g.fac_to_node[("prior", "theta")]
    np.testing.assert_allclose(out, mvn_eta(np.zeros(2), 4.0 * np.eye(2)))


def test_converged_graph_is_a_fixed_point():
    r = np.random.default_rng(5)
    x = r.uniform(size=80)
    y = np.sin(2 * np.pi * x) + r.normal(scale=0.3, size=80)
    g = build_factor_graph(models.build_penalized_spline(y, x, K=6))
    run_vmp(g, max_iter=3000, tol=1e-13, track_elbo=False)
    before = {k: v.copy() for k, v in g.fac_to_node.items()}
    for fname in g.factors:
        update_factor(g, fname)
    worst = max(
        np.max(np.abs(g.fac_to_node[k] - v) / np.maximum(1.0, np.abs(v)))
        for k, v in before.items()
    )
    assert worst <= 1e-8


def test_converged_glm_graph_is_a_fixed_point():
    r = np.random.default_rng(6)
    x = r.uniform(size=90)
    y = r.binomial(1, models.demo_mean_function(x)).astype(float)
    g = build_factor_graph(models.build_glm_spline(y, x, K=5, link="probit"))
    run_vmp(g, max_iter=2000, tol=1e-13, track_elbo=False)
    before = {k: v.copy() for k, v in g.fac_to_node.items()}
    for fname in g.factors:
        update_factor(g, fname)
    worst = max(
        np.max(np.abs(g.fac_to_node[k] - v) / np.maximum(1.0, np.abs(v)))
        for k, v in before.items()
    )
    assert worst <= 1e-8


def test_fragment_state_stays_per_graph():
    r = np.random.default_rng(9)
    x = r.uniform(size=80)
    y = r.binomial(1, models.demo_mean_function(x)).astype(float)
    # two graphs of one ModelSpec share its bindings but not the logistic
    # state (the tangent points xi that the ELBO reads)
    spec = models.build_glm_spline(y, x, K=5, link="logit")
    fitted, other = build_factor_graph(spec), build_factor_graph(spec)
    run_vmp(fitted, max_iter=20, tol=1e-15, track_elbo=False)
    fitted_elbo = elbo(fitted)
    fresh = build_factor_graph(models.build_glm_spline(y, x, K=5, link="logit"))
    for g in (other, fresh):
        run_vmp(g, max_iter=1, tol=1e-15, track_elbo=False)
    for key, msg in fresh.fac_to_node.items():
        np.testing.assert_array_equal(other.fac_to_node[key], msg)
    assert elbo(other) == elbo(fresh)
    assert elbo(fitted) == fitted_elbo


def test_fragments_call_module_functions_at_call_time(monkeypatch):
    # the tracer of the benchmark patches these module attributes; a fit must
    # reach them through the module, not through a reference bound earlier
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(fragments_gaussian, "gaussian_penalization_messages")
    counting(fragments_glm, "albert_chib_update")
    r = np.random.default_rng(10)
    x = r.uniform(size=60)
    y = r.binomial(1, models.demo_mean_function(x)).astype(float)
    run_vmp(build_factor_graph(models.build_glm_spline(y, x, K=4, link="probit")), max_iter=3)
    assert calls == {"gaussian_penalization_messages": 3, "albert_chib_update": 3}


# --- ELBO ---------------------------------------------------------------------


def test_prior_only_elbo_is_zero():
    g = build_factor_graph(prior_only_model())
    run_vmp(g, max_iter=5, tol=1e-12, track_elbo=False)
    # q equals the prior exactly, so the bound equals log evidence = log 1
    assert elbo(g) == pytest.approx(0.0, abs=1e-12)


def test_conjugate_elbo_equals_log_evidence():
    y, X = make_regression_data(8, n=25)
    s2 = 0.49
    m = models.build_linear_regression(
        y, X, fixed_sigma_sq=s2, standardize=False,
        mu_beta=np.zeros(3), Sigma_beta=4.0 * np.eye(3),
    )
    g = build_factor_graph(m)
    run_vmp(g, max_iter=10, tol=1e-13, track_elbo=False)
    logev = stats.multivariate_normal.logpdf(y, X @ np.zeros(3), s2 * np.eye(25) + X @ (4.0 * np.eye(3)) @ X.T)
    got = elbo(g)
    assert got <= logev + 1e-9
    assert got == pytest.approx(logev, abs=1e-8)


def test_elbo_monotone_on_linreg():
    y, X = make_regression_data(11, n=40)
    g = build_factor_graph(models.build_linear_regression(y, X))
    rep = run_vmp(g, max_iter=60, tol=1e-14)
    assert len(rep.elbo_trace) == rep.iterations
    assert np.min(np.diff(rep.elbo_trace)) >= -1e-8


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_glm_elbo_below_monte_carlo_evidence(rng, link):
    # tiny model: coef ~ N(0, 2.25), 4 observations; the converged bound must
    # sit below a 10^6-draw prior-average estimate of log p(y)
    n, tau = 4, 1.5
    A = np.array([[1.0], [0.6], [-0.8], [0.3]])
    if link == "log":
        y = np.array([1.0, 2.0, 0.0, 1.0])
        state = PoissonFragmentState(y, A)

        def loglik(th):
            lam = np.exp(A @ th.T)
            return np.sum(stats.poisson.logpmf(y[:, None], lam), axis=0)
    else:
        y = np.array([1.0, 0.0, 1.0, 1.0])
        if link == "logit":
            state = LogisticFragmentState(y, A)

            def loglik(th):
                h = A @ th.T
                return np.sum(y[:, None] * h - np.logaddexp(0.0, h), axis=0)
        else:
            from semivmp.fragments_glm import ProbitFragmentState

            state = ProbitFragmentState(y, A)

            def loglik(th):
                h = A @ th.T
                sgn = 2.0 * y[:, None] - 1.0
                return np.sum(stats.norm.logcdf(sgn * h), axis=0)

    m = model_of(
        [StochasticNode("coef", MULTIVARIATE_NORMAL, 1)],
        [
            FragmentBinding("prior", GaussianPriorSpec(np.zeros(1), tau**2 * np.eye(1)), ("coef",)),
            FragmentBinding("likelihood", state, ("coef",)),
        ],
    )
    g = build_factor_graph(m)
    rep = run_vmp(g, max_iter=400, tol=1e-12)
    assert rep.converged
    draws = rng.normal(scale=tau, size=(1_000_000, 1))
    lik = np.exp(loglik(draws))
    log_ev = np.log(lik.mean())
    se_log = lik.std() / (lik.mean() * np.sqrt(lik.size))
    assert elbo(g) <= log_ev + 4 * se_log
    # and the bound should not be absurdly loose on a 1-parameter model
    assert elbo(g) >= log_ev - 1.0


def test_improper_q_density_raises():
    y, X = make_regression_data(2, n=20)
    g = build_factor_graph(models.build_linear_regression(y, X))
    g.fac_to_node[("link_eps", "sigsq_eps")] = np.array([5.0, 5.0])
    with pytest.raises(ImproperQDensityError):
        q_density(g, "sigsq_eps")
    with pytest.raises(ImproperQDensityError):
        elbo(g)


def test_numerics_error_wraps_overflow():
    m = model_of(
        [StochasticNode("coef", MULTIVARIATE_NORMAL, 1)],
        [
            FragmentBinding("prior", GaussianPriorSpec(np.zeros(1), np.eye(1)), ("coef",)),
            FragmentBinding(
                "likelihood", PoissonFragmentState(np.array([1.0]), np.array([[1.0]])), ("coef",)
            ),
        ],
    )
    g = build_factor_graph(m)
    # combined with the unit-precision init this still leaves mean 1500 > 700
    g.fac_to_node[("prior", "coef")] = mvn_eta([3000.0], [[1.0]])
    with pytest.raises(VmpNumericsError) as exc:
        update_factor(g, "likelihood")
    assert exc.value.factor == "likelihood"
    assert isinstance(exc.value.__cause__, LinearPredictorOverflowError)


def test_diverging_probit_fit_is_reported(monkeypatch):
    # a sign-flipped truncated-normal shift makes the probit fit diverge; the
    # fit must stop and name the factor instead of returning a huge curve
    real = fragments_glm.zeta_prime
    monkeypatch.setattr(fragments_glm, "zeta_prime", lambda x: -real(x))
    r = np.random.default_rng(0)
    x = r.uniform(size=500)
    y = r.binomial(1, models.demo_mean_function(x)).astype(float)
    g = build_factor_graph(models.build_glm_spline(y, x, K=25, link="probit"))
    with pytest.raises(VmpNumericsError, match="likelihood") as exc:
        run_vmp(g, max_iter=200, tol=1e-300, track_elbo=False)
    assert exc.value.factor == "likelihood"
    assert isinstance(g.factors["likelihood"].fragment, fragments_glm.ProbitFragmentState)
    assert isinstance(exc.value.__cause__, LinearPredictorOverflowError)
    assert exc.value.__cause__.worst > fragments_glm.OVERFLOW_LIMIT


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_separated_binary_fit_returns_unconverged(link):
    # completely separated 0/1 data under the CLI's flat coefficient prior have
    # no finite fit, but the linear predictor grows slowly: at the CLI's sweep
    # cap it is tens, far below the overflow guard, so the fit returns with
    # converged False instead of raising
    defaults = cli.FitRequest(model="glmspline", data="", response="y")
    x = np.sort(np.random.default_rng(0).uniform(size=100))
    y = (x > 0.5).astype(float)
    hyper = models.Hyperparameters(sigma_beta_sq=defaults.sigma_beta_sq, A=defaults.a_hyper)
    spec = models.build_glm_spline(y, x, K=defaults.knots, link=link, hyper=hyper)
    g = build_factor_graph(spec)
    report = run_vmp(g, max_iter=defaults.iters, tol=defaults.tol, track_elbo=False)
    assert not report.converged and report.iterations == defaults.iters
    worst = np.max(np.abs(models.design(spec) @ q_density(g, "coef").common["mu"]))
    assert 5.0 < worst < fragments_glm.OVERFLOW_LIMIT / 10


# --- run_vmp contract ---------------------------------------------------------


def test_run_vmp_argument_validation():
    g = build_factor_graph(prior_only_model())
    with pytest.raises(ValueError):
        run_vmp(g, max_iter=0)
    with pytest.raises(ValueError):
        run_vmp(g, tol=-1.0)
    with pytest.raises(ValueError):
        run_vmp(g, damping=1.5)
    with pytest.raises(GraphStructureError, match="unknown factors"):
        run_vmp(g, schedule=["prior", "nope"])
    with pytest.raises(GraphStructureError, match="misses factors"):
        run_vmp(g, schedule=[])


def test_schedule_order_reaches_same_fixed_point():
    y, X = make_regression_data(14, n=35)
    etas = []
    for reverse in (False, True):
        g = build_factor_graph(models.build_linear_regression(y, X))
        sched = list(g.factors)
        if reverse:
            sched = sched[::-1]
        run_vmp(g, schedule=sched, max_iter=800, tol=1e-12, track_elbo=False)
        etas.append(q_density(g, "coef").eta_q)
    np.testing.assert_allclose(etas[0], etas[1], rtol=1e-6, atol=1e-9)


def test_damping_reaches_same_fixed_point():
    y, X = make_regression_data(15, n=35)
    etas = []
    for rho in (1.0, 0.5):
        g = build_factor_graph(models.build_linear_regression(y, X))
        run_vmp(g, max_iter=2000, tol=1e-12, damping=rho, track_elbo=False)
        etas.append(q_density(g, "coef").eta_q)
    np.testing.assert_allclose(etas[0], etas[1], rtol=1e-7, atol=1e-10)


def test_q_density_common_parameters():
    y, X = make_regression_data(16, n=30)
    g = build_factor_graph(models.build_linear_regression(y, X, standardize=False))
    run_vmp(g, max_iter=300, tol=1e-11, track_elbo=False)
    qc = q_density(g, "coef")
    assert qc.family == MULTIVARIATE_NORMAL and qc.common["mu"].shape == (3,)
    qs = q_density(g, "sigsq_eps")
    assert qs.common["kappa"] == pytest.approx(31.0)  # n + 1


def test_q_density_of_a_normal_node():
    y, X = make_regression_data(17, n=30)
    g = build_factor_graph(models.build_linear_regression(y, X))
    run_vmp(g, max_iter=50, tol=1e-11, track_elbo=False)
    qc = q_density(g, "coef")
    mu, Sigma = mvn_moments_from_natural(qc.eta_q, 3)
    assert np.array_equal(qc.common["mu"], mu) and np.array_equal(qc.common["Sigma"], Sigma)
    # a precision that does not factor is an improper q-density, not a numerics error
    g.fac_to_node[("prior_coef", "coef")] = mvn_eta(np.zeros(3), -1e-6 * np.eye(3))
    with pytest.raises(ImproperQDensityError, match="'coef'"):
        q_density(g, "coef")
    with pytest.raises(ImproperQDensityError, match="'coef'"):
        elbo(g)


# --- each q-density factored once per sweep ---------------------------------
#
# The engine keeps the moments an update hands back and reads them in the
# ELBO and q_density while the node's summed vector is bitwise the one that
# was factored.  The reference loop below factors every q-density afresh for
# each read (a kept-moments store that keeps nothing) and takes the
# convergence measure over all q vectors concatenated.  Results must agree to
# the bit.


class Forgetful(dict):
    """A kept-moments store that keeps nothing, so every read factors afresh."""

    def __setitem__(self, key, value):
        pass


def summed_eta(graph, node):
    """The q-density vector of a node: its factors' messages summed in order."""
    flist = graph.node_factors[node]
    total = graph.fac_to_node[(flist[0], node)].copy()
    for fname in flist[1:]:
        total += graph.fac_to_node[(fname, node)]
    return total


def reference_fit(model, sweeps, tol):
    graph = build_factor_graph(model)
    graph.kept_moments = Forgetful()
    prev = np.concatenate([summed_eta(graph, n) for n in graph.nodes])
    report = ConvergenceReport(iterations=0, converged=False, max_relative_delta=np.inf)
    for _ in range(sweeps):
        for fname in graph.factors:
            update_factor(graph, fname)
        report.iterations += 1
        cur = np.concatenate([summed_eta(graph, n) for n in graph.nodes])
        report.max_relative_delta = float(np.max(np.abs(cur - prev) / np.maximum(1.0, np.abs(prev))))
        prev = cur
        report.elbo_trace.append(elbo(graph))
        if report.max_relative_delta < tol:
            report.converged = True
            break
    return graph, report


def fresh_view(graph):
    """The same graph state read without its kept moments."""
    view = copy.copy(graph)
    view.kept_moments = Forgetful()
    return view


def moment_arrays(moments):
    if moments is None:
        return []
    names = ("mu", "logdet", "Sigma", "Sigma_GG", "Sigma_iG", "Sigma_ii", "schur_factor")
    return [np.asarray(getattr(moments, k)) for k in names if hasattr(moments, k)]


def assert_same_q_density(got, want):
    assert got.node == want.node and np.array_equal(got.eta_q, want.eta_q)
    assert got.common.keys() == want.common.keys()
    for key, value in want.common.items():
        assert np.array_equal(got.common[key], value), (got.node, key)
    got_m, want_m = moment_arrays(got.moments), moment_arrays(want.moments)
    assert len(got_m) == len(want_m)
    assert all(np.array_equal(a, b) for a, b in zip(got_m, want_m)), got.node


def assert_fit_matches_reference(model, sweeps=60, kept=True):
    """run_vmp with kept moments against the fresh-factorization reference,
    bit for bit: every message, the report (ELBO trace included) and every
    q_density.  ``kept`` says whether the fit should have moments to reuse."""
    graph = build_factor_graph(model)
    report = run_vmp(graph, max_iter=sweeps, tol=1e-300)
    ref_graph, ref_report = reference_fit(model, sweeps, 1e-300)
    assert report == ref_report
    assert graph.fac_to_node.keys() == ref_graph.fac_to_node.keys()
    for key, msg in ref_graph.fac_to_node.items():
        assert np.array_equal(graph.fac_to_node[key], msg), key
    assert bool(graph.kept_moments) == kept
    for node in graph.nodes:
        assert_same_q_density(q_density(graph, node), q_density(ref_graph, node))
    assert not graph.kept_moments  # q_density handed them over


def spline_data(seed=21, n=120):
    r = np.random.default_rng(seed)
    x = r.uniform(size=n)
    return x, models.demo_mean_function(x), r


@pytest.mark.parametrize("fixed_sigma_sq", [None, 0.5])
def test_linear_regression_matches_fresh_factorizations(fixed_sigma_sq):
    y, X = make_regression_data(18, n=40)
    model = models.build_linear_regression(y, X, fixed_sigma_sq=fixed_sigma_sq)
    # a fixed noise variance leaves the likelihood nothing to factor
    assert_fit_matches_reference(model, kept=fixed_sigma_sq is None)


@pytest.mark.parametrize("spline_kind", [models.TRUNCATED_LINEAR, models.OSULLIVAN_LIKE])
@pytest.mark.parametrize("fixed_sigma_u_sq", [None, 0.3])
def test_penalized_spline_matches_fresh_factorizations(spline_kind, fixed_sigma_u_sq):
    x, f, r = spline_data()
    y = f + r.normal(scale=0.3, size=x.size)
    model = models.build_penalized_spline(
        y, x, K=8, spline_kind=spline_kind, fixed_sigma_u_sq=fixed_sigma_u_sq
    )
    assert_fit_matches_reference(model)


def test_fixed_block_is_factored_once(monkeypatch):
    # a fixed-Theta block's inverse and log det are formed with the spec;
    # no sweep or ELBO term factors it again
    x, f, r = spline_data()
    y = f + r.normal(scale=0.3, size=x.size)
    graph = build_factor_graph(models.build_penalized_spline(y, x, K=8, fixed_sigma_u_sq=0.3))

    def refactored(*args, **kwargs):
        raise AssertionError("a constant matrix was factored again")

    monkeypatch.setattr(fragments_gaussian, "spd_inverse", refactored)
    monkeypatch.setattr(fragments_gaussian, "spd_logdet", refactored)
    report = run_vmp(graph, max_iter=5, tol=1e-300)
    assert len(report.elbo_trace) == 5


@pytest.mark.parametrize("link", ["logit", "probit", "log"])
def test_glm_spline_matches_fresh_factorizations(link):
    x, f, r = spline_data(22)
    y = r.poisson(np.exp(f)) if link == "log" else r.binomial(1, f)
    model = models.build_glm_spline(y.astype(float), x, K=6, link=link)
    # the GLM update writes coef after the penalization and hands back nothing
    assert_fit_matches_reference(model, kept=False)


def penalized_spline_graph(sweeps, damping=1.0):
    x, f, r = spline_data(23)
    y = f + r.normal(scale=0.3, size=x.size)
    g = build_factor_graph(models.build_penalized_spline(y, x, K=8))
    run_vmp(g, max_iter=sweeps, tol=1e-300, damping=damping)
    return g


def test_kept_moments_follow_hand_run_updates():
    g = penalized_spline_graph(20)
    for fname in list(g.factors) + ["penalization", "link_u", "likelihood"]:
        update_factor(g, fname)
        assert elbo(g) == elbo(fresh_view(g)), fname
    # a message written by hand, not by an update, is seen by the bitwise check
    assert "coef" in g.kept_moments
    g.fac_to_node[("likelihood", "coef")] = 1.5 * g.fac_to_node[("likelihood", "coef")]
    assert elbo(g) == elbo(fresh_view(g))
    assert_same_q_density(q_density(g, "coef"), q_density(fresh_view(g), "coef"))


def test_damped_fit_keeps_no_moments():
    g = penalized_spline_graph(20, damping=0.5)
    assert not g.kept_moments
    assert elbo(g) == elbo(fresh_view(g))
    for node in g.nodes:
        assert_same_q_density(q_density(g, node), q_density(fresh_view(g), node))


def test_improper_inverse_wishart_expectation_still_raises():
    # the expectation and the entropy decide properness from the factor they
    # read log det and the inverse from; both ways of being improper must
    # still raise
    proper = np.concatenate([[-3.0], -0.5 * vec(np.array([[2.0, 0.3], [0.3, 1.0]]))])
    assert expfam.is_proper(NatParam(INVERSE_WISHART, proper, 2))
    shape_too_small = proper.copy()
    shape_too_small[0] = -1.5
    indefinite = np.concatenate([[-3.0], -0.5 * vec(np.array([[1.0, 2.0], [2.0, 1.0]]))])
    for eta in (shape_too_small, indefinite):
        nat = NatParam(INVERSE_WISHART, eta, 2)
        assert not expfam.is_proper(nat)
        with pytest.raises(expfam.ImproperParameterError, match="improper inverse_wishart"):
            expfam.expected_sufficient_statistic(nat)
        with pytest.raises(expfam.ImproperParameterError, match="improper inverse_wishart"):
            expfam.entropy(nat)


def test_non_spd_matrix_still_names_its_context():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SpdFactorizationError, match=r"\(unit block\): eigenvalue range") as exc:
        spd_chol(indefinite, context="unit block")
    assert exc.value.context == "unit block"
    with pytest.raises(SpdFactorizationError, match="gaussian penalization Sigma0"):
        GaussianPenalizationSpec(np.zeros(2), indefinite, ())
    fixed = PenalizedBlock(1, 2, INVERSE_WISHART, fixed_Theta=indefinite)
    with pytest.raises(SpdFactorizationError, match="gaussian penalization fixed block 0"):
        GaussianPenalizationSpec(np.zeros(2), np.eye(2), (fixed,))
    with pytest.raises(SpdFactorizationError, match="gaussian prior Sigma"):
        GaussianPriorSpec(np.zeros(2), indefinite)
    with pytest.raises(SpdFactorizationError, match="non-finite entries"):
        spd_chol(np.array([[1.0, np.nan], [np.nan, 1.0]]), context="nan block")


def test_non_finite_right_hand_side_is_rejected():
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(spd_solve(M, [1.0, 2.0]), np.linalg.solve(M, [1.0, 2.0]), rtol=1e-14)
    for bad in ([1.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="infs or NaNs"):
            spd_solve(M, bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            chol_solve(spd_chol(M), np.array(bad))
