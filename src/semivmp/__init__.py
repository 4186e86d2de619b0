"""semivmp: variational message passing for Bayesian semiparametric regression.

Natural-parameter exponential-family machinery, conjugate-Gaussian and
generalized-response factor fragments, a factor-graph engine with ELBO
tracking, model builders (linear regression, penalized splines, group-specific
curves, GLM splines), an independent coordinate-ascent oracle, and a CSV/JSON
command line.
"""

__version__ = "0.1.0"

from . import engine, expfam, fragments_gaussian, fragments_glm, mfvb, models, natparam
from .engine import (
    ConvergenceReport,
    FactorGraph,
    FragmentBinding,
    GraphStructureError,
    QDensity,
    StochasticNode,
    build_factor_graph,
    elbo,
    q_density,
    run_vmp,
    update_factor,
    update_node_to_factor,
)
from .expfam import (
    NatParam,
    common_to_natural,
    entropy,
    expected_sufficient_statistic,
    log_partition,
    natural_to_common,
)
from .mfvb import MfvbState, mfvb_linear_regression, moment_oracle
from .models import (
    FittedCurve,
    Hyperparameters,
    ModelSpec,
    SplineBasis,
    build_glm_spline,
    build_group_curves,
    build_linear_regression,
    build_penalized_spline,
    fitted_curve,
    spline_design,
)
from .natparam import g_vmp, vec, vec_inverse

__all__ = [
    "__version__",
    "ConvergenceReport",
    "FactorGraph",
    "FittedCurve",
    "FragmentBinding",
    "GraphStructureError",
    "Hyperparameters",
    "MfvbState",
    "ModelSpec",
    "NatParam",
    "QDensity",
    "SplineBasis",
    "StochasticNode",
    "build_factor_graph",
    "build_glm_spline",
    "build_group_curves",
    "build_linear_regression",
    "build_penalized_spline",
    "common_to_natural",
    "elbo",
    "engine",
    "entropy",
    "expected_sufficient_statistic",
    "expfam",
    "fitted_curve",
    "fragments_gaussian",
    "fragments_glm",
    "g_vmp",
    "log_partition",
    "mfvb",
    "mfvb_linear_regression",
    "models",
    "moment_oracle",
    "natparam",
    "natural_to_common",
    "q_density",
    "run_vmp",
    "spline_design",
    "update_factor",
    "update_node_to_factor",
    "vec",
    "vec_inverse",
]
