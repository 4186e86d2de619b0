"""Factor-graph representation and the variational message passing loop.

A graph is bipartite between stochastic nodes (each carrying an exponential
family) and factor nodes (each carrying one fragment).  The message store
keeps one natural-parameter vector per edge direction.  One sweep visits the
factors in schedule order; visiting a factor first refreshes the node-to-factor
messages on its edges (sum of the other factors' messages into each node), then
asks the fragment for fresh factor-to-node messages.  A node's q-density is the
sum of all inbound factor messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expfam, fragments_gaussian as fg, fragments_glm as glm
from .expfam import NatParam
from .natparam import SpdFactorizationError, TwoLevelLayout, mvn_moments

GAUSSIAN_PRIOR = "gaussian_prior"
IW_PRIOR = "iw_prior"
ITERATED_IGW = "iterated_igw"
GAUSSIAN_PENALIZATION = "gaussian_penalization"
GAUSSIAN_LIKELIHOOD = "gaussian_likelihood"
LOGISTIC_LIKELIHOOD = "logistic_likelihood"
PROBIT_LIKELIHOOD = "probit_likelihood"
POISSON_LIKELIHOOD = "poisson_likelihood"

FRAGMENT_KINDS = (
    GAUSSIAN_PRIOR,
    IW_PRIOR,
    ITERATED_IGW,
    GAUSSIAN_PENALIZATION,
    GAUSSIAN_LIKELIHOOD,
    LOGISTIC_LIKELIHOOD,
    PROBIT_LIKELIHOOD,
    POISSON_LIKELIHOOD,
)

_GLM_KINDS = (LOGISTIC_LIKELIHOOD, PROBIT_LIKELIHOOD, POISSON_LIKELIHOOD)


class GraphStructureError(ValueError):
    pass


class ImproperQDensityError(ValueError):
    """A q-density sum left the proper region of its family (non-convergence
    or a badly specified model)."""

    def __init__(self, node, eta):
        self.node = node
        super().__init__(f"q-density for node '{node}' is improper: eta={np.asarray(eta)}")


class VmpNumericsError(RuntimeError):
    """Numeric failure inside a factor update, with the factor name attached."""

    def __init__(self, factor, original):
        self.factor = factor
        self.original = original
        super().__init__(f"factor '{factor}': {original}")


@dataclass(frozen=True)
class StochasticNode:
    """A node of the graph.  A multivariate normal node may carry the
    TwoLevelLayout its precision keeps (set by the builder that knows the
    columns); every consumer of its moments then uses the O(m) two-level
    factorization instead of a dense one."""

    name: str
    family: str
    d: int = 1
    layout: TwoLevelLayout | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.layout is not None and (
            self.family != expfam.MULTIVARIATE_NORMAL or self.layout.p != self.d
        ):
            raise GraphStructureError(
                f"node '{self.name}': a layout needs a multivariate normal node "
                f"with d equal to its {self.layout.p} columns"
            )


@dataclass(frozen=True)
class FragmentBinding:
    """One fragment instance in a model: kind tag, its spec (or, for the GLM
    kinds, the initial fragment state), and the stochastic nodes it touches."""

    name: str
    kind: str
    spec: object
    ports: tuple

    def __post_init__(self):
        object.__setattr__(self, "ports", tuple(self.ports))


@dataclass
class FactorNode:
    name: str
    kind: str
    spec: object
    neighbors: tuple
    state: object = None  # mutable slot for GLM fragment state


@dataclass(frozen=True)
class QDensity:
    node: str
    family: str
    d: int
    eta_q: np.ndarray
    common: dict


@dataclass
class ConvergenceReport:
    iterations: int
    converged: bool
    max_relative_delta: float
    elbo_trace: list = field(default_factory=list)


class FactorGraph:
    def __init__(self):
        self.nodes = {}
        self.factors = {}
        self.fac_to_node = {}
        self.node_to_fac = {}
        self.node_factors = {}
        self.iteration = 0

    def neighbors_of_node(self, name):
        return self.node_factors[name]


def _vague_init(family, d):
    """A vague proper member of each family, used for the starting
    factor-to-node messages (scalar kinds: shape/scale-1 maps; matrix kinds:
    unit scale matrix; normal: precision 0.01 I)."""
    if family == expfam.MULTIVARIATE_NORMAL:
        return np.concatenate([np.zeros(d), -0.5 * fg.vec(0.01 * np.eye(d))])
    if family == expfam.INVERSE_CHI_SQUARED:
        return np.array([-1.5, -0.5])
    if family in (expfam.INVERSE_WISHART, expfam.INVERSE_G_WISHART_DIAG):
        return np.concatenate([[-0.5 * (d + 2.0)], -0.5 * fg.vec(np.eye(d))])
    raise GraphStructureError(f"no initialization convention for family '{family}'")


def _port_requirements(kind, spec):
    """Expected (family, d) per port for structural validation."""
    if kind == GAUSSIAN_PRIOR:
        return [(expfam.MULTIVARIATE_NORMAL, spec.d)]
    if kind == IW_PRIOR:
        return [(fg.family_for_kind(spec.graph_kind), spec.d)]
    if kind == ITERATED_IGW:
        d = spec.d_Theta
        return [
            (fg.family_for_kind(spec.graph_kind), d),
            (fg.family_for_kind(spec.theta2_kind), d),
        ]
    if kind == GAUSSIAN_PENALIZATION:
        reqs = [(expfam.MULTIVARIATE_NORMAL, spec.total_dim)]
        for b in spec.stochastic_blocks():
            reqs.append((fg.family_for_kind(b.kind), b.d))
        return reqs
    if kind == GAUSSIAN_LIKELIHOOD:
        reqs = [(expfam.MULTIVARIATE_NORMAL, spec.d)]
        if spec.sigma_sq_fixed is None:
            reqs.append((expfam.INVERSE_CHI_SQUARED, 1))
        return reqs
    if kind in _GLM_KINDS:
        return [(expfam.MULTIVARIATE_NORMAL, spec.A.shape[1])]
    raise GraphStructureError(f"unknown fragment kind '{kind}'")


def build_factor_graph(model) -> FactorGraph:
    """Assemble a FactorGraph from a model description exposing ``nodes``
    (StochasticNode sequence) and ``fragments`` (FragmentBinding sequence)."""
    graph = FactorGraph()
    for node in model.nodes:
        if node.name in graph.nodes:
            raise GraphStructureError(f"duplicate node name '{node.name}'")
        graph.nodes[node.name] = node
        graph.node_factors[node.name] = []
    if not list(model.fragments):
        raise GraphStructureError("model declares no fragments")

    for frag in model.fragments:
        if frag.name in graph.factors:
            raise GraphStructureError(f"duplicate factor name '{frag.name}'")
        if frag.kind not in FRAGMENT_KINDS:
            raise GraphStructureError(f"unknown fragment kind '{frag.kind}'")
        reqs = _port_requirements(frag.kind, frag.spec)
        if len(frag.ports) != len(reqs):
            raise GraphStructureError(
                f"factor '{frag.name}' wants {len(reqs)} ports, got {len(frag.ports)}"
            )
        for pname, (fam, d) in zip(frag.ports, reqs):
            node = graph.nodes.get(pname)
            if node is None:
                raise GraphStructureError(
                    f"factor '{frag.name}' references undeclared node '{pname}'"
                )
            if node.family != fam or node.d != d:
                raise GraphStructureError(
                    f"factor '{frag.name}' port '{pname}' expects family={fam} d={d}, "
                    f"node has family={node.family} d={node.d}"
                )
        state = frag.spec if frag.kind in _GLM_KINDS else None
        graph.factors[frag.name] = FactorNode(frag.name, frag.kind, frag.spec, frag.ports, state)
        for pname in frag.ports:
            graph.node_factors[pname].append(frag.name)

    for nname, flist in graph.node_factors.items():
        if not flist:
            raise GraphStructureError(f"node '{nname}' is attached to no factor")

    for fname, factor in graph.factors.items():
        for nname in factor.neighbors:
            node = graph.nodes[nname]
            init = _vague_init(node.family, node.d)
            if factor.kind in _GLM_KINDS:
                # unit precision instead of 10^-2: the exp-moment updates of the
                # count/binary fragments diverge when the first combined density
                # has variance ~100 on the coefficient scale
                init = np.concatenate([np.zeros(node.d), -0.5 * fg.vec(np.eye(node.d))])
            graph.fac_to_node[(fname, nname)] = init.copy()
            graph.node_to_fac[(nname, fname)] = np.zeros_like(init)
    return graph


def update_node_to_factor(graph: FactorGraph, node: str, factor: str) -> np.ndarray:
    """Refresh a node-to-factor message (sum of the other factors' messages)
    and return it."""
    total = np.zeros_like(graph.node_to_fac[(node, factor)])
    for other in graph.node_factors[node]:
        if other != factor:
            total = total + graph.fac_to_node[(other, node)]
    graph.node_to_fac[(node, factor)] = total
    return total


def _dispatch(graph, factor):
    """Fresh outbound payloads for one factor, in neighbor order."""
    spec = factor.spec
    nb = factor.neighbors
    n2f = [graph.node_to_fac[(n, factor.name)] for n in nb]
    f2n = [graph.fac_to_node[(factor.name, n)] for n in nb]
    kind = factor.kind
    if kind == GAUSSIAN_PRIOR:
        return [fg.gaussian_prior_message(spec)]
    if kind == IW_PRIOR:
        return [fg.inverse_wishart_prior_message(spec)]
    if kind == ITERATED_IGW:
        m1, m2 = fg.iterated_igw_messages(spec, n2f[0], n2f[1], f2n[0], f2n[1], context=factor.name)
        return [m1, m2]
    if kind == GAUSSIAN_PENALIZATION:
        mc, mths = fg.gaussian_penalization_messages(
            spec, n2f[0], n2f[1:], f2n[0], f2n[1:], context=factor.name,
            layout=graph.nodes[nb[0]].layout,
        )
        return [mc] + list(mths)
    if kind == GAUSSIAN_LIKELIHOOD:
        m1, m2 = fg.gaussian_likelihood_messages(
            spec, n2f[0], n2f[1] if len(nb) > 1 else None,
            f2n[0], f2n[1] if len(nb) > 1 else None, context=factor.name,
            layout=graph.nodes[nb[0]].layout,
        )
        return [m1] if m2 is None else [m1, m2]
    if kind == LOGISTIC_LIKELIHOOD:
        factor.state, msg = glm.jaakkola_jordan_update(factor.state, f2n[0], n2f[0])
        return [msg]
    if kind == PROBIT_LIKELIHOOD:
        factor.state, msg = glm.albert_chib_update(factor.state, f2n[0], n2f[0])
        return [msg]
    if kind == POISSON_LIKELIHOOD:
        factor.state, msg = glm.knowles_minka_wand_update(factor.state, f2n[0], n2f[0])
        return [msg]
    raise GraphStructureError(f"unknown fragment kind '{kind}'")


def update_factor(graph: FactorGraph, factor_name: str, damping: float = 1.0):
    """Run one factor update (messages refreshed first), with optional damping
    eta_new = rho * proposed + (1 - rho) * old.  Returns the new outbound
    payloads, in neighbor order."""
    factor = graph.factors[factor_name]
    for nname in factor.neighbors:
        update_node_to_factor(graph, nname, factor_name)
    try:
        payloads = _dispatch(graph, factor)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as err:
        raise VmpNumericsError(factor_name, err) from err
    out = []
    for nname, payload in zip(factor.neighbors, payloads):
        if not np.all(np.isfinite(payload)):
            raise VmpNumericsError(factor_name, f"non-finite message to node '{nname}'")
        old = graph.fac_to_node[(factor_name, nname)]
        new = payload if damping == 1.0 else damping * payload + (1.0 - damping) * old
        graph.fac_to_node[(factor_name, nname)] = new
        out.append(new)
    return out


def _eta_q(graph, node_name):
    flist = graph.node_factors[node_name]
    total = graph.fac_to_node[(flist[0], node_name)].copy()
    for fname in flist[1:]:
        total = total + graph.fac_to_node[(fname, node_name)]
    return total


def q_density(graph: FactorGraph, node_name: str) -> QDensity:
    node = graph.nodes[node_name]
    eta = _eta_q(graph, node_name)
    if not np.all(np.isfinite(eta)):
        raise ImproperQDensityError(node_name, eta)
    nat = NatParam(node.family, eta, node.d)
    if not expfam.is_proper(nat):
        raise ImproperQDensityError(node_name, eta)
    return QDensity(node_name, node.family, node.d, eta, expfam.natural_to_common(nat))


def elbo(graph: FactorGraph) -> float:
    """Entropy of each q-density plus each factor's E_q{log fragment}.

    Each multivariate normal q-density is factored once (two-level when its
    node has a layout); that one factorization gives its properness, its
    entropy and the moments the Gaussian fragments' terms read.
    """
    total = 0.0
    etas, moments = {}, {}
    for nname, node in graph.nodes.items():
        eta = _eta_q(graph, nname)
        nat = NatParam(node.family, eta, node.d)
        if node.family == expfam.MULTIVARIATE_NORMAL:
            try:
                mom = mvn_moments(eta, node.d, f"q-density {nname}", node.layout)
            except SpdFactorizationError:
                raise ImproperQDensityError(nname, eta) from None
            moments[nname] = mom
            total += expfam.mvn_entropy(node.d, mom.logdet)
        elif not expfam.is_proper(nat):
            raise ImproperQDensityError(nname, eta)
        else:
            total += expfam.entropy(nat)
        etas[nname] = eta
    for fname, factor in graph.factors.items():
        spec, nb, kind = factor.spec, factor.neighbors, factor.kind
        if kind == GAUSSIAN_PRIOR:
            total += fg.gaussian_prior_logp(spec, etas[nb[0]], moments=moments[nb[0]])
        elif kind == IW_PRIOR:
            total += fg.inverse_wishart_prior_logp(spec, etas[nb[0]])
        elif kind == ITERATED_IGW:
            total += fg.iterated_igw_logp(spec, etas[nb[0]], etas[nb[1]])
        elif kind == GAUSSIAN_PENALIZATION:
            total += fg.gaussian_penalization_logp(
                spec, etas[nb[0]], [etas[n] for n in nb[1:]], moments=moments[nb[0]]
            )
        elif kind == GAUSSIAN_LIKELIHOOD:
            qvar = etas[nb[1]] if len(nb) > 1 else None
            total += fg.gaussian_likelihood_logp(spec, etas[nb[0]], qvar, moments=moments[nb[0]])
        elif kind == LOGISTIC_LIKELIHOOD:
            total += glm.jaakkola_jordan_elbo(factor.state, etas[nb[0]])
        elif kind == PROBIT_LIKELIHOOD:
            total += glm.albert_chib_elbo(factor.state, etas[nb[0]])
        elif kind == POISSON_LIKELIHOOD:
            total += glm.knowles_minka_wand_elbo(factor.state, etas[nb[0]])
        else:
            raise GraphStructureError(f"unknown fragment kind '{kind}'")
    return float(total)


def run_vmp(
    graph: FactorGraph,
    schedule=None,
    max_iter: int = 500,
    tol: float = 1e-8,
    damping: float = 1.0,
    track_elbo: bool = True,
) -> ConvergenceReport:
    """Sweep the factors until the q-density natural parameters settle.

    Convergence is the infinity norm of the relative change of all q-density
    vectors concatenated, with per-coordinate denominator max(1, |old|); the
    ELBO is recorded once per sweep when tracking is on.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if schedule is None:
        schedule = list(graph.factors)
    else:
        schedule = list(schedule)
        unknown = [f for f in schedule if f not in graph.factors]
        if unknown:
            raise GraphStructureError(f"schedule names unknown factors: {unknown}")
        if set(schedule) != set(graph.factors):
            missing = sorted(set(graph.factors) - set(schedule))
            raise GraphStructureError(f"schedule misses factors: {missing}")

    prev = np.concatenate([_eta_q(graph, n) for n in graph.nodes])
    report = ConvergenceReport(iterations=0, converged=False, max_relative_delta=np.inf)
    for _ in range(max_iter):
        for fname in schedule:
            update_factor(graph, fname, damping=damping)
        graph.iteration += 1
        report.iterations += 1
        cur = np.concatenate([_eta_q(graph, n) for n in graph.nodes])
        delta = float(np.max(np.abs(cur - prev) / np.maximum(1.0, np.abs(prev))))
        report.max_relative_delta = delta
        prev = cur
        if track_elbo:
            report.elbo_trace.append(elbo(graph))
        if delta < tol:
            report.converged = True
            break
    return report
