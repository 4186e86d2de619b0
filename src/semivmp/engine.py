"""Factor-graph representation and the variational message passing loop.

A graph is bipartite between stochastic nodes (each carrying an exponential
family) and factor nodes (each carrying one fragment).  The message store
keeps one factor-to-node natural-parameter vector per edge.  One sweep visits
the factors in schedule order; visiting a factor first forms the node-to-factor
messages on its edges (sum of the other factors' messages into each node), then
asks the fragment for fresh factor-to-node messages.  A node's q-density is the
sum of all inbound factor messages.

A fragment is any object with three methods, all in port order:

- ``ports()``: the (family, d) each port needs;
- ``update(n2f, f2n, nodes, context)``: the fragment to keep (itself, or a
  replaced state) and its new factor-to-node messages;
- ``logp(q_etas, moments)``: its term E_q{log fragment} of the ELBO, given
  the q-density vectors and, for normal ports, their moments.

A fragment may also set ``start_precision``, the precision of the normal
messages it starts from.  The engine knows no fragment kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expfam
from .expfam import NatParam
from .natparam import SpdFactorizationError, TwoLevelLayout, mvn_moments, vec

_PROTOCOL = ("ports", "update", "logp")


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
    """One fragment instance in a model: its name, the fragment (a spec, or
    for the GLM likelihoods the initial fragment state), and the stochastic
    nodes its ports touch."""

    name: str
    fragment: object
    ports: tuple

    def __post_init__(self):
        object.__setattr__(self, "ports", tuple(self.ports))


@dataclass
class FactorNode:
    name: str
    fragment: object  # replaced by each update, so fragment state stays per graph
    neighbors: tuple


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
        self.node_factors = {}


def _vague_init(family, d, precision):
    """A vague proper member of each family, used for the starting
    factor-to-node messages (scalar families: shape/scale-1 maps; matrix
    families: unit scale matrix; normal: the fragment's start precision times I)."""
    if family == expfam.MULTIVARIATE_NORMAL:
        return np.concatenate([np.zeros(d), -0.5 * vec(precision * np.eye(d))])
    if family == expfam.INVERSE_CHI_SQUARED:
        return np.array([-1.5, -0.5])
    if family in (expfam.INVERSE_WISHART, expfam.INVERSE_G_WISHART_DIAG):
        return np.concatenate([[-0.5 * (d + 2.0)], -0.5 * vec(np.eye(d))])
    raise GraphStructureError(f"no initialization convention for family '{family}'")


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
        if not all(callable(getattr(frag.fragment, m, None)) for m in _PROTOCOL):
            raise GraphStructureError(
                f"factor '{frag.name}': {type(frag.fragment).__name__} is not a fragment "
                "(it needs ports, update and logp)"
            )
        reqs = frag.fragment.ports()
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
        graph.factors[frag.name] = FactorNode(frag.name, frag.fragment, frag.ports)
        for pname in frag.ports:
            graph.node_factors[pname].append(frag.name)

    for nname, flist in graph.node_factors.items():
        if not flist:
            raise GraphStructureError(f"node '{nname}' is attached to no factor")

    for fname, factor in graph.factors.items():
        precision = getattr(factor.fragment, "start_precision", 0.01)
        for nname in factor.neighbors:
            node = graph.nodes[nname]
            graph.fac_to_node[(fname, nname)] = _vague_init(node.family, node.d, precision)
    return graph


def update_node_to_factor(graph: FactorGraph, node: str, factor: str) -> np.ndarray:
    """The node-to-factor message: the sum of the other factors' messages
    into the node (zero when there are none)."""
    total = np.zeros_like(graph.fac_to_node[(factor, node)])
    for other in graph.node_factors[node]:
        if other != factor:
            total = total + graph.fac_to_node[(other, node)]
    return total


def update_factor(graph: FactorGraph, factor_name: str, damping: float = 1.0):
    """Run one factor update (messages refreshed first), with optional damping
    eta_new = rho * proposed + (1 - rho) * old.  Returns the new outbound
    payloads, in neighbor order."""
    factor = graph.factors[factor_name]
    nb = factor.neighbors
    n2f = [update_node_to_factor(graph, nname, factor_name) for nname in nb]
    f2n = [graph.fac_to_node[(factor_name, nname)] for nname in nb]
    try:
        factor.fragment, payloads = factor.fragment.update(
            n2f, f2n, [graph.nodes[nname] for nname in nb], factor_name
        )
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as err:
        raise VmpNumericsError(factor_name, err) from err
    out = []
    for nname, payload in zip(nb, payloads):
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


def _q_moments(node, eta, layout):
    """Moments of a normal q-density from one factorization; a precision that
    does not factor makes the q-density improper."""
    try:
        return mvn_moments(eta, node.d, f"q-density {node.name}", layout)
    except SpdFactorizationError:
        raise ImproperQDensityError(node.name, eta) from None


def q_density(graph: FactorGraph, node_name: str) -> QDensity:
    node = graph.nodes[node_name]
    eta = _eta_q(graph, node_name)
    if not np.all(np.isfinite(eta)):
        raise ImproperQDensityError(node_name, eta)
    if node.family == expfam.MULTIVARIATE_NORMAL:
        mom = _q_moments(node, eta, None)  # dense: callers read all of Sigma
        common = {"mu": mom.mu, "Sigma": mom.Sigma}
    else:
        nat = NatParam(node.family, eta, node.d)
        if not expfam.is_proper(nat):
            raise ImproperQDensityError(node_name, eta)
        common = expfam.natural_to_common(nat)
    return QDensity(node_name, node.family, node.d, eta, common)


def elbo(graph: FactorGraph) -> float:
    """Entropy of each q-density plus each factor's E_q{log fragment}.

    Each multivariate normal q-density is factored once (two-level when its
    node has a layout); that one factorization gives its properness, its
    entropy and the moments the fragments' terms read.
    """
    total = 0.0
    etas, moments = {}, {}
    for nname, node in graph.nodes.items():
        eta = _eta_q(graph, nname)
        if node.family == expfam.MULTIVARIATE_NORMAL:
            moments[nname] = _q_moments(node, eta, node.layout)
            total += expfam.mvn_entropy(node.d, moments[nname].logdet)
        else:
            nat = NatParam(node.family, eta, node.d)
            if not expfam.is_proper(nat):
                raise ImproperQDensityError(nname, eta)
            total += expfam.entropy(nat)
        etas[nname] = eta
    for factor in graph.factors.values():
        nb = factor.neighbors
        total += factor.fragment.logp([etas[n] for n in nb], [moments.get(n) for n in nb])
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
