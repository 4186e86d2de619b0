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
- ``update(n2f, f2n, context)``: the fragment to keep (itself, or a replaced
  state), its new factor-to-node messages, and a dict that maps a normal
  port to the pair (vector, moments) of a combined density the update
  factored, the port's node-to-factor message plus its new message (empty
  when it factored none);
- ``logp(moments)``: its term E_q{log fragment} of the ELBO, given for each
  port the moments of a normal q-density or the expected sufficient
  statistic E{T} of any other.

A fragment may also set ``start_precision``, the precision of the normal
messages it starts from; ``ascends_elbo = False`` when a sweep of its update
is not known to raise the ELBO, which keeps ``run_vmp`` from accelerating
the graph; and ``layout``, the TwoLevelLayout its normal ports store their
vectors packed on (absent or None: dense).  How a node is stored is decided
by the model builder alone: ``build_factor_graph`` rejects a fragment whose
layout is not that of a normal node it is bound to.  The engine knows no
fragment kind.

Each normal q-density is factored once per sweep where it can be.  At
damping 1 the engine keeps the pairs an update hands back, one per node, and
drops a node's pair before the next update that writes to that node.  The
ELBO and ``q_density`` read the kept moments when the node's summed vector
is bitwise equal to the kept vector, and factor it afresh otherwise; the
results are the same to the bit either way, except after a move (below).
``q_density`` refines the moments of a node with a layout by one step
(``TwoLevelMoments.refined``).  Every other q-density's E{T}
is formed once per ELBO, next to its entropy, so the fragments' terms read
their neighbours' expectations and never form them again.

A model may also declare ``moves``: steps along a path in the q-densities of
a few nodes on which the ELBO has a closed form, run by the accelerated loop
of ``run_vmp`` after each sweep from the third on.  A move is any object with

- ``nodes``: the nodes whose q-densities it reads;
- ``edges``: the (factor, node) edges into the nodes it moves, every edge
  into each of them;
- ``apply(expectations, messages)``: given for each of ``nodes`` the moments
  of a normal q-density or E{T} of any other, and the messages of
  ``edges``, it either leaves everything as it is and returns None, or
  rewrites some of those messages in place (the arrays the sweep's updates
  just wrote, which the graph owns) and returns the moments of its moved
  normal nodes, by name.

``build_factor_graph`` rejects a move whose edges miss one into a node it
moves, or whose ``layout`` (absent: dense) is not that of a normal node it
names.  The engine keeps the moments a move hands back for the node's new
summed vector.  They are the moments the move read, rescaled, so they equal
a fresh factorization of that vector to rounding, not to the bit; every
other kept pair is a factorization of its vector.  The engine knows no move
kind either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expfam
from .expfam import NatParam
from .natparam import (
    SpdFactorizationError,
    TwoLevelLayout,
    mvn_moments,
    natural_position,
    natural_size,
    vec,
)

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
    columns); every message on its edges is then packed on that pattern, by
    fragments that declare the same layout, and every consumer of its
    moments uses the O(m) two-level factorization instead of a dense one."""

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
    moments: object = None  # DenseMoments or TwoLevelMoments of a normal node


@dataclass
class ConvergenceReport:
    """``iterations`` counts every sweep run; ``elbo_trace`` holds one ELBO
    per sweep whose state stands, so it is ``iterations - steps_rejected``
    long when tracked.  ``steps_accepted`` and ``steps_rejected`` count the
    extrapolated candidates an accelerated run tried, and ``moves_applied``
    the moves it applied in sweeps whose state stands (all 0 on a plain
    run)."""

    iterations: int
    converged: bool
    max_relative_delta: float
    elbo_trace: list = field(default_factory=list)
    steps_accepted: int = 0
    steps_rejected: int = 0
    moves_applied: int = 0


class FactorGraph:
    def __init__(self):
        self.nodes = {}
        self.factors = {}
        self.fac_to_node = {}
        self.node_factors = {}
        self.kept_moments = {}  # node -> (factored vector, its moments), see update_factor
        self.moves = ()


def _vague_init(node, precision):
    """A vague proper member of each family, used for the starting
    factor-to-node messages (scalar families: shape/scale-1 maps; matrix
    families: unit scale matrix; normal: the fragment's start precision times
    I, stored as the node stores its messages)."""
    family, d = node.family, node.d
    if family == expfam.MULTIVARIATE_NORMAL:
        eta = np.zeros(natural_size(d, node.layout))
        diag = np.arange(d)
        eta[natural_position(diag, diag, d, node.layout)] = -0.5 * precision
        return eta
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
        layout = getattr(frag.fragment, "layout", None)
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
            if fam == expfam.MULTIVARIATE_NORMAL and layout is not node.layout:
                raise GraphStructureError(
                    f"factor '{frag.name}' port '{pname}': the fragment's layout is not the "
                    "node's (a fragment without one stores the node dense)"
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
            graph.fac_to_node[(fname, nname)] = _vague_init(graph.nodes[nname], precision)
    graph.moves = tuple(getattr(model, "moves", ()))
    for move in graph.moves:
        _check_move(graph, move)
    return graph


def _check_move(graph, move):
    """A move must name nodes of the graph, edges that cover every factor of
    each node it moves, and carry the layout of each normal node it names."""
    name = type(move).__name__
    edges = tuple(move.edges)
    for fname, nname in edges:
        if (fname, nname) not in graph.fac_to_node:
            raise GraphStructureError(f"{name} names edge ({fname!r}, {nname!r}), not in the graph")
    moved = dict.fromkeys(nname for _, nname in edges)
    for nname in moved:
        if sorted(f for f, n in edges if n == nname) != sorted(graph.node_factors[nname]):
            raise GraphStructureError(f"{name} does not name every edge into node '{nname}'")
    for nname in (*move.nodes, *moved):
        node = graph.nodes.get(nname)
        if node is None:
            raise GraphStructureError(f"{name} references undeclared node '{nname}'")
        if node.family == expfam.MULTIVARIATE_NORMAL and getattr(move, "layout", None) is not node.layout:
            raise GraphStructureError(f"{name}: its layout is not that of node '{nname}'")


def update_node_to_factor(graph: FactorGraph, node: str, factor: str) -> np.ndarray:
    """The node-to-factor message: the sum of the other factors' messages
    into the node (zero when there are none)."""
    total = np.zeros_like(graph.fac_to_node[(factor, node)])
    for other in graph.node_factors[node]:
        if other != factor:
            total += graph.fac_to_node[(other, node)]
    return total


def update_factor(graph: FactorGraph, factor_name: str, damping: float = 1.0):
    """Run one factor update (messages refreshed first), with optional damping
    eta_new = rho * proposed + (1 - rho) * old.  Returns the new outbound
    payloads, in neighbor order.

    The moments kept for the factor's nodes are dropped first, as the update
    writes to every one of them; at damping 1 the moments the update hands
    back are kept in their place (a damped message is not the one factored).
    """
    factor = graph.factors[factor_name]
    nb = factor.neighbors
    for nname in nb:
        graph.kept_moments.pop(nname, None)
    n2f = [update_node_to_factor(graph, nname, factor_name) for nname in nb]
    f2n = [graph.fac_to_node[(factor_name, nname)] for nname in nb]
    try:
        factor.fragment, payloads, formed = factor.fragment.update(n2f, f2n, factor_name)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as err:
        raise VmpNumericsError(factor_name, err) from err
    out = []
    for nname, payload in zip(nb, payloads):
        old = graph.fac_to_node[(factor_name, nname)]
        if np.shape(payload) != old.shape:
            raise VmpNumericsError(
                factor_name,
                f"message to node '{nname}' has shape {np.shape(payload)}, "
                f"the edge stores {old.shape}",
            )
        if not np.isfinite(payload).all():
            raise VmpNumericsError(factor_name, f"non-finite message to node '{nname}'")
        new = payload if damping == 1.0 else damping * payload + (1.0 - damping) * old
        graph.fac_to_node[(factor_name, nname)] = new
        out.append(new)
    if damping == 1.0:
        for port, kept in formed.items():
            graph.kept_moments[nb[port]] = kept
    return out


def _eta_q(graph, node_name):
    flist = graph.node_factors[node_name]
    total = graph.fac_to_node[(flist[0], node_name)].copy()
    for fname in flist[1:]:
        total += graph.fac_to_node[(fname, node_name)]
    return total


def _q_moments(node, eta, kept=None):
    """Moments of a normal q-density: ``kept`` (a node's kept pair) when its
    vector is bitwise ``eta``, else from one factorization (two-level on a
    layout); a precision that does not factor makes the q-density improper."""
    if kept is not None and np.array_equal(kept[0], eta):
        return kept[1]
    try:
        return mvn_moments(eta, node.d, f"q-density {node.name}", node.layout)
    except SpdFactorizationError:
        raise ImproperQDensityError(node.name, eta) from None


def q_density(graph: FactorGraph, node_name: str) -> QDensity:
    """The q-density of a node: its natural vector as the graph stores it,
    its common parameters and, for a normal node, the moments of its one
    factorization.

    On a node with a layout ``eta_q`` stays packed (``node.layout`` reads
    it) and ``common`` holds only ``mu``: the covariance is left in the
    two-level blocks of ``moments``, which give curve bands
    (``row_variance``) and, on request, the dense Sigma (``covariance()``).
    Those moments get one step of iterative refinement
    (``TwoLevelMoments.refined``), which the sweeps skip.  Every other
    normal node has ``common["Sigma"]``.  Moments the graph kept for the
    node are handed over, not shared: the graph forgets them.
    """
    node = graph.nodes[node_name]
    eta = _eta_q(graph, node_name)
    if not np.isfinite(eta).all():
        raise ImproperQDensityError(node_name, eta)
    mom = None
    if node.family == expfam.MULTIVARIATE_NORMAL:
        mom = _q_moments(node, eta, graph.kept_moments.pop(node_name, None))
        if node.layout is None:
            common = {"mu": mom.mu, "Sigma": mom.Sigma}
        else:
            mom = mom.refined(eta)
            common = {"mu": mom.mu}
    else:
        try:
            common = expfam.natural_to_common(NatParam(node.family, eta, node.d))
        except expfam.ImproperParameterError:
            raise ImproperQDensityError(node_name, eta) from None
    return QDensity(node_name, node.family, node.d, eta, common, mom)


def elbo(graph: FactorGraph, etas=None) -> float:
    """Entropy of each q-density plus each factor's E_q{log fragment}.

    ``etas`` maps each node to its q-density vector when the caller has
    them already.  Each multivariate normal q-density is factored at most once
    (two-level when its node has a layout), and not at all when the graph
    kept its moments; those moments give its properness, its entropy and the
    moments the fragments' terms read.  Each other q-density gives its
    entropy and the E{T} the fragments' terms read.
    """
    total = 0.0
    etas = etas if etas is not None else {n: _eta_q(graph, n) for n in graph.nodes}
    moments = {}
    for nname, node in graph.nodes.items():
        eta = etas[nname]
        if node.family == expfam.MULTIVARIATE_NORMAL:
            moments[nname] = _q_moments(node, eta, graph.kept_moments.get(nname))
            total += expfam.mvn_entropy(node.d, moments[nname].logdet)
        else:
            nat = NatParam(node.family, eta, node.d)
            try:
                total += expfam.entropy(nat)
            except expfam.ImproperParameterError:
                raise ImproperQDensityError(nname, eta) from None
            moments[nname] = expfam.expected_sufficient_statistic(nat)
    for factor in graph.factors.values():
        total += factor.fragment.logp([moments[n] for n in factor.neighbors])
    return float(total)


def run_vmp(
    graph: FactorGraph,
    schedule=None,
    max_iter: int = 500,
    tol: float = 1e-8,
    damping: float = 1.0,
    track_elbo: bool = True,
    accelerate: bool = True,
) -> ConvergenceReport:
    """Sweep the factors until the q-density natural parameters settle.

    Convergence is the infinity norm of the relative change of all q-density
    vectors, with per-coordinate denominator max(1, |old|), taken node by
    node over one sweep; the ELBO is recorded once per sweep that stands
    when tracking is on, from the same vectors.

    With ``accelerate`` (the default) the sweeps run in ELBO-guarded SQUAREM
    cycles (see ``_squarem``), unless a fragment of the graph sets
    ``ascends_elbo = False``; otherwise, or with ``accelerate=False``, every
    sweep starts where the last one ended.  The graph's moves run only in
    the accelerated loop, after each sweep from the third on, before its
    delta is taken.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:  # also rejects NaN, which never ends the loop
        raise ValueError(f"tol must be positive, got {tol!r}")
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

    report = ConvergenceReport(iterations=0, converged=False, max_relative_delta=np.inf)
    accelerated = accelerate and all(
        getattr(f.fragment, "ascends_elbo", True) for f in graph.factors.values()
    )
    moves = graph.moves if accelerated else ()

    def sweep(prev):
        """One sweep, counted (also when an update raises), then from the
        third on the graph's moves (accelerated runs only); its delta
        against ``prev`` (whose vectors it overwrites) reported; returns
        the new q-density vectors."""
        report.iterations += 1
        for fname in schedule:
            update_factor(graph, fname, damping=damping)
        cur = {n: _eta_q(graph, n) for n in graph.nodes}
        if report.iterations >= _FIRST_MOVE:
            for move in moves:
                report.moves_applied += _run_move(graph, move, cur)
        report.max_relative_delta = float(
            np.max([_max_relative_change(cur[n], prev[n]) for n in graph.nodes])
        )
        return cur

    if accelerated:
        _squarem(graph, sweep, report, max_iter, tol, track_elbo)
        return report
    prev = {n: _eta_q(graph, n) for n in graph.nodes}
    for _ in range(max_iter):
        prev = sweep(prev)
        if track_elbo:
            report.elbo_trace.append(elbo(graph, prev))
        if report.max_relative_delta < tol:
            report.converged = True
            break
    return report


_FIRST_MOVE = 3  # the first sweep after which the moves run
_STEP_GROWTH = 4.0


def _run_move(graph, move, cur):
    """Run ``move`` on the state whose q-density vectors are ``cur``.  After
    a move the moved nodes' vectors in ``cur`` are summed afresh, and the
    moments the move hands back are kept for them.  Returns whether it
    moved."""
    expectations = []
    for nname in move.nodes:
        node, eta = graph.nodes[nname], cur[nname]
        if node.family == expfam.MULTIVARIATE_NORMAL:
            expectations.append(_q_moments(node, eta, graph.kept_moments.get(nname)))
            continue
        try:
            expectations.append(expfam.expected_sufficient_statistic(NatParam(node.family, eta, node.d)))
        except expfam.ImproperParameterError:
            raise ImproperQDensityError(nname, eta) from None
    moved = move.apply(expectations, [graph.fac_to_node[edge] for edge in move.edges])
    if moved is None:
        return False
    for nname in dict.fromkeys(nname for _, nname in move.edges):
        cur[nname] = _eta_q(graph, nname)
        graph.kept_moments.pop(nname, None)
    for nname, moments in moved.items():
        graph.kept_moments[nname] = (cur[nname], moments)
    return True


def _squarem(graph, sweep, report, max_iter, tol, track_elbo):
    """ELBO-guarded SQUAREM (Varadhan & Roland, Scand. J. Stat. 2008, the S3
    step) over the factor-to-node messages.

    A cycle runs two plain sweeps, theta0 -> theta1 -> theta2, and with
    r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0 takes the step
    alpha = -|r| / |v| clipped to [-s, -1].  At alpha = -1 the candidate is
    theta2 itself and none is tried.  Otherwise the candidate
    theta0 - 2 alpha r + alpha^2 v gets one stabilising sweep and stands
    if its ELBO is no lower than theta2's; if it is lower, or the sweep or
    its ELBO finds an improper q-density or a failing update, the graph
    rolls back to theta2: its messages and fragment states, with the kept
    moments dropped.  The step cap s starts at 1, grows 4-fold after a step
    at the cap that stands and shrinks 4-fold (never below 1) after one
    that is rejected, as in the SQUAREM reference implementation; a
    rejected step shorter than the cap leaves it.

    Only messages on edges whose node has no layout are extrapolated; the
    stabilising sweep recomputes the packed ones from them.  Every sweep
    counts towards ``max_iter``, a candidate is tried only when its sweep
    fits within it, and the reported delta is always one sweep's change.
    """
    edges = [key for key in graph.fac_to_node if graph.nodes[key[1]].layout is None]
    splits = np.cumsum([graph.fac_to_node[key].size for key in edges], dtype=int)[:-1]

    def messages_now():  # the extrapolated messages, end to end
        return np.concatenate([np.zeros(0)] + [graph.fac_to_node[key] for key in edges])

    cap = 1.0
    prev = {n: _eta_q(graph, n) for n in graph.nodes}
    while report.iterations < max_iter:
        theta = [messages_now()] if cap > 1.0 else None  # at cap 1 alpha is -1
        for _ in range(2):
            prev = sweep(prev)
            if track_elbo:
                report.elbo_trace.append(elbo(graph, prev))
            if report.max_relative_delta < tol:
                report.converged = True
                return
            if report.iterations == max_iter:
                return
            if theta is not None:
                theta.append(messages_now())
        if theta is None:  # theta2 stands as a step at the cap
            cap *= _STEP_GROWTH
            continue
        alpha, candidate = _extrapolate(*theta, cap)
        del theta
        if candidate is None:
            continue
        floor = report.elbo_trace[-1] if track_elbo else elbo(graph, prev)
        del prev  # theta2's vectors are summed again on a rollback
        prev, value = _stabilise(graph, sweep, report, zip(edges, np.split(candidate, splits)), floor)
        del candidate
        if prev is not None:
            report.steps_accepted += 1
            if alpha == -cap:
                cap *= _STEP_GROWTH
            if track_elbo:
                report.elbo_trace.append(value)
            if report.max_relative_delta < tol:
                report.converged = True
                return
        else:
            report.steps_rejected += 1
            if alpha == -cap:
                cap = max(1.0, cap / _STEP_GROWTH)
            prev = {n: _eta_q(graph, n) for n in graph.nodes}


def _extrapolate(theta0, theta1, theta2, cap):
    """(alpha, candidate) of the S3 step under the cap; the candidate is
    None at alpha = -1 (also when v = 0, which gives no step length)."""
    r = theta1 - theta0
    v = theta2 - 2.0 * theta1 + theta0
    norm_r, norm_v = np.sqrt(r @ r), np.sqrt(v @ v)
    alpha = -min(cap, max(1.0, norm_r / norm_v)) if norm_v > 0 else -1.0
    if alpha == -1.0:
        return alpha, None
    return alpha, theta0 - 2.0 * alpha * r + alpha**2 * v


def _stabilise(graph, sweep, report, candidate, floor):
    """Sweep once from the ``candidate`` (edge, message) pairs.  Returns the
    new q-density vectors and the ELBO when the ELBO reaches ``floor``;
    otherwise puts back the graph's messages, fragment states, delta and
    count of moves (with the kept moments dropped) and returns (None, the
    ELBO)."""
    delta, moves = report.max_relative_delta, report.moves_applied
    messages = dict(graph.fac_to_node)
    states = {name: factor.fragment for name, factor in graph.factors.items()}
    graph.kept_moments.clear()
    graph.fac_to_node.update(candidate)
    try:
        cur = sweep({n: _eta_q(graph, n) for n in graph.nodes})
        value = elbo(graph, cur)
    except (ImproperQDensityError, VmpNumericsError):
        value = -np.inf
    if value >= floor:
        return cur, value
    graph.fac_to_node.update(messages)
    for name, state in states.items():
        graph.factors[name].fragment = state
    graph.kept_moments.clear()
    report.max_relative_delta, report.moves_applied = delta, moves
    return None, value


def _max_relative_change(new, old):
    """max |new - old| / max(1, |old|), computed in place in ``old`` (which
    the caller no longer needs) with one temporary."""
    scale = np.abs(old)
    np.maximum(scale, 1.0, out=scale)
    np.subtract(new, old, out=old)
    np.abs(old, out=old)
    np.divide(old, scale, out=old)
    return old.max()
