"""Long-run minimization of an edge weight along admissible trajectories.

The minimum of the time average over all invariant measures equals the
minimum mean weight over cycles, so the core computation is a min mean
cycle (Karp's recurrence, run per strongly connected component).  On top
of that this module extracts

* a witness cycle achieving the minimum,
* the critical edge set: edges lying on minimizing cycles, found through
  shortest-path potentials and tight-edge slack,
* for a nonnegative weight with minimum zero, the uncontrolled edge set:
  edges on bi-infinite trajectories of identically zero weight,
* the pressure of a second potential restricted to such an edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import InvariantViolation, ZeroMassError
from .pressure import perron
from .sft import CyclicWord, EdgePotential, TransitionGraph

SLACK_TOL = 1e-9


def _scc_labels(graph):
    _, labels = connected_components(graph.adjacency(), directed=True,
                                     connection="strong")
    return labels


def _cyclic_components(graph, labels):
    """Component ids that contain at least one edge (hence a cycle)."""
    src, dst = graph.src, graph.dst
    internal = labels[src] == labels[dst]
    return sorted(set(labels[src[internal]].tolist()))


def _karp_min_mean(nodes, src, dst, w):
    """Min mean cycle inside one strongly connected node set.

    d[k][v] = least weight of a walk with exactly k edges from the source
    node to v; the answer is min over v of max over k of
    (d[m][v] - d[k][v]) / (m - k).
    """
    m = len(nodes)
    relabel = {v: i for i, v in enumerate(nodes)}
    s = np.array([relabel[v] for v in src])
    t = np.array([relabel[v] for v in dst])
    d = np.full((m + 1, m), np.inf)
    d[0, 0] = 0.0
    for k in range(1, m + 1):
        row = np.full(m, np.inf)
        reach = np.isfinite(d[k - 1, s])
        if reach.any():
            np.minimum.at(row, t[reach], d[k - 1, s[reach]] + w[reach])
        d[k] = row
    # an infinite d[k, v] gives -inf, which never wins the max over k
    cols = np.isfinite(d[m])
    steps = (m - np.arange(m))[:, None]
    worst = ((d[m, cols] - d[:m, cols]) / steps).max(axis=0, initial=-np.inf)
    return worst.min(initial=np.inf)


def min_average(graph: TransitionGraph, a: EdgePotential) -> float:
    """Minimum over invariant measures of the average edge weight; equals
    the minimum mean cycle weight, minimized across components."""
    if not a.graph.same_graph(graph):
        raise ValueError("weight lives on a different graph")
    labels = _scc_labels(graph)
    src, dst, w = graph.src, graph.dst, a.values
    best = np.inf
    for comp in _cyclic_components(graph, labels):
        mask = (labels[src] == comp) & (labels[dst] == comp)
        nodes = sorted(np.nonzero(labels == comp)[0].tolist())
        best = min(best, _karp_min_mean(nodes, src[mask], dst[mask], w[mask]))
    if not np.isfinite(best):
        raise ZeroMassError("graph has no cycles")
    return float(best)


def _potentials(graph, a, a0):
    """Shortest-path potentials for the reduced weight a - a0, by n rounds
    of Bellman-Ford from an implicit super-source."""
    n = graph.n_states
    src, dst = graph.src, graph.dst
    wr = a.values - a0
    h = np.zeros(n)
    for _ in range(n):
        cand = np.full(n, np.inf)
        np.minimum.at(cand, dst, h[src] + wr)
        nh = np.minimum(h, cand)
        if np.array_equal(nh, h):
            break
        h = nh
    return h


def _tight_edges(graph, a, a0):
    src, dst = graph.src, graph.dst
    h = _potentials(graph, a, a0)
    tight = (a.values - a0) + h[src] - h[dst] <= SLACK_TOL
    return src[tight], dst[tight]


def _edge_subgraph_components(graph, src, dst):
    """Cyclic strongly connected node sets of the subgraph on the edges
    (src[k], dst[k]), plus the edges internal to each, in input order."""
    n = graph.n_states
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    sub = csr_matrix((np.ones(len(src), dtype=bool), (src, dst)), shape=(n, n))
    sub.sum_duplicates()  # sorted unique indices fix the component labels
    _, labels = connected_components(sub, directed=True, connection="strong")
    groups = {}
    for i, j in zip(src.tolist(), dst.tolist()):
        if labels[i] == labels[j]:
            groups.setdefault(labels[i], []).append((i, j))
    return [sorted(g) for _, g in sorted(groups.items())]


def _critical_groups(graph, a):
    """The optimal average a0 and the cyclic groups of tight edges: the
    one min-mean-cycle solve behind undamped_set and minimize."""
    a0 = min_average(graph, a)
    groups = _edge_subgraph_components(graph, *_tight_edges(graph, a, a0))
    return a0, groups


def undamped_set(graph: TransitionGraph, a: EdgePotential) -> tuple:
    """Edges lying on cycles that achieve the minimum mean weight: tight
    edges of the shortest-path potentials, restricted to the cyclic part.

    Returned sorted; the subgraph they span carries every minimizing
    invariant measure.
    """
    _, groups = _critical_groups(graph, a)
    return tuple(sorted(e for g in groups for e in g))


def noncontrolled_set(graph: TransitionGraph, a: EdgePotential) -> tuple:
    """Edges of bi-infinite admissible trajectories along which the weight
    vanishes identically: within the exact-zero subgraph, edges reachable
    from a zero cycle and leading back to one.

    Defined only for a nonnegative weight whose minimum average is zero
    (within 1e-12); otherwise no such trajectory exists and the call is a
    usage error.
    """
    if not a.graph.same_graph(graph):
        raise ValueError("weight lives on a different graph")
    if a.min() < 0:
        raise ValueError("weight must be nonnegative")
    a0 = min_average(graph, a)
    if abs(a0) > 1e-12:
        raise ValueError(
            f"minimum average is {a0!r}, not 0: no trajectory avoids the "
            "weight entirely"
        )
    return _noncontrolled_edges(graph, a)


def _noncontrolled_edges(graph, a):
    """noncontrolled_set without its checks, for a weight already known to
    be nonnegative with minimum average zero."""
    zero = a.values == 0.0
    src, dst = graph.src[zero], graph.dst[zero]
    seeds = np.unique([v for group in _edge_subgraph_components(graph, src, dst)
                       for e in group for v in e]).astype(np.intp)
    n = graph.n_states

    def reached(tails, heads):
        # states reachable from a zero-cycle state along the given edges:
        # one traversal from an extra state n with an edge to every seed
        tails = np.concatenate([tails, np.full(seeds.size, n)])
        heads = np.concatenate([heads, seeds])
        adj = csr_matrix((np.ones(tails.size), (tails, heads)),
                         shape=(n + 1, n + 1))
        mask = np.zeros(n + 1, dtype=bool)
        mask[breadth_first_order(adj, n, return_predecessors=False)] = True
        return mask

    keep = reached(src, dst)[src] & reached(dst, src)[dst]
    return tuple(zip(src[keep].tolist(), dst[keep].tolist()))


def pressure_on_set(graph: TransitionGraph, phi: EdgePotential,
                    edges) -> float:
    """Pressure of phi restricted to the subsystem spanned by the given
    edges: the max log Perron root over the cyclic strongly connected
    pieces of that subgraph."""
    if not phi.graph.same_graph(graph):
        raise ValueError("potential lives on a different graph")
    ids = {}  # edge -> its position in the graph's edge arrays
    for i, j in edges:
        try:
            ids[i, j] = graph.edge_id(i, j)
        except KeyError:
            raise ValueError(f"edge {(i, j)} is not allowed in the graph") from None
    k = np.array(list(ids.values()), dtype=np.intp)
    groups = _edge_subgraph_components(graph, graph.src[k], graph.dst[k])
    if not groups:
        raise ZeroMassError(
            "edge set spans no cycles: no invariant measure lives on it"
        )
    best = -np.inf
    for group in groups:
        # sorted edges keep row-major order under the monotone relabeling
        src, dst = np.array(group).T
        nodes, local = np.unique(np.concatenate([src, dst]),
                                 return_inverse=True)
        piece = EdgePotential(
            TransitionGraph(nodes.size, local[:src.size], local[src.size:]),
            phi.values[[ids[e] for e in group]])
        best = max(best, perron(piece).log_rho)
    return float(best)


def _witness_cycle(graph, tight_groups):
    """Deterministic cycle inside the first tight component: walk least
    successors until a state repeats."""
    group = tight_groups[0]
    succ = {}
    for i, j in group:
        succ.setdefault(i, []).append(j)
    start = min(succ)
    path = [start]
    seen = {start: 0}
    while True:
        nxt = min(succ[path[-1]])
        if nxt in seen:
            cyc = path[seen[nxt]:]
            return CyclicWord(graph, tuple(cyc))
        seen[nxt] = len(path)
        path.append(nxt)


@dataclass(frozen=True)
class MinimizationResult:
    """Everything the minimization yields: the optimal average, a witness
    cycle attaining it, the critical edge set, the zero-weight edge set
    (None unless the weight is nonnegative with zero minimum), and
    optionally the pressure of a second potential on the critical set."""

    value: float
    witness_cycle: CyclicWord
    critical_edges: tuple
    noncontrolled_edges: tuple | None
    restricted_pressure: float | None = None


def minimize(graph: TransitionGraph, a: EdgePotential,
             phi: EdgePotential | None = None) -> MinimizationResult:
    """Full minimization report for the weight a; if phi is given, also
    the pressure of phi restricted to the critical edge set."""
    a0, groups = _critical_groups(graph, a)
    critical = tuple(sorted(e for g in groups for e in g))
    witness = _witness_cycle(graph, groups)
    wmean = sum(a.values[graph.edge_id(*e)] for e in witness.edges()) / len(witness)
    if abs(wmean - a0) > 1e-12 * max(1.0, abs(a0)) + len(witness) * SLACK_TOL:
        raise InvariantViolation(
            f"witness mean {wmean!r} deviates from optimum {a0!r}"
        )
    if a.min() >= 0 and abs(a0) <= 1e-12:
        noncontrolled = _noncontrolled_edges(graph, a)
    else:
        noncontrolled = None
    restricted = None
    if phi is not None:
        restricted = pressure_on_set(graph, phi, critical)
    return MinimizationResult(a0, witness, critical, noncontrolled,
                              restricted)


def format_edge_set(edges) -> str:
    """One 'i j' line per edge, sorted, LF newlines; '' for the empty set."""
    return "".join(f"{i} {j}\n" for i, j in sorted(map(tuple, edges)))


def parse_edge_set(text: str, graph: TransitionGraph) -> tuple:
    """Inverse of format_edge_set, validated against the graph."""
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 'i j', got {raw!r}")
        i, j = int(parts[0]), int(parts[1])
        try:
            graph.edge_id(i, j)
        except KeyError:
            raise ValueError(f"line {ln}: edge ({i}, {j}) not allowed") from None
        edges.append((i, j))
    return tuple(sorted(edges))
