"""Long-run minimization of an edge weight along admissible trajectories.

The minimum of the time average over all invariant measures equals the
minimum mean weight over cycles, so the core computation is a min mean
cycle: one Howard policy iteration on the whole graph, which yields per
state the least reachable cycle mean and a bias.  From that one solve
this module extracts (each edge set as an array of ascending edge ids)

* a witness cycle achieving the minimum, a cycle of the final policy,
* the critical edge set: edges lying on minimizing cycles, found as the
  cyclic part of the edges with zero slack for the bias,
* for a nonnegative weight with minimum zero, the uncontrolled edge set:
  edges on bi-infinite trajectories of identically zero weight,
* the pressure of a second potential restricted to such an edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  dijkstra)

from .errors import ConvergenceError, InvariantViolation, ZeroMassError
from .pressure import perron
from .sft import CyclicWord, EdgePotential, TransitionGraph

SLACK_TOL = 1e-9
MAX_POLICY_ROUNDS = 1000  # rounds _howard may take beyond one per state


def _policy_values(graph, w, policy):
    """Cycle mean eta and bias h of the policy that leaves each state i
    along edge policy[i].  Each state's policy path ends in one cycle;
    eta is that cycle's mean, and h sums w - eta along the path to the
    cycle's least state, where h is 0."""
    n = graph.n_states
    succ, cost = graph.dst[policy], w[policy]
    # each weak component of the functional graph holds exactly one cycle
    _, labels = connected_components(
        csr_matrix((np.ones(n), (np.arange(n), succ)), shape=(n, n)),
        directed=True, connection="weak")
    steps = n.bit_length()  # 2**steps > n: enough moves to reach any cycle
    far = succ
    for _ in range(steps):
        far = far[far]
    cyc = np.unique(far)  # the states on cycles, ascending
    lab = labels[cyc]
    eta = (np.bincount(lab, weights=cost[cyc]) / np.bincount(lab))[labels]
    root = np.bincount(cyc[np.unique(lab, return_index=True)[1]], minlength=n) > 0
    nxt = np.where(root, np.arange(n), succ)
    h = np.where(root, 0.0, cost - eta)
    for _ in range(steps):
        h = h + h[nxt]
        nxt = nxt[nxt]
    return eta, h


def _howard(graph, a):
    """Howard policy iteration for the min mean cycle, multichain form
    (Cochet-Terrasson, Cohen, Gaubert, McGettrick and Quadrat, 1998), on
    the whole graph in O(edges) memory.  Values within tol, SLACK_TOL
    scaled up by the largest |weight| above 1, count as equal: rounding in
    the bias grows with the weights and must not make the policy switch.

    Returns per state the least reachable cycle mean eta, the bias h
    (w - eta[i] + h[j] >= h[i] - tol on every edge i -> j with eta[j]
    within tol of eta[i], equality on policy edges), the final policy,
    one out-edge per state, and tol.
    """
    if not a.graph.same_graph(graph):
        raise ValueError("weight lives on a different graph")
    src, dst, w, n = graph.src, graph.dst, a.values, graph.n_states
    tol = SLACK_TOL * max(1.0, float(np.abs(w).max()))
    starts = graph.indptr[:-1]  # every row is nonempty
    # the reversed edges, then an edge from an extra state n to each state
    tails = np.concatenate([dst, np.full(n, n)])
    heads = np.concatenate([src, np.arange(n)])

    def first_min(key):
        # per state, the least key and the first out-edge attaining it
        best = np.minimum.reduceat(key, starts)
        hit = np.where(key == best[src], np.arange(w.size), w.size)
        return best, np.minimum.reduceat(hit, starts)

    policy = first_min(w)[1]
    for _ in range(n + MAX_POLICY_ROUNDS):
        eta, h = _policy_values(graph, w, policy)
        e = eta - eta.min()
        if (e[dst] < e[src] - tol).any():
            # improve eta first: each state heads for the least eta it can
            # reach (Dijkstra from n) along fewest edges (breadth first)
            reach = dijkstra(
                csr_matrix((np.concatenate([np.zeros(w.size), e]),
                            (tails, heads)), shape=(n + 1, n + 1)),
                indices=n)[:n]
            better = reach < e - tol
            level = np.concatenate([reach[dst] == reach[src], ~better])
            _, pred = breadth_first_order(
                csr_matrix((np.ones(level.sum()), (tails[level], heads[level])),
                           shape=(n + 1, n + 1)), n)
            arg = first_min(dst != pred[src])[1]
        else:
            # only then improve h; a switch must beat the policy edge by
            # more than tol, so every switch changes the policy
            key = np.where(np.abs(e[dst] - e[src]) <= tol,
                           w - eta[src] + h[dst], np.inf)
            best, arg = first_min(key)
            better = best < key[policy] - tol
            if not better.any():
                return eta, h, policy, tol
        policy = np.where(better, arg, policy)
    raise ConvergenceError(f"no policy fixpoint in {n + MAX_POLICY_ROUNDS} rounds")


def min_average(graph: TransitionGraph, a: EdgePotential) -> float:
    """Minimum over invariant measures of the average edge weight; equals
    the minimum mean cycle weight over the whole graph."""
    return float(_howard(graph, a)[0].min())


def _cyclic_edges(graph, ids):
    """Those of the ascending edge ids that lie on a cycle of the subgraph
    they span, and the strong component label of each state there."""
    n = graph.n_states
    src, dst = graph.src[ids], graph.dst[ids]
    _, labels = connected_components(
        csr_matrix((np.ones(ids.size, dtype=bool), (src, dst)), shape=(n, n)),
        directed=True, connection="strong")
    return ids[labels[src] == labels[dst]], labels


def _critical(graph, a):
    """The one min-mean-cycle solve behind undamped_set and minimize: the
    optimal average a0, the ascending ids of the critical edges (the
    cyclic part of the edges that are tight for the bias, between states
    whose cycle mean is within tol of a0), a witness cycle of the final
    policy, checked to attain a0, and the bias h."""
    eta, h, policy, tol = _howard(graph, a)
    src, dst, a0 = graph.src, graph.dst, eta.min()
    tight = ((eta[src] <= a0 + tol) & (eta[dst] <= a0 + tol)
             & (a.values - a0 + h[dst] - h[src] <= tol))
    # walk the policy from the least state with eta == a0 into its cycle
    succ, seen, v = graph.dst[policy], {}, int(eta.argmin())
    while v not in seen:
        seen[v] = len(seen)
        v = int(succ[v])
    cycle = list(seen)[seen[v]:]
    wmean = a.values[policy[cycle]].sum() / len(cycle)
    if abs(wmean - a0) > 1e-12 * max(1.0, abs(a0)) + len(cycle) * tol:
        raise InvariantViolation(
            f"witness mean {wmean!r} deviates from optimum {a0!r}")
    return (float(a0), _cyclic_edges(graph, np.flatnonzero(tight))[0],
            CyclicWord(graph, tuple(cycle)), h)


def undamped_set(graph: TransitionGraph, a: EdgePotential) -> np.ndarray:
    """Edges lying on cycles that achieve the minimum mean weight, as
    ascending edge ids: edges tight for the policy-iteration bias,
    restricted to the cyclic part.  The subgraph they span carries every
    minimizing invariant measure.
    """
    return _critical(graph, a)[1]


def noncontrolled_set(graph: TransitionGraph, a: EdgePotential) -> np.ndarray:
    """Edges of bi-infinite admissible trajectories along which the weight
    vanishes identically, as ascending edge ids: within the exact-zero
    subgraph, edges reachable from a zero cycle and leading back to one.

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
        raise ValueError(f"minimum average is {a0!r}, not 0: no trajectory "
                         "avoids the weight entirely")
    zero = np.flatnonzero(a.values == 0.0)
    src, dst = graph.src[zero], graph.dst[zero]
    seeds = graph.src[_cyclic_edges(graph, zero)[0]]  # repeats are harmless
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

    return zero[reached(src, dst)[src] & reached(dst, src)[dst]]


def pressure_on_set(graph: TransitionGraph, phi: EdgePotential,
                    edges) -> float:
    """Pressure of phi restricted to the subsystem spanned by the given
    edge ids, ascending or not (a repeated id counts once): the max log
    Perron root over the cyclic strongly connected pieces of that
    subgraph."""
    if not phi.graph.same_graph(graph):
        raise ValueError("potential lives on a different graph")
    ids = np.asarray(edges)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"edges must be integer edge ids, got {ids.dtype} "
                         f"of shape {ids.shape}")
    if ids.size and not 0 <= ids.min() <= ids.max() < graph.n_edges:
        raise ValueError(f"edge ids must lie in 0..{graph.n_edges - 1}")
    ids = np.flatnonzero(np.bincount(ids.astype(np.intp),  # sorted, unique
                                     minlength=graph.n_edges))
    keep, labels = _cyclic_edges(graph, ids)
    if not keep.size:
        raise ZeroMassError(
            "edge set spans no cycles: no invariant measure lives on it")
    piece_of = labels[graph.src[keep]]
    order = np.argsort(piece_of, kind="stable")
    best = -np.inf
    for piece in np.split(keep[order],
                          np.flatnonzero(np.diff(piece_of[order])) + 1):
        # a piece's states are its sources; ascending ids keep row-major
        # order under the monotone relabeling
        src, dst = graph.src[piece], graph.dst[piece]
        nodes, local = np.unique(src, return_inverse=True)
        sub = TransitionGraph(nodes.size, local, np.searchsorted(nodes, dst))
        best = max(best, perron(EdgePotential(sub, phi.values[piece])).log_rho)
    return float(best)


@dataclass(frozen=True, eq=False)
class MinimizationResult:
    """Everything the minimization yields, compared by identity: the
    optimal average, a witness cycle attaining it, the critical edge set
    as ascending edge ids, Howard's bias h (h_i = min_j a_ij + h_j - a0),
    and optionally the pressure of a second potential on the critical set."""

    value: float
    witness_cycle: CyclicWord
    critical_edges: np.ndarray
    bias: np.ndarray
    restricted_pressure: float | None = None


def minimize(graph: TransitionGraph, a: EdgePotential,
             phi: EdgePotential | None = None) -> MinimizationResult:
    """Full minimization report for the weight a; if phi is given, also
    the pressure of phi restricted to the critical edge set."""
    a0, critical, witness, h = _critical(graph, a)
    return MinimizationResult(
        a0, witness, critical, h,
        None if phi is None else pressure_on_set(graph, phi, critical))

