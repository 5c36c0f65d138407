"""Minimum mean cycle, critical edge sets, restricted pressure.

The oracle enumerates simple cycles directly, so every comparison here is
against an independent computation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermopress import ergopt
from thermopress.errors import ConvergenceError, ZeroMassError
from thermopress.ergopt import (
    min_average,
    minimize,
    noncontrolled_set,
    pressure_on_set,
    undamped_set,
)
from thermopress.instances import (
    golden_mean_instance,
    two_loops_path_instance,
)
from thermopress.pressure import pressure_transfer
from thermopress.sft import (
    EdgePotential,
    TransitionGraph,
    full_shift,
    golden_mean_shift,
)

from .oracles import (birkhoff_sum, edge_pairs, graph_from_mask,
                      karp_min_mean, mask_of_graph)


def _simple_cycles(graph):
    """All simple cycles, each as a tuple of states with the smallest state
    first.  DFS from each anchor visits only states >= the anchor, so each
    cycle is produced exactly once."""
    n = graph.n_states
    succ = [graph.successors(i) for i in range(n)]
    out = []

    def walk(anchor, path, on_path):
        for j in succ[path[-1]]:
            if j == anchor:
                out.append(tuple(path))
            elif j > anchor and j not in on_path:
                on_path.add(j)
                path.append(j)
                walk(anchor, path, on_path)
                path.pop()
                on_path.remove(j)

    for s in range(n):
        walk(s, [s], {s})
    return out


def _cycle_mean(a, cyc):
    total = 0.0
    for k in range(len(cyc)):
        total += a.value(cyc[k], cyc[(k + 1) % len(cyc)])
    return total / len(cyc)


def _brute_min_mean(graph, a):
    return min(_cycle_mean(a, c) for c in _simple_cycles(graph))


def _brute_critical_edges(graph, a, a0, tol=1e-12):
    edges = set()
    for cyc in _simple_cycles(graph):
        if abs(_cycle_mean(a, cyc) - a0) <= tol:
            for k in range(len(cyc)):
                edges.add((cyc[k], cyc[(k + 1) % len(cyc)]))
    return tuple(sorted(edges))


def _random_graph(rng, n, density=0.4):
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    for k in range(n):
        A[perm[k], perm[(k + 1) % n]] = True
    A |= rng.random((n, n)) < density
    return graph_from_mask(A)


def _bipartite_graph(rng, n, density=0.4):
    # period 2: every edge joins an even state to an odd one, so walks of
    # a fixed length from a state reach only one parity class
    A = np.zeros((n, n), dtype=bool)
    evens = rng.permutation(np.arange(0, n, 2))
    odds = rng.permutation(np.arange(1, n, 2))
    ring = np.ravel(np.column_stack([evens, odds]))
    A[ring, np.roll(ring, -1)] = True
    parity = np.arange(n) % 2
    A |= (rng.random((n, n)) < density) & (parity[:, None] != parity[None, :])
    return graph_from_mask(A)


def _reducible_graph(rng, n, density=0.4):
    # n >= 3: two or more strongly connected pieces, joined only by edges
    # from earlier pieces to later ones, plus transient states that are
    # entered from one piece, leave to a later one and lie on no cycle
    n_cyclic = int(rng.integers(2, n))
    cuts = rng.choice(np.arange(1, n_cyclic),
                      size=int(rng.integers(1, n_cyclic)), replace=False)
    pieces = np.split(np.arange(n_cyclic), np.sort(cuts))
    level = np.repeat(np.arange(len(pieces)), [p.size for p in pieces])
    A = np.zeros((n, n), dtype=bool)
    for p in pieces:
        A[p, np.roll(p, -1)] = True
        A[np.ix_(p, p)] |= rng.random((p.size, p.size)) < density
    A[:n_cyclic, :n_cyclic] |= (
        (level[:, None] < level[None, :])
        & (rng.random((n_cyclic,) * 2) < density / 2))
    for t in range(n_cyclic, n):
        enter = int(rng.integers(0, len(pieces) - 1))
        leave = int(rng.integers(enter + 1, len(pieces)))
        A[rng.choice(pieces[enter]), t] = True
        A[t, rng.choice(pieces[leave])] = True
    perm = rng.permutation(n)
    return graph_from_mask(A[np.ix_(perm, perm)])


def _dyadic_potential(rng, graph, zero_frac=0.3):
    # weights are multiples of 1/64, so cycle means are correctly rounded
    # from exact sums and the oracle comparison can demand equality
    vals = {}
    for e in graph.edges():
        if rng.random() < zero_frac:
            vals[e] = 0.0
        else:
            vals[e] = float(rng.integers(1, 129)) / 64.0
    return EdgePotential.from_edges(graph, vals)


# ---------------------------------------------------------------------------
# min_average against brute force


def test_min_average_exact_on_dyadic_instances():
    rng = np.random.default_rng(606)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = _random_graph(rng, n)
        a = _dyadic_potential(rng, g)
        assert min_average(g, a) == _brute_min_mean(g, a)
    # periodic graphs leave some d[m, v] of Karp's table infinite
    for n in (2, 4, 6, 8):
        g = _bipartite_graph(rng, n)
        a = _dyadic_potential(rng, g)
        assert min_average(g, a) == _brute_min_mean(g, a)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 10),
       kind=st.sampled_from(["random", "reducible", "bipartite"]),
       tenths=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_min_mean_cycle_matches_karp_and_cycle_oracles(n, kind, tenths, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        g = _random_graph(rng, n)
    elif kind == "reducible":
        g = _reducible_graph(rng, max(n, 3))
        assert not g.irreducible
    else:
        g = _bipartite_graph(rng, n - n % 2)
    if tenths:
        # multiples of 1/10: cycles whose means agree exactly often round
        # to different floats, and both must still count as minimizing
        span = int(rng.choice([3, 20]))
        a = EdgePotential(g, rng.integers(-span, span + 1, g.n_edges) / 10.0)
        tol = 1e-12
    else:
        # multiples of 1/64 of either sign; the narrow range makes ties
        # common, the large scale puts rounding in the bias far above
        # SLACK_TOL, and every cycle mean is exact
        span = int(rng.choice([2, 128]))
        scale = float(rng.choice([1.0, 2.0**40]))
        a = EdgePotential(
            g, rng.integers(-span, span + 1, g.n_edges) / 64.0 * scale)
        tol = 0.0
    a0 = min_average(g, a)
    assert abs(a0 - karp_min_mean(g, a)) <= tol
    assert (edge_pairs(g, undamped_set(g, a))
            == _brute_critical_edges(g, a, a0))
    witness = minimize(g, a).witness_cycle
    assert abs(birkhoff_sum(a, witness) / len(witness) - a0) <= tol


@pytest.mark.parametrize("edges, a0, critical", [
    # the 3-cycle 0 -> 1 -> 2 has mean 0.6 / 3 = 0.20000000000000004 in
    # floats, the loop at 3 has 0.2; both minimize in exact arithmetic
    ([(0, 1, 0.1), (1, 2, 0.2), (2, 0, 0.3), (2, 3, 1.0), (3, 0, 1.0),
      (3, 3, 0.2)], 0.2, ((0, 1), (1, 2), (2, 0), (3, 3))),
    # the first policy has the cycles 0 -> 3 -> 1 and 2 -> 5 of means
    # 0.20000000000000004 and 0.2; only by moving states between these
    # two does the bias stage reach the cycle 0 -> 4 -> 5 -> 2 of 0.175
    ([(0, 1, 0.2), (0, 2, 0.3), (0, 3, 0.1), (0, 4, 0.1), (1, 0, 0.3),
      (1, 1, 0.3), (1, 3, 0.3), (1, 4, 0.3), (1, 5, 0.3), (2, 0, 0.3),
      (2, 2, 0.3), (2, 5, 0.2), (3, 1, 0.2), (3, 2, 0.2), (3, 3, 0.3),
      (3, 4, 0.3), (4, 1, 0.3), (4, 5, 0.1), (5, 2, 0.2), (5, 5, 0.2)],
     0.175, ((0, 4), (2, 0), (4, 5), (5, 2))),
])
def test_cycle_means_that_round_apart_tie(edges, a0, critical):
    src, dst, w = zip(*edges)
    g = TransitionGraph(max(src) + 1, src, dst)
    a = EdgePotential(g, np.array(w))
    assert min_average(g, a) == pytest.approx(a0, abs=1e-15)
    assert edge_pairs(g, undamped_set(g, a)) == critical


def _loop_chain(n):
    # states 0 -> 1 -> ... -> n-1, each with a loop; every loop weighs 1
    # except the last, which weighs 0, and each forward edge weighs 5
    src = np.repeat(np.arange(n), 2)[:-1]
    dst = src + np.tile([0, 1], n)[:-1]
    g = TransitionGraph(n, src, dst)
    loop = np.where(src == n - 1, 0.0, 1.0)
    return g, EdgePotential(g, np.where(src == dst, loop, 5.0))


def test_policy_rounds_do_not_grow_along_a_chain(monkeypatch):
    # improving each state toward its best neighbour alone would take one
    # round per state here; heading for the best reachable cycle takes one
    # improvement, so two policy evaluations
    g, a = _loop_chain(2000)
    real, calls = ergopt._policy_values, []
    monkeypatch.setattr(ergopt, "_policy_values",
                        lambda *args: calls.append(1) or real(*args))
    assert min_average(g, a) == 0.0
    assert len(calls) == 2


def test_policy_iteration_gives_up_after_its_round_limit(monkeypatch):
    g, a = _loop_chain(5)  # needs two rounds
    monkeypatch.setattr(ergopt, "MAX_POLICY_ROUNDS", 1 - g.n_states)
    with pytest.raises(ConvergenceError):
        min_average(g, a)


def test_bias_drift_cannot_stall_policy_iteration(monkeypatch):
    # on large graphs the summed bias drifts from w - eta + h[succ] on
    # policy edges by more than tol; lifting each cycle's root by 100 tol
    # does the same here.  A state whose best edge is its policy edge must
    # not count as improvable, or the same policy is evaluated forever.
    g = full_shift(3)  # the optimal cycle is 0 -> 1 -> 0, rooted at 0
    a = EdgePotential(g, np.array([1.0, 0.1, 1.0, 0.2, 1.0, 1.0, 1.0, 1.0, 1.0]))
    eta0, _, policy0, tol = ergopt._howard(g, a)
    real = ergopt._policy_values

    def drifted(graph, w, policy):
        eta, h = real(graph, w, policy)
        return eta, np.where(h == 0.0, 100 * tol, h)

    monkeypatch.setattr(ergopt, "_policy_values", drifted)
    eta, _, policy, _ = ergopt._howard(g, a)
    assert np.array_equal(eta, eta0)
    assert np.array_equal(policy, policy0)


def test_min_average_generic_weights():
    rng = np.random.default_rng(607)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        g = _random_graph(rng, n)
        vals = {e: float(rng.uniform(-1, 1)) for e in g.edges()}
        a = EdgePotential.from_edges(g, vals)
        assert min_average(g, a) == pytest.approx(
            _brute_min_mean(g, a), rel=1e-12, abs=1e-12
        )


def test_min_average_reducible_graph():
    # two loops, one-way bridge: both loops count, bridge edge does not
    A = np.array([[1, 1], [0, 1]], dtype=bool)
    g = graph_from_mask(A)
    a = EdgePotential(g, np.array([[0.3, 9.9], [0.0, 0.1]])[mask_of_graph(g)])
    assert min_average(g, a) == pytest.approx(0.1, abs=1e-15)


def test_min_average_two_loops_path():
    g, a, _ = two_loops_path_instance()
    assert min_average(g, a) == 0.0


# ---------------------------------------------------------------------------
# undamped (critical) set


def test_undamped_set_exhaustive_small_graphs():
    # every admissible graph on <= 3 states, dyadic weights: the critical
    # set must match the union of minimizing simple cycles exactly
    rng = np.random.default_rng(11)
    checked = 0
    for n in (1, 2, 3):
        for bits in itertools.product([0, 1], repeat=n * n):
            A = np.array(bits, dtype=bool).reshape(n, n)
            try:
                g = graph_from_mask(A)
            except ValueError:
                continue
            for _ in range(3):
                a = _dyadic_potential(rng, g)
                a0 = _brute_min_mean(g, a)
                want = _brute_critical_edges(g, a, a0)
                assert edge_pairs(g, undamped_set(g, a)) == want
                checked += 1
    assert checked > 60


def test_undamped_set_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        g = _random_graph(rng, n)
        a = _dyadic_potential(rng, g)
        a0 = _brute_min_mean(g, a)
        assert (edge_pairs(g, undamped_set(g, a))
                == _brute_critical_edges(g, a, a0))


def test_undamped_set_golden_mean_indicator():
    g, a, _ = golden_mean_instance()
    assert edge_pairs(g, undamped_set(g, a)) == ((0, 0),)


def test_weight_vanishes_on_critical_set_when_minimum_is_zero():
    # nonnegative weight with zero minimum average: every critical edge
    # carries weight exactly zero
    rng = np.random.default_rng(13)
    found = 0
    while found < 25:
        n = int(rng.integers(2, 7))
        g = _random_graph(rng, n)
        a = _dyadic_potential(rng, g, zero_frac=0.45)
        if min_average(g, a) != 0.0:
            continue
        found += 1
        for i, j in edge_pairs(g, undamped_set(g, a)):
            assert a.value(i, j) == 0.0


# ---------------------------------------------------------------------------
# noncontrolled set


def _brute_noncontrolled(graph, a):
    # zero-weight edges sitting on a bi-infinite zero-weight trajectory:
    # reachable from some zero cycle and co-reachable from some zero cycle,
    # inside the zero-edge subgraph
    zero = [(i, j) for i, j in graph.edges() if a.value(i, j) == 0.0]
    zset = set(zero)
    cyc_nodes = set()
    for cyc in _simple_cycles(graph):
        edges = [(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))]
        if all(e in zset for e in edges):
            cyc_nodes.update(cyc)
    fwd = {}
    bwd = {}
    for i, j in zero:
        fwd.setdefault(i, []).append(j)
        bwd.setdefault(j, []).append(i)

    def closure(adj, seed):
        seen = set(seed)
        stack = list(seed)
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    down = closure(fwd, cyc_nodes)
    up = closure(bwd, cyc_nodes)
    return tuple(sorted((i, j) for i, j in zero if i in down and j in up))


def test_noncontrolled_contains_undamped():
    rng = np.random.default_rng(14)
    found = 0
    while found < 25:
        n = int(rng.integers(2, 7))
        g = _random_graph(rng, n)
        a = _dyadic_potential(rng, g, zero_frac=0.5)
        if min_average(g, a) != 0.0:
            continue
        found += 1
        K = set(edge_pairs(g, undamped_set(g, a)))
        N = edge_pairs(g, noncontrolled_set(g, a))
        assert K <= set(N)
        assert N == _brute_noncontrolled(g, a)


def test_two_loops_path_strict_inclusion():
    # the loops minimize, the connecting path carries no weight: the
    # noncontrolled set strictly exceeds the critical set
    g, a, _ = two_loops_path_instance()
    K = edge_pairs(g, undamped_set(g, a))
    N = edge_pairs(g, noncontrolled_set(g, a))
    assert K == ((0, 0), (2, 2))
    assert N == ((0, 0), (0, 1), (1, 2), (2, 2))
    assert set(K) < set(N)


def test_noncontrolled_rejects_negative_weight():
    g = golden_mean_shift()
    a = EdgePotential(g, np.array([[-0.1, 0.0], [0.0, 0.0]])[mask_of_graph(g)])
    with pytest.raises(ValueError):
        noncontrolled_set(g, a)


def test_noncontrolled_rejects_positive_minimum():
    g = full_shift(2)
    a = EdgePotential.constant(g, 0.5)
    with pytest.raises(ValueError):
        noncontrolled_set(g, a)


# ---------------------------------------------------------------------------
# pressure on edge subsets


def test_pressure_on_full_edge_set_is_plain_pressure():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = _random_graph(rng, n)
        vals = {e: float(rng.uniform(-1, 1)) for e in g.edges()}
        phi = EdgePotential.from_edges(g, vals)
        want = pressure_transfer(g, phi).value
        got = pressure_on_set(g, phi,
                              [g.edge_id(i, j) for i, j in g.edges()])
        assert got == pytest.approx(want, abs=1e-10)


def test_pressure_on_subset_is_monotone():
    g, a, phi = two_loops_path_instance()
    sub = pressure_on_set(g, phi, undamped_set(g, a))
    full = pressure_on_set(g, phi, [g.edge_id(i, j) for i, j in g.edges()])
    assert sub <= full + 1e-12


def test_pressure_on_single_loop():
    g = golden_mean_shift()
    phi = EdgePotential(g, np.array([[0.25, 0.0], [0.0, 0.0]])[mask_of_graph(g)])
    assert pressure_on_set(g, phi, [g.edge_id(0, 0)]) == pytest.approx(
        0.25, abs=1e-12)


def test_pressure_on_acyclic_subset_raises():
    g = golden_mean_shift()
    phi = EdgePotential.constant(g, 0.0)
    with pytest.raises(ZeroMassError):
        pressure_on_set(g, phi, [g.edge_id(0, 1)])


@pytest.mark.parametrize("edges", [
    pytest.param([(1, 1)], id="forbidden-pair"),
    pytest.param([(0, 0), (0, 1)], id="allowed-pairs"),  # ids only
    pytest.param(np.array([True, False, True]), id="mask"),  # not ids 0, 1
    pytest.param([-1], id="negative"),  # would index from the end
    pytest.param([3], id="past-the-end"),  # the golden mean shift has 3
    pytest.param([0.0, 1.0], id="floats"),
])
def test_pressure_on_set_rejects_foreign_edges(edges):
    g = golden_mean_shift()
    phi = EdgePotential.constant(g, 0.0)
    with pytest.raises(ValueError):
        pressure_on_set(g, phi, edges)


# ---------------------------------------------------------------------------
# the combined report


def test_minimize_report_fields():
    g, a, phi = two_loops_path_instance()
    res = minimize(g, a, phi)
    assert res.value == 0.0
    assert edge_pairs(g, res.critical_edges) == ((0, 0), (2, 2))
    assert edge_pairs(g, noncontrolled_set(g, a)) == (
        (0, 0), (0, 1), (1, 2), (2, 2))
    assert res.restricted_pressure == pytest.approx(0.0, abs=1e-12)
    # witness is one of the two loops
    assert tuple(res.witness_cycle.states) in ((0,), (2,))


def test_minimize_witness_attains_value():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        g = _random_graph(rng, n)
        a = _dyadic_potential(rng, g)
        res = minimize(g, a)
        mean = birkhoff_sum(a, res.witness_cycle) / len(res.witness_cycle)
        assert mean == pytest.approx(res.value, abs=1e-12)


def test_minimize_skips_noncontrolled_when_undefined():
    g = full_shift(2)
    a = EdgePotential.constant(g, 0.3)
    res = minimize(g, a)
    assert res.value == pytest.approx(0.3, abs=1e-15)
    assert res.restricted_pressure is None
    # the noncontrolled set is defined only at minimum average zero
    with pytest.raises(ValueError, match="not 0"):
        noncontrolled_set(g, a)

