"""Core symbolic layer: graphs, potentials, cycles, measures, file format."""

import itertools

import numpy as np
import pytest

from thermopress.errors import GraphFormatError
from thermopress.instances import two_loops_path_instance
from thermopress.sft import (
    CyclicWord,
    EdgePotential,
    TransitionGraph,
    full_shift,
    golden_mean_shift,
    integrate,
    ks_entropy,
    load_system,
    save_system,
)

from .oracles import (
    EnumerationCapError,
    MarkovMeasure,
    birkhoff_sum,
    enumerate_cycles,
    graph_from_mask,
    mask_of_graph,
)


def _random_irreducible(rng, n):
    # rejection sampling; a directed cycle through all states guarantees
    # irreducibility, extra edges are sprinkled on top
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    for k in range(n):
        A[perm[k], perm[(k + 1) % n]] = True
    extra = rng.random((n, n)) < 0.4
    return graph_from_mask(A | extra)


# ---------------------------------------------------------------------------
# TransitionGraph


def test_graph_marks_reducible():
    A = np.array([[1, 1], [0, 1]], dtype=bool)
    assert graph_from_mask(A).irreducible is False
    assert golden_mean_shift().irreducible is True


def test_graph_rejects_dead_states():
    with pytest.raises(ValueError):
        graph_from_mask(np.array([[1, 1], [0, 0]], dtype=bool))  # no out at 1
    with pytest.raises(ValueError):
        graph_from_mask(np.array([[0, 1], [0, 1]], dtype=bool))  # no in at 0


def test_graph_rejects_bad_edge_arrays():
    with pytest.raises(ValueError, match="targets"):
        TransitionGraph(2, [0, 1], [1])  # length mismatch
    with pytest.raises(ValueError, match="out of range"):
        TransitionGraph(2, [0, 1], [1, 2])
    with pytest.raises(ValueError, match="out of range"):
        TransitionGraph(2, [-1, 0, 1], [1, 1, 0])
    with pytest.raises(ValueError, match="row-major"):
        TransitionGraph(2, [1, 0], [0, 1])  # unsorted
    with pytest.raises(ValueError, match="row-major"):
        TransitionGraph(2, [0, 0, 1], [1, 1, 0])  # duplicate edge (0, 1)


def test_graph_rejects_more_states_than_edges():
    # checked before anything of size n_states is allocated
    with pytest.raises(ValueError, match="1000000000 states but only 1 edges"):
        TransitionGraph(10**9, [0], [0])


def test_graph_names_at_most_ten_dead_states():
    # every edge enters state 0, so states 1..29 have no incoming edge
    with pytest.raises(ValueError) as err:
        TransitionGraph(30, np.arange(30), np.zeros(30, dtype=int))
    assert str(err.value) == ("29 states without incoming edges, "
                              "first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]")


def test_edge_id_rejects_states_out_of_range():
    # negative indices must not wrap around to other rows or edges
    _, a, _ = two_loops_path_instance()
    with pytest.raises(KeyError):
        a.value(-3, 0)
    with pytest.raises(KeyError):
        a.value(-1, 0)
    with pytest.raises(KeyError):
        full_shift(2).edge_id(0, -1)
    assert a.value(2, 0) == 0.7


def test_graph_edges_sorted():
    g = full_shift(3)
    assert g.edges() == sorted(itertools.product(range(3), repeat=2))
    assert g.n_edges == 9


@pytest.mark.parametrize("seed", range(20))
def test_two_sided_matches_transpose(seed):
    # diag(W, W^T) on two_sided's index arrays has the rows of W and of
    # W.T.tocsr(), entry for entry, so its matvecs sum in the same order
    rng = np.random.default_rng(seed)
    g = _random_irreducible(rng, int(rng.integers(1, 15)))
    w = rng.random(g.n_edges)
    W = g.adjacency(w)
    WT = W.T.tocsr()
    both = g.two_sided
    assert np.array_equal(w[both.data], np.concatenate((W.data, WT.data)))
    assert np.array_equal(both.indices,
                          np.concatenate((W.indices, WT.indices + g.n_states)))
    assert np.array_equal(both.indptr,
                          np.concatenate((W.indptr, WT.indptr[1:] + W.nnz)))
    assert both.indices.dtype == WT.indices.dtype
    assert g.two_sided is both
    assert not any(x.flags.writeable
                   for x in (both.data, both.indices, both.indptr))


def test_golden_mean_edges():
    g = golden_mean_shift()
    assert g.edges() == [(0, 0), (0, 1), (1, 0)]


def test_successors():
    g = golden_mean_shift()
    assert g.successors(0) == [0, 1]
    assert g.successors(1) == [0]


# ---------------------------------------------------------------------------
# EdgePotential


def test_potential_constant_and_value():
    g = golden_mean_shift()
    f = EdgePotential.constant(g, 2.5)
    assert f.value(0, 1) == 2.5
    with pytest.raises(KeyError):
        f.value(1, 1)  # not an edge


def test_potential_from_edges_requires_full_cover():
    g = golden_mean_shift()
    with pytest.raises(ValueError):
        EdgePotential.from_edges(g, {(0, 0): 1.0})  # missing edges
    with pytest.raises(KeyError):
        EdgePotential.from_edges(
            g, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 3.0}
        )  # (1,1) is not an edge


def test_potential_arithmetic():
    g = golden_mean_shift()
    f = EdgePotential.from_edges(g, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): -1.0})
    h = EdgePotential.constant(g, 1.0)
    assert (f + h).value(0, 1) == 3.0
    assert (f - h).value(1, 0) == -2.0
    assert (-f).value(0, 0) == -1.0
    assert (2.0 * f).value(0, 1) == 4.0
    assert (f * 0.5).value(0, 0) == 0.5
    assert f.min() == -1.0
    assert f.max() == 2.0


def test_potential_cross_graph_rejected():
    f = EdgePotential.constant(golden_mean_shift(), 1.0)
    h = EdgePotential.constant(full_shift(2), 1.0)
    with pytest.raises(ValueError):
        f + h


def test_log_matrix_off_edges():
    g = golden_mean_shift()
    f = EdgePotential.constant(g, 0.0)
    L = f.log_matrix()
    assert L[0, 0] == 0.0
    assert L[1, 1] == -np.inf


# ---------------------------------------------------------------------------
# CyclicWord


def test_cyclic_word_edges_wrap():
    g = golden_mean_shift()
    w = CyclicWord(g, (0, 0, 1))
    assert w.edges() == [(0, 0), (0, 1), (1, 0)]
    assert len(w) == 3


def test_cyclic_word_rejects_forbidden():
    g = golden_mean_shift()
    with pytest.raises(ValueError):
        CyclicWord(g, (1, 1))
    with pytest.raises(ValueError):
        CyclicWord(g, (1, 0, 1))  # wrap edge (1, 1) forbidden
    CyclicWord(g, (0, 1))  # edges (0,1) and (1,0) both exist


def test_cyclic_word_empty_rejected():
    with pytest.raises(ValueError):
        CyclicWord(golden_mean_shift(), ())


# ---------------------------------------------------------------------------
# enumerate_cycles: rooted closed walks, count and mass match the trace.


def _trace_identity_holds(graph, rng, lengths=(1, 2, 3, 4, 5)):
    vals = rng.uniform(-1.0, 1.0, size=(graph.n_states, graph.n_states))
    f = EdgePotential.from_edges(
        graph, {e: float(vals[e]) for e in graph.edges()}
    )
    M = np.where(mask_of_graph(graph), np.exp(vals), 0.0)
    for T in lengths:
        words = enumerate_cycles(graph, T)
        lhs = sum(np.exp(birkhoff_sum(f, w)) for w in words)
        rhs = np.trace(np.linalg.matrix_power(M, T))
        assert len(words) == round(
            np.trace(np.linalg.matrix_power(mask_of_graph(graph).astype(float), T))
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_trace_identity_exhaustive_small():
    # every irreducible graph on <= 3 states
    rng = np.random.default_rng(0)
    checked = 0
    for n in (1, 2, 3):
        for bits in itertools.product([0, 1], repeat=n * n):
            A = np.array(bits, dtype=bool).reshape(n, n)
            try:
                g = graph_from_mask(A)
            except ValueError:
                continue
            _trace_identity_holds(g, rng)
            checked += 1
    assert checked > 20


def test_trace_identity_random_graphs():
    rng = np.random.default_rng(42)
    for n in (4, 5, 6):
        for _ in range(10):
            g = _random_irreducible(rng, n)
            _trace_identity_holds(g, rng)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_cycles(full_shift(10), 8, cap=10**6)


def test_enumerate_rejects_zero_length():
    with pytest.raises(ValueError):
        enumerate_cycles(full_shift(2), 0)


# ---------------------------------------------------------------------------
# MarkovMeasure, entropy, integration


def test_measure_validates_stochastic():
    # rows of P that are not stochastic leave the edge mass p_i P_ij off
    # total 1 (row sums 1.1 and 1: its Perron root 1.048 is the total) or
    # off shift invariance (row sums 0.75 and 1.5 around Perron root 1:
    # row marginal (1/2, 1/2), column marginal (2/3, 1/3))
    g = full_shift(2)
    for P, match in (([[0.5, 0.6], [0.5, 0.5]], "sum to 1"),
                     ([[0.5, 0.25], [1.0, 0.5]], "p P = p")):
        with pytest.raises(ValueError, match=match):
            MarkovMeasure.from_transitions(g, np.array(P))


def test_measure_rejects_mass_off_edges():
    g = golden_mean_shift()
    P = np.array([[0.5, 0.5], [0.5, 0.5]])  # P[1,1] > 0 but (1,1) forbidden
    with pytest.raises(ValueError):
        MarkovMeasure.from_transitions(g, P)


def test_measure_rejects_bad_mass():
    g = full_shift(2)  # edges 00, 01, 10, 11
    for mass, match in (([0.5, 0.5], "shape"),
                        ([0.6, -0.1, -0.1, 0.6], "nonnegative"),
                        ([0.5, np.nan, np.nan, 0.5], "nonnegative"),
                        ([0.5, 0.1, 0.1, 0.5], "sum to 1"),
                        ([1 - 1e-11, 0.0, 0.0, 1e-11 + 2e-12], "sum to 1")):
        with pytest.raises(ValueError, match=match):
            MarkovMeasure(g, mass)


def test_measure_rejects_mass_that_is_not_shift_invariant():
    # the row marginal is p and the column marginal p P: they may differ
    # by STATIONARY_TOL = 1e-10 and no more
    g = full_shift(2)
    with pytest.raises(ValueError, match="p P = p"):
        MarkovMeasure(g, [0.5, 0.5, 0.0, 0.0])
    for d in (1e-10, 0.6e-10):  # marginals 2 d apart
        with pytest.raises(ValueError, match="p P = p"):
            MarkovMeasure(g, [0.5, 0.25 + d, 0.25 - d, 0.0])
    mu = MarkovMeasure(g, [0.5, 0.25 + 2.5e-11, 0.25 - 2.5e-11, 0.0])
    assert mu.stationary == pytest.approx([0.75, 0.25], abs=3e-11)


def test_measure_has_stochastic_rows_on_every_charged_state():
    # transition probabilities that sum to 50 on a state of mass 1e-13
    # are no measure: as edge mass p_i P_ij they miss total 1 by 4.9e-12,
    # and once that mass is normalized, state 1's row is (1/2, 1/2)
    g = full_shift(2)
    p, P = np.array([1 - 1e-13, 1e-13]), np.array([1.0, 0.0, 25.0, 25.0])
    with pytest.raises(ValueError, match="sum to 1"):
        MarkovMeasure(g, p[g.src] * P)
    mu = MarkovMeasure(g, p[g.src] * P / (p[g.src] * P).sum())
    assert mu.transitions.tolist() == [1.0, 0.0, 0.5, 0.5]
    # mixtures of uniform measures on cycles, one of them of weight
    # 1e-13: rows sum to 1 within 4 ulps wherever the state has mass,
    # and states off every chosen cycle get all-zero rows
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for _ in range(100):
        g = _random_irreducible(rng, int(rng.integers(2, 7)))
        words = [w for length in (1, 2, 3) for w in enumerate_cycles(g, length)]
        picks = rng.choice(len(words), size=min(3, len(words)), replace=False)
        weights = rng.random(len(picks))
        weights[0] = 1e-13
        mass = np.zeros(g.n_edges)
        for k, w in zip(picks, weights / weights.sum()):
            for i, j in words[k].edges():
                mass[g.edge_id(i, j)] += w / len(words[k])
        mu = MarkovMeasure(g, mass)
        charged = mu.stationary > 0
        rows = g.row_sums(mu.transitions)
        assert np.abs(rows[charged] - 1.0).max() <= 4 * eps
        assert (rows[~charged] == 0).all()
        assert np.array_equal(mu.transitions == 0, mass == 0)


def test_measure_arrays_are_read_only():
    g = golden_mean_shift()
    mu = MarkovMeasure(g, [0.5, 0.25, 0.25])
    assert mu.stationary.tolist() == [0.75, 0.25]
    assert mu.transitions.tolist() == [2 / 3, 1 / 3, 1.0]
    for arr in (mu.mass, mu.stationary, mu.transitions):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_stationary_vector_is_stationary():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = _random_irreducible(rng, n)
        P = np.where(mask_of_graph(g), rng.random((n, n)) + 0.05, 0.0)
        P /= P.sum(axis=1, keepdims=True)
        mu = MarkovMeasure.from_transitions(g, P)
        assert np.allclose(mu.stationary @ P, mu.stationary, atol=1e-9)
        assert mu.stationary.sum() == pytest.approx(1.0, abs=1e-12)
        assert (mu.stationary > 0).all()


def test_entropy_closed_form_bernoulli():
    # independent coin with bias p on the full 2-shift
    g = full_shift(2)
    for p in (0.1, 0.3, 0.5, 0.77):
        P = np.array([[1 - p, p], [1 - p, p]])
        mu = MarkovMeasure.from_transitions(g, P)
        expected = -(p * np.log(p) + (1 - p) * np.log(1 - p))
        assert ks_entropy(mu) == pytest.approx(expected, abs=1e-12)


def test_entropy_bounded_by_log_spectral_radius():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = _random_irreducible(rng, n)
        P = np.where(mask_of_graph(g), rng.random((n, n)) + 0.01, 0.0)
        P /= P.sum(axis=1, keepdims=True)
        mu = MarkovMeasure.from_transitions(g, P)
        rho = max(abs(np.linalg.eigvals(mask_of_graph(g).astype(float))))
        assert ks_entropy(mu) <= np.log(rho) + 1e-9


def test_entropy_deterministic_cycle_is_zero():
    A = np.array([[0, 1], [1, 0]], dtype=bool)
    g = graph_from_mask(A)
    P = A.astype(float)
    mu = MarkovMeasure.from_transitions(g, P)
    assert ks_entropy(mu) == 0.0


def test_integrate_constant():
    g = golden_mean_shift()
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    mu = MarkovMeasure.from_transitions(g, P)
    f = EdgePotential.constant(g, 3.0)
    assert integrate(f, mu) == pytest.approx(3.0, abs=1e-12)


def test_integrate_edge_frequency():
    # stationary measure of the golden mean Parry chain gives known
    # edge frequencies: p = (phi^2, phi)/ (phi^2 + phi) normalized
    g = golden_mean_shift()
    phi = (1 + np.sqrt(5)) / 2
    P = np.array([[1 / phi, 1 / phi**2], [1.0, 0.0]])
    mu = MarkovMeasure.from_transitions(g, P)
    ind = EdgePotential.from_edges(g, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0})
    expected = mu.stationary[0] * (1 / phi)
    assert integrate(ind, mu) == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# text round trip


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = _random_irreducible(rng, 5)
    vals_a = {e: float(rng.random()) for e in g.edges()}
    vals_f = {e: float(rng.uniform(-2, 2)) for e in g.edges()}
    a = EdgePotential.from_edges(g, vals_a)
    f = EdgePotential.from_edges(g, vals_f)
    path = tmp_path / "sys.txt"
    save_system(path, g, a, f)
    g2, a2, f2 = load_system(path)
    assert g.same_graph(g2)
    assert np.array_equal(a.values, a2.values)
    assert np.array_equal(f.values, f2.values)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1 0.5 0.0\n1 0 oops 0.0\n0 0 0.1 0.0\n")
    with pytest.raises(GraphFormatError) as exc:
        load_system(path)
    assert "line 3" in str(exc.value)


def test_load_rejects_out_of_range_state(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1 0.5 0.0\n1 0 0.2 0.0\n0 2 0.1 0.0\n")
    with pytest.raises(GraphFormatError) as exc:
        load_system(path)
    assert "line 4" in str(exc.value)


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1 0.5 0.0\n0 1 0.2 0.0\n1 0 0.1 0.0\n")
    with pytest.raises(GraphFormatError):
        load_system(path)


@pytest.mark.parametrize("text, line, message", [
    ("# c\n2 3\n0 1 0.5 0.0\n", 2, "expected a single state count"),
    ("\ntwo\n0 1 0.5 0.0\n", 2, "bad state count 'two'"),
    ("0\n0 1 0.5 0.0\n", 1, "state count must be >= 1"),
    ("2\n0 1 0.5 0.0\n\n1 0 0.5\n0 0 x 0.0\n", 4,
     "expected 'i j a phi', got 3 fields"),
    ("2\n0 1 0.5 0.0\n1.0 0 0.5 0.0\n", 3, "could not parse edge '1.0 0 0.5 0.0'"),
    ("2\n0 1 0.5 0.0\n# c\n1 -1 0.5 0.0\n", 4, "edge (1, -1) out of range for n=2"),
    ("2\n0 1 0.5 0.0\n1 0 0.5 inf\n0 1 0.5 0.0\n", 3, "edge weights must be finite"),
    ("2\n1 0 0.5 0.0\n0 1 0.5 0.0\n1 1 0.5 0.0\n0 1 nan 0.0\n", 5,
     "edge weights must be finite"),
    ("2\n1 0 0.5 0.0\n0 1 0.5 0.0\n1 1 0.5 0.0\n0 1 0.2 0.0\n1 5 0.5 0.0\n",
     5, "duplicate edge (0, 1)"),
    ("2\n0 1 0.5 0.0\n1 0 0.5 0.0\n0 1 0.2 0.0\n1 0 1e999999 0.0\n", 4,
     "duplicate edge (0, 1)"),
    ("2\n0 1 0.5 0.0\n99999999999999999999 0 0.5 0.0\n0 1 0.5 0.0\n", 3,
     "edge (99999999999999999999, 0) out of range for n=2"),
])
def test_load_error_names_its_line(tmp_path, text, line, message):
    # each error names the first line that breaks a rule, checked in the
    # order: fields, parse, range, finiteness, duplicate
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphFormatError) as exc:
        load_system(path)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text(
        "# header\n2\n\n0 0 0.0 0.1\n0 1 1.0 0.2\n# mid\n1 0 0.0 0.3\n"
    )
    g, a, f = load_system(path)
    assert g.edges() == [(0, 0), (0, 1), (1, 0)]
    assert a.value(0, 1) == 1.0
    assert f.value(1, 0) == 0.3


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n# nothing\n")
    with pytest.raises(GraphFormatError):
        load_system(path)
