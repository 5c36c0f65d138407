"""Torus automorphism coding, refinements, orbit damping, decay report."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import thermopress
from thermopress import catmap, ergopt
from thermopress.catmap import (
    GOLDEN,
    LYAPUNOV,
    PARTITION_MATRIX,
    Qs5,
    _cat_step,
    cell_map,
    code,
    damping_from_orbit,
    expansion_potential,
    orbit_damping_report,
    periodic_itinerary,
    refine,
    refinement_for_scale,
    state_of_word,
    window_automaton,
)
from thermopress.ergopt import (minimize, noncontrolled_set, pressure_on_set,
                                undamped_set)
from thermopress.pressure import perron, pressure_transfer
from thermopress.sft import EdgePotential, TransitionGraph
from thermopress.thermo import find_gap_beta

from .oracles import classify_exact, edge_pairs, refinement_words

LOG_GOLDEN = math.log((1.0 + math.sqrt(5.0)) / 2.0)
LAMBDA = 2.0 * LOG_GOLDEN  # log of the expanding eigenvalue
GOLDEN_SQ = (3.0 + math.sqrt(5.0)) / 2.0  # the expanding eigenvalue
CATMAP_POINTS = ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), 0),
                 (Fraction(1, 5), Fraction(2, 5)))


# ---------------------------------------------------------------------------
# exact quadratic arithmetic


def test_qs5_field_identities():
    # golden ratio: g^2 = g + 1 holds exactly
    assert GOLDEN * GOLDEN == GOLDEN + 1
    assert GOLDEN * GOLDEN - GOLDEN - 1 == Qs5(0)
    inv = GOLDEN - 1  # 1/g
    assert GOLDEN * inv == Qs5(1)


def test_qs5_ordering_and_sign():
    assert Qs5(0) < GOLDEN < Qs5(2)
    assert (GOLDEN - GOLDEN).sign() == 0
    assert (-GOLDEN).sign() == -1
    assert (GOLDEN * Qs5(Fraction(1, 10**12))).sign() == 1
    # mixed rational and surd parts, margin ~7e-3: must still resolve
    assert Qs5(Fraction(8, 5), Fraction(1, 200)) < GOLDEN


def test_qs5_float_value():
    assert float(GOLDEN) == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
    assert float(Qs5(Fraction(3, 4))) == 0.75


# ---------------------------------------------------------------------------
# the torus map


def test_toral_map_lyapunov():
    assert LYAPUNOV == pytest.approx(LAMBDA, rel=1e-15)
    # bitwise: a one-ulp drift moves pressure_at_beta_star at 12 digits
    assert LYAPUNOV == 0.9624236501192069


def test_toral_map_apply_exact():
    p = (Fraction(1, 5), Fraction(2, 5))
    q = _cat_step(*p)
    assert q == (Fraction(4, 5), Fraction(3, 5))
    assert _cat_step(*q) == p  # period two


# ---------------------------------------------------------------------------
# the coding


def test_cell_map_agrees_with_exact_classifier():
    # random rationals, every (a/q, b/q) with q <= 8 (most of them on
    # rectangle boundaries) and random floats, against the classifier that
    # decides all 75 candidate cells exactly
    rng = np.random.default_rng(88)
    points = [(Fraction(int(rng.integers(0, 997)), 997),
               Fraction(int(rng.integers(0, 991)), 991)) for _ in range(300)]
    points += [(Fraction(a, q), Fraction(b, q)) for q in range(1, 9)
               for a in range(q) for b in range(q)]
    points += [tuple(p) for p in rng.random((300, 2)).tolist()]
    assert len(points) == 804
    for x, y in points:
        assert (cell_map((x, y))
                == classify_exact(Fraction(x), Fraction(y))), (x, y)


def test_cell_map_many_float_points():
    # the classifier must place every point in exactly one rectangle; the
    # exact fallback raises if the tiling ever double-covers
    rng = np.random.default_rng(89)
    pts = rng.random((10_000, 2))
    cells = [cell_map(p) for p in pts]
    assert set(cells) == {0, 1, 2}


def test_cell_map_boundary_points_decidable():
    # corners and edges of the unit square sit on rectangle boundaries
    for p in [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
              (Fraction(1, 2), Fraction(1, 2))]:
        assert cell_map(p) in (0, 1, 2)


def test_codings_follow_partition_matrix():
    # no sampled transition may use the single forbidden pair, and all
    # eight allowed pairs must occur
    rng = np.random.default_rng(90)
    B = np.array(PARTITION_MATRIX, dtype=bool)
    seen = set()
    for _ in range(400):
        x = Fraction(int(rng.integers(0, 9973)), 9973)
        y = Fraction(int(rng.integers(0, 9967)), 9967)
        word = code((x, y), 4)
        for s, t in zip(word, word[1:]):
            assert B[s, t], (s, t)
            seen.add((s, t))
    assert seen == {(i, j) for i in range(3) for j in range(3) if B[i, j]}


def test_code_rejects_zero_length():
    with pytest.raises(ValueError):
        code((0, 0), 0)


# ---------------------------------------------------------------------------
# refinements


def test_refinement_state_counts():
    # admissible words of length k+1 over the coding graph; the count
    # satisfies the Fibonacci-like recursion of the partition matrix
    for order, count in [(0, 3), (1, 8), (2, 21), (3, 55), (4, 144)]:
        ref = refine(order)
        assert ref.n_states == count
        assert refinement_words(ref) == [
            w for w in itertools.product(range(3), repeat=order + 1)
            if all(PARTITION_MATRIX[s][t] for s, t in zip(w, w[1:]))]
    assert refine(4).graph.n_edges == 377
    B = np.array(PARTITION_MATRIX, dtype=np.int64)
    row = np.ones(3, dtype=np.int64)  # words of length order+1 by last symbol
    for order in range(10):
        assert refine(order).n_states == row.sum(), order
        row = row @ B


def test_refined_edges_follow_overlap_rule():
    # brute force over all pairs of words: u -> v is an edge iff v shifts
    # u by one symbol that the partition matrix allows after u's last
    for order in range(6):
        words = refinement_words(refine(order))
        expected = [(u, v) for u, wu in enumerate(words)
                    for v, wv in enumerate(words)
                    if wu[1:] == wv[:-1] and PARTITION_MATRIX[wu[-1]][wv[-1]]]
        assert refine(order).graph.edges() == expected, order


def test_refine_memory_is_per_edge():
    # order 9 has 17711 states and 46368 edges; an n x n bool mask of the
    # edge set alone would take 314 MB.  What the refinement keeps is its
    # codes and edge arrays, a few dozen bytes per state
    tracemalloc.start()
    try:
        ref = refine(9)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (ref.n_states, ref.graph.n_edges) == (17711, 46368)
    assert peak < 32 * 2**20
    assert kept <= 100 * ref.n_states


def test_minimize_memory_is_per_edge():
    # order 9 has 17711 states; Karp's (n+1) x n table of floats alone
    # would take 2.5 GB
    ref = refine(9)
    orbit = periodic_itinerary((Fraction(1, 3), 0))
    a = damping_from_orbit(ref, orbit)
    tracemalloc.start()
    try:
        res = ergopt.minimize(ref.graph, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == 0.0
    assert len(res.critical_edges) == len(orbit)
    assert peak < 16 * 2**20


def test_zero_damping_edge_sets_at_refinement_scale(monkeypatch):
    # without damping every edge is critical and noncontrolled, and the
    # pressure restricted to all of them is the plain one, bit for bit;
    # edge sets stay arrays of ids, so no per-edge lookup runs
    ref = refine(8)
    g = ref.graph
    a = EdgePotential.constant(g, 0.0)
    phi = expansion_potential(g)

    def lookup(*args):
        raise AssertionError("per-edge lookup on a refinement")

    monkeypatch.setattr(TransitionGraph, "edge_id", lookup)
    res = ergopt.minimize(g, a, phi)
    assert np.array_equal(res.critical_edges, np.arange(g.n_edges))
    assert np.array_equal(noncontrolled_set(g, a), np.arange(g.n_edges))
    assert res.restricted_pressure == perron(phi).log_rho


def test_refinement_preserves_entropy():
    # a higher-block recoding keeps h_top, which orbit_damping_report
    # reports as LYAPUNOV without a solve; here each order is solved
    for order in range(9):
        g = refine(order).graph
        assert g.irreducible
        ent = pressure_transfer(g, EdgePotential.constant(g, 0.0))
        assert abs(ent.value - LYAPUNOV) <= ent.tolerance, order


def test_refinement_encode_point_matches_code():
    ref = refine(2)
    p = (Fraction(3, 7), Fraction(2, 7))
    state = state_of_word(code(p, ref.order + 1))
    assert refinement_words(ref)[state] == code(p, 3)


def test_state_of_word_rejects_words_without_a_state():
    # base-3 codes collide where words do not: (0, 3) encodes 3 like
    # (1, 0), and (1, -1) encodes 2 like (0, 2); each word without a state
    # raises, and a word's length picks the refinement it is ranked in
    for order in (0, 1, 2):
        for i, word in enumerate(refinement_words(refine(order))):
            assert state_of_word(word) == i
            assert state_of_word(np.array(word)) == i
    for word in [(),                                  # no symbols
                 (0, 3), (1, -1), (-1, 0), (0, 1.5),  # symbols outside 0..2
                 (1, 2), (0, 1, 2, 0)]:               # inadmissible: 1 -> 2
        with pytest.raises(KeyError):
            state_of_word(word)


def test_state_of_word_is_the_refined_state():
    # the rank counted from the words is the state refine gives the word:
    # every word up to order 8, every 7th and the last at orders 9 and 10
    for order in range(11):
        words = refinement_words(refine(order))
        step = 1 if order <= 8 else 7
        for i in [*range(0, len(words), step), len(words) - 1]:
            assert state_of_word(words[i]) == i, (order, i)
    # F(92) words of 45 symbols fit in int64; F(94) words of 46 do not
    assert state_of_word((2,) * 45) == 7_540_113_804_746_346_428
    with pytest.raises(ValueError, match="overflow int64"):
        state_of_word((0,) * 46)


def test_refinement_rejects_negative_order():
    with pytest.raises(ValueError):
        refine(-1)


def test_refine_refuses_order_beyond_memory():
    # order 40 has F(84) ~ 1.6e17 words; the refusal counts them by the
    # recurrence and builds none
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match="order 40 has 160500643816367088 states"):
            refine(40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_refinement_for_scale():
    assert refinement_for_scale(1.0) == 0
    assert refinement_for_scale(0.5) == 1
    assert refinement_for_scale(0.3) == 2
    assert refinement_for_scale(2.0 ** -4) == 4
    with pytest.raises(ValueError):
        refinement_for_scale(0.0)
    with pytest.raises(ValueError):
        refinement_for_scale(1.5)
    # the chosen order always reaches the requested scale
    for eps in (0.9, 0.51, 0.25, 0.07, 2.0 ** -9):
        assert 2.0 ** -refinement_for_scale(eps) <= eps


# ---------------------------------------------------------------------------
# periodic orbits


def test_fixed_point_itinerary():
    assert periodic_itinerary((0, 0)) == (0,)


def test_period_two_itinerary():
    p = (Fraction(1, 5), Fraction(2, 5))
    w = periodic_itinerary(p)
    assert len(w) == 2
    assert w == code(p, 2)


def test_non_returning_point_rejected():
    with pytest.raises(ValueError):
        periodic_itinerary((Fraction(1, 3), 0), limit=2)


def test_orbit_pressure_bound_value():
    # zero entropy plus the constant potential: minus half the expansion
    w = periodic_itinerary((0, 0))
    g = refine(0).graph
    edges = sorted(set(zip(w, w[1:] + w[:1])))
    val = pressure_on_set(g, expansion_potential(g),
                          [g.edge_id(i, j) for i, j in edges])
    assert val == pytest.approx(-LAMBDA / 2.0, abs=1e-12)
    assert val < 0


# ---------------------------------------------------------------------------
# orbit-neighborhood damping


def test_damping_zero_set_matches_window_rule():
    orbit = periodic_itinerary((0, 0))
    ref = refine(3)
    a = damping_from_orbit(ref, orbit, strength=0.8)
    assert a.graph.same_graph(ref.graph)
    words = refinement_words(ref)
    for i, j in ref.graph.edges():
        word = words[i]
        expected = 0.0 if word[:3] == (0, 0, 0) else 0.8
        assert a.value(i, j) == expected
    assert a.min() == 0.0
    assert a.max() == 0.8


def test_damping_trivial_at_scale_one():
    orbit = periodic_itinerary((0, 0))
    a = damping_from_orbit(refine(0), orbit)
    assert a.max() == 0.0  # neighborhood covers everything


def test_damping_zero_strength():
    orbit = periodic_itinerary((0, 0))
    a = damping_from_orbit(refine(2), orbit, strength=0.0)
    assert a.max() == 0.0


DAMPING_BUILDERS = {
    "damping_from_orbit": lambda itinerary, order, strength:
        damping_from_orbit(refine(order), itinerary, strength),
    "window_automaton": window_automaton,
}


@pytest.mark.parametrize("builder", DAMPING_BUILDERS.values(),
                         ids=DAMPING_BUILDERS.keys())
@pytest.mark.parametrize("itinerary, order, strength", [
    ((0,), -1, 1.0),     # negative order
    ((), 3, 1.0),        # empty itinerary
    ((1, 2), 3, 1.0),    # the step 1 -> 2 is forbidden
    ((5,), 2, 1.0),      # symbol outside 0..2
    ((2, -1), 2, 1.0),   # a negative symbol must not index from the end
    ((0,), 2, -1.0),     # negative strength
])
def test_damping_builders_reject_bad_inputs(builder, itinerary, order,
                                            strength):
    with pytest.raises(ValueError):
        builder(itinerary, order, strength)
    builder((0,), max(order, 0), abs(strength))  # valid inputs pass


def test_damping_validation():
    orbit = periodic_itinerary((0, 0))
    with pytest.raises(ValueError):
        damping_from_orbit(refine(2), orbit, strength=-1.0)
    with pytest.raises(ValueError):
        damping_from_orbit(refine(2), (0, 1, 2))  # inadmissible word


def test_fixed_orbit_isolated_at_every_positive_order():
    # the only cycle through cylinders shadowing the fixed point is the
    # fixed point's own loop: expansivity at work, checked for each order
    orbit = periodic_itinerary((0, 0))
    for order in (1, 2, 3, 4):
        ref = refine(order)
        a = damping_from_orbit(ref, orbit)
        z = state_of_word((0,) * (order + 1))
        assert edge_pairs(ref.graph, undamped_set(ref.graph, a)) == ((z, z),)
        assert (edge_pairs(ref.graph, noncontrolled_set(ref.graph, a))
                == ((z, z),))


def test_half_expansion_and_potential():
    assert 0.5 * LYAPUNOV == pytest.approx(LOG_GOLDEN, rel=1e-15)
    ref = refine(1)
    phi = expansion_potential(ref.graph)
    assert phi.max() == phi.min() == pytest.approx(-LOG_GOLDEN, rel=1e-15)
    # bitwise, at every order the report uses
    for order in range(7):
        assert np.all(expansion_potential(refine(order).graph).values
                      == -0.48121182505960347)


# ---------------------------------------------------------------------------
# the end-to-end report


def test_report_below_threshold():
    rep = orbit_damping_report(2.0 ** -4, beta_max=50.0)
    assert rep["regime"] == "below-threshold"
    assert rep["refinement_order"] == 4
    assert rep["n_states"] == 144
    assert rep["orbit_itinerary"] == [0]
    assert rep["lyapunov"] == pytest.approx(LAMBDA, abs=1e-15)
    assert rep["lyapunov"] == LYAPUNOV
    assert rep["entropy"] == pytest.approx(LAMBDA, abs=1e-9)
    assert rep["min_average"] == 0.0
    assert rep["undamped_set_is_orbit"] is True
    assert len(rep["undamped_edges"]) == 1
    # the curve starts at Pr(phi) = entropy - rate/2 = +rate/2 and is
    # driven below the restricted pressure -rate/2
    assert rep["pressure_undamped"] == pytest.approx(LAMBDA / 2, abs=1e-6)
    assert rep["pressure_on_undamped"] == pytest.approx(-LAMBDA / 2, abs=1e-6)
    assert rep["limit_verified"] is True
    assert rep["decays"] is True
    beta = rep["beta_star"]
    assert beta is not None and 0 < beta < 50
    assert beta == pytest.approx(0.50504952669, abs=1e-5)
    assert rep["pressure_at_beta_star"] < 0
    assert rep["final_pressure"] == pytest.approx(-LAMBDA / 2, abs=1e-9)


def test_report_solves_min_mean_cycle_once(monkeypatch):
    calls = []
    howard = ergopt._howard

    def counting(*args):
        calls.append(args)
        return howard(*args)

    monkeypatch.setattr(ergopt, "_howard", counting)
    rep = orbit_damping_report(2.0 ** -3, beta_max=10.0)
    assert rep["regime"] == "below-threshold"
    # one min-mean-cycle solve on the automaton; the sweep's tangent starts
    # take one more Howard solve, for the bias on the reversed graph
    (graph, a), (back, a_back) = calls
    assert back.n_states == graph.n_states and back.n_edges == graph.n_edges
    assert sorted(zip(back.dst.tolist(), back.src.tolist(), a_back.values)) \
        == sorted(zip(graph.src.tolist(), graph.dst.tolist(), a.values))


@pytest.mark.parametrize("order", [2, 6])
def test_report_builds_no_refinement(order, monkeypatch):
    # the report solves on the orbit-window automaton alone: it counts the
    # refined states and ranks the refined words without building them
    built = []

    class Recording(catmap.SymbolicRefinement):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.order)

    monkeypatch.setattr(catmap, "SymbolicRefinement", Recording)
    rep = orbit_damping_report(2.0 ** -order, beta_max=10.0)
    assert rep["regime"] == "below-threshold"
    assert built == []
    assert rep["n_states"] == refine(order).n_states


def test_report_rejects_a_strength_that_damps_nothing():
    # at strength 0 every edge is critical, and an edge from no whole
    # window stands for many refined edges, which the report cannot list
    with pytest.raises(ValueError, match="leaves a damped edge critical"):
        orbit_damping_report(2.0 ** -2, strength=0.0)
    # at order 0 every edge reads one word: the whole partition graph
    rep = orbit_damping_report(1.0, strength=0.0)
    assert rep["undamped_edges"] == [list(e) for e in refine(0).graph.edges()]


def test_report_above_threshold():
    rep = orbit_damping_report(1.0)
    assert rep["regime"] == "above-threshold"
    assert rep["refinement_order"] == 0
    assert rep["undamped_set_is_orbit"] is False
    assert len(rep["undamped_edges"]) == 8
    assert rep["beta_star"] is None
    assert rep["beta_star_enclosure"] is None
    assert rep["decays"] is False
    assert rep["final_pressure"] is None


def test_report_rejects_bad_scale():
    with pytest.raises(ValueError):
        orbit_damping_report(0.0)


def test_report_period_two_orbit():
    # the period-2 orbit is also isolated at a fine enough scale
    rep = orbit_damping_report(2.0 ** -4, point=(Fraction(1, 5), Fraction(2, 5)),
                               beta_max=10.0)
    assert rep["orbit_period"] == 2
    assert rep["regime"] == "below-threshold"
    assert len(rep["undamped_edges"]) == 2
    assert rep["pressure_on_undamped"] == pytest.approx(-LAMBDA / 2, abs=1e-9)


# ---------------------------------------------------------------------------
# the refinement ladder: beta*(k) -> lambda/2
#
# The damping is 1 off the order-k neighborhood N_k of the orbit, so
# Pr(phi - beta a) = -lambda/2 - beta + Pr(beta 1_N_k), and Pr(beta 1_N_k)
# exceeds the entropy lambda by an amount of the order of the measure of
# N_k under the measure of maximal entropy: cylinders of k+1 symbols, of
# measure ~ g^-2k.  The root beta*(k) of the damped pressure therefore sits
# above lambda/2 by d_k ~ C g^-2k: positive, strictly decreasing, and with
# d_{k-1}/d_k -> g^2 = e^lambda (2.583-2.608 measured for k = 6..9, so the
# band [2.5, 2.7]).  For a geometric d_k, d_9 = (d_8 - d_9)/(g^2 - 1), so
# one Richardson step lands on lambda/2 (1.3e-6 to 4.4e-6 measured; bound
# 1e-5).  Shifting phi by 1e-4 moves that extrapolation 1e-4 off, so the
# same bound tells a wrong potential from a right one.


def _ladder(point, orders, shift=0.0):
    orbit = periodic_itinerary(point)
    betas = []
    for k in orders:
        ref = refine(k)
        a = damping_from_orbit(ref, orbit)
        phi = expansion_potential(ref.graph) + shift
        betas.append(find_gap_beta(ref.graph, a, phi, 50.0).hi)
    return betas


def _richardson_gap(b8, b9):
    return abs(b9 - (b8 - b9) / (GOLDEN_SQ - 1.0) - LAMBDA / 2)


@pytest.mark.parametrize("point", CATMAP_POINTS)
def test_refinement_ladder_tends_to_half_lyapunov(point):
    d = [b - LAMBDA / 2 for b in _ladder(point, range(5, 10))]
    assert all(x > 0 for x in d), d
    assert all(x > y for x, y in zip(d, d[1:])), d
    for prev, cur in zip(d, d[1:]):
        assert 2.5 <= prev / cur <= 2.7, d
    assert _richardson_gap(d[-2] + LAMBDA / 2, d[-1] + LAMBDA / 2) < 1e-5
    for shift in (1e-4, -1e-4):
        assert _richardson_gap(*_ladder(point, (8, 9), shift)) > 1e-5


# ---------------------------------------------------------------------------
# the orbit-window automaton: the refinement's damped coding on p*k + 3
# states
#
# A refined edge from the word w (k+1 symbols) costs 0 exactly when w[:k]
# is a cyclic window of the orbit.  Read w[:k] into the automaton: the
# state reached is (the longest suffix of w[:k] that is a window prefix,
# w[k-1]), computed here by brute force over the suffixes, and its edge
# reading w[k] must cost what the refined edge costs.  Shifting the
# damping by one symbol (the cost read off the state an edge enters)
# adds a coboundary, so no pressure can tell it apart: the edge map is
# what catches it.

WINDOW_POINTS = CATMAP_POINTS + ((Fraction(1, 2), Fraction(1, 2)),)


def _window_prefixes(itinerary, k):
    p = len(itinerary)
    return {tuple(itinerary[(i + j) % p] for j in range(m))
            for i in range(p) for m in range(k + 1)}


def _automaton_state(word, prefixes):
    suffix = next(word[m:] for m in range(len(word) + 1)
                  if word[m:] in prefixes)
    return suffix, word[-1]


def _edge_map_mismatches(k, itinerary, graph, a_values, words=None):
    """Edges of the order-k refinement whose image in the automaton is no
    edge, costs a different damping or, where given words[f] is a word,
    reads a word other than the refined edge's source; the image must
    also cover every automaton edge."""
    ref = refine(k)
    prefixes = _window_prefixes(itinerary, k)
    ref_words = refinement_words(ref)
    labels = [_automaton_state(w[:k], prefixes) for w in ref_words]
    index = {key: i for i, key in enumerate(sorted(set(labels)))}
    assert len(index) == graph.n_states
    state = np.array([index[key] for key in labels])
    a_ref = damping_from_orbit(ref, itinerary).values
    bad, hit = 0, np.zeros(graph.n_edges, dtype=bool)
    for e, (u, v) in enumerate(ref.graph.edges()):
        try:
            f = graph.edge_id(state[u], state[v])
        except KeyError:
            bad += 1
            continue
        hit[f] = True
        bad += a_values[f] != a_ref[e]
        if words is not None and words[f, 0] >= 0:
            bad += tuple(words[f]) != ref_words[u]
    assert hit.all()
    return bad


@pytest.mark.parametrize("point", WINDOW_POINTS)
def test_window_automaton_is_the_refinement_read_by_windows(point):
    itinerary = periodic_itinerary(point)
    for k in range(1, 9):
        graph, a, phi, words = window_automaton(itinerary, k)
        assert graph.irreducible
        assert np.all(phi.values == -0.5 * LYAPUNOV)
        # an edge reads one refined word exactly when it is undamped
        assert np.array_equal(words[:, 0] < 0, a.values > 0)
        assert _edge_map_mismatches(k, itinerary, graph, a.values, words) == 0
        late = a.values[graph.indptr[graph.dst]]  # cost of the state entered
        assert _edge_map_mismatches(k, itinerary, graph, late) > 0, k


def _exact_root(graph, a, bracket, digits=40):
    """The beta at which Pr(phi - beta a) = log rho(A) - lambda/2 is 0,
    that is rho(A) = g, found as a root of det(g I - A) by secant steps
    from the float bracket; A is the automaton's matrix, 1 on undamped
    edges and e^-beta on damped ones."""
    with mpmath.workdps(digits):
        g = (1 + mpmath.sqrt(5)) / 2

        def f(beta):
            M = g * mpmath.eye(graph.n_states)
            for u, v, damped in zip(graph.src.tolist(), graph.dst.tolist(),
                                    a.values.tolist()):
                M[u, v] -= mpmath.exp(-beta) if damped else 1
            return mpmath.det(M)

        # findroot verifies the residual and raises when it is not small
        return mpmath.findroot(f, tuple(map(mpmath.mpf, bracket)))


@pytest.mark.parametrize("point", WINDOW_POINTS)
def test_window_automaton_pressure_and_beta_star_match_refinement(point):
    # at each beta, the two pressures agree within the sum of the two
    # solves' enclosures (0.39 of it at most, measured); where the orbit
    # is isolated, both beta* brackets hold the automaton's 40-digit root
    orbit = periodic_itinerary(point)
    for k in range(1, 9):
        ref = refine(k)
        a = damping_from_orbit(ref, orbit)
        phi = expansion_potential(ref.graph)
        small = window_automaton(orbit, k)[:3]
        _, wa, wphi = small
        for beta in (0.0, 0.5, 1.0, 7.5, 30.0):
            refined, auto = perron(phi - beta * a), perron(wphi - beta * wa)
            assert (abs(refined.log_rho - auto.log_rho)
                    <= refined.enclosure + auto.enclosure), (k, beta)
        result = minimize(ref.graph, a, phi)
        if result.critical_edges.size != len(orbit):
            continue  # the orbit is not isolated at this order
        brackets = [find_gap_beta(graph, b, f, 50.0, minimization=result)
                    for graph, b, f in ((ref.graph, a, phi), small)]
        root = _exact_root(small[0], wa, (brackets[1].lo, brackets[1].hi))
        for gap in brackets:
            assert gap.lo <= root < gap.hi, (k, gap, root)


def test_window_automaton_size_bound():
    for point in WINDOW_POINTS:
        itinerary = periodic_itinerary(point)
        for k in range(25):
            graph, _, _, _ = window_automaton(itinerary, k)
            assert graph.n_states <= len(itinerary) * k + 3, (point, k)


def test_report_runs_beyond_the_refinements_reach(monkeypatch):
    # refine 24 has F(52) ~ 3.3e10 states, 16 TB at STATE_BYTES each; the
    # report solves on at most 3*24 + 3 automaton states, and its beta*
    # bracket holds the automaton's 40-digit root
    gaps = []

    def recording(*args, **kw):
        gaps.append(find_gap_beta(*args, **kw))
        return gaps[-1]

    monkeypatch.setattr(catmap, "find_gap_beta", recording)
    point = (Fraction(1, 2), 0)
    rep = orbit_damping_report(2.0 ** -24, point=point, beta_max=30.0)
    assert rep["decays"] is True
    assert rep["n_states"] == 32_951_280_099
    (gap,) = gaps
    graph, a, _, _ = window_automaton(periodic_itinerary(point), 24)
    root = _exact_root(graph, a, (gap.lo, gap.hi))
    assert gap.lo <= root < gap.hi


# ---------------------------------------------------------------------------
# the report's core against the refinement
#
# The report never refines: it reads the isolation verdict, a0, the
# restricted pressure and the undamped edges off the automaton and counts
# n_states.  Here each is computed on the refinement as well, at seeded
# random rational points besides the named ones; every rational point of
# the torus is periodic.


def _random_rational_points(n, seed):
    """n distinct points with denominators 2..10, none of WINDOW_POINTS."""
    rng = np.random.default_rng(seed)
    points = set()
    while len(points) < n:
        q = int(rng.integers(2, 11))
        points.add((Fraction(int(rng.integers(q)), q),
                    Fraction(int(rng.integers(q)), q)))
        points -= set(WINDOW_POINTS)
    return tuple(sorted(points))


@pytest.mark.parametrize("point", WINDOW_POINTS
                         + _random_rational_points(25, seed=3))
def test_report_core_matches_the_refinement(point, monkeypatch):
    # pressure_on_set's solves are recorded to bound the restricted
    # pressures' difference by the two sides' enclosures
    enclosures = []

    def recording(f, **kw):
        data = perron(f, **kw)
        enclosures.append(data.enclosure)
        return data

    monkeypatch.setattr(ergopt, "perron", recording)
    orbit = periodic_itinerary(point)
    p = len(orbit)
    for k in range(9):
        enclosures.clear()
        ref = refine(k)
        phi = expansion_potential(ref.graph)
        result = minimize(ref.graph, damping_from_orbit(ref, orbit), phi)
        tol = max(enclosures)
        index = {w: i for i, w in enumerate(refinement_words(ref))}
        windows = [tuple(orbit[(i + j) % p] for j in range(k + 1))
                   for i in range(p)]
        orbit_edges = sorted({(index[u], index[v]) for u, v in
                              zip(windows, windows[1:] + windows[:1])})
        critical = edge_pairs(ref.graph, result.critical_edges)
        # an orbit that repeats a window closes cycles besides its own
        isolated = list(critical) == orbit_edges and len(set(windows)) == p
        enclosures.clear()
        rep = orbit_damping_report(2.0 ** -k, point=point, beta_max=1.0)
        tol += max(enclosures)
        assert rep["undamped_set_is_orbit"] == isolated, k
        assert rep["min_average"] == result.value, k
        assert rep["n_states"] == ref.n_states, k
        assert rep["undamped_edges"] == [list(e) for e in critical], k
        assert (abs(rep["pressure_on_undamped"] - result.restricted_pressure)
                <= tol), k


# ---------------------------------------------------------------------------
# public names


def test_public_names_resolve():
    for name in thermopress.__all__:
        getattr(thermopress, name)
    namespace = {}
    exec("from thermopress import *", namespace)
    removed = {"ToralMap", "build_cat_map", "half_expansion_rate",
               "orbit_pressure_bound", "format_edge_set", "parse_edge_set",
               "MarkovCoding"}
    assert not removed & set(thermopress.__all__)
    assert not removed & set(namespace)


def test_cyclic_word_from_ints_matches_itinerary():
    # the itinerary tuple, a list and an int array damp alike
    ref = refine(2)
    a1 = damping_from_orbit(ref, periodic_itinerary((0, 0)))
    for itinerary in ([0], np.array([0])):
        a2 = damping_from_orbit(ref, itinerary)
        assert np.array_equal(a1.values, a2.values)
