"""Torus automorphism coding, refinements, orbit damping, decay report."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from thermopress import ergopt
from thermopress.catmap import (
    GOLDEN,
    PARTITION_MATRIX,
    MarkovCoding,
    Qs5,
    ToralMap,
    _classify_exact,
    build_cat_map,
    damping_from_orbit,
    expansion_potential,
    half_expansion_rate,
    orbit_damping_report,
    orbit_pressure_bound,
    periodic_itinerary,
    refinement_for_scale,
)
from thermopress.ergopt import noncontrolled_set, undamped_set
from thermopress.pressure import pressure_transfer
from thermopress.sft import CyclicWord, EdgePotential

LOG_GOLDEN = math.log((1.0 + math.sqrt(5.0)) / 2.0)
LAMBDA = 2.0 * LOG_GOLDEN  # log of the expanding eigenvalue


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


def test_toral_map_validation():
    with pytest.raises(ValueError):
        ToralMap(((1, 1), (0, 1)))  # parabolic, not hyperbolic
    with pytest.raises(ValueError):
        ToralMap(((2, 0), (0, 2)))  # determinant 4
    with pytest.raises(ValueError):
        ToralMap(((1, 2, 3),))


def test_toral_map_lyapunov():
    tmap, _ = build_cat_map()
    assert tmap.lyapunov == pytest.approx(LAMBDA, rel=1e-15)
    assert tmap.lyapunov == pytest.approx(0.9624236501192069, abs=1e-15)


def test_toral_map_apply_exact():
    tmap = ToralMap()
    p = (Fraction(1, 5), Fraction(2, 5))
    q = tmap.apply(p)
    assert q == (Fraction(4, 5), Fraction(3, 5))
    assert tmap.apply(q) == p  # period two


# ---------------------------------------------------------------------------
# the coding


def test_cell_map_agrees_with_exact_classifier():
    _, coding = build_cat_map()
    rng = np.random.default_rng(88)
    for _ in range(300):
        x = Fraction(int(rng.integers(0, 997)), 997)
        y = Fraction(int(rng.integers(0, 991)), 991)
        fast = coding.cell_map((float(x), float(y)))
        assert fast == _classify_exact(x, y)


def test_cell_map_many_float_points():
    # the classifier must place every point in exactly one rectangle; the
    # exact fallback raises if the tiling ever double-covers
    _, coding = build_cat_map()
    rng = np.random.default_rng(89)
    pts = rng.random((10_000, 2))
    cells = [coding.cell_map(p) for p in pts]
    assert set(cells) == {0, 1, 2}


def test_cell_map_boundary_points_decidable():
    _, coding = build_cat_map()
    # corners and edges of the unit square sit on rectangle boundaries
    for p in [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
              (Fraction(1, 2), Fraction(1, 2))]:
        assert coding.cell_map(p) in (0, 1, 2)


def test_codings_follow_partition_matrix():
    # no sampled transition may use the single forbidden pair, and all
    # eight allowed pairs must occur
    _, coding = build_cat_map()
    rng = np.random.default_rng(90)
    B = np.array(PARTITION_MATRIX, dtype=bool)
    seen = set()
    for _ in range(400):
        x = Fraction(int(rng.integers(0, 9973)), 9973)
        y = Fraction(int(rng.integers(0, 9967)), 9967)
        word = coding.code((x, y), 4)
        for s, t in zip(word, word[1:]):
            assert B[s, t], (s, t)
            seen.add((s, t))
    assert seen == {(i, j) for i in range(3) for j in range(3) if B[i, j]}


def test_code_rejects_zero_length():
    _, coding = build_cat_map()
    with pytest.raises(ValueError):
        coding.code((0, 0), 0)


# ---------------------------------------------------------------------------
# refinements


def test_refinement_state_counts():
    # admissible words of length k+1 over the coding graph; the count
    # satisfies the Fibonacci-like recursion of the partition matrix
    _, coding = build_cat_map()
    for order, count in [(0, 3), (1, 8), (2, 21), (3, 55), (4, 144)]:
        ref = coding.refine(order)
        assert ref.n_states == count
        assert all(len(w) == order + 1 for w in ref.words)
    assert coding.refine(4).graph.n_edges == 377


def test_refined_edges_follow_overlap_rule():
    # brute force over all pairs of words: u -> v is an edge iff v shifts
    # u by one symbol that the partition matrix allows after u's last
    _, coding = build_cat_map()
    for order in range(6):
        words = coding.refine(order).words
        expected = [(u, v) for u, wu in enumerate(words)
                    for v, wv in enumerate(words)
                    if wu[1:] == wv[:-1] and PARTITION_MATRIX[wu[-1]][wv[-1]]]
        assert coding.refine(order).graph.edges() == expected, order


def test_refine_memory_is_per_edge():
    # order 9 has 17711 states and 46368 edges; an n x n bool mask of the
    # edge set alone would take 314 MB
    tracemalloc.start()
    try:
        ref = MarkovCoding().refine(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (ref.n_states, ref.graph.n_edges) == (17711, 46368)
    assert peak < 32 * 2**20


def test_minimize_memory_is_per_edge():
    # order 9 has 17711 states; Karp's (n+1) x n table of floats alone
    # would take 2.5 GB
    ref = MarkovCoding().refine(9)
    orbit = periodic_itinerary(ref.base, (Fraction(1, 3), 0))
    a = damping_from_orbit(ref.base, orbit, 2.0 ** -9)
    tracemalloc.start()
    try:
        res = ergopt.minimize(ref.graph, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == 0.0
    assert len(res.critical_edges) == len(orbit)
    assert peak < 16 * 2**20


def test_refinement_preserves_entropy():
    _, coding = build_cat_map()
    for order in range(4):
        g = coding.refine(order).graph
        assert g.irreducible
        ent = pressure_transfer(g, EdgePotential.constant(g, 0.0)).value
        assert ent == pytest.approx(LAMBDA, abs=1e-9)


def test_refinement_encode_point_matches_code():
    _, coding = build_cat_map()
    ref = coding.refine(2)
    p = (Fraction(3, 7), Fraction(2, 7))
    state = ref.encode_point(p)
    assert ref.word_of_state(state) == coding.code(p, 3)


def test_refinement_rejects_negative_order():
    _, coding = build_cat_map()
    with pytest.raises(ValueError):
        coding.refine(-1)


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
    _, coding = build_cat_map()
    w = periodic_itinerary(coding, (0, 0))
    assert w.states == (0,)


def test_period_two_itinerary():
    _, coding = build_cat_map()
    p = (Fraction(1, 5), Fraction(2, 5))
    w = periodic_itinerary(coding, p)
    assert len(w) == 2
    assert w.states == coding.code(p, 2)


def test_non_returning_point_rejected():
    _, coding = build_cat_map()
    with pytest.raises(ValueError):
        periodic_itinerary(coding, (Fraction(1, 3), 0), limit=2)


def test_orbit_pressure_bound_value():
    tmap, coding = build_cat_map()
    w = periodic_itinerary(coding, (0, 0))
    val = orbit_pressure_bound(tmap, w)
    assert val == pytest.approx(-LAMBDA / 2.0, abs=1e-12)
    assert val < 0


# ---------------------------------------------------------------------------
# orbit-neighborhood damping


def test_damping_zero_set_matches_window_rule():
    _, coding = build_cat_map()
    orbit = periodic_itinerary(coding, (0, 0))
    eps = 2.0 ** -3
    a = damping_from_orbit(coding, orbit, eps, strength=0.8)
    ref = coding.refine(3)
    assert a.graph.same_graph(ref.graph)
    for i, j in ref.graph.edges():
        word = ref.word_of_state(i)
        expected = 0.0 if word[:3] == (0, 0, 0) else 0.8
        assert a.value(i, j) == expected
    assert a.min() == 0.0
    assert a.max() == 0.8


def test_damping_trivial_at_scale_one():
    _, coding = build_cat_map()
    orbit = periodic_itinerary(coding, (0, 0))
    a = damping_from_orbit(coding, orbit, 1.0)
    assert a.max() == 0.0  # neighborhood covers everything


def test_damping_zero_strength():
    _, coding = build_cat_map()
    orbit = periodic_itinerary(coding, (0, 0))
    a = damping_from_orbit(coding, orbit, 0.25, strength=0.0)
    assert a.max() == 0.0


def test_damping_validation():
    _, coding = build_cat_map()
    orbit = periodic_itinerary(coding, (0, 0))
    with pytest.raises(ValueError):
        damping_from_orbit(coding, orbit, 0.25, strength=-1.0)
    with pytest.raises(ValueError):
        damping_from_orbit(coding, orbit, 1.5)
    with pytest.raises(ValueError):
        damping_from_orbit(coding, (0, 1, 2), 0.25)  # inadmissible word


def test_fixed_orbit_isolated_at_every_positive_order():
    # the only cycle through cylinders shadowing the fixed point is the
    # fixed point's own loop: expansivity at work, checked for each order
    _, coding = build_cat_map()
    orbit = periodic_itinerary(coding, (0, 0))
    for order in (1, 2, 3, 4):
        eps = 2.0 ** -order
        a = damping_from_orbit(coding, orbit, eps)
        ref = coding.refine(order)
        z = ref.state_of_word((0,) * (order + 1))
        assert undamped_set(ref.graph, a) == ((z, z),)
        assert noncontrolled_set(ref.graph, a) == ((z, z),)


def test_half_expansion_and_potential():
    tmap, coding = build_cat_map()
    assert half_expansion_rate(tmap) == pytest.approx(LOG_GOLDEN, rel=1e-15)
    ref = coding.refine(1)
    phi = expansion_potential(ref)
    assert phi.max() == phi.min() == pytest.approx(-LOG_GOLDEN, rel=1e-15)


# ---------------------------------------------------------------------------
# the end-to-end report


def test_report_below_threshold():
    rep = orbit_damping_report(2.0 ** -4, beta_max=50.0)
    assert rep["regime"] == "below-threshold"
    assert rep["refinement_order"] == 4
    assert rep["n_states"] == 144
    assert rep["orbit_itinerary"] == [0]
    assert rep["lyapunov"] == pytest.approx(LAMBDA, abs=1e-15)
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
    assert len(calls) == 1


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


def test_cyclic_word_from_ints_matches_itinerary():
    _, coding = build_cat_map()
    w = periodic_itinerary(coding, (0, 0))
    a1 = damping_from_orbit(coding, w, 0.25)
    a2 = damping_from_orbit(coding, (0,), 0.25)
    assert np.array_equal(a1.values, a2.values)
