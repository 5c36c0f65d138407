"""Damped pressure curves: bracketing, monotonicity, the limit, and the
crossing strength."""

import dataclasses
import importlib.util
import math
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermopress import catmap, cli, ergopt, load_system, pressure, thermo
from thermopress.catmap import (damping_from_orbit, expansion_potential,
                                periodic_itinerary, refine)
from thermopress.errors import ConvergenceError, InvariantViolation
from thermopress.ergopt import minimize, pressure_on_set, undamped_set
from thermopress.instances import (
    catmap_instance,
    full2_instance,
    get_builtin,
    golden_mean_instance,
    two_loops_path_instance,
)
from thermopress.pressure import pressure_transfer
from thermopress.sft import EdgePotential, TransitionGraph, full_shift
from thermopress.thermo import (
    GAP_XTOL,
    ThermoCurve,
    default_schedule,
    find_gap_beta,
    measure_convergence,
    thermo_curve,
    verify_limit,
)

from . import oracles
from .test_pressure import _tied_loops_instance
from .oracles import graph_from_mask, mask_of_graph

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _random_damped_instance(rng, n, zero_frac=0.5):
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    for k in range(n):
        A[perm[k], perm[(k + 1) % n]] = True
    A |= rng.random((n, n)) < 0.4
    g = graph_from_mask(A)
    avals = {}
    for e in g.edges():
        avals[e] = 0.0 if rng.random() < zero_frac else float(rng.uniform(0.1, 1.5))
    pvals = {e: float(rng.uniform(-1, 1)) for e in g.edges()}
    return g, EdgePotential.from_edges(g, avals), EdgePotential.from_edges(g, pvals)


# ---------------------------------------------------------------------------
# schedule


def test_default_schedule():
    s = default_schedule()
    assert s[0] == 0.0 and s[-1] == 40.0 and len(s) == 81
    assert default_schedule(2.0, 1.0) == (0.0, 1.0, 2.0)
    assert default_schedule(0.0, 0.5) == (0.0,)


def test_default_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        default_schedule(10.0, 0.0)
    with pytest.raises(ValueError):
        default_schedule(-1.0, 0.5)
    with pytest.raises(ValueError):
        default_schedule(1.0, 0.3)  # not a multiple
    with pytest.raises(ValueError):
        default_schedule(1e300, 0.5)  # far too many points to build
    with pytest.raises(ValueError):
        default_schedule(1e300, 1e-10)  # the point count overflows to inf


@pytest.mark.parametrize("beta_max, step, name", [
    (math.inf, 0.5, "beta_max"), (math.nan, 0.5, "beta_max"),
    (10.0, math.inf, "step"), (10.0, math.nan, "step")])
def test_default_schedule_rejects_non_finite_input(beta_max, step, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        default_schedule(beta_max, step)


# ---------------------------------------------------------------------------
# the curve on the two-symbol instance: every number has a closed form or
# an independent eigenvalue oracle


def test_full2_curve_endpoints_and_limit():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, default_schedule(30.0, 0.5))
    # undamped start: topological entropy of the full 2-shift
    assert curve.values[0] == pytest.approx(math.log(2.0), rel=1e-13)
    assert curve.pressure_phi == pytest.approx(math.log(2.0), rel=1e-13)
    # the only undamped cycle is the 1 -> 1 loop, so the target is 0
    assert curve.limit_target == 0.0
    assert curve.a0 == 0.0
    # machine-precision convergence by beta = 30
    assert abs(curve.values[-1] - curve.limit_target) <= 1e-6
    ok, diag = verify_limit(curve)
    assert ok, diag
    assert diag["failed_check"] is None


def test_full2_point_matches_eigenvalue_oracle():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, (0.0, 2.0))
    e = math.exp(-2.0)
    L = np.array([[e, e], [e, 1.0]])
    want = float(np.log(max(abs(np.linalg.eigvals(L)))))
    assert curve.values[-1] == pytest.approx(want, rel=1e-12)
    assert curve.values[-1] == pytest.approx(0.0204763278, abs=1e-9)


def test_curve_values_bracketed_and_monotone_random():
    rng = np.random.default_rng(21)
    betas = default_schedule(6.0, 0.5)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        g, a, phi = _random_damped_instance(rng, n)
        curve = thermo_curve(g, a, phi, betas)
        ok, diag = verify_limit(curve)
        # a short schedule may stop short of the limit; everything else
        # must hold unconditionally
        assert ok or diag["failed_check"] == "limit-gap", diag
        assert diag["lower_margin"] >= -1e-9
        assert diag["upper_margin"] >= -1e-9
        assert diag["worst_monotone_step"] <= 1e-9
        assert diag["average_margin"] >= -1e-9


def test_derivative_matches_equilibrium_average():
    # the raw pressure beta -> Pr(phi - beta a) is convex with slope
    # -avg(a, mu_beta), so each secant is pinched between the endpoint
    # slopes
    g, a, phi = golden_mean_instance()
    betas = default_schedule(4.0, 0.25)
    curve = thermo_curve(g, a, phi, betas)
    raw = curve.values - curve.betas * curve.a0
    for k in range(len(curve) - 1):
        secant = (raw[k + 1] - raw[k]) / (curve.betas[k + 1] - curve.betas[k])
        assert -curve.eq_averages[k] - 1e-8 <= secant <= -curve.eq_averages[k + 1] + 1e-8


def test_raw_pressure_convex_in_beta():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, default_schedule(10.0, 0.5))
    raw = curve.values - curve.betas * curve.a0
    second = raw[:-2] - 2 * raw[1:-1] + raw[2:]
    assert (second >= -1e-10).all()


def test_two_loops_path_limit():
    # the critical set is the pair of loops, each with potential 0, so the
    # target is 0; the bridge cycle has length 3, making the approach slow
    # (the coupling enters through a cube root), but strictly from above
    g, a, phi = two_loops_path_instance()
    curve = thermo_curve(g, a, phi, default_schedule(40.0, 2.0))
    assert curve.limit_target == pytest.approx(0.0, abs=1e-12)
    assert (curve.values >= -1e-9).all()
    assert (np.diff(curve.values) <= 1e-9).all()
    assert curve.values[-1] < 1e-3 < curve.values[0]


# ---------------------------------------------------------------------------
# predictor starts: each point from the log-linear extrapolation of the two
# before it; only the step count may change, never the enclosed root


def _recording_sweep(mp):
    """Keep each point's (potential, start, PerronData) at thermo_curve's
    per-stack entry, pressure._power_solves, a stalled point's data being
    its squaring stage's result; returns that list."""
    return oracles.record_solves(mp, with_inputs=True)


def _counting_kernel(mp):
    """Count the plain stage's kernel calls (csr_matvec) and its row-steps
    (the iterations of every row); returns (calls, steps), two lists."""
    calls, steps = [], []
    kernel, plain = pressure.csr_matvec, pressure._plain_power_stage

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    def stage(*args):
        out = plain(*args)
        steps.extend(row[-1] for row in out)
        return out

    mp.setattr(pressure, "csr_matvec", counting)
    mp.setattr(pressure, "_plain_power_stage", stage)
    return calls, steps


CATMAP_POINTS = ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), 0),
                 (Fraction(1, 5), Fraction(2, 5)))


def _refined_sweep(order, point):
    """The refine-`order` graph damped along the orbit of point, phi and
    minimize's result: the graph the report coded before it swept on the
    orbit-window automaton."""
    ref = refine(order)
    phi = expansion_potential(ref.graph)
    a = damping_from_orbit(ref, periodic_itinerary(point))
    return ref.graph, a, phi, minimize(ref.graph, a, phi)


@pytest.mark.parametrize("point", CATMAP_POINTS)
def test_predicted_sweep_step_count_on_catmap(point, monkeypatch):
    # the refine-6 report sweeps its orbit-window automaton (8 to 23
    # states) over 0, 0.5, ..., 50.  Each point started from the two points
    # before it took one kernel call per plain step, 1 376-1 635 per sweep;
    # the stack takes one call per step for all 101 points, 83-92 in all,
    # though the tangent starts take 2 385-3 464 row-steps and up to 20-32
    # per point from beta = 30 on (1-3 from the two points before)
    g, a, phi = _automaton(point)
    result = minimize(g, a, phi)
    solves = _recording_sweep(monkeypatch)
    calls, steps = _counting_kernel(monkeypatch)
    curve = thermo_curve(g, a, phi, default_schedule(50.0, 0.5),
                         minimization=result)
    # one solve per point: Pr(phi) is the beta = 0 point's
    assert len(solves) == len(curve) == 101
    assert curve.pressure_phi == solves[0][2].log_rho
    assert sum(d.stage == "squaring" for _, _, d in solves) <= 1
    assert len(calls) <= 200, point
    assert sum(steps) <= 3_600, point
    assert max(d.iterations for _, _, d in solves[60:]) <= 32, point
    # the 987-state refinement, in blocks of 3 points, each started from
    # the tangent at the block before: 1 251-1 844 steps, no squaring, and
    # 2-5 per point from beta = 30 on
    g, a, phi, result = _refined_sweep(6, point)
    del solves[:], steps[:]
    thermo_curve(g, a, phi, default_schedule(50.0, 0.5), minimization=result)
    assert all(d.stage == "power" for _, _, d in solves)
    assert sum(steps) < 3_500, point
    assert max(d.iterations for _, _, d in solves[60:]) <= 5, point


def test_refine_8_report_plain_step_count(monkeypatch):
    # the refine-8 report at (1/2, 0) sweeps its 24-state orbit-window
    # automaton: 101 kernel calls and 3 645 row-steps (1 701 calls, one
    # per row-step, when each point started from the two before it);
    # find_gap_beta, from the sweep's beta = 0 solve, then brackets beta*
    # in 187 steps.  On the refined graph itself, in blocks of one point,
    # the sweep and the search take 1 843 steps with no squaring
    g, a, phi, _ = catmap.window_automaton(
        periodic_itinerary((Fraction(1, 2), 0)), 8)
    result = minimize(g, a, phi)
    solves = _recording_sweep(monkeypatch)
    calls, steps = _counting_kernel(monkeypatch)
    curve = thermo_curve(g, a, phi, default_schedule(50.0, 0.5),
                         minimization=result)
    assert len(calls) <= 200
    assert sum(steps) <= 3_800
    # the refinement's sweep squares no point; the automaton's squares
    # its beta = 1 point alone, as at refine 6
    assert sum(d.stage == "squaring" for _, _, d in solves) <= 1
    del steps[:]
    gap = find_gap_beta(g, a, phi, beta_max=50.0, minimization=result,
                        at_zero=curve.at_zero)
    assert gap.hi is not None
    assert sum(steps) <= 200
    g, a, phi, result = _refined_sweep(8, (Fraction(1, 2), 0))
    del solves[:], steps[:]
    curve = thermo_curve(g, a, phi, default_schedule(50.0, 0.5),
                         minimization=result)
    gap = find_gap_beta(g, a, phi, beta_max=50.0, minimization=result,
                        at_zero=curve.at_zero)
    assert gap.hi is not None
    assert all(d.stage == "power" for _, _, d in solves)
    assert sum(steps) <= 2_100


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       first=st.sampled_from([0.0, 0.3, 2.0]),
       steps=st.lists(st.floats(0.05, 6.0), min_size=2, max_size=10))
def test_predicted_sweep_matches_cold_solves(n, seed, first, steps):
    # non-uniform schedules make the extrapolation ratio t vary; every
    # point's root must lie within its own plus a cold solve's enclosure
    g, a, phi = _random_damped_instance(np.random.default_rng(seed), n)
    betas = np.cumsum([first, *steps])
    result = minimize(g, a, phi)
    with pytest.MonkeyPatch.context() as mp:
        solves = _recording_sweep(mp)
        curve = thermo_curve(g, a, phi, betas, minimization=result)
    # a schedule not starting at 0 takes Pr(phi) from one more solve, last
    assert len(solves) == len(curve) + (first != 0.0)
    for f, start, warm in solves[:len(curve)]:
        cold = pressure.perron(f)
        gap = abs(warm.log_rho - cold.log_rho)
        assert gap <= warm.enclosure + cold.enclosure
        if start is not None:
            for v in (start.right, start.left):
                assert np.isfinite(v).all() and (v > 0).all()


def test_predicted_start_that_would_underflow_stays_positive(monkeypatch):
    # on the refine-12 automaton at (0, 0) Howard's bias spans 12 per unit
    # of beta and the reversed graph's 11, so the tangent start -80 (h, h')
    # from beta_0 = 0 spans 960 and 880, past the floor's 990 ln 2 = 686:
    # unfloored, exp flushes its smallest entries to 0 and perron would
    # discard the start.  Floored, it stays finite and positive, perron
    # keeps it, and the root agrees with a cold solve within both
    # enclosures.  (A sweep to this point stops after its solves: the
    # Perron vectors themselves span more than a float holds.)
    g, a, phi, _ = catmap.window_automaton(periodic_itinerary((0, 0)), 12)
    bias = np.array((minimize(g, a, phi).bias, oracles.reverse_bias(g, a)))
    start, = thermo._predicted_start(np.zeros((2, g.n_states)), bias,
                                     np.array([80.0]))
    for side, h, v in zip(("right", "left"), bias, start):
        log_x = -80.0 * h  # the tangent, unfloored
        assert (np.exp(log_x - log_x.max()) == 0.0).any(), side
        assert np.isfinite(v).all() and (v > 0).all(), side
    f = EdgePotential(g, phi.values - 80.0 * a.values)
    solves = _recording_sweep(monkeypatch)
    data = pressure.perron(f, start=pressure.PerronData(
        np.nan, start[0], start[1], np.inf, 0, "stalled"))
    (_, kept, _), = solves
    assert np.array_equal(kept.right, start[0])
    assert np.array_equal(kept.left, start[1])
    cold = pressure.perron(f)
    assert abs(data.log_rho - cold.log_rho) <= data.enclosure + cold.enclosure


def test_thermo_curve_rejects_negative_damping():
    g = full_shift(2)
    a = EdgePotential(g, np.array([[0.0, -0.2], [0.0, 0.0]])[mask_of_graph(g)])
    phi = EdgePotential.constant(g, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        thermo_curve(g, a, phi)


def test_thermo_curve_rejects_negative_beta():
    g, a, phi = full2_instance()
    with pytest.raises(ValueError):
        thermo_curve(g, a, phi, (-1.0, 0.0))


@pytest.mark.parametrize("betas, message", [
    ([], "empty"),
    ([1.0, 0.5, 0.0], "strictly increasing"),
    ([0.0, 0.0], "strictly increasing"),
    ([-1.0, 0.0], "nonnegative"),
    ([0.0, float("nan")], "finite"),
])
def test_thermo_curve_checks_schedule_before_solving(monkeypatch, betas,
                                                     message):
    g, a, phi = catmap_instance(6)
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(pressure, "perron", counting("perron", pressure.perron))
    monkeypatch.setattr(pressure, "_power_solves",
                        counting("_power_solves", pressure._power_solves))
    monkeypatch.setattr(ergopt, "perron", counting("perron", ergopt.perron))
    monkeypatch.setattr(thermo, "minimize", counting("minimize", thermo.minimize))
    with pytest.raises(ValueError, match=message):
        thermo_curve(g, a, phi, betas)
    assert calls == []


def test_curve_csv_shape(tmp_path):
    # the full2 curve at 0, 1, 2 as the CLI writes it
    assert cli.main(["thermo", "--builtin", "full2", "--beta-max", "2",
                     "--beta-step", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "thermo_curve.csv").read_text().splitlines()
    assert lines[0] == "beta,pressure_plus_beta_a0,eq_average_a,eq_entropy,limit_target"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(math.log(2.0), rel=1e-10)


def test_curve_validation():
    ones = np.ones(3)
    with pytest.raises(ValueError):
        ThermoCurve(np.array([0.0, 1.0, 1.0]), ones, ones, ones, ones,
                    0.0, 1.0, 0.0)  # betas not strictly increasing
    with pytest.raises(ValueError):
        ThermoCurve(np.array([0.0, 1.0]), ones, ones, ones, ones,
                    0.0, 1.0, 0.0)  # length mismatch
    with pytest.raises(ValueError):
        ThermoCurve(np.array([]), np.array([]), np.array([]), np.array([]),
                    np.array([]), 0.0, 1.0, 0.0)  # empty


# ---------------------------------------------------------------------------
# verify_limit failure reporting


def _doctored(curve, **overrides):
    fields = {
        "betas": curve.betas,
        "values": curve.values,
        "eq_averages": curve.eq_averages,
        "eq_entropies": curve.eq_entropies,
        "eq_phi_averages": curve.eq_phi_averages,
        "limit_target": curve.limit_target,
        "pressure_phi": curve.pressure_phi,
        "a0": curve.a0,
    }
    fields.update(overrides)
    return ThermoCurve(**fields)


def test_verify_limit_flags_monotone_breach():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, (0.0, 1.0, 2.0))
    vals = curve.values.copy()
    vals[2] = vals[1] + 0.1
    bad = _doctored(curve, values=vals)
    ok, diag = verify_limit(bad)
    assert not ok
    assert diag["failed_check"] in ("monotone", "upper-bracket")
    assert "detail" in diag


def test_verify_limit_flags_lower_bracket_breach():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, (0.0, 1.0, 2.0))
    bad = _doctored(curve, limit_target=float(curve.values[-1]) + 1.0)
    ok, diag = verify_limit(bad)
    assert not ok
    assert diag["failed_check"] == "lower-bracket"


def test_verify_limit_flags_average_floor_breach():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, (0.0, 1.0, 2.0))
    avgs = curve.eq_averages.copy()
    avgs[0] = curve.a0 - 1.0
    ok, diag = verify_limit(_doctored(curve, eq_averages=avgs))
    assert not ok
    assert diag["failed_check"] == "average-floor"


def test_verify_limit_reports_limit_gap():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, (0.0, 1.0, 2.0))  # far from the limit
    ok, diag = verify_limit(curve)
    assert not ok
    assert diag["failed_check"] == "limit-gap"
    assert diag["final_gap"] > 1e-6


# ---------------------------------------------------------------------------
# equilibrium statistics


def test_measure_convergence_full2():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, default_schedule(30.0, 0.5))
    rep = measure_convergence(curve)
    assert rep["averages_converged"]
    assert rep["final_average_gap"] <= 1e-6
    assert rep["beta_max"] == 30.0
    assert rep["variational_margin_min"] >= -1e-9 * 31.0
    assert len(rep["eq_entropies"]) == len(curve)
    # entropy drains out of the equilibrium states as damping stiffens
    assert rep["eq_entropies"][-1] <= rep["eq_entropies"][0]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6, 0.0])
def test_audits_reject_bad_tolerance(tol):
    # a NaN tol used to pass the limit-gap check vacuously
    g, a, phi = golden_mean_instance()
    curve = thermo_curve(g, a, phi, default_schedule(2.0, 0.5))
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        verify_limit(curve, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        measure_convergence(curve, tol=tol)


def test_measure_convergence_rejects_impossible_entropy():
    g, a, phi = full2_instance()
    curve = thermo_curve(g, a, phi, (0.0, 1.0))
    bad = _doctored(
        curve,
        eq_entropies=np.zeros(2),
        eq_phi_averages=curve.eq_phi_averages - 1.0,
    )
    with pytest.raises(InvariantViolation):
        measure_convergence(bad)


# ---------------------------------------------------------------------------
# crossing strength


def test_find_gap_beta_requires_negative_target():
    # the undamped loop has potential 0, so no strength ever drives the
    # pressure negative
    g, a, phi = full2_instance()
    with pytest.raises(ValueError, match="nonnegative"):
        find_gap_beta(g, a, phi)


def test_find_gap_beta_bisection():
    g, a, _ = golden_mean_instance()
    phi = EdgePotential.constant(g, -0.1)
    beta = find_gap_beta(g, a, phi, beta_max=80.0).hi
    assert beta is not None and 0.0 < beta < 80.0
    raw = pressure_transfer(g, phi - beta * a).value
    assert raw < 0.0
    # the pressure is nonincreasing in the strength, so two tolerance
    # widths below the crossing it must still be nonnegative
    before = pressure_transfer(g, phi - (beta - 2e-6) * a).value
    assert before >= 0.0


def test_find_gap_beta_already_negative():
    g, a, _ = golden_mean_instance()
    phi = EdgePotential.constant(g, -1.0)
    assert find_gap_beta(g, a, phi).hi == 0.0


def test_find_gap_beta_out_of_reach():
    g, a, _ = golden_mean_instance()
    phi = EdgePotential.constant(g, -0.1)
    assert find_gap_beta(g, a, phi, beta_max=0.05).hi is None
    assert find_gap_beta(g, a, phi, beta_max=0.0).hi is None


def test_find_gap_beta_validation():
    g, a, _ = golden_mean_instance()
    phi = EdgePotential.constant(g, -0.1)
    neg = EdgePotential(g, np.array([[0.0, -1.0], [0.0, 0.0]])[mask_of_graph(g)])
    with pytest.raises(ValueError):
        find_gap_beta(g, neg, phi)
    with pytest.raises(ValueError):
        find_gap_beta(g, a, phi, beta_max=-1.0)


@pytest.mark.parametrize("c", [-0.1, -0.3, -0.45])
def test_find_gap_beta_golden_mean_closed_form(c):
    # with phi = c the damped transfer matrix is [[e^c, e^(c - beta)],
    # [e^c, 0]], whose Perron root is 1 exactly where
    # e^(-beta) = e^(-2c) - e^(-c)
    g, a, _ = golden_mean_instance()
    root = -math.log(math.exp(-2.0 * c) - math.exp(-c))
    beta = find_gap_beta(g, a, EdgePotential.constant(g, c), beta_max=80.0).hi
    assert root < beta <= root + GAP_XTOL


def _dense_pressure(g, f):
    L = np.zeros((g.n_states, g.n_states))
    L[g.src, g.dst] = np.exp(f)
    return float(np.log(np.abs(np.linalg.eigvals(L)).max()))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.1, 0.9))
def test_find_gap_beta_brackets_dense_root(n, seed, share):
    # a Hamiltonian cycle plus random edges, with one undamped self-loop
    # and every other edge damped; phi = c is the restricted pressure, so
    # c = -share * h_top puts a crossing between 0 and infinity
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) < 2.0 / n
    perm = rng.permutation(n)
    A[perm, np.roll(perm, -1)] = True
    A[0, 0] = True
    g = graph_from_mask(A)
    damping = rng.uniform(0.1, 1.5, g.n_edges)
    damping[g.edge_id(0, 0)] = 0.0
    a = EdgePotential(g, damping)
    c = -share * _dense_pressure(g, np.zeros(g.n_edges))
    phi = EdgePotential.constant(g, c)
    gap = find_gap_beta(g, a, phi, beta_max=200.0)
    beta = gap.hi
    assert beta is not None and beta > 0.0
    at_hi = _dense_pressure(g, phi.values - beta * a.values)
    assert at_hi < 0.0
    assert _dense_pressure(g, phi.values - (beta - GAP_XTOL) * a.values) >= 0.0
    # the bracket: nonnegative at lo, no wider than GAP_XTOL, and the
    # certifying solve's root within its own enclosure of the dense one
    assert _dense_pressure(g, phi.values - gap.lo * a.values) >= 0.0
    assert 0.0 < beta - gap.lo <= GAP_XTOL
    assert abs(gap.at_hi.log_rho - at_hi) <= gap.at_hi.enclosure + 1e-12


@pytest.mark.parametrize("order", [4, 5, 6])
def test_find_gap_beta_solve_count_on_catmap(order, monkeypatch):
    # every Perron solve of find_gap_beta goes through pressure.perron
    solves = []
    perron_ = pressure.perron

    def counting(f, **kw):
        solves.append(perron_(f, **kw))
        return solves[-1]

    monkeypatch.setattr(pressure, "perron", counting)
    ref = refine(order)
    phi = expansion_potential(ref.graph)
    for point in ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), 0),
                  (Fraction(1, 5), Fraction(2, 5))):
        orbit = periodic_itinerary(point)
        a = damping_from_orbit(ref, orbit)
        result = minimize(ref.graph, a, phi)
        solves.clear()
        beta = find_gap_beta(ref.graph, a, phi, beta_max=50.0,
                             minimization=result).hi
        assert beta is not None and 0.0 < beta < 50.0
        assert len(solves) <= 8, (point, len(solves))
        assert all(d.stage == "power" for d in solves)
        assert sum(d.iterations for d in solves) < 600, (point, solves)


@pytest.mark.parametrize("point", CATMAP_POINTS)
def test_find_gap_beta_bracket_within_xtol_on_catmap(point):
    # at refine 4, lo + GAP_XTOL rounds up at all four points; the last
    # candidate is the largest float at most GAP_XTOL above lo
    ref = refine(4)
    orbit = periodic_itinerary(point)
    a = damping_from_orbit(ref, orbit)
    gap = find_gap_beta(ref.graph, a, expansion_potential(ref.graph),
                        beta_max=50.0)
    assert gap.hi is not None and 0.0 < gap.hi - gap.lo <= GAP_XTOL
    assert np.nextafter(gap.hi, np.inf) - gap.lo > GAP_XTOL


def _record_phases(monkeypatch):
    """Record (caller, potential) for every Perron solve of a report stage,
    the caller being the stage that asked for it, at the solves' one
    entry, pressure._power_solves (perron and the sweep call it), one
    record per point of a stack."""
    power, phases = pressure._power_solves, []
    names = ("pressure_transfer", "pressure_on_set", "thermo_curve",
             "find_gap_beta")

    def counting(graph, F, starts, group):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in names:
            frame = frame.f_back
        if frame is not None:
            phases.extend((frame.f_code.co_name, EdgePotential(graph, f))
                          for f in F)
        return power(graph, F, starts, group)

    monkeypatch.setattr(pressure, "_power_solves", counting)
    return phases


@pytest.mark.parametrize("order", [4, 6])
def test_report_solves_each_potential_once(order, monkeypatch):
    # every Perron solve of the report is one sweep point, one search step
    # or one piece of the undamped set; the entropy is LYAPUNOV, and Pr(phi)
    # and Pr(phi - beta* a) are read off the sweep and the search, which
    # run on the orbit-window automaton
    cold = pressure.perron
    solves = _record_phases(monkeypatch)
    gaps, handed = [], []

    def recording(*args, **kw):
        handed.append(kw["at_zero"])
        gaps.append(find_gap_beta(*args, **kw))
        return gaps[-1]

    monkeypatch.setattr(catmap, "find_gap_beta", recording)
    ref = refine(order)
    phi = expansion_potential(ref.graph)
    for point in CATMAP_POINTS:
        solves.clear()
        gaps.clear()
        handed.clear()
        rep = catmap.orbit_damping_report(2.0 ** -order, point=point,
                                          beta_max=50.0)
        phases = [name for name, _ in solves]
        (gap,) = gaps
        steps = phases.count("find_gap_beta")
        assert rep["undamped_set_is_orbit"] and 0 < steps <= 8
        # one orbit piece, 101 sweep points, the search
        assert phases.count("pressure_transfer") == 0, point
        assert phases.count("pressure_on_set") == 1, point
        assert phases.count("thermo_curve") == 101, point
        assert len(phases) == 102 + steps, point
        orbit = periodic_itinerary(point)
        _, _, small_phi, _ = catmap.window_automaton(orbit, order)
        at_zero, refined = cold(small_phi), cold(phi)
        assert rep["pressure_undamped"] == at_zero.log_rho
        # the sweep's beta = 0 solve is find_gap_beta's left end, field for
        # field the cold perron(phi), so the search solves it no more
        (given,) = handed
        for field in dataclasses.fields(at_zero):
            assert np.array_equal(getattr(given, field.name),
                                  getattr(at_zero, field.name)), field.name
        graph, small_a = catmap.window_automaton(orbit, order)[:2]
        result = minimize(graph, small_a, small_phi)
        before = len(solves)
        find_gap_beta(graph, small_a, small_phi, beta_max=50.0,
                      minimization=result)
        assert len(solves) - before == steps + 1, point
        assert (abs(refined.log_rho - at_zero.log_rho)
                <= refined.enclosure + at_zero.enclosure), point
        beta = rep["beta_star"]
        assert beta == gap.hi and rep["beta_star_enclosure"] == gap.hi - gap.lo
        a = damping_from_orbit(ref, orbit)
        at_star = cold(phi - beta * a)
        assert (abs(rep["pressure_at_beta_star"] - at_star.log_rho)
                <= gap.at_hi.enclosure + at_star.enclosure), point


def test_refine_12_report_solves_on_the_automaton(monkeypatch):
    # the refine-12 report at (1/2, 0) has 317 811 refined states; its
    # sweep and search solve on the orbit-window automaton, at most
    # p*k + 3 = 39 states
    solves = _record_phases(monkeypatch)
    rep = catmap.orbit_damping_report(2.0 ** -12, point=(Fraction(1, 2), 0),
                                      beta_max=50.0)
    assert rep["n_states"] == 317_811 and rep["decays"]
    sizes = [f.graph.n_states for name, f in solves
             if name in ("thermo_curve", "find_gap_beta")]
    assert len(sizes) > 101
    assert max(sizes) <= 39


def test_sweep_sums_each_measure_once(monkeypatch):
    # per block of points, one offset bincount pass for the row defects of
    # P and one each for the measures' two marginals, each over the whole
    # block; the averages and entropies are dot products with the edge
    # masses.  (303 passes when each point was summed alone, 606 while the
    # measure was stored as (transitions, stationary).)
    g, a, phi = catmap_instance(6)
    result = minimize(g, a, phi)
    calls = []
    for name in ("row_sums", "column_sums"):
        def counting(self, x, _sums=getattr(TransitionGraph, name)):
            calls.append((_sums, np.shape(x)))
            return _sums(self, x)

        monkeypatch.setattr(TransitionGraph, name, counting)
    curve = thermo_curve(g, a, phi, default_schedule(50.0, 0.5),
                         minimization=result)
    # 3 points of 2 584 edges, one plain stack of diag(W, W^T) entries
    size = thermo.BLOCK_ENTRIES // (2 * g.n_edges)
    blocks = -(-len(curve) // size)
    assert len(curve) == 101 and size == 3 and blocks == 34
    assert len(calls) == 3 * blocks
    rows = [shape[0] for _, shape in calls]
    assert rows == [size] * (3 * blocks - 3) + [101 - size * (blocks - 1)] * 3
    assert all(shape == (n, g.n_edges) for n, (_, shape) in zip(rows, calls))


# ---------------------------------------------------------------------------
# the block pass gives every statistic as the per-point sweep does


def _sparse_random_instance(rng, n, extra):
    """n states on a Hamiltonian cycle plus `extra` random successors
    each, damping in [0.2, 1.2] but 0 on one self-loop, phi in [-1, 0.5]."""
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    A[perm, np.roll(perm, -1)] = True
    for i in range(n):
        A[i, rng.choice(n, size=extra, replace=False)] = True
    A[0, 0] = True
    g = graph_from_mask(A)
    a = rng.uniform(0.2, 1.2, g.n_edges)
    a[g.edge_id(0, 0)] = 0.0
    return g, EdgePotential(g, a), EdgePotential(
        g, rng.uniform(-1.0, 0.5, g.n_edges))


def _automaton(point):
    graph, a, phi, _ = catmap.window_automaton(periodic_itinerary(point), 6)
    return graph, a, phi


def _random_200():
    return _sparse_random_instance(np.random.default_rng(27), 200, 10)


def _tied_loops(n):
    return _tied_loops_instance(np.random.default_rng(n), n)


# (instance, schedule) per sweep: the four report automata at k = 6, the
# builtins (two-loops-path reaches the squaring stage), a 200-state system
# swept in 34 blocks of 3 points, two schedules that start above 0, and
# tied loops whose stack ends at its 18th stalled point, the points after
# it starting again from the secant (30 states), or at each stalled point
# (200 states)
SWEEPS = {
    **{f"automaton-{x},{y}": (lambda p=(x, y): _automaton(p),
                              default_schedule(50.0, 0.5))
       for x, y in CATMAP_POINTS},
    **{name: (lambda name=name: get_builtin(name), default_schedule(30.0, 0.5))
       for name in ("full2", "golden-mean", "two-loops-path", "catmap")},
    "random-200": (_random_200, default_schedule(50.0, 0.5)),
    "random-200-from-0.3": (_random_200,
                            np.cumsum([0.3] + [0.25, 0.5, 1.25] * 12)),
    "automaton-1/3,0-from-0.25": (lambda: _automaton(CATMAP_POINTS[2]),
                                  0.25 + 0.75 * np.arange(50)),
    "tied-loops-30": (lambda: _tied_loops(30), default_schedule(30.0, 0.5)),
    "tied-loops-200": (lambda: _tied_loops(200), (0.0, 5.0, 10.0, 15.0)),
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_block_sweep_is_the_point_sweep_bit_for_bit(name, monkeypatch):
    # the same Perron solves, then each point's P, measure, averages and
    # entropy in 2-d operations whose every entry and sum is the one the
    # point alone gives: no curve array may move by a single bit
    make, betas = SWEEPS[name]
    g, a, phi = make()
    result = minimize(g, a, phi)
    solves = _recording_sweep(monkeypatch)
    curve = thermo_curve(g, a, phi, betas, minimization=result)
    size = max(1, thermo.BLOCK_ENTRIES // (2 * g.n_edges))
    blocks = -(-len(betas) // size)
    monkeypatch.undo()
    points = oracles.thermo_curve_by_points(g, a, phi, betas,
                                            minimization=result)
    for field in ("betas", "values", "eq_averages", "eq_entropies",
                  "eq_phi_averages"):
        assert np.array_equal(getattr(curve, field), getattr(points, field)), field
    assert curve.pressure_phi == points.pressure_phi
    if name == "two-loops-path":
        assert any(d.stage == "squaring" for _, _, d in solves)
    if name.startswith("random-200"):
        # the tangent starts anchor on the last point of the block before
        assert g.n_states == 200 and blocks >= 3, blocks


def _seed_1_system():
    """The 190-210-state system file that perfbench's system-files workload
    writes for seed 1 (perfbench/jobs.py), loaded as (graph, a, phi)."""
    path = Path(__file__).parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = sys.modules.setdefault(spec.name,
                                  importlib.util.module_from_spec(spec))
    spec.loader.exec_module(jobs)  # its dataclasses look their module up
    with tempfile.TemporaryDirectory() as tmp:
        jobs.make_jobs("system-files", 1, Path(tmp))
        return load_system(Path(tmp) / "system.txt")


STACKS = {
    **{f"automaton-{x},{y}": (lambda p=(x, y): _automaton(p),
                              default_schedule(50.0, 0.5))
       for x, y in CATMAP_POINTS},
    **{name: (lambda name=name: get_builtin(name), default_schedule(30.0, 0.5))
       for name in ("full2", "golden-mean", "two-loops-path")},
    "seed-1-file": (_seed_1_system, default_schedule(6.5, 0.5)),
}


@pytest.mark.parametrize("name", list(STACKS))
def test_plain_stage_stack_rows_are_solo_runs_bit_for_bit(name):
    # the points of a sweep, from the sweep's tangent starts at beta_0 = 0,
    # in stacks of one, seven and all of them, in shuffled order: every row
    # keeps its own sigma, checks, stop and stall rules and step count, so
    # its bracket, vectors and steps are bit for bit those of its solo run
    make, betas = STACKS[name]
    g, a, phi = make()
    bias = np.array((minimize(g, a, phi).bias, oracles.reverse_bias(g, a)))
    betas = np.array(betas)
    F = phi.values - betas[:, None] * a.values
    starts = thermo._predicted_start(np.zeros((2, g.n_states)), bias, betas)
    ids = g.two_sided

    def stage(at, group=None):
        W = np.exp(F[at] - F[at].max(axis=1)[:, None])
        return pressure._plain_power_stage(ids, W.take(ids.data, axis=1),
                                           starts[at], group or len(at))

    solo = [stage([k])[0] for k in range(len(betas))]
    order = np.random.default_rng(29).permutation(len(betas))
    for depth in (1, 7, len(betas)):
        for first in range(0, len(betas), depth):
            at = order[first:first + depth]
            for k, row in zip(at, stage(at)):
                (ok, lo, hi, sigma, x, z, it), alone = row, solo[k]
                assert (ok, lo, hi, sigma, it) == (*alone[:4], alone[6]), k
                assert np.array_equal(x, alone[4]), k
                assert np.array_equal(z, alone[5]), k
    # with a group, the stack ends at its group-th unconverged row, and
    # the rows before it are still their solo runs
    for group in (1, 3):
        out = stage(order, group)
        failed = [j for j, row in enumerate(out) if not row[0]]
        assert len(out) == (failed[group - 1] + 1 if len(failed) >= group
                            else len(betas))
        for k, (ok, lo, hi, sigma, x, z, it) in zip(order, out):
            assert (ok, lo, hi, sigma, it) == (*solo[k][:4], solo[k][6]), k
            assert np.array_equal(x, solo[k][4]), k
    if name == "two-loops-path":  # stalled rows leave the stack too
        assert not all(row[0] for row in solo)
        assert len(stage(order, 1)) < len(betas)


def _recording_stacks(mp):
    """Patch the squaring stage to keep the number of matrices of each of
    its calls; returns that list."""
    rows, stage = [], pressure._squared_power_stage

    def recording(H, v):
        rows.append(len(H))
        return stage(H, v)

    mp.setattr(pressure, "_squared_power_stage", recording)
    return rows


def test_sweep_squares_its_stalled_points_in_stacks(monkeypatch):
    # the two-loops path stalls at 52 of its 61 points, all in one stack of
    # 3-state points: one call squares them all.  Each refine-6 report
    # automaton (8 to 23 states) stalls at beta = 1 alone, a stack of one.
    # A 200-state dense log matrix alone holds more than BLOCK_ENTRIES
    # entries, so each stalled point there is squared alone.  On 30 states
    # a squaring stack holds 18: the plain stack ends at its 18th stalled
    # point, those 18 are squared in one call, and the points after them,
    # started again from there, converge without squaring
    cases = [(two_loops_path_instance(), default_schedule(30.0, 0.5), [52])]
    cases += [(_automaton(point), default_schedule(50.0, 0.5), [1])
              for point in CATMAP_POINTS]
    cases += [(_tied_loops(30), default_schedule(30.0, 0.5), [18]),
              (_tied_loops(200), (0.0, 5.0, 10.0, 15.0), [1, 1])]
    results = [minimize(*instance) for instance, _, _ in cases]
    rows = _recording_stacks(monkeypatch)
    for (instance, betas, stacks), result in zip(cases, results):
        del rows[:]
        thermo_curve(*instance, betas, minimization=result)
        assert rows == stacks, instance[0]
    assert thermo.BLOCK_ENTRIES // 30**2 == 18
    assert thermo.BLOCK_ENTRIES // 200**2 == 0


def test_block_pass_rejects_a_zero_right_entry(monkeypatch, tmp_path):
    # an exact 0 in one point's right Perron vector makes log r -inf and
    # that row's defect inf or NaN: the block pass must raise ConvergenceError
    # (exit 3), as equilibrium_state does, not the measure's ValueError
    solve = pressure._power_solves
    solved = []

    def zeroed(graph, F, starts, group):
        out = solve(graph, F, starts, group)
        if sys._getframe(1).f_code.co_name != "thermo_curve":
            return out  # minimize's solves, through perron
        for k, data in enumerate(out):
            solved.append(data)
            if len(solved) == 4:
                right = data.right.copy()
                right[1] = 0.0
                out[k] = dataclasses.replace(data, right=right)
        return out

    monkeypatch.setattr(pressure, "_power_solves", zeroed)
    g, a, phi = _automaton(CATMAP_POINTS[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="off stochastic by inf"):
            thermo_curve(g, a, phi, default_schedule(10.0, 0.5))
        solved.clear()
        assert cli.main(["thermo", "--builtin", "two-loops-path",
                         "--beta-max", "4", "--out", str(tmp_path)]) == 3
    # the check ran after the block's 9 solves, and nothing was written
    assert len(solved) == 9 and not any(tmp_path.iterdir())


def test_block_sweep_memory_stays_per_point_on_refine_8():
    # refine(8) has 17 711 edges, more than a block holds, so each block
    # is one point and the sweep holds what the per-point sweep holds; a
    # block of all 101 points would hold 14 MB in each of its B x E arrays
    g, a, phi = catmap_instance(8)
    result = minimize(g, a, phi)
    betas = default_schedule(50.0, 0.5)
    assert g.n_edges == 17_711

    def peak(sweep):
        tracemalloc.start()
        try:
            sweep(g, a, phi, betas, minimization=result)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(thermo_curve)  # the graph's cached arrays are built outside both
    assert peak(thermo_curve) <= 1.1 * peak(oracles.thermo_curve_by_points)


@pytest.mark.parametrize("beta_max", [math.inf, math.nan])
def test_find_gap_beta_rejects_non_finite_beta_max(beta_max, monkeypatch):
    def unreachable(*args, **kw):
        raise AssertionError("minimize ran before the check")

    monkeypatch.setattr(thermo, "minimize", unreachable)
    g, a, _ = golden_mean_instance()
    phi = EdgePotential.constant(g, -0.1)
    with pytest.raises(ValueError, match="beta_max must be finite"):
        find_gap_beta(g, a, phi, beta_max=beta_max)


# ---------------------------------------------------------------------------
# a minimization passed down gives the same results as one computed inside


@pytest.mark.parametrize("name", ["full2", "two-loops-path", "catmap"])
def test_passed_minimization_changes_nothing(name):
    g, a, phi = get_builtin(name)
    result = minimize(g, a, phi)
    betas = default_schedule(8.0, 0.5)
    own = thermo_curve(g, a, phi, betas)
    passed = thermo_curve(g, a, phi, betas, minimization=result)
    for field in ("betas", "values", "eq_averages", "eq_entropies",
                  "eq_phi_averages"):
        assert np.array_equal(getattr(own, field), getattr(passed, field))
    for field in ("limit_target", "pressure_phi", "a0"):
        assert getattr(own, field) == getattr(passed, field)

    def gap(**kw):
        # PerronData holds arrays, so compare the bracket field by field
        try:
            b = find_gap_beta(g, a, phi, beta_max=20.0, **kw)
        except ValueError as exc:
            return str(exc)
        return (b.lo, b.hi) + ((b.at_hi.log_rho, b.at_hi.enclosure)
                               if b.at_hi is not None else ())

    assert gap() == gap(minimization=result)


def test_minimization_without_phi_is_rejected():
    g, a, phi = full2_instance()
    with pytest.raises(ValueError, match="restricted pressure"):
        thermo_curve(g, a, phi, (0.0,), minimization=minimize(g, a))
