"""Damped pressure curves: bracketing, monotonicity, the limit, and the
crossing strength."""

import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermopress import catmap, cli, ergopt, pressure, thermo
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
    """Patch pressure.perron (which thermo_curve calls) to keep each
    (potential, start, PerronData); returns that list."""
    solves = []
    perron_ = pressure.perron

    def recording(f, *, start=None):
        solves.append((f, start, perron_(f, start=start)))
        return solves[-1][2]

    mp.setattr(pressure, "perron", recording)
    return solves


CATMAP_POINTS = ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), 0),
                 (Fraction(1, 5), Fraction(2, 5)))


@pytest.mark.parametrize("point", CATMAP_POINTS)
def test_predicted_sweep_step_count_on_catmap(point, monkeypatch):
    # the refine-6 sweep over 0, 0.5, ..., 50 took about 7 400 plain steps
    # with each point started from the previous point's vectors; the
    # predictor brings it to about 2 200, with 1-3 steps per point from
    # beta = 30 on, where the log vectors are nearly linear in beta
    ref = refine(6)
    phi = expansion_potential(ref.graph)
    orbit = periodic_itinerary(point)
    a = damping_from_orbit(ref, orbit)
    result = minimize(ref.graph, a, phi)
    solves = _recording_sweep(monkeypatch)
    curve = thermo_curve(ref.graph, a, phi, default_schedule(50.0, 0.5),
                         minimization=result)
    # one solve per point: Pr(phi) is the beta = 0 point's
    assert len(solves) == len(curve) == 101
    assert curve.pressure_phi == solves[0][2].log_rho
    assert all(d.stage == "power" for _, _, d in solves)
    assert sum(d.iterations for _, _, d in solves) < 3500, point
    assert max(d.iterations for _, _, d in solves[60:]) <= 3, point


def test_refine_8_report_plain_step_count(monkeypatch):
    # the refine-8 report's sweep and find_gap_beta at (1/2, 0), solved on
    # the refined graph itself, take about 1 900 plain power steps, and no
    # solve reaches the squaring stage
    ref = refine(8)
    phi = expansion_potential(ref.graph)
    a = damping_from_orbit(ref, periodic_itinerary((Fraction(1, 2), 0)))
    result = minimize(ref.graph, a, phi)
    steps, plain = [], pressure._plain_power_stage

    def counting(*args):
        out = plain(*args)
        steps.append(out[-1])
        return out

    def squaring(*args):
        raise AssertionError("a refine-8 solve reached the squaring stage")

    monkeypatch.setattr(pressure, "_plain_power_stage", counting)
    monkeypatch.setattr(pressure, "_squared_power_stage", squaring)
    thermo_curve(ref.graph, a, phi, default_schedule(50.0, 0.5),
                 minimization=result)
    gap = find_gap_beta(ref.graph, a, phi, beta_max=50.0, minimization=result)
    assert gap.hi is not None
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
    with pytest.MonkeyPatch.context() as mp:
        solves = _recording_sweep(mp)
        curve = thermo_curve(g, a, phi, betas)
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
    # state 0 reaches the undamped hub loop by a chain of ten damped edges
    # or by a shortcut of potential -30, and each chain state likewise, so
    # near beta = 1 log r_0 falls with slope -10 and levels off at -30.  From
    # 0.5 and 1 the extrapolation to 80 puts it near -800 below the hub,
    # which exp would flush to 0, and perron would then discard the start
    L = 10
    hub = L
    edges = {(k, k + 1): (1.0, 0.0) for k in range(L)}
    edges.update({(k, hub): (0.0, -30.0) for k in range(L - 1)})
    edges.update({(hub, k): (0.0, -30.0) for k in range(1, L)})
    edges.update({(hub, 0): (1.0, 0.0), (hub, hub): (0.0, 0.0)})
    A = np.zeros((L + 1, L + 1), dtype=bool)
    for i, j in edges:
        A[i, j] = True
    g = graph_from_mask(A)
    a = EdgePotential.from_edges(g, {e: v[0] for e, v in edges.items()})
    phi = EdgePotential.from_edges(g, {e: v[1] for e, v in edges.items()})
    solves = _recording_sweep(monkeypatch)
    thermo_curve(g, a, phi, (0.0, 0.5, 1.0, 80.0))
    (_, _, older), (_, _, newer), (f, start, last) = solves[1:]
    t = (80.0 - 1.0) / (1.0 - 0.5)
    for side in ("right", "left"):
        log_x = np.log(getattr(newer, side))
        log_x += t * (log_x - np.log(getattr(older, side)))
        assert (np.exp(log_x - log_x.max()) == 0.0).any(), side
        v = getattr(start, side)
        assert np.isfinite(v).all() and (v > 0).all(), side
    cold = pressure.perron(f)
    assert abs(last.log_rho - cold.log_rho) <= last.enclosure + cold.enclosure


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
    """Record (caller, potential) for every Perron solve, the caller being
    the report stage that asked for it."""
    cold, phases = pressure.perron, []
    names = ("pressure_transfer", "pressure_on_set", "thermo_curve",
             "find_gap_beta")

    def counting(f, **kw):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in names:
            frame = frame.f_back
        phases.append((frame.f_code.co_name, f))
        return cold(f, **kw)

    for module in (pressure, ergopt):
        monkeypatch.setattr(module, "perron", counting)
    return phases


@pytest.mark.parametrize("order", [4, 6])
def test_report_solves_each_potential_once(order, monkeypatch):
    # every Perron solve of the report is one sweep point, one search step
    # or one piece of the undamped set; the entropy is LYAPUNOV, and Pr(phi)
    # and Pr(phi - beta* a) are read off the sweep and the search, which
    # run on the orbit-window automaton
    cold = pressure.perron
    solves = _record_phases(monkeypatch)
    gaps = []

    def recording(*args, **kw):
        gaps.append(find_gap_beta(*args, **kw))
        return gaps[-1]

    monkeypatch.setattr(catmap, "find_gap_beta", recording)
    ref = refine(order)
    phi = expansion_potential(ref.graph)
    for point in CATMAP_POINTS:
        solves.clear()
        gaps.clear()
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
    size = thermo.BLOCK_ENTRIES // g.n_edges  # 6 points of 2 584 edges
    blocks = -(-len(curve) // size)
    assert len(curve) == 101 and size == 6 and blocks == 17
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


# (instance, schedule) per sweep: the four report automata at k = 6, the
# builtins (two-loops-path reaches the squaring stage), a 200-state system
# swept in 15 blocks of 7 points, and two schedules that start above 0
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
    blocks = -(-len(betas) // max(1, thermo.BLOCK_ENTRIES // g.n_edges))
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
        # the predictor reaches across block edges
        assert g.n_states == 200 and blocks >= 3, blocks


def test_block_pass_rejects_a_zero_right_entry(monkeypatch, tmp_path):
    # an exact 0 in one point's right Perron vector makes log r -inf and
    # that row's defect inf or NaN: the block pass must raise ConvergenceError
    # (exit 3), as equilibrium_state does, not the measure's ValueError
    solve = pressure.perron
    solved = []

    def zeroed(f, **kw):
        data = solve(f, **kw)
        solved.append(data)
        if len(solved) != 4:
            return data
        right = data.right.copy()
        right[1] = 0.0
        return dataclasses.replace(data, right=right)

    monkeypatch.setattr(pressure, "perron", zeroed)
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
