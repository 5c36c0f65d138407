"""Large-damping limit of the pressure.

For a nonnegative damping weight a and a reference potential phi, the
curve beta -> Pr(phi - beta a) + beta a0, with a0 the minimal average of
a, decreases monotonically from Pr(phi) down to the pressure of phi
restricted to the critical edge set (the subsystem where the damping
average cannot be beaten).  This module computes the curve together with
its equilibrium statistics, verifies the bracketing and monotonicity
properties, and locates the damping strength where the raw pressure
crosses zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import pressure
from .errors import ConvergenceError, InvariantViolation
from .ergopt import MinimizationResult, minimize
from .pressure import (PerronData, _equilibrium_rows, _require_irreducible,
                       pressure_transfer)
from .sft import (EdgePotential, TransitionGraph, _entropy_rows, _frozen_array,
                  _markov_rows)

SANDWICH_TOL = 1e-9
# bracket width of find_gap_beta's warm-started, certified Newton search
GAP_XTOL = 1e-6
# most points default_schedule builds; the CLI's default schedule has 101
MAX_SCHEDULE_POINTS = 10**6
# floor of a predicted Perron start's log entries (max entry 0): 2^-990 is
# a normal float, and the first power step's ratios (W x + x) / x, at most
# (out-degree + 1) / 2^-990, stay below the largest float, 2^1024
_LOG_FLOOR = -990 * np.log(2.0)
# most edge entries in a block of thermo_curve's points: a numpy call costs
# about what 10^3 entries of its work do, so the overhead stays a few percent,
# and the ten or so B x E arrays of a block stay near 1 MB
BLOCK_ENTRIES = 2**14


def default_schedule(beta_max: float = 40.0, step: float = 0.5) -> tuple:
    """Evenly spaced damping strengths 0, step, 2*step, ..., beta_max."""
    for name, value in (("beta_max", beta_max), ("step", step)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if step <= 0 or beta_max < 0:
        raise ValueError("need step > 0 and beta_max >= 0")
    # test the ratio as a float: it may overflow to inf, which int() rejects
    if beta_max / step + 1 > MAX_SCHEDULE_POINTS:
        raise ValueError(f"schedule would have {beta_max / step + 1:.3g} "
                         f"points, more than {MAX_SCHEDULE_POINTS}")
    count = int(round(beta_max / step))
    if abs(count * step - beta_max) > 1e-9:
        raise ValueError("beta_max must be a multiple of step")
    return tuple(n * step for n in range(count + 1))


def _check_schedule(betas):
    """Raise unless the 1-d array betas is finite, nonempty, strictly
    increasing and nonnegative."""
    if len(betas) == 0:
        raise ValueError("schedule is empty")
    if not np.isfinite(betas).all():
        raise ValueError("betas must be finite")
    if (np.diff(betas) <= 0).any():
        raise ValueError("betas must be strictly increasing")
    if betas[0] < 0:
        raise ValueError("damping strengths must be nonnegative")


@dataclass(frozen=True)
class ThermoCurve:
    """Pressure curve over a damping schedule, with the equilibrium
    statistics needed to audit it.

    values[k] = Pr(phi - betas[k] * a) + betas[k] * a0, in nats per step;
    limit_target is the restricted pressure the curve decreases toward;
    pressure_phi is the undamped pressure Pr(phi) bounding it above.
    """

    betas: np.ndarray
    values: np.ndarray
    eq_averages: np.ndarray     # damping average under the equilibrium state
    eq_entropies: np.ndarray
    eq_phi_averages: np.ndarray
    limit_target: float
    pressure_phi: float
    a0: float

    def __post_init__(self):
        arrays = {}
        for name in ("betas", "values", "eq_averages", "eq_entropies",
                     "eq_phi_averages"):
            arr = _frozen_array(getattr(self, name), float)
            if arr.ndim != 1 or not np.isfinite(arr).all():
                raise ValueError(f"{name} must be a finite 1-d array")
            arrays[name] = arr
        _check_schedule(arrays["betas"])
        if any(len(v) != len(arrays["betas"]) for v in arrays.values()):
            raise ValueError("curve arrays must share one length")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        for name in ("limit_target", "pressure_phi", "a0"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)

    def __len__(self):
        return len(self.betas)


def _minimum_and_limit(graph, a, phi, minimization):
    """The optimal average a0 and the pressure of phi on the critical edge
    set, read off the given minimization or computed by
    minimize(graph, a, phi)."""
    if minimization is None:
        minimization = minimize(graph, a, phi)
    if minimization.restricted_pressure is None:
        raise ValueError(
            "minimization carries no restricted pressure: pass "
            "minimize(graph, a, phi)"
        )
    return minimization.value, minimization.restricted_pressure


def _damped(phi, a, beta):
    """The potential phi - beta * a, built as one EdgePotential."""
    return EdgePotential(phi.graph, phi.values - beta * a.values)


def _predicted_start(older, newer, t):
    """Perron start vectors for the next point of a sweep: the log vectors
    (rows right, left) of two solved points extrapolated linearly, newer +
    t * (newer - older), t being the next step over the last one.  The max
    is subtracted before exp and the logs are floored at _LOG_FLOOR, so
    entries that exp would flush to 0 stay positive.  A zero entry in a
    solved vector can make the start non-finite; perron then starts cold."""
    log_x = newer + t * (newer - older)
    x = np.exp(np.maximum(log_x - log_x.max(axis=1, keepdims=True),
                          _LOG_FLOOR))
    return SimpleNamespace(right=x[0], left=x[1])


def thermo_curve(graph: TransitionGraph, a: EdgePotential,
                 phi: EdgePotential, betas=None, *,
                 minimization: MinimizationResult | None = None) -> ThermoCurve:
    """Compute the damped pressure curve over the schedule (default
    0..40 in steps of 1/2), one equilibrium state per point, in schedule
    order.  The schedule is checked before anything is solved.  The first
    point is solved cold and the second starts from the first's Perron
    vectors; every later point starts from their log-linear
    extrapolation through the two points before it (_predicted_start),
    since log of the Perron vectors becomes linear in beta as beta grows.
    The brackets enclose the root from any positive start, so the start
    changes only the step count.  Each block of solved points (at most
    BLOCK_ENTRIES edge entries, else one point) then gets the measures and
    statistics of equilibrium_state, integrate and ks_entropy in 2-d array
    operations.  When the schedule starts at 0, that point's solve also
    gives pressure_phi.

    minimization supplies a0 and the limit target: the value and
    restricted_pressure of minimize(graph, a, phi), for a caller that
    has already made that call.  When omitted, it is made here.
    """
    if a.min() < 0:
        raise ValueError("damping must be nonnegative")
    if betas is None:
        betas = default_schedule()
    betas = np.array([float(b) for b in betas])
    _check_schedule(betas)
    a0, limit_target = _minimum_and_limit(graph, a, phi, minimization)
    for f in (a, phi):
        _require_irreducible(graph, f)
    size = max(1, BLOCK_ENTRIES // graph.n_edges)
    rows, start, logs = [], None, []  # logs: log (right, left) per point
    for first in range(0, len(betas), size):
        fs = [_damped(phi, a, beta) for beta in betas[first:first + size]]
        solves, logs = [], logs[-2:]
        for k, f in enumerate(fs, first):
            if k >= 2:
                t = (betas[k] - betas[k - 1]) / (betas[k - 1] - betas[k - 2])
                start = _predicted_start(*logs[-2:], t)
            solves.append(start := pressure.perron(f, start=start))
            logs.append(np.log((start.right, start.left)))
        mass = _equilibrium_rows(graph, np.array([f.values for f in fs]), solves)
        rows += zip([d.log_rho + b * a0 for d, b in zip(solves, betas[first:])],
                    [a.values @ m for m in mass],
                    _entropy_rows(mass, _markov_rows(graph, mass)[1]),
                    [phi.values @ m for m in mass])
        del fs, f, mass  # before the next block takes its own
    values, avgs, ents, phis = map(np.array, zip(*rows))
    # the cold solve of phi itself, when the schedule starts at 0
    pressure_phi = (values[0] if betas[0] == 0
                    else pressure_transfer(graph, phi).value)
    return ThermoCurve(betas, values, avgs, ents, phis,
                       limit_target, pressure_phi, a0)


def _check_tol(tol):
    """Raise unless the audit tolerance tol is finite and positive."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def verify_limit(curve: ThermoCurve, tol: float = 1e-6):
    """Audit the curve.  Checks, in order: every value sits above the
    restricted pressure and below the undamped pressure (1e-9 slack), the
    values never increase (1e-9 slack), equilibrium damping averages never
    drop below the optimal average (1e-9 slack), and the final value is
    within tol of the limit target.

    Returns (ok, diagnostics); diagnostics pins the first failing check
    and always carries the extreme margins.  tol must be finite and > 0.
    """
    _check_tol(tol)
    lower_margin = float((curve.values - curve.limit_target).min())
    upper_margin = float((curve.pressure_phi - curve.values).min())
    steps = np.diff(curve.values)
    worst_step = float(steps.max()) if len(steps) else 0.0
    avg_margin = float((curve.eq_averages - curve.a0).min())
    final_gap = float(abs(curve.values[-1] - curve.limit_target))
    diag = {
        "failed_check": None,
        "lower_margin": lower_margin,
        "upper_margin": upper_margin,
        "worst_monotone_step": worst_step,
        "average_margin": avg_margin,
        "final_gap": final_gap,
        "tol": tol,
    }

    def fail(name, detail):
        diag["failed_check"] = name
        diag["detail"] = detail
        return False, diag

    if lower_margin < -SANDWICH_TOL:
        k = int(np.argmin(curve.values - curve.limit_target))
        return fail("lower-bracket",
                    f"value {curve.values[k]!r} at beta={curve.betas[k]!r} "
                    f"below target {curve.limit_target!r}")
    if upper_margin < -SANDWICH_TOL:
        k = int(np.argmax(curve.values))
        return fail("upper-bracket",
                    f"value {curve.values[k]!r} at beta={curve.betas[k]!r} "
                    f"above Pr(phi) {curve.pressure_phi!r}")
    if worst_step > SANDWICH_TOL:
        k = int(np.argmax(steps))
        return fail("monotone",
                    f"value rises by {steps[k]!r} between "
                    f"beta={curve.betas[k]!r} and {curve.betas[k + 1]!r}")
    if avg_margin < -SANDWICH_TOL:
        k = int(np.argmin(curve.eq_averages))
        return fail("average-floor",
                    f"equilibrium average {curve.eq_averages[k]!r} at "
                    f"beta={curve.betas[k]!r} below optimum {curve.a0!r}")
    if final_gap > tol:
        return fail("limit-gap",
                    f"final value misses the target by {final_gap!r} > {tol!r}")
    return True, diag


def measure_convergence(curve: ThermoCurve, tol: float = 1e-6) -> dict:
    """Equilibrium-statistics report: how close the damping averages are
    to the optimal average at the end of the schedule, with the entropy
    sequence attached for inspection.

    Also asserts the variational lower bound

        h_KS(mu_beta) + avg(phi, mu_beta) >= values[k]

    at every point (it underlies the curve's bracketing), raising
    InvariantViolation if it is breached beyond 1e-9 * (1 + beta)."""
    _check_tol(tol)
    margin = (curve.eq_entropies + curve.eq_phi_averages) - curve.values
    slack = SANDWICH_TOL * (1.0 + curve.betas)
    if (margin < -slack).any():
        k = int(np.argmin(margin + slack))
        raise InvariantViolation(
            f"entropy {curve.eq_entropies[k]!r} plus potential average "
            f"{curve.eq_phi_averages[k]!r} falls below the curve value "
            f"{curve.values[k]!r} at beta={curve.betas[k]!r}"
        )
    final_gap = float(abs(curve.eq_averages[-1] - curve.a0))
    return {
        "beta_max": float(curve.betas[-1]),
        "final_average_gap": final_gap,
        "averages_converged": bool(final_gap <= tol),
        "tol": tol,
        "variational_margin_min": float(margin.min()),
        "eq_entropies": [float(h) for h in curve.eq_entropies],
    }


@dataclass(frozen=True)
class GapBracket:
    """Result of find_gap_beta: the root lies in [lo, hi), hi - lo <=
    GAP_XTOL, and at_hi is the PerronData of the solve that certified hi
    negative.  hi is 0.0 (lo too) when Pr(phi) is certified negative, and
    hi and at_hi are None when the pressure at beta_max is not."""

    lo: float
    hi: float | None
    at_hi: PerronData | None


def find_gap_beta(graph: TransitionGraph, a: EdgePotential,
                  phi: EdgePotential, beta_max: float = 80.0, *,
                  minimization: MinimizationResult | None = None) -> GapBracket:
    """Least damping strength at which the raw pressure Pr(phi - beta a)
    turns negative, located by warm-started Newton steps with certified
    signs: a point is negative only when Pr + enclosure < 0 and
    nonnegative only when Pr - enclosure >= 0, with the enclosure its
    Perron solve measured, and each solve starts from the previous one.

    The pressure is convex in beta with slope minus the equilibrium
    average of a, so Newton steps from lo = 0 stay left of the root; each
    stops GAP_XTOL/4 short of it, and once a step is below GAP_XTOL/2,
    the largest float x with x - lo <= GAP_XTOL is tried as the negative
    end hi.  A step leaving the bracket [lo, hi] is replaced by
    bisection; beta_max is solved only once a step passes it.  An
    undecided point other than beta_max raises ConvergenceError, so it
    is never a bracket end.

    The restricted pressure of phi on the critical edge set, the limit of
    the curve, must be negative for a crossing to exist; otherwise this
    raises.  Returns a GapBracket: the root is in [lo, hi), and at_hi is
    the solve that certified hi negative.

    minimization supplies the restricted pressure of minimize(graph, a,
    phi), for a caller that has already made that call; when omitted, it
    is made here.
    """
    if a.min() < 0:
        raise ValueError("damping must be nonnegative")
    if not np.isfinite(beta_max):
        raise ValueError(f"beta_max must be finite, got {beta_max!r}")
    if beta_max < 0:
        raise ValueError("beta_max must be nonnegative")
    _, target = _minimum_and_limit(graph, a, phi, minimization)
    if target >= 0:
        raise ValueError(
            f"restricted pressure {target!r} is nonnegative: the damped "
            "pressure stays above it for every strength, so no crossing "
            "exists"
        )
    _require_irreducible(graph, phi)

    lo, hi, at_hi = 0.0, beta_max, None
    at_lo = last = pressure.perron(_damped(phi, a, lo))
    if at_lo.log_rho + at_lo.enclosure < 0:
        return GapBracket(0.0, 0.0, at_lo)
    while not (at_hi is not None and hi - lo <= GAP_XTOL):
        # equilibrium edge weights at lo, up to a constant factor
        f = phi.values - lo * a.values
        w = (at_lo.left[graph.src] * np.exp(f - f.max())
             * at_lo.right[graph.dst])
        step = at_lo.log_rho * w.sum() / (w @ a.values)
        x = lo + step - GAP_XTOL / 4 if step >= GAP_XTOL / 2 else lo + GAP_XTOL
        while step < GAP_XTOL / 2 and x - lo > GAP_XTOL:  # sum rounded up
            x = float(np.nextafter(x, lo))
        if not lo < x < hi:
            x = 0.5 * (lo + hi) if at_hi is not None else beta_max
        last = pressure.perron(_damped(phi, a, x), start=last)
        if last.log_rho + last.enclosure < 0:
            hi, at_hi = x, last
        elif x == beta_max and at_hi is None:
            return GapBracket(float(lo), None, None)
        elif last.log_rho - last.enclosure >= 0:
            lo, at_lo = x, last
        else:
            raise ConvergenceError(f"pressure at beta={x!r} is within its "
                                   f"enclosure {last.enclosure!r} of zero")
    return GapBracket(float(lo), float(hi), at_hi)
