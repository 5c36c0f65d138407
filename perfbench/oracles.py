"""Independent checks of each job's output files.

The checks recompute what they compare against with plain numpy (dense
eigensolves, matrix powers, closed forms) from the inputs the workload
generated, never through thermopress.  Each check returns a list of
failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from jobs import GOLDEN

PRESSURE_TOL = 1e-10
CATMAP_ENTROPY = math.log((3.0 + math.sqrt(5.0)) / 2.0)
CATMAP_PARTITION = ((1, 1, 1), (1, 1, 0), (1, 1, 1))
BETA_STAR_BACKOFF = 2e-6
WAVE_GAP_TOL = 1e-9
WAVE_RATE_TOL = 1e-3


def dense_log_radius(allowed, f) -> float:
    """log of the spectral radius of allowed * exp(f), by a dense eigensolve."""
    L = np.where(allowed, np.exp(np.where(allowed, f, 0.0)), 0.0)
    return float(np.log(np.abs(np.linalg.eigvals(L)).max()))


def periodic_estimate(allowed, f, T) -> float:
    """(1/T) log trace(L^T) with L scaled by its spectral radius first, so
    the matrix power neither overflows nor underflows."""
    log_rho = dense_log_radius(allowed, f)
    L = np.where(allowed, np.exp(np.where(allowed, f, 0.0) - log_rho), 0.0)
    return math.log(np.trace(np.linalg.matrix_power(L, T))) / T + log_rho


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(name, got, want, tol):
    if got is None or not abs(got - want) <= tol:
        return [f"{name}: got {got!r}, expected {want!r} (tol {tol:g})"]
    return []


def _reference_pressure(spec) -> tuple:
    """Pressure of phi from the dense eigensolve, checked against the
    closed form where the spec has one."""
    failures = []
    if spec.get("allowed") is None:
        return spec["closed_form"], failures
    value = dense_log_radius(spec["allowed"], spec["phi"])
    if spec.get("closed_form") is not None:
        failures += _close("dense eigensolve vs closed form", value,
                           spec["closed_form"], 1e-12)
    return value, failures


def check_pressure(spec, out: Path) -> list:
    expected, failures = _reference_pressure(spec)
    transfer = json.loads((out / "transfer.json").read_text())
    failures += _close("transfer value", transfer["value"], expected,
                       PRESSURE_TOL)
    last = _rows(out / "periodic_orbits.csv")[-1]
    T = int(last["T"])
    failures += _close(f"periodic-orbit estimate at T={T}",
                       float(last["estimate"]),
                       periodic_estimate(spec["allowed"], spec["phi"], T),
                       PRESSURE_TOL)
    return failures


def check_thermo(spec, out: Path) -> list:
    expected, failures = _reference_pressure(spec)
    verify = json.loads((out / "verify.json").read_text())
    if verify["failed_check"] not in (None, "limit-gap"):
        failures.append(f"verify.json failed_check {verify['failed_check']!r}")
    first = _rows(out / "thermo_curve.csv")[0]
    if float(first["beta"]) != 0.0:
        failures.append(f"curve starts at beta {first['beta']}, not 0")
    failures += _close("curve value at beta 0",
                       float(first["pressure_plus_beta_a0"]), expected,
                       PRESSURE_TOL)
    return failures


def refined_catmap(itinerary, order: int, strength: float):
    """Adjacency and damping of the cat-map coding refined to words of
    length order+1, damping zero on edges whose source word starts with
    an order-long cyclic window of the periodic itinerary."""
    words = [(s,) for s in range(3)]
    for _ in range(order):
        words = [w + (t,) for w in words for t in range(3)
                 if CATMAP_PARTITION[w[-1]][t]]
    index = {w: i for i, w in enumerate(words)}
    p = len(itinerary)
    windows = {tuple(itinerary[(t + i) % p] for i in range(order))
               for t in range(p)}
    n = len(words)
    allowed = np.zeros((n, n), dtype=bool)
    a = np.zeros((n, n))
    for i, w in enumerate(words):
        for t in range(3):
            if CATMAP_PARTITION[w[-1]][t]:
                j = index[w[1:] + (t,)]
                allowed[i, j] = True
                a[i, j] = 0.0 if w[:order] in windows else strength
    return allowed, a


def check_catmap(spec, out: Path) -> list:
    report = json.loads((out / "catmap_report.json").read_text())
    failures = []
    if report.get("undamped_set_is_orbit") is not True:
        failures.append("undamped_set_is_orbit is not true")
    failures += _close("entropy", report.get("entropy"), CATMAP_ENTROPY, 1e-10)
    beta_star = report.get("beta_star")
    if beta_star is None:
        return failures + ["no beta_star reported"]
    allowed, a = refined_catmap(report["orbit_itinerary"], spec["order"],
                                spec["strength"])
    if report.get("n_states") != allowed.shape[0]:
        failures.append(f"n_states {report.get('n_states')} != "
                        f"{allowed.shape[0]}")
        return failures
    phi = -math.log(GOLDEN)  # half the log expansion rate, negated
    at_star = dense_log_radius(allowed, phi - beta_star * a)
    before = dense_log_radius(allowed,
                              phi - (beta_star - BETA_STAR_BACKOFF) * a)
    if not at_star < 0:
        failures.append(f"dense pressure {at_star!r} at beta_star "
                        f"{beta_star!r} is not negative")
    if not before >= 0:
        failures.append(f"dense pressure {before!r} at beta_star - "
                        f"{BETA_STAR_BACKOFF:g} is negative")
    return failures


def check_wave(spec, out: Path) -> list:
    summary = json.loads((out / "wave_summary.json").read_text())
    failures = []
    c = spec.get("const")
    if c is not None:
        failures += _close("spectrum gap", summary["spectrum_gap"], c,
                           WAVE_GAP_TOL)
        failures += _close("fitted rate", summary["fitted_rate"], 2 * c,
                           WAVE_RATE_TOL)
    energies = [float(r["E"]) for r in _rows(out / "energy.csv")]
    rises = [k for k in range(1, len(energies))
             if energies[k] > energies[k - 1]]
    if rises:
        k = rises[0]
        failures.append(f"energy rises at sample {k}: {energies[k - 1]!r} "
                        f"-> {energies[k]!r}")
    growth = max(float(r["im_tau"]) for r in _rows(out / "spectrum.csv"))
    if growth > WAVE_GAP_TOL:
        failures.append(f"spectrum has a growing mode, Im tau = {growth!r}")
    return failures


CHECKS = {
    "pressure": check_pressure,
    "thermo": check_thermo,
    "catmap": check_catmap,
    "wave": check_wave,
}


def check(spec, out: Path) -> list:
    """Failure messages for the outputs of one job in directory `out`."""
    try:
        return CHECKS[spec["kind"]](spec, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
