"""Acceptance suite: one test per criterion, one verdict line each.

Each test prints `[acceptance] criterion N PASS/FAIL <label>` so the
verdicts are greppable from the captured output; tolerances are pinned
in the asserts.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from thermopress.ergopt import (
    min_average,
    noncontrolled_set,
    undamped_set,
)
from thermopress.catmap import orbit_damping_report
from thermopress.instances import (
    full2_instance,
    golden_mean_instance,
    two_loops_path_instance,
)
from thermopress.pressure import (
    equilibrium_state,
    pressure_bowen,
    pressure_periodic_orbits,
    pressure_transfer,
)
from thermopress.sft import (
    EdgePotential,
    golden_mean_shift,
    integrate,
    ks_entropy,
)
from thermopress.thermo import default_schedule, thermo_curve, verify_limit
from thermopress.wave import (
    build_system,
    evolve,
    fit_decay_rate,
    spectrum_gap,
)

from .oracles import (MarkovMeasure, edge_pairs, graph_from_mask,
                      mask_of_graph)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n} FAIL {label}")
        raise
    print(f"[acceptance] criterion {n} PASS {label}")


def _random_graph(rng, n, density=0.4):
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    for k in range(n):
        A[perm[k], perm[(k + 1) % n]] = True
    A |= rng.random((n, n)) < density
    return graph_from_mask(A)


def _potential(rng, g, lo=-1.0, hi=1.0):
    return EdgePotential.from_edges(
        g, {e: float(rng.uniform(lo, hi)) for e in g.edges()}
    )


def _simple_cycles(graph):
    succ = [graph.successors(i) for i in range(graph.n_states)]
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

    for s in range(graph.n_states):
        walk(s, [s], {s})
    return out


def _cycle_mean(a, cyc):
    total = 0.0
    for k in range(len(cyc)):
        total += a.value(cyc[k], cyc[(k + 1) % len(cyc)])
    return total / len(cyc)


# ---------------------------------------------------------------------------


def test_criterion_1_pressure_routes():
    with criterion(1, "pressure routes vs transfer oracle"):
        rng = np.random.default_rng(1001)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            g = _random_graph(rng, n)
            f = _potential(rng, g)
            ref = pressure_transfer(g, f).value
            per = pressure_periodic_orbits(g, f, 40).value
            bow = pressure_bowen(g, f, 40).value
            assert abs(per - ref) <= 0.1
            assert abs(bow - ref) <= 0.1
        g = golden_mean_shift()
        f = EdgePotential.constant(g, 0.0)
        for route in (pressure_periodic_orbits, pressure_bowen):
            got = route(g, f, 30).value
            assert abs(got - 0.481212) <= 0.05


def test_criterion_2_variational_principle():
    with criterion(2, "variational principle"):
        rng = np.random.default_rng(1002)
        instances = [golden_mean_instance()[::2], full2_instance()[::2]]
        for _ in range(3):
            n = int(rng.integers(2, 6))
            g = _random_graph(rng, n)
            instances.append((g, _potential(rng, g)))
        for g, f in instances:
            eq = equilibrium_state(g, f)
            pr = pressure_transfer(g, f).value
            attained = ks_entropy(eq.measure) + integrate(f, eq.measure)
            assert abs(attained - pr) <= 1e-9
            mask = mask_of_graph(g)
            for _ in range(100):
                P = np.where(mask, rng.random(mask.shape) + 0.02, 0.0)
                P /= P.sum(axis=1, keepdims=True)
                mu = MarkovMeasure.from_transitions(g, P)
                assert ks_entropy(mu) + integrate(f, mu) <= pr + 1e-9


def _canonical_masks_n4():
    """One representative adjacency mask per isomorphism class, all graphs
    on exactly 4 states, restricted to masks every state of which has an
    incoming and an outgoing edge."""
    masks = np.arange(1 << 16, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    grids = bits.reshape(-1, 4, 4)
    ok = grids.any(axis=2).all(axis=1) & grids.any(axis=1).all(axis=1)
    canon = np.full(len(masks), np.iinfo(np.int64).max, dtype=np.int64)
    weights = (1 << np.arange(16)).astype(np.int64)
    for perm in itertools.permutations(range(4)):
        p = np.array(perm)
        permuted = grids[:, p][:, :, p].reshape(-1, 16)
        vals = permuted.astype(np.int64) @ weights
        np.minimum(canon, vals, out=canon)
    keep = ok & (canon == masks)
    return [grids[i].astype(bool) for i in np.nonzero(keep)[0]]


def _dyadic(rng, g, zero_frac):
    vals = {}
    for e in g.edges():
        if rng.random() < zero_frac:
            vals[e] = 0.0
        else:
            vals[e] = float(rng.integers(1, 129)) / 64.0
    return EdgePotential.from_edges(g, vals)


def _critical_set_invariants(g, a):
    a0 = min_average(g, a)
    cycles = _simple_cycles(g)
    assert a0 == min(_cycle_mean(a, c) for c in cycles)
    K = edge_pairs(g, undamped_set(g, a))
    kset = set(K)
    # every invariant measure on K averages a to a0: equivalently every
    # simple cycle lying inside K has mean exactly a0
    for cyc in cycles:
        edges = [(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))]
        if all(e in kset for e in edges):
            assert _cycle_mean(a, cyc) == a0
    if a.min() >= 0 and a0 == 0.0:
        # the weight vanishes identically on the critical set
        for i, j in K:
            assert a.value(i, j) == 0.0
        assert kset <= set(edge_pairs(g, noncontrolled_set(g, a)))


def test_criterion_3_ergodic_optimization():
    with criterion(3, "minimum mean cycle and critical sets"):
        rng = np.random.default_rng(1003)
        # exact agreement with brute force on 50 random graphs
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = _random_graph(rng, n)
            a = _dyadic(rng, g, zero_frac=0.3)
            assert min_average(g, a) == min(
                _cycle_mean(a, c) for c in _simple_cycles(g)
            )
        # exhaustive shapes: every admissible graph on <= 3 states, plus
        # every isomorphism class on 4 states
        small = []
        for n in (1, 2, 3):
            for bits in itertools.product([0, 1], repeat=n * n):
                A = np.array(bits, dtype=bool).reshape(n, n)
                try:
                    small.append(graph_from_mask(A))
                except ValueError:
                    continue
        four = [graph_from_mask(A) for A in _canonical_masks_n4()]
        for g in small + four:
            a = _dyadic(rng, g, zero_frac=0.5)
            _critical_set_invariants(g, a)
        # strict inclusion on the dedicated builtin
        g, a, _ = two_loops_path_instance()
        K = set(edge_pairs(g, undamped_set(g, a)))
        N = set(edge_pairs(g, noncontrolled_set(g, a)))
        assert K < N


def test_criterion_4_thermo_limit():
    with criterion(4, "damped pressure limit"):
        g, a, phi = full2_instance()
        curve = thermo_curve(g, a, phi, default_schedule(30.0, 0.5))
        assert abs(curve.values[-1] - curve.limit_target) <= 1e-6
        ok, diag = verify_limit(curve, tol=1e-6)
        assert ok, diag
        assert abs(curve.eq_averages[-1] - curve.a0) <= 1e-6
        # sandwich and monotonicity on 100 random instances
        rng = np.random.default_rng(1004)
        betas = (0.0, 1.0, 2.0, 3.0, 4.0)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            g = _random_graph(rng, n)
            avals = {}
            for e in g.edges():
                avals[e] = (0.0 if rng.random() < 0.5
                            else float(rng.uniform(0.1, 1.5)))
            a = EdgePotential.from_edges(g, avals)
            phi = _potential(rng, g)
            c = thermo_curve(g, a, phi, betas)
            assert (c.values >= c.limit_target - 1e-9).all()
            assert (c.values <= c.pressure_phi + 1e-9).all()
            assert (np.diff(c.values) <= 1e-9).all()


def test_criterion_5_catmap_pipeline():
    with criterion(5, "torus-map orbit damping pipeline"):
        rep = orbit_damping_report(2.0 ** -4, beta_max=50.0)
        lam = 2.0 * math.log(GOLDEN)
        half = 0.5 * math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert half == pytest.approx(lam / 2, abs=1e-15)
        assert rep["refinement_order"] == 4
        assert rep["undamped_set_is_orbit"] is True
        assert len(rep["undamped_edges"]) == 1
        assert abs(rep["pressure_on_undamped"] - (-0.481212)) <= 1e-6
        assert abs(rep["pressure_undamped"] - 0.481212) <= 1e-6
        beta = rep["beta_star"]
        assert beta is not None and np.isfinite(beta)
        assert rep["pressure_at_beta_star"] < 0.0


def test_criterion_6_wave_spectral():
    with criterion(6, "wave spectrum and decay"):
        n, c = 256, 0.5
        sys_c = build_system(n, f"const:{c}")
        tau = sys_c.spectrum()
        assert abs(spectrum_gap(sys_c) - 0.5) <= 1e-6
        assert tau.imag.max() <= 1e-8
        assert tau.imag.min() >= -1.0 - 1e-8
        assert np.abs(tau).min() <= 1e-10  # tau = 0 present
        # generic low-mode data decays at twice the gap
        rng = np.random.default_rng(1006)
        x = sys_c.grid
        u0 = np.zeros(n)
        v0 = np.zeros(n)
        for k in range(1, 9):
            u0 += rng.uniform(-1, 1) / k * np.cos(k * x + rng.uniform(0, 2 * math.pi))
            v0 += rng.uniform(-1, 1) / k * np.cos(k * x + rng.uniform(0, 2 * math.pi))
        tr = evolve(sys_c, u0, v0, 60.0, 0.5 * sys_c.dx)
        rate = fit_decay_rate(tr, 15.0)
        assert abs(rate - 2.0 * spectrum_gap(sys_c)) <= 0.05 * 2.0 * spectrum_gap(sys_c)
        # undamped conservation over [0, 50]
        n2 = 4096
        sys_0 = build_system(n2, "const:0")
        tr0 = evolve(sys_0, np.sin(sys_0.grid), np.zeros(n2), 50.0, 1e-3,
                     sample_every=50)
        dev = np.abs(tr0.energies - tr0.energies[0]) / tr0.energies[0]
        assert dev.max() <= 1e-6


def _run_cli(args, out):
    return subprocess.run(
        [sys.executable, "-m", "thermopress", *args, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ),
    )


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical CLI reruns"):
        jobs = [
            ("p", ["pressure", "--builtin", "golden-mean", "--T-max", "25"]),
            ("w", ["wave", "--profile", "bump:3.14,1.0,0.5", "--n", "64",
                   "--t-end", "10"]),
            ("c", ["catmap", "--refine", "2", "--beta-max", "10"]),
        ]
        for tag, args in jobs:
            d1 = tmp_path / f"{tag}1"
            d2 = tmp_path / f"{tag}2"
            for d in (d1, d2):
                d.mkdir()
                r = _run_cli(args, d)
                assert r.returncode == 0, r.stderr
            names = sorted(p.name for p in d1.iterdir())
            assert names == sorted(p.name for p in d2.iterdir())
            assert names, "command wrote no files"
            for name in names:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (
                    tag, name
                )
