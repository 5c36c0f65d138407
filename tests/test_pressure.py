"""Three pressure routes against independent linear-algebra oracles."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from thermopress import cli, pressure
from thermopress.errors import (
    ConvergenceError,
    NotIrreducibleError,
    ZeroMassError,
)
from thermopress.instances import catmap_instance, two_loops_path_instance
from thermopress.pressure import (
    PressureReport,
    _log_matmul,
    equilibrium_state,
    perron,
    pressure_bowen,
    pressure_periodic_orbits,
    pressure_transfer,
)
from thermopress.sft import (
    EdgePotential,
    TransitionGraph,
    full_shift,
    golden_mean_shift,
    integrate,
    ks_entropy,
)
from thermopress.ergopt import minimize
from thermopress.thermo import _damped, default_schedule, thermo_curve

from .oracles import (
    MarkovMeasure,
    birkhoff_sum,
    entropy_by_rows,
    enumerate_cycles,
    graph_from_mask,
    integrate_by_rows,
    log_matmul_masked,
    log_matvec_masked,
    mask_of_graph,
    thermo_curve_by_points,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _random_instance(rng, n, lo=-1.0, hi=1.0):
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    for k in range(n):
        A[perm[k], perm[(k + 1) % n]] = True
    A |= rng.random((n, n)) < 0.4
    g = graph_from_mask(A)
    vals = rng.uniform(lo, hi, size=(n, n))
    f = EdgePotential.from_edges(g, {e: float(vals[e]) for e in g.edges()})
    return g, f


def _eig_oracle(g, f):
    # dense spectral radius of the weighted matrix, computed independently
    L = np.exp(f.log_matrix())
    return float(np.log(max(abs(np.linalg.eigvals(L)))))


# ---------------------------------------------------------------------------
# transfer route


def test_transfer_full_shift_zero_potential():
    g = full_shift(2)
    rep = pressure_transfer(g, EdgePotential.constant(g, 0.0))
    assert rep.method == "transfer"
    assert rep.value == pytest.approx(math.log(2.0), rel=1e-13)


def test_transfer_golden_mean():
    g = golden_mean_shift()
    rep = pressure_transfer(g, EdgePotential.constant(g, 0.0))
    assert rep.value == pytest.approx(math.log(GOLDEN), rel=1e-13)


def test_transfer_matches_eigenvalue_oracle():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        g, f = _random_instance(rng, n, lo=-2.0, hi=2.0)
        rep = pressure_transfer(g, f)
        want = _eig_oracle(g, f)
        assert rep.value == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_transfer_single_state():
    g = graph_from_mask(np.array([[True]]))
    f = EdgePotential.constant(g, -0.7)
    assert pressure_transfer(g, f).value == pytest.approx(-0.7, abs=1e-14)


def test_transfer_translation_invariance():
    rng = np.random.default_rng(7)
    g, f = _random_instance(rng, 5)
    c = 1.37
    base = pressure_transfer(g, f).value
    shifted = pressure_transfer(g, f + EdgePotential.constant(g, c)).value
    assert shifted - base == pytest.approx(c, abs=1e-12)


def test_transfer_monotone_in_potential():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g, f = _random_instance(rng, 4)
        bump = {e: float(rng.uniform(0, 0.5)) for e in g.edges()}
        h = f + EdgePotential.from_edges(g, bump)
        assert pressure_transfer(g, h).value >= pressure_transfer(g, f).value - 1e-12


def test_transfer_midpoint_convexity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g, f = _random_instance(rng, 4)
        vals = rng.uniform(-1, 1, size=mask_of_graph(g).shape)
        h = EdgePotential.from_edges(g, {e: float(vals[e]) for e in g.edges()})
        mid = (f + h) * 0.5
        lhs = pressure_transfer(g, mid).value
        rhs = 0.5 * (pressure_transfer(g, f).value + pressure_transfer(g, h).value)
        assert lhs <= rhs + 1e-10


def test_transfer_requires_irreducible():
    g = graph_from_mask(np.array([[1, 1], [0, 1]], dtype=bool))
    with pytest.raises(NotIrreducibleError):
        pressure_transfer(g, EdgePotential.constant(g, 0.0))


def test_transfer_near_degenerate_top_pair(monkeypatch):
    # two unit loops joined by heavily penalized bridges: the split
    # 1 +- e^-25 stalls the plain power bracket, so the squaring stage must
    # carry it; the bridges differ, so the all-ones start is not already
    # the Perron vector
    calls = []
    squared = pressure._squared_power_stage

    def counting(*args, **kwargs):
        calls.append(1)
        return squared(*args, **kwargs)

    monkeypatch.setattr(pressure, "_squared_power_stage", counting)
    g = full_shift(2)
    f = EdgePotential.from_edges(
        g, {(0, 0): 0.0, (0, 1): -20.0, (1, 0): -30.0, (1, 1): 0.0}
    )
    rep = pressure_transfer(g, f)
    assert len(calls) == 1
    assert rep.value == pytest.approx(math.log1p(math.exp(-25.0)), abs=1e-14)
    assert rep.value > 0.0  # strictly above log 1: the pair splits upward

    # eigenvalues e^-s +- e^(-s/2): after scaling the largest entry to 1
    # the root is 0.004-0.007, too small for the +1 shift to resolve
    for s in (10.0, 11.0):
        f = EdgePotential.from_edges(
            g, {(0, 0): -s, (0, 1): 0.0, (1, 0): -s, (1, 1): -s}
        )
        want = math.log(math.exp(-s) + math.exp(-s / 2))
        assert pressure_transfer(g, f).value == pytest.approx(want, abs=1e-12)
        eq = equilibrium_state(g, f)
        assert eq.log_lambda == pytest.approx(want, abs=1e-12)


def _dense_log_matmul(A, B):
    # reference log-space product through the full n x n x n term tensor
    S = A[:, :, None] + B[None, :, :]
    M = S.max(axis=1)
    out = np.full(M.shape, -np.inf)
    finite = np.isfinite(M)
    if finite.any():
        with np.errstate(invalid="ignore"):
            T = np.exp(S - M[:, None, :])
        total = np.where(np.isfinite(S), T, 0.0).sum(axis=1)
        out[finite] = M[finite] + np.log(total[finite])
    return out


def _random_log_matrix(rng, shape, scale, density):
    X = rng.uniform(-scale, scale, size=shape)
    return np.where(rng.random(shape) < density, X, -np.inf)


def _assert_log_matmul_matches(A, B):
    got, want = _log_matmul(A, B), _dense_log_matmul(A, B)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    # relative to the operands: each term A_ik + B_kj carries their rounding
    size = max(1.0, *(np.abs(X[np.isfinite(X)]).max(initial=0.0)
                      for X in (A, B)))
    fin = np.isfinite(want)
    assert np.abs(got[fin] - want[fin]).max(initial=0.0) <= 1e-12 * size


def test_log_matmul_matches_dense_reference():
    rng = np.random.default_rng(808)
    for _ in range(60):
        n, k, m = (int(x) for x in rng.integers(1, 25, size=3))
        scale = float(10.0 ** rng.uniform(-1, 4))
        density = float(rng.uniform(0.05, 1.0))
        A = _random_log_matrix(rng, (n, k), scale, density)
        B = _random_log_matrix(rng, (k, m), scale, density)
        if n > 1:
            A[rng.integers(n)] = -np.inf  # an all -inf row
        _assert_log_matmul_matches(A, B)


def test_log_matmul_disjoint_supports_and_underflow():
    # A only reaches the first half, B only leaves the second half
    n = 8
    A = np.full((n, n), -np.inf)
    B = np.full((n, n), -np.inf)
    A[:, : n // 2] = 0.0
    B[n // 2:, :] = 0.0
    out = _log_matmul(A, B)
    assert np.isneginf(out).all()
    _assert_log_matmul_matches(A, B)
    # every path pairs a row maximum with a column minimum: the scaled
    # product underflows to zero, so the rows are recomputed exactly
    A = np.array([[0.0, -1000.0], [0.0, 0.0]])
    B = np.array([[-1000.0, -1000.0], [0.0, 0.0]])
    out = _log_matmul(A, B)
    assert out[0] == pytest.approx(-1000.0 + math.log(2.0), abs=1e-12)
    _assert_log_matmul_matches(A, B)


def test_log_matmul_memory_is_quadratic():
    n = 400
    rng = np.random.default_rng(909)
    A = _random_log_matrix(rng, (n, n), 1.0, 0.3)
    B = _random_log_matrix(rng, (n, n), 1.0, 0.3)
    A[:4, 0], A[:4, 1:] = 0.0, -1e4  # four rows that underflow
    B[0, :], B[1, :] = -1e4, 0.0
    tracemalloc.start()
    try:
        _log_matmul(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * n * n * 8


def _kernel_inputs(rng):
    """Operand pairs of three kinds: all finite, with -inf (non-edge)
    entries, and with rows built so the scaled product underflows."""
    finite, masked, underflow = [], [], []
    for _ in range(20):
        n, k, m = (int(x) for x in rng.integers(1, 30, size=3))
        scale = float(10.0 ** rng.uniform(-1, 2))
        finite.append((rng.uniform(-scale, scale, (n, k)),
                       rng.uniform(-scale, scale, (k, m))))
        A = _random_log_matrix(rng, (n, k), scale, rng.uniform(0.05, 0.9))
        B = _random_log_matrix(rng, (k, m), scale, rng.uniform(0.05, 0.9))
        A[rng.integers(n)] = -np.inf
        masked.append((A, B))
        A = rng.uniform(-1.0, 1.0, (n, k + 1))
        B = rng.uniform(-1.0, 1.0, (k + 1, m))
        # row 0 of A peaks on the column where B is smallest
        A[0, 0], A[0, 1:], B[0, :] = 0.0, -1e3, -1e3
        underflow.append((A, B))
    return finite, masked, underflow


def test_log_kernels_bit_identical_to_masked_formulas(monkeypatch):
    # the kernels skip the finiteness masks when no scaled product
    # underflows, and exp(-inf) = 0 replaces the masked matvec terms;
    # every result equals the masked formulas bit for bit
    rng = np.random.default_rng(2121)
    matvecs = []
    matvec = pressure._log_matvec

    def counting(A, x):
        matvecs.append(x)
        return matvec(A, x)

    monkeypatch.setattr(pressure, "_log_matvec", counting)
    for kind, pairs in zip(("finite", "masked", "underflow"),
                           _kernel_inputs(rng)):
        del matvecs[:]
        for A, B in pairs:
            got = _log_matmul(A, B)
            assert np.array_equal(got, log_matmul_masked(A, B)), kind
            for M, x in ((A, B[:, 0]), (B.T, A[0])):
                assert np.array_equal(matvec(M, x),
                                      log_matvec_masked(M, x)), kind
        # only the underflowing rows take the per-row fallback
        assert bool(matvecs) == (kind == "underflow"), kind


@pytest.mark.parametrize("name, t_max", [("full2", 20), ("golden-mean", 30),
                                         ("two-loops-path", 12)])
def test_builtin_traces_bit_identical_to_masked_formulas(
        monkeypatch, tmp_path, name, t_max):
    # the periodic-orbit and Bowen traces of `pressure --builtin` are
    # written byte for byte as with the masked kernels
    def traces(out):
        argv = ["pressure", "--builtin", name, "--T-max", str(t_max),
                "--out", str(out)]
        assert cli.main(argv) == 0
        return [(out / f).read_bytes()
                for f in ("periodic_orbits.csv", "bowen.csv")]

    lean = traces(tmp_path / "lean")
    monkeypatch.setattr(pressure, "_log_matmul", log_matmul_masked)
    monkeypatch.setattr(pressure, "_log_matvec", log_matvec_masked)
    assert traces(tmp_path / "masked") == lean


def test_perron_eigenvectors():
    rng = np.random.default_rng(33)
    g, f = _random_instance(rng, 6)
    data = perron(f)
    L = np.exp(f.log_matrix())
    lam = math.exp(data.log_rho)
    assert np.allclose(L @ data.right, lam * data.right, atol=1e-9)
    assert np.allclose(data.left @ L, lam * data.left, atol=1e-9)
    assert (data.right > 0).all() and (data.left > 0).all()


def _mp_log_rho(F, digits=60):
    """log of the Perron root of exp(F), -inf marking forbidden entries:
    the dense eigenpair of np.linalg.eig, refined by Newton's method on
    (A - lam) v = 0, sum(v) = 1 in `digits`-digit arithmetic; mpmath's
    own eigensolver where Newton does not settle on the Perron pair (a
    near-tied pair)."""
    with mpmath.workdps(digits):
        n = F.shape[0]
        A = mpmath.matrix(n, n)
        for i, j in zip(*np.nonzero(np.isfinite(F))):
            A[i, j] = mpmath.exp(mpmath.mpf(float(F[i, j])))
        vals, vecs = np.linalg.eig(np.exp(F))
        k = int(np.argmax(vals.real))
        lam = mpmath.mpf(float(vals[k].real))
        v = mpmath.matrix(list(vecs[:, k].real / vecs[:, k].real.sum()))
        for _ in range(3):  # quadratic convergence from double precision
            J = mpmath.matrix(n + 1, n + 1)
            rhs = mpmath.matrix(n + 1, 1)
            Av = A * v
            for i in range(n):
                for j in range(n):
                    J[i, j] = A[i, j] - (lam if i == j else 0)
                J[i, n] = -v[i]
                J[n, i] = 1
                rhs[i] = lam * v[i] - Av[i]
            rhs[n] = 1 - sum(v)
            step = mpmath.lu_solve(J, rhs)
            v += step[:n, 0]
            lam += step[n]
        # unconverged, or converged to a root with a vector that is not
        # positive (only the Perron vector is): solve the whole spectrum
        if abs(step[n]) > mpmath.mpf(10) ** (-digits // 2) or min(v) <= 0:
            lam = max(abs(e) for e in mpmath.eig(A, left=False, right=False))
        return mpmath.log(lam)


def test_perron_enclosure_covers_high_precision_error():
    # the reported enclosure is a measured bound: the error against a
    # 60-digit root never exceeds it, also for roots rho(W) < 0.1, where
    # the plain stage's bracket on rho(W) + 1 understates the one on log rho
    rng = np.random.default_rng(0)
    for _ in range(300):
        _, f = _random_instance(rng, int(rng.integers(3, 8)), -6.0, 6.0)
        F = f.log_matrix()
        data = perron(f)
        exact = _mp_log_rho(F)
        err = abs(mpmath.mpf(float(data.log_rho)) - exact)
        assert err <= data.enclosure, (F, err, data)
        rep = pressure_transfer(f.graph, f)
        assert abs(mpmath.mpf(rep.value) - exact) <= rep.tolerance, (F, rep)


def _recording_perron(monkeypatch):
    """Patch pressure.perron to keep every PerronData it returns, and
    _plain_power_stage to count its steps; returns (solves, steps)."""
    solves, steps = [], []
    perron_, plain = pressure.perron, pressure._plain_power_stage

    def recording(f, *args, **kw):
        solves.append(perron_(f, *args, **kw))
        return solves[-1]

    def counting(*args):
        out = plain(*args)
        steps.append(out[-1])
        return out

    monkeypatch.setattr(pressure, "perron", recording)
    monkeypatch.setattr(pressure, "_plain_power_stage", counting)
    return solves, steps


def _damping_sweep(graph, a, phi):
    betas = np.arange(0.0, 30.25, 0.5)
    return betas, [equilibrium_state(graph, phi - float(b) * a) for b in betas]


def test_stalled_bracket_hands_off_early(monkeypatch):
    # from beta = 4.5 the loops' split is too small for the plain stage to
    # converge within the 100 steps a 3-state graph gets, about what one
    # squaring solve costs there, and a stalled bracket hands on once a
    # window of CHECK_SPACING steps projects past them; a flat budget of
    # 5000 steps cost 80,521 plain steps over this sweep.  Each root is
    # checked against a 60-digit one within its own enclosure: the dense
    # eigensolve errs by up to 8e-12 on the near-tied points
    solves, steps = _recording_perron(monkeypatch)
    g, a, phi = two_loops_path_instance()
    betas, states = _damping_sweep(g, a, phi)
    assert sum(steps) <= 5_196
    for beta, data, eq in zip(betas, solves, states):
        assert data.stage == ("squaring" if beta >= 4.5 else "power"), beta
        exact = _mp_log_rho((phi - float(beta) * a).log_matrix())
        assert eq.log_lambda == data.log_rho
        assert abs(mpmath.mpf(data.log_rho) - exact) <= data.enclosure, beta


def test_plain_budget_follows_graph_size():
    # about one squaring solve in plain steps: 100 + n^2 / 10, fitted to
    # break-even rows measured at n = 3 to 120 (BENCH_21.json)
    budget = pressure._plain_budget
    sizes = range(1, 2000)
    assert all(budget(n) <= budget(n + 1) for n in sizes)
    assert (budget(1), budget(3), budget(30), budget(120)) == (100, 100,
                                                               190, 1540)
    assert budget(221) < pressure.PLAIN_BUDGET
    assert all(budget(n) == pressure.PLAIN_BUDGET
               for n in (222, 354, 377, 987, 6765, 10**6))


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_catmap_sweeps_unchanged_by_size_budget(monkeypatch, order):
    # the catmap CLI's warm sweep converges well inside the size-dependent
    # budget at every order: the flat PLAIN_BUDGET gives the same solves
    g, a, phi = catmap_instance(order)
    solves, _ = _recording_perron(monkeypatch)
    thermo_curve(g, a, phi, default_schedule(50.0, 0.5))
    sized = [(d.stage, d.iterations, d.log_rho) for d in solves]
    assert all(stage == "power" for stage, _, _ in sized)
    del solves[:]
    monkeypatch.setattr(pressure, "_plain_budget",
                        lambda n: pressure.PLAIN_BUDGET)
    thermo_curve(g, a, phi, default_schedule(50.0, 0.5))
    assert [(d.stage, d.iterations, d.log_rho) for d in solves] == sized


def _mp_collatz_wielandt(f, data, digits=40):
    """log of the two-sided Collatz-Wielandt bracket of L = e^f from the
    solve's own vectors, in `digits`-digit arithmetic: for any positive
    vectors it encloses log rho(L), so it tests the root independently of
    how the vectors were found, and is only as narrow as they are good."""
    g = f.graph
    with mpmath.workdps(digits):
        w = [mpmath.exp(mpmath.mpf(float(v))) for v in f.values]
        r = [mpmath.mpf(float(v)) for v in data.right]
        l = [mpmath.mpf(float(v)) for v in data.left]
        Lr = [mpmath.mpf(0)] * g.n_states
        lL = [mpmath.mpf(0)] * g.n_states
        for e, (i, j) in enumerate(zip(g.src.tolist(), g.dst.tolist())):
            Lr[i] += w[e] * r[j]
            lL[j] += l[i] * w[e]
        right = [p / q for p, q in zip(Lr, r)]
        left = [p / q for p, q in zip(lL, l)]
        return (float(mpmath.log(max(min(right), min(left)))),
                float(mpmath.log(min(max(right), max(left)))))


def test_tied_loops_sweeps_across_sizes(monkeypatch):
    # the size-dependent budget sends more tied points to the squaring
    # stage, each started from the power stage's vectors; every root
    # stays inside its enclosure of a 40-digit Collatz-Wielandt bracket.
    # (The dense eigensolve is no oracle here: on the near-tied pairs of
    # the 3- and 30-state sweeps it is off by up to 8e-12.)  The flat
    # budget of 5000 took 32,925 plain steps over these four sweeps.
    rng = np.random.default_rng(14)
    solves, steps = _recording_perron(monkeypatch)
    for n in (3, 10, 30, 120):
        g, a, phi = _tied_loops_instance(rng, n)
        del solves[:]
        thermo_curve(g, a, phi, default_schedule(30.0, 0.5))
        assert len(solves) == 61
        assert any(data.stage == "squaring" for data in solves), n
        for beta, data in zip(default_schedule(30.0, 0.5), solves):
            lo, hi = _mp_collatz_wielandt(_damped(phi, a, beta), data)
            assert hi - lo <= 1e-12, (n, beta)
            assert lo - data.enclosure <= data.log_rho, (n, beta)
            assert data.log_rho <= hi + data.enclosure, (n, beta)
    assert sum(steps) < 15_000


def test_two_loops_path_squaring_roots_inside_their_brackets(monkeypatch):
    # the warm sweep hands every point from beta = 6 on to the squaring
    # stage; each root lies inside its enclosure of the 40-digit
    # Collatz-Wielandt bracket of the vectors it returns
    solves, _ = _recording_perron(monkeypatch)
    g, a, phi = two_loops_path_instance()
    betas = default_schedule(30.0, 0.5)
    thermo_curve(g, a, phi, betas)
    squared = [(beta, data) for beta, data in zip(betas, solves)
               if data.stage == "squaring"]
    assert len(squared) == 49
    for beta, data in squared:
        lo, hi = _mp_collatz_wielandt(_damped(phi, a, beta), data)
        assert hi - lo <= 1e-12, beta
        assert lo - data.enclosure <= data.log_rho <= hi + data.enclosure, beta


def test_power_enclosure_is_measured_at_the_returned_step(monkeypatch):
    # the power stage forms its bracket only on some steps, and returns
    # only on one of them: the exact Collatz-Wielandt bracket of the
    # vectors it returns lies inside the reported enclosure, with no slack
    solves, perron_ = [], pressure.perron

    def recording(f, *args, **kw):
        solves.append((f, perron_(f, *args, **kw)))
        return solves[-1][1]

    monkeypatch.setattr(pressure, "perron", recording)
    rng = np.random.default_rng(14)
    sweeps = [(_tied_loops_instance(rng, n), 30.0, 0.5)
              for n in (3, 10, 30, 120)]
    sweeps += [(two_loops_path_instance(), 30.0, 0.5),
               (catmap_instance(6), 50.0, 1.0)]
    # a warm point's stage depends on the vectors the point before it
    # returned (the 3-state tied sweep's beta = 15 point goes to squaring),
    # so the order-3 cat-map sweep adds 51 solves that stay in this stage
    sweeps.append((catmap_instance(3), 50.0, 1.0))
    for (g, a, phi), beta_max, step in sweeps:
        thermo_curve(g, a, phi, default_schedule(beta_max, step))
    power = [(f, data) for f, data in solves if data.stage == "power"]
    assert len(power) > 230
    for f, data in power:
        lo, hi = _mp_collatz_wielandt(f, data)
        assert data.log_rho - data.enclosure <= lo, (f.graph.n_states, data)
        assert hi <= data.log_rho + data.enclosure, (f.graph.n_states, data)


def test_csr_matvec_kernel_adds_into_its_output():
    # each power step calls scipy's private csr_matvec kernel on
    # two_sided's arrays with y preset to v, and relies on it adding
    # diag(W, W^T) v into y; a scipy release that changes the kernel's
    # signature or its accumulation fails here, not inside a sweep
    rng = np.random.default_rng(17)
    graphs = [_random_instance(rng, int(rng.integers(1, 40)))[0]
              for _ in range(8)]
    graphs.append(catmap_instance(6)[0])
    eps = np.finfo(float).eps
    for g in graphs:
        ids = g.two_sided
        size = 2 * g.n_states
        data, v = rng.random(ids.nnz), rng.random(size)
        both = csr_matrix((data, ids.indices, ids.indptr), shape=ids.shape)
        want = v + both @ v
        rtol = (np.diff(ids.indptr).max() + 2) * eps
        for dtype in {ids.indices.dtype, ids.indptr.dtype, np.dtype(np.int64)}:
            y = v.copy()
            pressure.csr_matvec(size, size, ids.indptr.astype(dtype),
                                ids.indices.astype(dtype), data, v, y)
            np.testing.assert_allclose(y, want, rtol=rtol, atol=0)


def test_squaring_stage_starts_from_power_vectors(monkeypatch):
    # every power of H has H's Perron vectors, so any positive start
    # converges to the same root; a start from ones must agree within
    # both enclosures
    rng = np.random.default_rng(15)
    g, a, phi = _tied_loops_instance(rng, 30)
    two_loops = two_loops_path_instance()
    potentials = [_damped(phi, a, beta) for beta in (2.0, 5.0, 8.0)]
    potentials += [_damped(two_loops[2], two_loops[1], beta)
                   for beta in (7.0, 16.0, 30.0)]
    warm = [perron(f) for f in potentials]
    monkeypatch.setattr(pressure, "_log_start", lambda v: np.zeros(len(v)))
    ones = [perron(f) for f in potentials]
    for w, o in zip(warm, ones):
        assert w.stage == o.stage == "squaring"
        assert abs(w.log_rho - o.log_rho) <= w.enclosure + o.enclosure


def test_squaring_start_falls_back_to_ones():
    log_start = pressure._log_start
    v = np.array([0.25, 1.0, 1e-300])
    assert np.array_equal(log_start(v), np.log(v))
    for bad in (0.0, -0.5, np.nan, np.inf):
        w = v.copy()
        w[1] = bad
        assert np.array_equal(log_start(w), np.zeros(3)), bad


def _squaring_events(monkeypatch):
    """Patch the squaring stage's log-space products to log "S" for each
    squaring and "." for each matvec of a sweep (two per sweep; the
    matvecs that recompute underflowed rows of a square are not logged)."""
    events, squaring_now = [], []
    matmul, matvec = pressure._log_matmul, pressure._log_matvec

    def squaring(A, B):
        events.append("S")
        squaring_now.append(True)
        try:
            return matmul(A, B)
        finally:
            squaring_now.pop()

    def sweeping(A, x):
        if not squaring_now:
            events.append(".")
        return matvec(A, x)

    monkeypatch.setattr(pressure, "_log_matmul", squaring)
    monkeypatch.setattr(pressure, "_log_matvec", sweeping)
    return events


def test_squaring_stage_squares_in_runs(monkeypatch):
    # a squaring costs about SQUARING_BREAK_EVEN sweeps and doubles the
    # log contraction per sweep, so the stage squares until that many
    # sweeps are left.  Sweeping each power until its projection passed
    # the 60 sweeps it had left, at least twice per squaring, took 2,711
    # sweeps and 349 squarings on the two-loops-path sweep, and 5,980 and
    # 1,276 on the seed-14 tied-loops sweeps (1,828/364, 1,705/374,
    # 1,593/349 and 854/189 at n = 3, 10, 30, 120)
    events = _squaring_events(monkeypatch)
    g, a, phi = two_loops_path_instance()
    thermo_curve(g, a, phi, default_schedule(30.0, 0.5))
    assert events.count(".") // 2 <= 299
    assert events.count("S") <= 550
    del events[:]
    rng = np.random.default_rng(14)
    for n in (3, 10, 30, 120):
        g, a, phi = _tied_loops_instance(rng, n)
        thermo_curve(g, a, phi, default_schedule(30.0, 0.5))
    assert events.count(".") // 2 <= 702
    assert events.count("S") <= 1_599


def test_squaring_runs_count_towards_the_cap(monkeypatch):
    # the beta = 16 two-loops-path point squares 10 times in a row after
    # its first two sweeps; under a cap of 4 the run stops at the cap,
    # and the next power, still projecting too many sweeps, raises
    g, a, phi = two_loops_path_instance()
    f = _damped(phi, a, 16.0)
    events = _squaring_events(monkeypatch)
    assert perron(f).stage == "squaring"
    assert "".join(events).startswith("...." + "S" * 10 + ".")
    del events[:]
    monkeypatch.setattr(pressure, "MAX_SQUARINGS", 4)
    with pytest.raises(ConvergenceError, match="after 4 squarings"):
        perron(f)
    assert "".join(events) == "....SSSS...."


def test_catmap_plateau_stays_in_power_stage(monkeypatch):
    # catmap brackets sit near relative width 1 for hundreds of steps at
    # large beta before they converge; a stall test that fired there would
    # send every point to the O(n^3) squaring stage
    solves, _ = _recording_perron(monkeypatch)
    g, a, phi = catmap_instance(4)
    _damping_sweep(g, a, phi)
    assert len(solves) == 61
    assert all(data.stage == "power" for data in solves)


def test_catmap_power_stage_has_margin_under_stall_guard(monkeypatch):
    # the order-6 cat-map brackets stay wide until they collapse, so a ten
    # times looser guard leaves these solves untouched
    g, a, phi = catmap_instance(6)
    reference = [perron(_damped(phi, a, beta)) for beta in (0, 10, 30, 50)]
    assert [data.iterations for data in reference] == [29, 62, 149, 236]
    monkeypatch.setattr(pressure, "STALL_GUARD", 1e-2)
    for beta, ref in zip((0, 10, 30, 50), reference):
        data = perron(_damped(phi, a, beta))
        assert data.stage == ref.stage == "power", beta
        assert data.iterations == ref.iterations, beta
        assert data.log_rho == ref.log_rho, beta


def test_warm_sweep_stays_in_power_stage(monkeypatch):
    # each thermo_curve point starts from vectors predicted by the points
    # before it; a warm bracket starts narrow, and must not set off the
    # stall projection that would send a point to the O(n^3) squaring
    # stage.  The all-ones starts of the same sweep take about 30 000 steps.
    g, a, phi = catmap_instance(6)
    minimization = minimize(g, a, phi)
    solves, steps = _recording_perron(monkeypatch)
    curve = thermo_curve(g, a, phi, default_schedule(50.0, 0.5),
                         minimization=minimization)
    assert len(curve) == 101 and len(solves) == 101  # Pr(phi) is point 0
    assert all(data.stage == "power" for data in solves)
    assert sum(steps) < 12_000


def test_warm_start_enclosure_covers_high_precision_error():
    # a start from a nearby potential's vectors changes the step count,
    # not the bound: the bracket encloses the root from any positive start
    rng = np.random.default_rng(0)
    perturb = np.random.default_rng(1)
    for _ in range(300):
        _, f1 = _random_instance(rng, int(rng.integers(3, 8)), -6.0, 6.0)
        f2 = EdgePotential(f1.graph, f1.values
                           + perturb.uniform(-0.5, 0.5, f1.values.shape))
        data = perron(f2, start=perron(f1))
        exact = _mp_log_rho(f2.log_matrix())
        err = abs(mpmath.mpf(float(data.log_rho)) - exact)
        assert err <= data.enclosure, (f2.log_matrix(), err, data)


def test_unusable_start_is_a_cold_solve():
    rng = np.random.default_rng(4)
    g, f = _random_instance(rng, 12)
    cold = perron(f)
    n = g.n_states
    bad = []
    for k, v in ((0, 0.0), (3, -0.25), (5, np.nan), (7, np.inf)):
        vec = np.full(n, 1.0 / n)
        vec[k] = v
        bad += [dataclasses.replace(cold, right=vec),
                dataclasses.replace(cold, left=vec)]
    bad.append(dataclasses.replace(cold, right=np.ones(n + 1),
                                   left=np.ones(n + 1)))
    bad.append(dataclasses.replace(cold, right=np.ones(n - 1)))
    for start in bad:
        warm = perron(f, start=start)
        assert warm.log_rho == cold.log_rho
        assert warm.enclosure == cold.enclosure
        assert (warm.iterations, warm.stage) == (cold.iterations, cold.stage)
        assert np.array_equal(warm.right, cold.right)
        assert np.array_equal(warm.left, cold.left)


def _tied_loops_instance(rng, n):
    # a Hamiltonian cycle plus two random successors per state, and two
    # undamped self-loops sharing one base potential: at large beta the
    # top two eigenvalues of the damped matrix tie
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    A[perm, np.roll(perm, -1)] = True
    for i in range(n):
        A[i, rng.choice(n, size=2, replace=False)] = True
    loops = rng.choice(n, size=2, replace=False)
    A[loops, loops] = True
    g = graph_from_mask(A)
    damping = rng.uniform(0.5, 1.5, (n, n))
    base = rng.uniform(-1.0, 0.5, (n, n))
    damping[loops, loops] = 0.0
    base[loops, loops] = rng.uniform(-1.0, 0.0)
    mask = mask_of_graph(g)
    return g, EdgePotential(g, damping[mask]), EdgePotential(g, base[mask])


def test_warm_and_cold_enclosures_intersect_on_tied_loops():
    rng = np.random.default_rng(30)
    for n in (27, 30, 33):
        g, a, phi = _tied_loops_instance(rng, n)
        previous = None
        for beta in np.arange(0.0, 30.25, 0.5):
            f = _damped(phi, a, beta)
            cold = perron(f)
            warm = perron(f, start=previous)
            assert (abs(warm.log_rho - cold.log_rho)
                    <= warm.enclosure + cold.enclosure), (n, beta)
            previous = warm


@pytest.fixture(scope="module")
def equilibrium_sweeps():
    """The equilibrium states and Perron solves of thermo_curve's sweeps,
    one entry ((g, a, phi), states, solves) per sweep: the seed-14
    tied-loops instances (n = 3, 10, 30, 120) and the two-loops path at
    beta = 0..30, and catmap_instance(6) and (8) at beta = 0..50, in steps
    of 1/2, squaring-stage points among them.  The states are those of the
    per-point sweep, whose statistics thermo_curve's block pass gives bit
    for bit (test_thermo.py)."""
    rng = np.random.default_rng(14)
    sweeps = [(_tied_loops_instance(rng, n), 30.0) for n in (3, 10, 30, 120)]
    sweeps += [(two_loops_path_instance(), 30.0), (catmap_instance(6), 50.0),
               (catmap_instance(8), 50.0)]
    out = []
    with pytest.MonkeyPatch.context() as mp:
        solves, _ = _recording_perron(mp)
        for instance, beta_max in sweeps:
            states = []
            thermo_curve_by_points(*instance, default_schedule(beta_max, 0.5),
                                   states=states)
            out.append((instance, states, solves[:]))
            solves.clear()
    return out


def test_equilibrium_states_are_stationary_as_solved(equilibrium_sweeps):
    # equilibrium_state takes p = l r as the Perron solve returns it, and
    # MarkovMeasure enforces p P = p to STATIONARY_TOL = 1e-10; these
    # sweeps stay 100 times inside it
    states = [eq for _, eqs, _ in equilibrium_sweeps for eq in eqs]
    solves = [data for _, _, datas in equilibrium_sweeps for data in datas]
    assert len(states) == len(solves) == 5 * 61 + 2 * 101
    assert any(data.stage == "squaring" for data in solves)
    for eq in states:
        mu = eq.measure
        drift = mu.graph.column_sums(mu.mass) - mu.stationary
        assert np.abs(drift).max() <= 1e-12


def test_statistics_match_row_sum_formulas(equilibrium_sweeps):
    # integrate and ks_entropy are single dot products with the edge
    # mass; summed row by row over (stationary, transitions) instead,
    # the same sums differ only by roundoff (at most 4.6e-15 here)
    for (g, a, phi), states, _ in equilibrium_sweeps:
        for eq in states:
            mu = eq.measure
            for f in (a, phi):
                assert integrate(f, mu) == pytest.approx(
                    integrate_by_rows(f, mu), rel=0, abs=1e-14)
            assert ks_entropy(mu) == pytest.approx(
                entropy_by_rows(mu), rel=0, abs=1e-14)


def test_dense_routes_refuse_graphs_too_large_for_memory():
    # a 10^6-state cycle is cheap as edge arrays, but its dense log matrix
    # would need 8 TB; rho(W) ~ e^-50 < MIN_PLAIN_ROOT sends perron to the
    # squaring stage after ~100 plain steps (at e^-5 the bracket needs
    # ~2500 steps to show it), and neither route may try the allocation
    n = 10**6
    states = np.arange(n)
    g = TransitionGraph(n, states, (states + 1) % n)
    values = np.full(n, -50.0)
    values[0] = 0.0
    f = EdgePotential(g, values)
    with pytest.raises(ConvergenceError, match="1000000"):
        perron(f)
    with pytest.raises(ConvergenceError, match="1000000"):
        pressure_periodic_orbits(g, f, 2)


def _cycle_plus_successors(rng, n, extra):
    # a Hamiltonian cycle plus `extra` random successors per state
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    A[perm, np.roll(perm, -1)] = True
    for i in range(n):
        A[i, rng.choice(n, size=extra)] = True
    return A


_irreducible_graphs = dict(n=st.integers(3, 300), extra=st.integers(0, 3),
                           seed=st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**_irreducible_graphs)
def test_sparse_perron_matches_dense_eigvals(n, extra, seed):
    rng = np.random.default_rng(seed)
    A = _cycle_plus_successors(rng, n, extra)
    F = np.where(A, rng.uniform(-1.0, 1.0, (n, n)), -np.inf)
    data = perron(EdgePotential(graph_from_mask(A), F[A]))
    L = np.exp(F)
    want = float(np.log(np.abs(np.linalg.eigvals(L)).max()))
    assert data.log_rho == pytest.approx(want, abs=1e-10)
    lam = math.exp(data.log_rho)
    scale = np.abs(L @ data.right).max()
    assert np.abs(L @ data.right - lam * data.right).max() <= 1e-9 * scale


# ---------------------------------------------------------------------------
# periodic-orbit route


def test_periodic_full_shift_exact_at_every_length():
    # on the full shift the cycle sum at zero potential is n**T, so every
    # finite-T estimate equals log n exactly
    g = full_shift(3)
    rep = pressure_periodic_orbits(g, EdgePotential.constant(g, 0.0), 6)
    for T, est in rep.trace:
        assert est == pytest.approx(math.log(3.0), rel=1e-14)


def test_periodic_golden_mean_length_four():
    # closed walks of length 4 on the golden mean graph number
    # trace(A^4) = 7, so the estimate is log(7)/4
    g = golden_mean_shift()
    rep = pressure_periodic_orbits(g, EdgePotential.constant(g, 0.0), 4)
    assert rep.trace[-1] == (4, pytest.approx(math.log(7.0) / 4.0, rel=1e-14))


def test_periodic_matches_enumeration_and_trace_powers():
    # the log-space trace powers must match brute-force cycle sums over
    # enumerated cyclic words, and the eigenvalue oracle as T grows
    rng = np.random.default_rng(55)
    g, f = _random_instance(rng, 4)
    rep = pressure_periodic_orbits(g, f, 30)
    for T, est in rep.trace[:8]:
        sums = [birkhoff_sum(f, w) for w in enumerate_cycles(g, T)]
        want = math.log(math.fsum(math.exp(s) for s in sums)) / T
        assert est == pytest.approx(want, abs=1e-10)
    assert rep.value == pytest.approx(_eig_oracle(g, f), abs=0.1)


def test_periodic_zero_mass_odd_length():
    g = graph_from_mask(np.array([[0, 1], [1, 0]], dtype=bool))
    f = EdgePotential.constant(g, 0.0)
    with pytest.raises(ZeroMassError):
        pressure_periodic_orbits(g, f, 5)
    # even lengths carry mass: 2 closed walks of length 2
    rep = pressure_periodic_orbits(g, f, 6)
    assert rep.trace[-1] == (6, pytest.approx(math.log(2.0) / 6.0, rel=1e-13))


def test_periodic_requires_t_max_two():
    g = full_shift(2)
    with pytest.raises(ValueError):
        pressure_periodic_orbits(g, EdgePotential.constant(g, 0.0), 1)


# ---------------------------------------------------------------------------
# Bowen route


def test_bowen_full_shift_exact():
    # every word of length T closes with the same maximal weight 0, so the
    # Bowen sum is n**T exactly
    g = full_shift(2)
    rep = pressure_bowen(g, EdgePotential.constant(g, 0.0), 8)
    for T, est in rep.trace:
        assert est == pytest.approx(math.log(2.0), rel=1e-14)


def test_bowen_golden_mean_converges():
    g = golden_mean_shift()
    rep = pressure_bowen(g, EdgePotential.constant(g, 0.0), 30)
    assert rep.value == pytest.approx(math.log(GOLDEN), abs=0.05)
    # successive estimates tighten: compare first and last gaps to the truth
    errs = [abs(est - math.log(GOLDEN)) for _, est in rep.trace]
    assert errs[-1] < errs[1]


def test_bowen_word_count_oracle():
    # at zero potential the Bowen sum of length T counts admissible words
    # of length T (each word closes with weight 0 on the golden mean graph
    # only from state 0; state 1 closes with weight 0 too since its single
    # outgoing edge has weight 0), so Z_T = #words = fib-like count
    g = golden_mean_shift()
    f = EdgePotential.constant(g, 0.0)
    rep = pressure_bowen(g, f, 12)
    A = np.array([[1, 1], [1, 0]], dtype=float)
    for T, est in rep.trace:
        words = np.ones(2) @ np.linalg.matrix_power(A, T - 1) @ np.ones(2)
        assert est == pytest.approx(math.log(words) / T, rel=1e-12)


def _bowen_brute_force(g, f, T):
    # explicit sum over admissible words of length T: the T-1 interior
    # edges plus the largest outgoing weight of the final state
    closing = [max(f.value(i, j) for j in g.successors(i))
               for i in range(g.n_states)]
    allowed = mask_of_graph(g)
    terms = []
    for word in itertools.product(range(g.n_states), repeat=T):
        edges = list(zip(word, word[1:]))
        if all(allowed[e] for e in edges):
            terms.append(sum(f.value(*e) for e in edges) + closing[word[-1]])
    return math.log(math.fsum(math.exp(t) for t in terms)) / T


def test_bowen_enumeration_matches_matrix_branch():
    rng = np.random.default_rng(77)
    g, f = _random_instance(rng, 4)
    rep = pressure_bowen(g, f, 20)
    assert [T for T, _ in rep.trace] == list(range(1, 21))
    for T, est in rep.trace[:7]:
        assert est == pytest.approx(_bowen_brute_force(g, f, T), abs=1e-10)


def test_bowen_requires_t_max_two():
    g = full_shift(2)
    with pytest.raises(ValueError):
        pressure_bowen(g, EdgePotential.constant(g, 0.0), 1)


# ---------------------------------------------------------------------------
# three routes against each other (random instances)


def test_routes_agree_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g, f = _random_instance(rng, n)
        ref = pressure_transfer(g, f).value
        per = pressure_periodic_orbits(g, f, 40)
        bow = pressure_bowen(g, f, 40)
        assert per.value == pytest.approx(ref, abs=0.1)
        assert bow.value == pytest.approx(ref, abs=0.1)


# ---------------------------------------------------------------------------
# equilibrium states and the variational inequality


def test_equilibrium_achieves_pressure():
    rng = np.random.default_rng(303)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        g, f = _random_instance(rng, n)
        eq = equilibrium_state(g, f)
        val = ks_entropy(eq.measure) + integrate(f, eq.measure)
        assert val == pytest.approx(eq.log_lambda, abs=1e-9)


def test_no_measure_beats_pressure():
    # 100 random shift-invariant Markov measures on random graphs must all
    # satisfy h(mu) + mu(f) <= Pr(f) + 1e-9
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g, f = _random_instance(rng, n)
        pr = pressure_transfer(g, f).value
        P = np.where(mask_of_graph(g), rng.random((n, n)) + 0.02, 0.0)
        P /= P.sum(axis=1, keepdims=True)
        mu = MarkovMeasure.from_transitions(g, P)
        assert ks_entropy(mu) + integrate(f, mu) <= pr + 1e-9


def test_golden_mean_parry_measure():
    # zero potential: the equilibrium state is the measure of maximal
    # entropy, whose transition probability 0 -> 0 is 1/golden
    g = golden_mean_shift()
    eq = equilibrium_state(g, EdgePotential.constant(g, 0.0))
    P = dict(zip(g.edges(), eq.measure.transitions))
    assert P[0, 0] == pytest.approx(1.0 / GOLDEN, abs=1e-12)
    assert P[0, 1] == pytest.approx(1.0 / GOLDEN ** 2, abs=1e-12)
    assert P[1, 0] == pytest.approx(1.0, abs=1e-14)
    assert ks_entropy(eq.measure) == pytest.approx(math.log(GOLDEN), abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_equilibrium_large_pressure_does_not_overflow():
    # exp(800 + log 2) overflows a double; only its log is stored
    g = full_shift(2)
    eq = equilibrium_state(g, EdgePotential.constant(g, 800.0))
    assert eq.log_lambda == pytest.approx(800.0 + math.log(2.0), rel=1e-15)


def test_equilibrium_rejects_a_nan_row_defect(monkeypatch):
    # a zero entry in the right Perron vector, as an underflowed solve
    # gives, makes log r -inf and the row defect NaN, which compares false
    # with any bound: it must be a ConvergenceError, not a bad measure
    solve = pressure.perron

    def zeroed(f, **kw):
        data = solve(f, **kw)
        right = data.right.copy()
        right[0] = 0.0
        return dataclasses.replace(data, right=right)

    monkeypatch.setattr(pressure, "perron", zeroed)
    g = full_shift(2)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="off stochastic by nan"):
            equilibrium_state(g, EdgePotential.constant(g, 0.0))


def test_equilibrium_tied_loops_across_damping(monkeypatch):
    # two undamped self-loops of equal weight, joined through damped
    # edges: as beta grows the top two eigenvalues tie and the squaring
    # stage runs; its eigenvectors must still give stochastic rows, and
    # each root is within its own enclosure of a 60-digit one
    solves, _ = _recording_perron(monkeypatch)
    edges = [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 0.0), (1, 2, 1.0),
             (2, 2, 0.0), (2, 0, 1.0)]
    A = np.zeros((3, 3), dtype=bool)
    for i, j, _ in edges:
        A[i, j] = True
    g = graph_from_mask(A)
    a = EdgePotential.from_edges(g, {(i, j): w for i, j, w in edges})
    phi = EdgePotential.constant(g, 0.0)
    for beta in np.arange(0.0, 40.25, 0.5):
        f = phi - float(beta) * a
        eq = equilibrium_state(g, f)
        data = solves[-1]
        assert eq.log_lambda == data.log_rho
        err = abs(mpmath.mpf(data.log_rho) - _mp_log_rho(f.log_matrix()))
        assert err <= data.enclosure, beta
    assert any(data.stage == "squaring" for data in solves)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**_irreducible_graphs)
def test_edge_equilibrium_matches_dense_formulas(n, extra, seed):
    # the per-edge measure, entropy and average against the dense n x n
    # formulas P = diag(1/r) L diag(r) / lambda, p ~ l * r and
    # h = -sum_ij p_i P_ij log P_ij, on the state's own Perron data (the
    # solver is checked against eigvals above).  Rows are renormalized, as
    # in equilibrium_state's edge mass: the formula's row defect is the
    # eigenvector error, up to 4e-12 on 300-state pure cycles, whose
    # equilibrium is P = 1 exactly; np.linalg.eig's vectors miss it by as
    # much there
    rng = np.random.default_rng(seed)
    A = _cycle_plus_successors(rng, n, extra)
    g = graph_from_mask(A)
    f = EdgePotential(g, rng.uniform(-1.0, 1.0, g.n_edges))
    eq = equilibrium_state(g, f)
    r, left = eq.right, eq.left
    L = np.exp(f.log_matrix())
    P = np.diag(1.0 / r) @ L @ np.diag(r) / math.exp(eq.log_lambda)
    P /= P.sum(axis=1, keepdims=True)
    p = left * r / (left * r).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    h = -(p[:, None] * plogp).sum()
    average = (p[:, None] * P * np.where(A, f.log_matrix(), 0.0)).sum()
    mu = eq.measure
    assert np.abs(mu.transitions - P[A]).max() <= 1e-12
    assert np.abs(mu.stationary - p).max() <= 1e-12
    assert ks_entropy(mu) == pytest.approx(h, abs=1e-12)
    assert integrate(f, mu) == pytest.approx(average, abs=1e-12)


def test_damped_point_memory_is_per_edge():
    # one schedule point of the refine-7 cat-map sweep (2584 states, 6765
    # edges) stays in O(edges) memory: below one n x n byte mask
    g, a, phi = catmap_instance(7)
    tracemalloc.start()
    try:
        f = phi - 10.0 * a
        eq = equilibrium_state(g, f)
        ks_entropy(eq.measure)
        integrate(a, eq.measure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n_states ** 2


def test_full_shift_bernoulli_closed_form():
    # potential depending only on the target symbol gives the Bernoulli
    # measure p_j = e^{g_j} / sum e^{g}, with pressure log sum e^{g}
    g = full_shift(3)
    gvals = np.array([0.3, -0.8, 1.1])
    f = EdgePotential.from_edges(
        g, {(i, j): float(gvals[j]) for i in range(3) for j in range(3)}
    )
    eq = equilibrium_state(g, f)
    Z = np.exp(gvals).sum()
    assert eq.log_lambda == pytest.approx(math.log(Z), rel=1e-13)
    want = np.exp(gvals) / Z
    assert np.allclose(eq.measure.stationary, want, atol=1e-11)
    for i in range(3):
        assert np.allclose(eq.measure.transitions.reshape(3, 3)[i], want,
                           atol=1e-11)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_and_csv(tmp_path):
    # written as cmd_pressure writes transfer.json and the trace CSVs
    rep = PressureReport("bowen", 0.5, 1e-3, trace=((1, 0.4), (2, 0.45)))
    obj = json.loads(json.dumps(cli._round12(dataclasses.asdict(rep))))
    assert obj["method"] == "bowen"
    assert obj["value"] == 0.5
    assert obj["trace"] == [[1, 0.4], [2, 0.45]]
    cli._write_csv(tmp_path, "trace.csv", ("T", "estimate"), rep.trace)
    csv = (tmp_path / "trace.csv").read_bytes().decode()
    assert csv.splitlines()[0] == "T,estimate"
    assert csv.splitlines()[1] == "1,0.4"
    assert csv.endswith("\n")


def test_report_validates():
    with pytest.raises(ValueError):
        PressureReport("magic", 0.0, 1e-3)
    with pytest.raises(ValueError):
        PressureReport("bowen", float("nan"), 1e-3, trace=((1, 0.1),))
    with pytest.raises(ValueError):
        PressureReport("bowen", 0.0, 1e-3)  # finite-T method needs a trace
