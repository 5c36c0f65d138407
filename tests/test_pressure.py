"""Three pressure routes against independent linear-algebra oracles."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from thermopress.errors import (
    NotIrreducibleError,
    ZeroMassError,
)
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
    MarkovMeasure,
    TransitionGraph,
    birkhoff_sum,
    enumerate_cycles,
    full_shift,
    golden_mean_shift,
    integrate,
    ks_entropy,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _random_instance(rng, n, lo=-1.0, hi=1.0):
    A = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    for k in range(n):
        A[perm[k], perm[(k + 1) % n]] = True
    A |= rng.random((n, n)) < 0.4
    g = TransitionGraph(A)
    vals = rng.uniform(lo, hi, size=(n, n))
    f = EdgePotential.from_edges(g, {e: float(vals[e]) for e in g.edges()})
    return g, f


def _eig_oracle(g, f):
    # dense spectral radius of the weighted matrix, computed independently
    L = np.where(g.allowed, np.exp(f.values), 0.0)
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
    g = TransitionGraph(np.array([[True]]))
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
        vals = rng.uniform(-1, 1, size=f.values.shape)
        h = EdgePotential.from_edges(g, {e: float(vals[e]) for e in g.edges()})
        mid = (f + h) * 0.5
        lhs = pressure_transfer(g, mid).value
        rhs = 0.5 * (pressure_transfer(g, f).value + pressure_transfer(g, h).value)
        assert lhs <= rhs + 1e-10


def test_transfer_requires_irreducible():
    g = TransitionGraph(np.array([[1, 1], [0, 1]], dtype=bool))
    with pytest.raises(NotIrreducibleError):
        pressure_transfer(g, EdgePotential.constant(g, 0.0))


def test_transfer_near_degenerate_top_pair():
    # two unit loops joined by heavily penalized bridges: the spectral gap
    # collapses and plain power iteration cannot resolve the split, so the
    # squaring stage must carry it
    g = full_shift(2)
    penalty = -30.0
    f = EdgePotential.from_edges(
        g, {(0, 0): 0.0, (0, 1): penalty, (1, 0): penalty, (1, 1): 0.0}
    )
    rep = pressure_transfer(g, f)
    L = np.array([[1.0, math.exp(penalty)], [math.exp(penalty), 1.0]])
    want = float(np.log(max(abs(np.linalg.eigvals(L)))))
    assert rep.value == pytest.approx(want, abs=1e-12)
    assert rep.value > 0.0  # strictly above log 1: the pair splits upward


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


def test_perron_eigenvectors():
    rng = np.random.default_rng(33)
    g, f = _random_instance(rng, 6)
    data = perron(f.log_matrix())
    L = np.where(g.allowed, np.exp(f.values), 0.0)
    lam = math.exp(data.log_rho)
    assert np.allclose(L @ data.right, lam * data.right, atol=1e-9)
    assert np.allclose(data.left @ L, lam * data.left, atol=1e-9)
    assert (data.right > 0).all() and (data.left > 0).all()


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
    g = TransitionGraph(np.array([[0, 1], [1, 0]], dtype=bool))
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
    assert rep.convention is not None


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
    closing = [max(f.values[i, j] for j in g.successors(i))
               for i in range(g.n_states)]
    terms = []
    for word in itertools.product(range(g.n_states), repeat=T):
        edges = list(zip(word, word[1:]))
        if all(g.allowed[e] for e in edges):
            terms.append(sum(f.values[e] for e in edges) + closing[word[-1]])
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
        P = np.where(g.allowed, rng.random((n, n)) + 0.02, 0.0)
        P /= P.sum(axis=1, keepdims=True)
        mu = MarkovMeasure.from_transitions(g, P)
        assert ks_entropy(mu) + integrate(f, mu) <= pr + 1e-9


def test_golden_mean_parry_measure():
    # zero potential: the equilibrium state is the measure of maximal
    # entropy, whose transition probability 0 -> 0 is 1/golden
    g = golden_mean_shift()
    eq = equilibrium_state(g, EdgePotential.constant(g, 0.0))
    P = eq.measure.transitions
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
        assert np.allclose(eq.measure.transitions[i], want, atol=1e-11)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_and_csv():
    rep = PressureReport("bowen", 0.5, 1e-3,
                         trace=((1, 0.4), (2, 0.45)), convention="x")
    obj = json.loads(rep.to_json())
    assert obj["method"] == "bowen"
    assert obj["value"] == 0.5
    assert obj["trace"] == [[1, 0.4], [2, 0.45]]
    csv = rep.trace_csv()
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
