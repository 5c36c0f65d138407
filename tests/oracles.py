"""Brute-force oracles for the tests: explicit enumeration of cyclic
words with their Birkhoff sums, Markov measures built from a dense
transition matrix by plain power iteration, edge averages and entropy
summed row by row over (stationary, transitions), Karp's min-mean-cycle
recurrence with its dense table, the conversions between a graph
and its dense 0-1 adjacency matrix and from edge ids to (i, j) pairs,
the log-space matrix products with
their finiteness masks formed on every call, the damped-wave leapfrog written
with np.roll, the cat-map cell classifier that decides every
candidate cell exactly, and the words of a refinement decoded from its
base-3 state codes, and the damped pressure sweep taken one
equilibrium state at a time.  None of this is on a library path; the
library computes the same quantities from matrix powers and Perron
vectors, steps the wave with slice stencils into preallocated arrays,
rules out far cells in floats before deciding the rest exactly, and
takes the sweep's statistics a block of points at a time."""

from types import SimpleNamespace

import numpy as np
from scipy.sparse.csgraph import connected_components

from thermopress import ergopt, pressure, sft, thermo
from thermopress.catmap import _CELLS, GOLDEN, Qs5, _reduction_candidates
from thermopress.errors import (ConvergenceError, InvariantViolation,
                                ThermopressError)
from thermopress.ergopt import minimize
from thermopress.pressure import (_UNDERFLOW, EquilibriumState,
                                  pressure_transfer)
from thermopress.sft import CyclicWord, EdgePotential, TransitionGraph
from thermopress.thermo import _LOG_FLOOR, ThermoCurve

# Default cap on n_states**T for explicit word enumeration.
ENUMERATION_CAP = 10_000_000
# stopping step and step limit of MarkovMeasure.from_transitions
STATIONARY_STEP_TOL = 1e-13
STATIONARY_MAX_STEPS = 200_000


def graph_from_mask(A) -> TransitionGraph:
    """The graph whose edges are the True entries of a square 0-1 matrix."""
    A = np.asarray(A, dtype=bool)
    return TransitionGraph(A.shape[0], *np.nonzero(A))


def mask_of_graph(graph) -> np.ndarray:
    """Dense 0-1 adjacency matrix of a graph; inverse of graph_from_mask."""
    A = np.zeros((graph.n_states, graph.n_states), dtype=bool)
    A[graph.src, graph.dst] = True
    return A


def edge_pairs(graph, ids) -> tuple:
    """The sorted tuple of (i, j) pairs of strictly ascending edge ids, the
    form the cycle-enumerating oracles give edge sets in; ids that are not
    strictly ascending are an error, so the comparison also checks order."""
    ids = np.asarray(ids)
    if (ids.ndim != 1 or ids.dtype.kind not in "iu"
            or np.any(np.diff(ids) <= 0)):
        raise AssertionError(f"not strictly ascending edge ids: {ids!r}")
    return tuple(zip(graph.src[ids].tolist(), graph.dst[ids].tolist()))


class EnumerationCapError(ThermopressError):
    """Word enumeration would exceed the configured cap."""


class MarkovMeasure(sft.MarkovMeasure):
    """sft.MarkovMeasure plus a constructor from a dense matrix."""

    @classmethod
    def from_transitions(cls, graph, P):
        """Stationary distribution by averaged power iteration on P^T.

        P is a dense row-stochastic n x n matrix with a unique stationary
        vector (e.g. irreducible on its support) and no mass on forbidden
        pairs; the measure's edge mass is p_i P_ij on the graph's edges,
        in edge order, so rows of P that are not stochastic show up as a
        total or a column marginal that the measure refuses.
        """
        P = np.asarray(P, dtype=float)
        if (P[~mask_of_graph(graph)] != 0).any():
            raise ValueError("transition mass on a forbidden edge")
        p = np.full(graph.n_states, 1.0 / graph.n_states)
        for _ in range(STATIONARY_MAX_STEPS):
            # (P + I)/2 damps periodicity without moving the fixed point
            nxt = 0.5 * (p @ P + p)
            nxt /= nxt.sum()
            if np.abs(nxt - p).max() <= STATIONARY_STEP_TOL:
                p = nxt
                break
            p = nxt
        return cls(graph, p[graph.src] * P[graph.src, graph.dst])


def integrate_by_rows(f: EdgePotential, mu: sft.MarkovMeasure) -> float:
    """Edge average sum_i p_i sum_j P_ij f_ij, one row sum per state."""
    return float(mu.stationary @ mu.graph.row_sums(mu.transitions * f.values))


def entropy_by_rows(mu: sft.MarkovMeasure) -> float:
    """Entropy rate -sum_i p_i sum_j P_ij log P_ij, one row sum per state,
    with 0 log 0 = 0 and a negative roundoff residue clamped to 0."""
    P = mu.transitions
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    return max(-float(mu.stationary @ mu.graph.row_sums(plogp)), 0.0)


def enumerate_cycles(graph: TransitionGraph, length: int,
                     cap: int = ENUMERATION_CAP) -> list[CyclicWord]:
    """All cyclically admissible words of exactly the given length.

    Each rotation is listed once per starting index, so the count equals
    trace(A**length) for the 0-1 adjacency A.  Raises EnumerationCapError
    when n_states**length exceeds the cap.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n = graph.n_states
    if n ** length > cap:
        raise EnumerationCapError(
            f"enumeration too large: {n}**{length} exceeds cap {cap}"
        )
    succ = [graph.successors(i) for i in range(n)]
    allowed = mask_of_graph(graph)
    out = []
    word = [0] * length

    def extend(pos, start):
        if pos == length:
            if allowed[word[-1], start]:
                out.append(CyclicWord(graph, tuple(word)))
            return
        for j in succ[word[pos - 1]]:
            word[pos] = j
            extend(pos + 1, start)

    for s in range(n):
        word[0] = s
        extend(1, s)
    return out


def birkhoff_sum(f: EdgePotential, word: CyclicWord) -> float:
    """Sum of f over the cycle's edges, wrap-around included."""
    if not f.graph.same_graph(word.graph):
        raise ValueError("potential and word live on different graphs")
    return float(sum(f.values[f.graph.edge_id(i, j)] for i, j in word.edges()))


def karp_min_mean(graph: TransitionGraph, a: EdgePotential) -> float:
    """Minimum mean cycle weight by Karp's recurrence, run on each strongly
    connected component that has an edge.

    d[k, v] = least weight of a walk with exactly k edges from the
    component's first state to v; the component's answer is min over v of
    max over k of (d[m, v] - d[k, v]) / (m - k).  The table takes
    (m + 1) x m floats for an m-state component.
    """
    _, labels = connected_components(graph.adjacency(), directed=True,
                                     connection="strong")
    best = np.inf
    for comp in np.unique(labels):
        nodes = np.flatnonzero(labels == comp)
        inside = (labels[graph.src] == comp) & (labels[graph.dst] == comp)
        if not inside.any():
            continue
        s = np.searchsorted(nodes, graph.src[inside])
        t = np.searchsorted(nodes, graph.dst[inside])
        w = a.values[inside]
        m = nodes.size
        d = np.full((m + 1, m), np.inf)
        d[0, 0] = 0.0
        for k in range(1, m + 1):
            reach = np.isfinite(d[k - 1, s])
            np.minimum.at(d[k], t[reach], d[k - 1, s[reach]] + w[reach])
        # an infinite d[k, v] gives -inf, which never wins the max over k
        cols = np.isfinite(d[m])
        steps = (m - np.arange(m))[:, None]
        worst = ((d[m, cols] - d[:m, cols]) / steps).max(axis=0)
        best = min(best, worst.min())
    return float(best)


def evolve_by_roll(system, u0, v0, t_end, dt, sample_every=1):
    """The leapfrog of wave.evolve with np.roll stencils and fresh arrays
    each step, no validation and no instability guard; returns (times,
    energies, u, vbar) as arrays."""
    a, dx = system.damping, system.dx

    def lap(u):
        return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / dx ** 2

    def grad(u):
        return (np.roll(u, -1) - u) / dx

    def bracket(u, v):
        g = grad(u)
        return 0.5 * dx * (v @ v + g @ (g + dt * grad(v)))

    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    steps = int(round(t_end / dt))
    dec, inc = 1.0 - a * dt, 1.0 / (1.0 + a * dt)
    vh = v + 0.5 * dt * (lap(u) - 2.0 * a * v)
    times, energies = [0.0], [bracket(u, vh)]
    vbar = v
    for m in range(1, steps + 1):
        u = u + dt * vh
        vnext = (vh * dec + dt * lap(u)) * inc
        vbar = 0.5 * (vh + vnext)
        e = bracket(u, vnext)
        vh = vnext
        if m % sample_every == 0 or m == steps:
            times.append(m * dt)
            energies.append(e)
    return np.array(times), np.array(energies), u, vbar


def classify_exact(x, y):
    """Cell index of (x, y) by exact arithmetic on all 25 lattice
    candidates times 3 cells, with no float pruning; verifies the
    translate into the fundamental domain is unique."""
    U = GOLDEN * x + Qs5(y)
    S = Qs5(x) - GOLDEN * y
    hits = []
    for m, n in _reduction_candidates(float(U), float(S)):
        u = U - GOLDEN * m - Qs5(n)
        s = S - Qs5(m) + GOLDEN * n
        for c, (ulo, uhi, slo, shi) in enumerate(_CELLS):
            if ulo <= u and u < uhi and slo <= s and s < shi:
                hits.append((c, m, n))
    if len(hits) != 1:
        raise InvariantViolation(
            f"point ({x}, {y}) hit {len(hits)} rectangles; tiling broken"
        )
    return hits[0][0]


def refinement_words(ref) -> list:
    """The words of a SymbolicRefinement's states, in state order: each
    base-3 code read back into order+1 symbols, most significant first."""
    powers = 3 ** np.arange(ref.order, -1, -1, dtype=np.int64)
    return [tuple(w) for w in (ref.codes[:, None] // powers % 3).tolist()]


def log_matmul_masked(A, B):
    """out_ij = lse_k(A_ik + B_kj) as the scaled BLAS product, with the
    -inf entries read off the product of the finiteness masks and the
    entries whose scaled product underflows recomputed one row at a time,
    masks formed on every call."""
    finite_a, finite_b = np.isfinite(A), np.isfinite(B)
    reach = (finite_a.astype(float) @ finite_b.astype(float)) > 0
    r = A.max(axis=1, keepdims=True)
    c = B.max(axis=0, keepdims=True)
    r[~np.isfinite(r)] = 0.0
    c[~np.isfinite(c)] = 0.0
    P = np.exp(A - r) @ np.exp(B - c)
    out = np.full(P.shape, -np.inf)
    resolved = reach & (P > _UNDERFLOW)
    with np.errstate(divide="ignore"):
        out[resolved] = (np.log(P) + r + c)[resolved]
    for i in np.flatnonzero((reach & ~resolved).any(axis=1)):
        out[i] = log_matvec_masked(B.T, A[i])
    return out


def log_matvec_masked(A, x):
    """out_i = lse_j(A_ij + x_j), with the -inf terms masked to 0."""
    S = A + x[None, :]
    M = S.max(axis=1)
    out = np.full(M.shape, -np.inf)
    finite = np.isfinite(M)
    if finite.any():
        with np.errstate(invalid="ignore"):
            T = np.exp(S - M[:, None])
        total = np.where(np.isfinite(S), T, 0.0).sum(axis=1)
        out[finite] = M[finite] + np.log(total[finite])
    return out


def tangent_start(solved, bias, step):
    """thermo_curve's Perron start for a point `step` beyond a solved one
    (None: all-ones vectors), each log vector taken afresh from the solved
    vectors and moved along -step * bias (rows h, h')."""
    vectors = []
    for k, side in enumerate(("right", "left")):
        log_x = (0.0 if solved is None else np.log(getattr(solved, side))
                 ) - step * bias[k]
        vectors.append(np.exp(np.maximum(log_x - log_x.max(), _LOG_FLOOR)))
    return np.array(vectors)


def reverse_bias(graph, a):
    """Howard's bias of a on the reversed graph, built from the transposed
    adjacency matrix."""
    A = mask_of_graph(graph)
    W = np.zeros(A.shape)
    W[graph.src, graph.dst] = a.values
    back = graph_from_mask(A.T)
    return ergopt._howard(back, EdgePotential(back, W.T[A.T]))[1]


def equilibrium_by_formulas(graph, f, data):
    """(edge mass, transitions) of the equilibrium state of f from its
    Perron solve, each step written out from its formula: P_ij = e^{f_ij}
    r_j / (lambda r_i) with its row-defect check, the edge mass
    p_i P_ij / rowsum_i with p = l r, then MarkovMeasure's checks on that
    mass and its transitions mass_ij / p_i."""
    n, src, dst = graph.n_states, graph.src, graph.dst
    logr = np.log(data.right)
    P = np.exp(f.values + logr[dst] - logr[src] - data.log_rho)
    rowsums = np.bincount(src, weights=P, minlength=n)
    defect = np.abs(rowsums - 1.0).max()
    if not defect <= 1e-10:
        raise ConvergenceError(f"equilibrium rows off stochastic by "
                               f"{defect:.3e} (> 1e-10)")
    p = data.left * data.right
    mass = (p / (p.sum() * rowsums))[src] * P
    if not ((mass >= 0).all() and abs(mass.sum() - 1.0) <= sft.STOCHASTIC_TOL):
        raise ValueError("edge mass is not a probability")
    stationary = np.bincount(src, weights=mass, minlength=n)
    drift = np.bincount(dst, weights=mass, minlength=n) - stationary
    if np.abs(drift).max() > sft.STATIONARY_TOL:
        raise ValueError("edge mass fails p P = p: marginals differ")
    return mass, np.divide(mass, stationary[src], out=np.zeros_like(mass),
                           where=stationary[src] > 0)


def record_solves(mp, with_inputs=False):
    """Patch perron's two stages, through which perron and thermo_curve's
    sweep solve every point, to keep each point's PerronData, or its
    (potential, start, PerronData) with_inputs, in the order the plain
    stage returns them (a point a stack dropped enters once it returns);
    a stalled point's entry takes the squaring stage's result once that
    runs.  Returns that list."""
    solves = []
    power, squared = pressure._power_solves, pressure._squared_solves

    def entry(graph, F, starts, group):
        out = power(graph, F, starts, group)
        for f, start, data in zip(F, starts, out):
            solves.append((EdgePotential(graph, f), SimpleNamespace(
                right=start[0], left=start[1]), data) if with_inputs else data)
        return out

    def finish(fs, stalled):
        out = squared(fs, stalled)
        for old, new in zip(stalled, out):
            k = next(k for k, e in enumerate(solves)
                     if (e[2] if with_inputs else e) is old)
            solves[k] = (*solves[k][:2], new) if with_inputs else new
        return out

    mp.setattr(pressure, "_power_solves", entry)
    mp.setattr(pressure, "_squared_solves", finish)
    return solves


def thermo_curve_by_points(graph, a, phi, betas, *, minimization=None,
                           states=None):
    """thermo_curve one point at a time: the same Perron starts and plain
    stages, each stalled point squared alone, then equilibrium_by_formulas,
    the averages of a and phi against the edge mass and its entropy -sum
    mass log P.  As in the sweep, the points go in blocks of `size`, in
    rounds: a round's points start from the tangent at the last point
    solved before it (tangent_start; the biases are minimization.bias and
    reverse_bias), or from the secant through the block's last two solved
    points once it has two, and the round ends at its `group`-th stalled
    point; the next takes twice as many points as it kept.  Each point's
    EquilibriumState is appended to the list `states` if given."""
    betas = np.array([float(b) for b in betas])
    if minimization is None:
        minimization = minimize(graph, a, phi)
    a0 = minimization.value
    bias = np.array((minimization.bias, reverse_bias(graph, a)))
    size = max(1, thermo.BLOCK_ENTRIES // (2 * graph.n_edges))
    group = max(1, thermo.BLOCK_ENTRIES // graph.n_states**2)
    pressure_phi, rows, solved, beta0 = None, [], None, 0.0
    for first in range(0, len(betas), size):
        block, k, slope, done = betas[first:first + size], 0, bias, []
        span = len(block)
        while k < len(block):
            kept, stalled = [], 0
            for beta in block[k:k + span]:
                f = EdgePotential(graph, phi.values - beta * a.values)
                start = tangent_start(solved, slope, beta - beta0)
                data = pressure._power_solves(graph, f.values[None],
                                              start[None], 1)[0]
                if data.stage == "stalled":
                    data = pressure._squared_solves([f], [data])[0]
                    stalled += 1
                kept.append((f, data))
                if stalled == group:
                    break
            done += kept
            k, span = k + len(kept), 2 * len(kept)
            solved, beta0 = done[-1][1], block[k - 1]
            if k > 1:  # the secant through the block's last two points
                logs = [np.log((d.right, d.left)) for _, d in done[-2:]]
                slope = (logs[0] - logs[1]) / (beta0 - block[k - 2])
        for beta, (f, data) in zip(block, done):
            mass, T = equilibrium_by_formulas(graph, f, data)
            h = -float(mass @ np.log(T, out=np.zeros_like(T), where=T > 0))
            if beta == 0:
                pressure_phi = data.log_rho
            rows.append((data.log_rho + beta * a0, float(a.values @ mass),
                         max(h, 0.0), float(phi.values @ mass)))
            if states is not None:
                states.append(EquilibriumState(sft.MarkovMeasure(graph, mass),
                                               data.log_rho, data.right,
                                               data.left))
            del mass, T
    if pressure_phi is None:
        pressure_phi = pressure_transfer(graph, phi).value
    return ThermoCurve(betas, *map(np.array, zip(*rows)),
                       minimization.restricted_pressure, pressure_phi, a0)
