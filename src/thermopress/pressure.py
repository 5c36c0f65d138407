"""Topological pressure on an irreducible subshift of finite type, by three
routes that must agree in the limit:

* transfer: log spectral radius of the weighted transition matrix
  L_ij = exp(f_ij) on edges (0 off them), the reference value;
* periodic orbits: (1/T) log trace(L^T), the sum of exp(Birkhoff sum) over
  cyclic words of period exactly T;
* Bowen counts: (1/T) log(1^T L^(T-1) e^b), the sum over admissible words
  of length T with a fixed closing term b, so finite-T values are
  reproducible.

Both finite-T routes take log-space powers of the dense log matrix of L;
no word is enumerated.  All accumulation is done in log space, so large
potentials (e.g. beta * a with beta in the tens) cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from .errors import ConvergenceError, NotIrreducibleError, ZeroMassError
from .sft import EdgePotential, MarkovMeasure, TransitionGraph

TRANSFER_TOL = 1e-13
# most plain power steps before squaring; smaller graphs get fewer
PLAIN_BUDGET = 5000
# smallest rho(W) / sigma the plain stage returns (sigma: _plain_power_stage)
MIN_PLAIN_ROOT = 0.01
# the plain stage hands a bracket on only once its relative width is below
# STALL_GUARD; most plain steps between brackets
STALL_GUARD = 1e-3
CHECK_SPACING = 8
# most squarings of the exact stage, and about the sweeps one squaring
# costs there: a power whose sweeps project more to go squares instead
MAX_SQUARINGS = 64
SQUARING_BREAK_EVEN = 4

# scaled log-space products below this are recomputed exactly
_UNDERFLOW = 1e-250


def _lse(values):
    """log(sum(exp(values))) for a 1-d array, tolerating -inf entries."""
    m = np.max(values)
    if not np.isfinite(m):
        return -np.inf
    return float(m + np.log(np.exp(values - m).sum()))


def _log_matmul(A, B):
    """Log-space product out_ij = lse_k(A_ik + B_kj) in O(n^2) memory, also
    of each matrix of the stacks A (..., n, k) and B (..., k, m).

    Computed as the scaled BLAS product log(exp(A - r) @ exp(B - c)) + r + c,
    with r the row maxima of A and c the column maxima of B.  Only if a
    scaled entry is at most _UNDERFLOW: entries with no finite term are
    -inf, read off the product of the finiteness masks, and the others
    that underflow are recomputed exactly, one row at a time.
    """
    r = A.max(axis=-1, keepdims=True)
    c = B.max(axis=-2, keepdims=True)
    r[~np.isfinite(r)] = 0.0
    c[~np.isfinite(c)] = 0.0
    P = np.exp(A - r) @ np.exp(B - c)
    resolved = P > _UNDERFLOW
    if resolved.all():
        return np.log(P) + r + c
    reach = (np.isfinite(A).astype(float) @ np.isfinite(B).astype(float)) > 0
    with np.errstate(divide="ignore"):
        out = np.where(resolved & reach, np.log(P) + r + c, -np.inf)
    for *b, i in zip(*np.nonzero((reach & ~resolved).any(axis=-1))):
        out[(*b, i)] = _log_matvec(B[tuple(b)].T, A[(*b, i)])
    return out


def _log_matvec(A, x):
    """Log-space product out_i = lse_j(A_ij + x_j), also of stacks A, x."""
    S = A + x[..., None, :]
    M = S.max(axis=-1)
    out = np.full(M.shape, -np.inf)
    finite = np.isfinite(M)
    if finite.any():
        # exp(-inf) = 0 on rows with a finite maximum; the rest are dropped
        with np.errstate(invalid="ignore"):
            total = np.exp(S - M[..., None]).sum(axis=-1)
        out[finite] = M[finite] + np.log(total[finite])
    return out


@dataclass(frozen=True)
class PerronData:
    """Perron eigendata of a transfer matrix: log of the spectral radius
    plus positive left/right vectors."""

    log_rho: float
    right: np.ndarray
    left: np.ndarray
    enclosure: float  # final Collatz-Wielandt bracket on log rho, + rounding
    iterations: int
    stage: str  # "power", "squaring" or "stalled" (see _power_solves)


def _steps_to(target, width, earlier, window):
    """Steps until a bracket that narrowed from width `earlier` to `width`
    over `window` steps, contracting geometrically at that rate, reaches
    `target`; inf when it did not narrow."""
    if width >= earlier:
        return np.inf
    rate = math.log(width / earlier) / window  # log contraction per step
    return math.log(target / width) / rate


def _plain_budget(n):
    """Most plain power steps on an n-state graph: about as many as one
    squaring-stage solve of it costs, 100 + n^2 / 10 fitted to solves
    measured at n = 3 to 120, capped at PLAIN_BUDGET from n = 222 on."""
    return min(PLAIN_BUDGET, 100 + n * n // 10)


def _plain_power_stage(ids, data, v, group):
    """Shifted power iteration on W / sigma + I with Collatz-Wielandt
    brackets for a stack of W on one graph, from positive right and left
    vectors v[k] = (x, z); ids holds the index arrays of diag(W, W^T) and
    data[k] (C order) the k-th W's entries, divided in place by its sigma,
    a quarter of the first step's smaller upper bracket end on rho(W).  A
    step is one kernel call on the live rows' block diagonal.  Returns per
    row (converged, lo, hi, sigma, x, z, iterations), lo <= rho(W) / sigma
    + 1 <= hi measured at the step that made x and z.  A row's check steps
    bracket and normalize it: steps 1 and 2, then the step halfway to the
    convergence its last two brackets project, at most CHECK_SPACING on.
    It stops on one, converged with rho(W) / sigma >= MIN_PLAIN_ROOT, or
    not: after _plain_budget(n) steps, once rho(W) / sigma <
    MIN_PLAIN_ROOT, or once its bracket is narrower than STALL_GUARD and
    its contraction over CHECK_SPACING steps or more projects past the
    budget (wider brackets can sit on a plateau).  Each row keeps its own
    sigma, schedule and step count, so it gives bit for bit its result
    alone, and leaves the stack when it stops; once `group` rows stopped
    unconverged, the rows after the group-th go unreturned.
    """
    rows, n = len(v), v.shape[-1]
    budget, nnz, size = _plain_budget(n), ids.nnz, v.size
    at = np.arange(rows)[:, None]  # row k's block, shifted by 2nk
    indptr = np.append(0, ids.indptr[1:] + nnz * at)
    indices = (ids.indices + 2 * n * at).ravel()
    flat, v, y = data.reshape(-1), v.reshape(-1).copy(), np.zeros(size)
    csr_matvec(size, size, indptr, indices, flat, v, y)
    sigma = (y / v).reshape(rows, 2, n).max(2).min(1) / 4
    data /= sigma[:, None]
    v, y = np.add(v, np.divide(y, np.repeat(sigma, 2 * n), out=y), out=y), v
    live, out, due_at, end = list(range(rows)), [None] * rows, 1, rows
    check, last, best = [1] * rows, [0] * rows, [np.inf] * rows
    for it in range(1, budget + 1):
        if it > 1:
            np.copyto(y, v)
            csr_matvec(size, size, indptr, indices, flat, v, y)
            v, y = y, v
        if it < due_at:
            continue
        due = [j for j, c in enumerate(check) if c == it]
        now, old = v.reshape(-1, 2, n), y.reshape(-1, 2, n)
        if len(due) < len(live):  # the due rows only, written back below
            now, old = now[due], old[due]
        ratios = now / old
        now /= now.max(2, keepdims=True)
        stop = []
        for k, (j, (x_lo, z_lo), (x_hi, z_hi)) in enumerate(zip(
                due, ratios.min(2).tolist(), ratios.max(2).tolist())):
            # brackets from both sides enclose rho(W) / sigma + 1
            lo, hi = max(x_lo, z_lo), min(x_hi, z_hi)
            width = x_hi - x_lo + z_hi - z_lo
            done = width <= TRANSFER_TOL * hi
            relative = min(width / hi, best[j])
            need = (0.0 if done or last[j] == 0 else
                    _steps_to(TRANSFER_TOL, relative, best[j], it - last[j]))
            if need <= budget - it:
                gap = min(max(1, int(need / 2)), CHECK_SPACING)
            elif relative < STALL_GUARD and it - last[j] >= CHECK_SPACING:
                gap = 0  # stalled: wider brackets may sit on a plateau
            else:
                gap = CHECK_SPACING
            if done or hi < 1.0 + MIN_PLAIN_ROOT or not gap or it == budget:
                done = done and 0.5 * (lo + hi) - 1.0 >= MIN_PLAIN_ROOT
                out[live[j]] = (done, lo, hi, sigma[j], *now[k], it)
                stop.append(j)
            check[j], last[j], best[j] = min(it + gap, budget), it, relative
        if len(due) < len(live):
            v.reshape(-1, 2, n)[due] = now
        if stop:
            failed = [r for r, row in enumerate(out) if row and not row[0]]
            end = failed[group - 1] + 1 if len(failed) >= group else end
            keep = [j for j, r in enumerate(live) if j not in stop and r < end]
            if not keep:
                return out[:end]
            live, check, last, best = ([x[j] for j in keep]
                                       for x in (live, check, last, best))
            sigma, data = sigma[keep], data[keep]
            v = v.reshape(-1, 2, n)[keep].reshape(-1)
            flat, size, y = data.reshape(-1), v.size, np.empty(v.size)
            indptr, indices = indptr[:size + 1], indices[:nnz * len(live)]
        due_at = min(check)
    return out[:end]


def _log_start(v):
    """log v as a start of the squaring stage, or zeros (the start from
    ones) when an entry of v is 0 or not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_v = np.log(v)
    return log_v if np.isfinite(log_v).all() else np.zeros(len(v))


def _squared_power_stage(H, v):
    """Exact log-space repeated squaring of each H = log(W + I) of the
    stack H (b x n x n), interleaved with Collatz-Wielandt sweeps from its
    right and left log-vectors v[k] (b x 2 x n; H and v are overwritten).
    Squaring amplifies the gap geometrically: it handles a second
    eigenvalue that nearly ties the Perron root, and roots too small for
    the +I shift to resolve.  Each square is centered on its largest
    entry, so the log vectors carry rounding relative to O(1) entries, not
    to 2^k log(rho(W)+1).  Every power of H has H's Perron vectors, and
    each squaring doubles their log contraction per sweep.  Once two
    sweeps of a power project the sweeps left to TRANSFER_TOL, the stage
    sweeps on if they are at most SQUARING_BREAK_EVEN, else squares
    ceil(log2(projection / SQUARING_BREAK_EVEN)) times in a row (once with
    no projection), at most MAX_SQUARINGS in all.  Each matrix keeps its
    own schedule, shift and count, so its result is bit for bit its result
    alone.  Returns log rho(W+I), relative width and squarings, and v."""
    squarings, run = np.zeros((2, len(H)), int)  # run: squarings to go
    shift, width = np.zeros(len(H)), np.full(len(H), np.inf)
    result, live = np.empty((2, len(H))), list(range(len(H)))
    while live:
        rows = [k for k in live if run[k]]  # one squaring of each run
        if rows:
            at = slice(None) if len(rows) == len(H) else rows  # view if all
            P = _log_matmul(H[at], H[at])
            top = P.max(axis=(1, 2))
            H[at], shift[at] = P - top[:, None, None], 2 * shift[at] + top
            squarings[at], run[at] = squarings[at] + 1, run[at] - 1
        rows = [k for k in live if not run[k]]  # one sweep of each power
        if not rows:
            continue
        at = slice(None) if len(rows) == len(H) else rows
        y = np.stack((_log_matvec(H[at], v[at, 0]),
                      _log_matvec(H[at].swapaxes(1, 2), v[at, 1])), axis=1)
        d, v[at] = y - v[at], y - y.max(axis=2, keepdims=True)
        lo, hi = d.min(axis=2).max(axis=1), d.max(axis=2).min(axis=1)
        previous, width[at] = width[at].tolist(), np.ptp(d, axis=2).max(axis=1)
        # mid approximates 2^squarings log(rho(W)+1) >= 0; relative criterion
        for k, mid, last in zip(rows, (lo + hi) / 2 + shift[at], previous):
            if mid > 0 and width[k] <= TRANSFER_TOL * mid:
                result[:, k] = (mid / 2.0 ** squarings[k],
                                width[k] / max(mid, 1e-300))
                live.remove(k)
            elif last < np.inf:  # a power's first sweep projects nothing
                need = (_steps_to(TRANSFER_TOL * mid, width[k], last, 1)
                        if mid > 0 else np.inf)
                if need <= SQUARING_BREAK_EVEN:
                    continue
                if squarings[k] == MAX_SQUARINGS:
                    raise ConvergenceError(f"Perron solver failed to converge "
                                           f"after {MAX_SQUARINGS} squarings")
                run[k] = min(MAX_SQUARINGS - squarings[k], int(np.ceil(np.log2(
                    need / SQUARING_BREAK_EVEN))) if need < np.inf else 1)
                width[k] = np.inf
    return (*result, squarings, v)


def _power_solves(graph, F, starts, group):
    """perron's plain stage for the potentials F[k] (k x edges) on graph,
    in one stack from the positive starts[k] = (right, left), through the
    group-th "stalled" point if so many stall; those keep their vectors."""
    ids = graph.two_sided
    fmax, fmin = F.max(axis=1), F.min(axis=1)
    # diag(W, W^T) per point, as W and W.T.tocsr(), in C order (take)
    data = np.exp(F - fmax[:, None]).take(ids.data, axis=1)
    terms = np.diff(ids.indptr).max() + 1
    solves = []
    for (ok, lo, hi, sigma, x, z, it), top, bottom in zip(
            _plain_power_stage(ids, data, starts, group), fmax, fmin):
        rho_s = 0.5 * (lo + hi) - 1.0  # rho(W) / sigma
        if not ok:
            solves.append(PerronData(np.nan, x, z, np.inf, it, "stalled"))
            continue
        log_sigma = np.log(sigma)
        log_rho = top + log_sigma + np.log(rho_s)
        # the bracket [lo - 1, hi - 1] on rho(W) / sigma in log form, plus
        # the rounding of its ratios (each sums a row of W or W^T: at most
        # `terms` products), of W / sigma, log sigma and log_rho itself
        rounding = np.finfo(float).eps * (
            (terms + 2) * hi / (lo - 1.0) + 2.0 + top - bottom
            + abs(top) + abs(log_sigma) + abs(log_rho))
        solves.append(PerronData(log_rho, x / x.sum(), z / z.sum(),
                                 np.log((hi - 1.0) / (lo - 1.0)) + rounding,
                                 it, "power"))
    return solves


def _squared_solves(fs, stalled):
    """perron's squaring stage for fs (one graph), in one call from stalled."""
    H = np.stack([f.log_matrix() - f.max() for f in fs])
    d = np.arange(H.shape[1])
    H[:, d, d] = np.logaddexp(H[:, d, d], 0.0)
    log_shifted, relw, squarings, v = _squared_power_stage(H, np.array(
        [(_log_start(s.right), _log_start(s.left)) for s in stalled]))
    rho_w = np.expm1(log_shifted)
    if not (rho_w > 0).all():
        raise ConvergenceError("spectral radius underflowed to zero")
    v = np.exp(v - v.max(axis=2, keepdims=True))
    # the bracket on log rho(W + I) plus a few ulps per squaring's n-term
    # sums, carried to log rho(W) by the factor (1 + rho(W)) / rho(W)
    error = (relw * log_shifted + 2 * (len(d) + 2) * np.finfo(float).eps
             ) * (1.0 + rho_w) / rho_w + TRANSFER_TOL
    return [PerronData(f.max() + np.log(r), x / x.sum(), z / z.sum(), e,
                       s.iterations + q, "squaring") for f, s, r, (x, z), e, q
            in zip(fs, stalled, rho_w, v, error, squarings.tolist())]


def perron(f: EdgePotential, *, start=None) -> PerronData:
    """Perron root and eigenvectors of the transfer matrix L_ij = e^{f_ij}
    on the edges of f's graph.  The power stage starts from start.right
    and start.left (a PerronData or EquilibriumState of a nearby potential
    on the same graph) when both are finite, strictly positive and of
    length n, and from all-ones vectors otherwise; the brackets enclose
    rho from any positive start, so only the step count depends on it.

    One decision: shifted power iteration on W / sigma + I, W being L
    scaled so its largest entry is 1 and sigma about rho(W) / 4, is
    returned when it converges with rho(W) / sigma >= MIN_PLAIN_ROOT
    within _plain_budget(n) steps, about what one squaring solve costs;
    its bracket, enclosure and vectors are the returned step's.
    Otherwise -- a stalled bracket, e.g. a nearly degenerate Perron pair
    at large inverse temperature, or a root so small against sigma that
    the shift swamps its digits -- exact log-space squaring of the dense
    log(W + I), from the power stage's vectors, reaches TRANSFER_TOL
    whatever the gap: it squares in runs, each sized to leave
    SQUARING_BREAK_EVEN sweeps (perron runs both stages on a stack of one).
    """
    v = np.ones((1, 2, f.graph.n_states))
    if start is not None and all(
            s.shape == v.shape[2:] and np.isfinite(s).all() and (s > 0).all()
            for s in (start.right, start.left)):
        v[0] = start.right, start.left
    data = _power_solves(f.graph, f.values[None], v, 1)[0]
    return data if data.stage == "power" else _squared_solves([f], [data])[0]


@dataclass(frozen=True)
class PressureReport:
    """Pressure estimate with its method tag, the finite-T trace that led
    to it, and the tolerance the method claims."""

    method: str
    value: float
    tolerance: float
    trace: tuple = ()

    def __post_init__(self):
        if self.method not in ("transfer", "periodic-orbits", "bowen"):
            raise ValueError(f"unknown method {self.method!r}")
        if not np.isfinite(self.value):
            raise ValueError("pressure value must be finite")
        trace = tuple((int(T), float(est)) for T, est in self.trace)
        for _, est in trace:
            if not np.isfinite(est):
                raise ValueError("trace estimates must be finite")
        if self.method != "transfer" and not trace:
            raise ValueError(f"method {self.method!r} requires a trace")
        object.__setattr__(self, "trace", trace)


def _require_irreducible(graph, f):
    """Raise unless graph is strongly connected and f lives on it."""
    if not graph.irreducible:
        raise NotIrreducibleError(
            "pressure requires a strongly connected graph; "
            "use ergopt.pressure_on_set for subgraphs"
        )
    if not f.graph.same_graph(graph):
        raise ValueError("potential lives on a different graph")


def pressure_transfer(graph: TransitionGraph,
                      f: EdgePotential) -> PressureReport:
    """Pressure as log spectral radius of L_ij = e^{f_ij} on edges (0 off
    them); the tolerance is the enclosure the Perron solve measured."""
    _require_irreducible(graph, f)
    data = perron(f)
    return PressureReport("transfer", data.log_rho, data.enclosure)


def pressure_periodic_orbits(graph: TransitionGraph, f: EdgePotential,
                             t_max: int) -> PressureReport:
    """Pressure from cycle sums P_T = (1/T) log sum over period-T cyclic
    words of exp(Birkhoff sum) = (1/T) log trace(L^T), for T = 1..t_max.

    Lengths with no admissible cycle carry no mass and are omitted from the
    trace; if the final length t_max has no mass (e.g. a periodic graph
    whose period does not divide t_max) the estimate is undefined and a
    ZeroMassError is raised.
    """
    _require_irreducible(graph, f)
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    # log trace(L^T), read off the diagonal of log-space powers of L
    F = f.log_matrix()
    M, trace = F, []
    for T in range(1, t_max + 1):
        if T > 1:
            M = _log_matmul(M, F)
        mass = _lse(np.diag(M))
        if np.isfinite(mass):
            trace.append((T, mass / T))
    if not trace or trace[-1][0] != t_max:
        raise ZeroMassError(
            f"no cyclic words of length {t_max}: choose t_max compatible "
            "with the graph period or use the transfer method"
        )
    tol = abs(trace[-1][1] - trace[-2][1]) if len(trace) > 1 else np.inf
    return PressureReport("periodic-orbits", trace[-1][1], tol, trace)


def pressure_bowen(graph: TransitionGraph, f: EdgePotential,
                   t_max: int) -> PressureReport:
    """Pressure from separated-set sums over admissible words of length T:
    the T-1 interior edges plus a closing term b, the maximal outgoing
    weight of the final state.  The sum is 1^T L^(T-1) e^b, accumulated as
    the log row vector u = log(1^T L^(T-1)).  Trace runs over T = 1..t_max."""
    _require_irreducible(graph, f)
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    F = f.log_matrix()
    FT, b = F.T, F.max(axis=1)  # b: the closing weights
    trace = []
    u = np.zeros(graph.n_states)
    for T in range(1, t_max + 1):
        if T > 1:
            u = _log_matvec(FT, u)
        trace.append((T, _lse(u + b) / T))
    tol = abs(trace[-1][1] - trace[-2][1]) if len(trace) > 1 else np.inf
    return PressureReport("bowen", trace[-1][1], tol, trace)


@dataclass(frozen=True)
class EquilibriumState:
    """Gibbs-Markov equilibrium state of a potential: the Markov measure
    built from the Perron eigendata of the weighted transition matrix.

    log_lambda is the log of the Perron eigenvalue (the pressure).
    """

    measure: MarkovMeasure
    log_lambda: float
    right: np.ndarray
    left: np.ndarray


def equilibrium_state(graph: TransitionGraph, f: EdgePotential, *,
                      start=None) -> EquilibriumState:
    """Equilibrium state of f from the Perron data of its transfer matrix
    (start is passed to perron): the one-row case of _equilibrium_rows."""
    _require_irreducible(graph, f)
    data = perron(f, start=start)
    mass = _equilibrium_rows(graph, f.values[None], [data])[0]
    return EquilibriumState(MarkovMeasure(graph, mass), data.log_rho,
                            data.right, data.left)


def _equilibrium_rows(graph, F, solves):
    """Edge masses p_i P_ij / rowsum_i of the equilibrium states of the rows
    of F, from their Perron solves: P_ij = e^{f_ij} r_j / (lambda r_i), with
    row defect below 1e-10, and p = l r as solved (MarkovMeasure checks p P
    = p to STATIONARY_TOL)."""
    src, dst = graph.src, graph.dst
    right = np.array([data.right for data in solves])
    logr, log_rho = np.log(right), np.array([[d.log_rho] for d in solves])
    P = np.exp(F + logr[:, dst] - logr[:, src] - log_rho)
    rowsums = graph.row_sums(P)
    defect = np.abs(rowsums - 1.0).max(axis=1)
    bad = ~(defect <= 1e-10)  # NaN, from a zero entry of right, fails too
    if bad.any():
        raise ConvergenceError(f"equilibrium rows off stochastic by "
                               f"{defect[bad][0]:.3e} (> 1e-10)")
    p = np.array([data.left for data in solves]) * right
    return (p / (p.sum(axis=1, keepdims=True) * rowsums))[:, src] * P
