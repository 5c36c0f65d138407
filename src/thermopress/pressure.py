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
    """Log-space matrix product out_ij = lse_k(A_ik + B_kj) in O(n^2) memory.

    Computed as the scaled BLAS product log(exp(A - r) @ exp(B - c)) + r + c,
    with r the row maxima of A and c the column maxima of B.  Only if a
    scaled entry is at most _UNDERFLOW: entries with no finite term are
    -inf, read off the product of the finiteness masks, and the others
    that underflow are recomputed exactly, one row at a time.
    """
    r = A.max(axis=1, keepdims=True)
    c = B.max(axis=0, keepdims=True)
    r[~np.isfinite(r)] = 0.0
    c[~np.isfinite(c)] = 0.0
    P = np.exp(A - r) @ np.exp(B - c)
    resolved = P > _UNDERFLOW
    if resolved.all():
        return np.log(P) + r + c
    reach = (np.isfinite(A).astype(float) @ np.isfinite(B).astype(float)) > 0
    with np.errstate(divide="ignore"):
        out = np.where(resolved & reach, np.log(P) + r + c, -np.inf)
    for i in np.flatnonzero((reach & ~resolved).any(axis=1)):
        out[i] = _log_matvec(B.T, A[i])
    return out


def _log_matvec(A, x):
    """Log-space matrix-vector product: out_i = lse_j(A_ij + x_j)."""
    S = A + x[None, :]
    M = S.max(axis=1)
    out = np.full(M.shape, -np.inf)
    finite = np.isfinite(M)
    if finite.any():
        # exp(-inf) = 0 on rows with a finite maximum; the rest are dropped
        with np.errstate(invalid="ignore"):
            total = np.exp(S - M[:, None]).sum(axis=1)
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
    stage: str  # "power" or "squaring": the stage whose result this is


def _steps_to(target, width, earlier, window):
    """Steps until a bracket that narrowed from width `earlier` to `width`
    over `window` steps, contracting geometrically at that rate, reaches
    `target`; inf when it did not narrow."""
    if width >= earlier:
        return np.inf
    rate = np.log(width / earlier) / window  # log contraction per step
    return np.log(target / width) / rate


def _plain_budget(n):
    """Most plain power steps on an n-state graph: about as many as one
    squaring-stage solve of it costs, 100 + n^2 / 10 fitted to solves
    measured at n = 3 to 120, capped at PLAIN_BUDGET from n = 222 on."""
    return min(PLAIN_BUDGET, 100 + n * n // 10)


def _plain_power_stage(ids, data, x, z):
    """Shifted power iteration on W / sigma + I with Collatz-Wielandt
    brackets, from positive right and left vectors x and z; ids holds the
    index arrays of diag(W, W^T) and data its entries, divided in place by
    sigma, so a step is one kernel call that allocates nothing.  sigma, a
    quarter of the smaller upper bracket end of x and z on rho(W), comes
    from the first kernel call, which also makes the first step; a real
    subdominant eigenvalue mu then contracts at (sigma + mu) / (sigma + rho).

    Returns (converged, lo, hi, sigma, x, z, iterations), lo <= rho(W) /
    sigma + 1 <= hi measured at the returned step, which made x and z.
    Only check steps bracket and normalize, and the stage ends on one:
    steps 1 and 2, then the step halfway to the convergence the last two
    brackets project, at most CHECK_SPACING on (a step never shrinks an
    entry, and none overflows in so few steps).  It takes at most
    _plain_budget(len(x)) steps, and stops early, unconverged, once the
    bracket shows rho(W) / sigma < MIN_PLAIN_ROOT, or is narrower than
    STALL_GUARD and its contraction over at least CHECK_SPACING steps
    projects past the budget.  Wider brackets can sit on a plateau
    before they collapse: they are never handed on.
    """
    n = len(x)
    budget = _plain_budget(n)
    v = np.concatenate((x, z))  # rows x and z
    y = np.zeros(2 * n)  # each step writes the next v here, then swaps
    ratios = np.empty((2, n))
    top, low, high = np.empty((2, 1)), np.empty(2), np.empty(2)
    csr_matvec(2 * n, 2 * n, ids.indptr, ids.indices, data, v, y)
    sigma = min(np.divide(y, v, out=ratios.ravel()).reshape(2, n).max(1)) / 4
    data /= sigma
    v, y = np.add(v, np.divide(y, sigma, out=y), out=y), v
    check, last, best = 1, 0, np.inf  # best relative width by the last check
    for it in range(1, budget + 1):
        if it > 1:
            np.copyto(y, v)
            csr_matvec(2 * n, 2 * n, ids.indptr, ids.indices, data, v, y)
            v, y = y, v
        if it < check:
            continue
        rows, vectors = v.reshape(2, n), y.reshape(2, n)
        np.divide(rows, vectors, out=ratios)
        np.maximum.reduce(rows, axis=1, keepdims=True, out=top)
        np.divide(rows, top, out=rows)
        np.minimum.reduce(ratios, axis=1, out=low)
        np.maximum.reduce(ratios, axis=1, out=high)
        (rx_lo, rz_lo), (rx_hi, rz_hi) = low.tolist(), high.tolist()
        # brackets from both sides enclose rho(W) / sigma + 1
        lo = max(rx_lo, rz_lo)
        hi = min(rx_hi, rz_hi)
        width = rx_hi - rx_lo + rz_hi - rz_lo
        if width <= TRANSFER_TOL * hi:
            return True, lo, hi, sigma, rows[0], rows[1], it
        if hi < 1.0 + MIN_PLAIN_ROOT:
            break
        relative = min(width / hi, best)
        need = (0.0 if last == 0 else
                _steps_to(TRANSFER_TOL, relative, best, it - last))
        if need <= budget - it:
            gap = min(max(1, int(need / 2)), CHECK_SPACING)
        elif relative < STALL_GUARD and it - last >= CHECK_SPACING:
            break
        else:
            gap = CHECK_SPACING
        check, last, best = min(it + gap, budget), it, relative
    return False, lo, hi, sigma, rows[0], rows[1], it


def _log_start(v):
    """log v as a start of the squaring stage, or zeros (the start from
    ones) when an entry of v is 0 or not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_v = np.log(v)
    return log_v if np.isfinite(log_v).all() else np.zeros(len(v))


def _squared_power_stage(H, x, z):
    """Exact log-space repeated squaring of H = log(W + I), interleaved with
    Collatz-Wielandt sweeps from the right and left log-vectors x and z.
    Handles spectra where the second eigenvalue nearly ties the Perron
    root, and roots too small for the +I shift to resolve: squaring
    amplifies the gap geometrically.  Each square is centered on its
    largest entry, so the log eigenvectors carry rounding relative to O(1)
    entries rather than to 2^k log(rho(W)+1).  Every power of H has H's
    Perron vectors, so they carry across squarings, and each squaring
    doubles their log contraction per sweep.  Once two sweeps of a power
    project the sweeps left to TRANSFER_TOL, the stage sweeps on if they
    are at most SQUARING_BREAK_EVEN, else squares ceil(log2(projection /
    SQUARING_BREAK_EVEN)) times in a row (once when there is no
    projection) and sweeps again.  All squarings count to MAX_SQUARINGS.

    Returns (log rho(W+I), right log-vector, left log-vector, relative
    enclosure width, squarings)."""
    squarings, shift = 0, 0.0  # the uncentered log power is H + shift
    width = np.inf
    while True:
        yx, yz = _log_matvec(H, x), _log_matvec(H.T, z)
        dx, dz = yx - x, yz - z
        x, z = yx - yx.max(), yz - yz.max()
        lo, hi = max(dx.min(), dz.min()), min(dx.max(), dz.max())
        previous, width = width, max(np.ptp(dx), np.ptp(dz))
        mid = 0.5 * (lo + hi) + shift
        # mid approximates 2^squarings log(rho(W)+1) >= 0; relative criterion
        if mid > 0 and width <= TRANSFER_TOL * mid:
            return (mid / 2**squarings, x, z, width / max(mid, 1e-300),
                    squarings)
        if previous == np.inf:
            continue  # the first sweep of a power projects nothing
        need = (_steps_to(TRANSFER_TOL * mid, width, previous, 1)
                if mid > 0 else np.inf)
        if need <= SQUARING_BREAK_EVEN:
            continue
        if squarings == MAX_SQUARINGS:
            raise ConvergenceError(f"Perron solver failed to converge "
                                   f"after {MAX_SQUARINGS} squarings")
        run = (int(np.ceil(np.log2(need / SQUARING_BREAK_EVEN)))
               if need < np.inf else 1)
        for _ in range(min(run, MAX_SQUARINGS - squarings)):
            H = _log_matmul(H, H)
            top = H.max()
            H, shift, squarings = H - top, 2.0 * shift + top, squarings + 1
        width = np.inf


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
    SQUARING_BREAK_EVEN sweeps.
    """
    graph = f.graph
    fmax = f.max()
    # diag(W, W^T) on the graph's index arrays, as W and W.T.tocsr()
    ids = graph.two_sided
    data = np.exp(f.values - fmax)[ids.data]
    x = z = np.ones(graph.n_states)
    if start is not None and all(
            v.shape == x.shape and np.isfinite(v).all() and (v > 0).all()
            for v in (start.right, start.left)):
        x, z = start.right, start.left
    ok, lo, hi, sigma, x, z, it = _plain_power_stage(ids, data, x, z)
    rho_s = 0.5 * (lo + hi) - 1.0  # rho(W) / sigma
    if ok and rho_s >= MIN_PLAIN_ROOT:
        log_sigma = np.log(sigma)
        log_rho = fmax + log_sigma + np.log(rho_s)
        # the measured bracket [lo - 1, hi - 1] on rho(W) / sigma in log
        # form, plus the rounding of its ratios (each sums at most `terms`
        # products), of W / sigma, of log sigma and of log_rho itself
        terms = np.diff(graph.indptr).max() + 1
        rounding = np.finfo(float).eps * (
            (terms + 2) * hi / (lo - 1.0) + 2.0 + fmax - f.min()
            + abs(fmax) + abs(log_sigma) + abs(log_rho))
        return PerronData(log_rho, x / x.sum(), z / z.sum(),
                          np.log((hi - 1.0) / (lo - 1.0)) + rounding, it,
                          "power")

    # exact fallback: square log(W + I) until the gap is overwhelming
    H = f.log_matrix() - fmax
    d = np.arange(graph.n_states)
    H[d, d] = np.logaddexp(H[d, d], 0.0)
    log_shifted, x_log, z_log, relw, squarings = _squared_power_stage(
        H, _log_start(x), _log_start(z))
    rho_w = np.expm1(log_shifted)
    if rho_w <= 0:
        raise ConvergenceError("spectral radius underflowed to zero")
    right = np.exp(x_log - x_log.max())
    left = np.exp(z_log - z_log.max())
    # the bracket on log rho(W + I) plus a few ulps per squaring's n-term
    # sums, carried to log rho(W) by the factor (1 + rho(W)) / rho(W)
    error = relw * log_shifted + 2 * (graph.n_states + 2) * np.finfo(float).eps
    return PerronData(fmax + np.log(rho_w), right / right.sum(),
                      left / left.sum(), error * (1.0 + rho_w) / rho_w
                      + TRANSFER_TOL, it + squarings, "squaring")


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
