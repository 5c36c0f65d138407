"""Topological pressure on an irreducible subshift of finite type, by three
routes that must agree in the limit:

* transfer: log spectral radius of the weighted transition matrix
  L_ij = allowed[i][j] * exp(f_ij), the reference value;
* periodic orbits: (1/T) log trace(L^T), the sum of exp(Birkhoff sum) over
  cyclic words of period exactly T;
* Bowen counts: (1/T) log(1^T L^(T-1) e^b), the sum over admissible words
  of length T with a fixed closing term b, so finite-T values are
  reproducible.

Both finite-T routes take log-space powers of L; no word is enumerated
(sft.enumerate_cycles is kept as a test oracle).  All accumulation is done
in log space, so large potentials (e.g. beta * a with beta in the tens)
cannot overflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NotIrreducibleError, ZeroMassError
from .sft import EdgePotential, MarkovMeasure, TransitionGraph

TRANSFER_TOL = 1e-13

# scaled log-space products below this are recomputed exactly
_UNDERFLOW = 1e-250

# Bowen sums close each word with the largest outgoing weight of its last
# state and score separated sets at mesh 1/4; recorded in every report so
# finite-T numbers are comparable across runs.
BOWEN_CONVENTION = "closing-term=max-outgoing-edge; separation-mesh=1/4"


def _sig12(x):
    """Round to the 12 significant digits all serialized output uses;
    non-finite values map to None so the JSON stays standard."""
    if not np.isfinite(x):
        return None
    return float(f"{x:.12g}")


def _lse(values):
    """log(sum(exp(values))) for a 1-d array, tolerating -inf entries."""
    m = np.max(values)
    if not np.isfinite(m):
        return -np.inf
    return float(m + np.log(np.exp(values - m).sum()))


def _log_matmul(A, B):
    """Log-space matrix product out_ij = lse_k(A_ik + B_kj) in O(n^2) memory.

    Computed as the scaled BLAS product log(exp(A - r) @ exp(B - c)) + r + c,
    with r the row maxima of A and c the column maxima of B.  Entries with
    no finite term are -inf, read off the product of the finiteness masks.
    Entries whose scaled product underflows are recomputed exactly, one row
    at a time.
    """
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
        out[i] = _log_matvec(B.T, A[i])
    return out


def _log_matvec(A, x):
    """Log-space matrix-vector product: out_i = lse_j(A_ij + x_j)."""
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


@dataclass(frozen=True)
class PerronData:
    """Perron eigendata of a nonnegative irreducible matrix given in log
    form: log of the spectral radius plus positive left/right vectors."""

    log_rho: float
    right: np.ndarray
    left: np.ndarray
    enclosure: float  # width of the final Collatz-Wielandt bracket on log rho
    iterations: int


def _plain_power_stage(W, tol, budget):
    """Shifted power iteration on W + I with Collatz-Wielandt brackets.

    Returns (converged, log(rho(W)+1) bracket midpoint, x, z, iterations).
    The +I shift keeps the iteration convergent on periodic matrices.
    """
    n = W.shape[0]
    x = np.ones(n)
    z = np.ones(n)
    WT = W.T
    for it in range(1, budget + 1):
        yx = W @ x + x
        yz = WT @ z + z
        rx = yx / x
        rz = yz / z
        x = yx / yx.max()
        z = yz / yz.max()
        lo = max(rx.min(), rz.min())
        hi = min(rx.max(), rz.max())
        # brackets from both sides enclose rho(W) + 1
        width = rx.max() - rx.min() + rz.max() - rz.min()
        if width <= tol * hi:
            return True, 0.5 * (lo + hi), x, z, it
    return False, 0.5 * (lo + hi), x, z, budget


def _squared_power_stage(H, tol, *, max_squarings=64, inner=60):
    """Exact log-space repeated squaring of H = log(W + I), interleaved with
    Collatz-Wielandt iterations.  Handles spectra where the second eigenvalue
    nearly ties the Perron root: squaring amplifies the gap geometrically.

    Returns (log rho(W+I), right log-vector, left log-vector, relative
    enclosure width, squarings)."""
    n = H.shape[0]
    power = 1
    for k in range(max_squarings + 1):
        x = np.zeros(n)
        z = np.zeros(n)
        HT = H.T
        for _ in range(inner):
            yx = _log_matvec(H, x)
            yz = _log_matvec(HT, z)
            dx = yx - x
            dz = yz - z
            x = yx - yx.max()
            z = yz - yz.max()
            lo = max(dx.min(), dz.min())
            hi = min(dx.max(), dz.max())
            width = max(dx.max() - dx.min(), dz.max() - dz.min())
            mid = 0.5 * (lo + hi)
            # mid approximates power * log(rho(W)+1) >= 0; relative criterion
            if mid > 0 and width <= tol * mid:
                return mid / power, x, z, width / max(mid, 1e-300), k
        if k < max_squarings:
            H = _log_matmul(H, H)
            power *= 2
    raise ConvergenceError(
        f"Perron solver failed to converge after {max_squarings} squarings"
    )


def perron(log_weights: np.ndarray, tol: float = TRANSFER_TOL,
           max_iter: int = 10 ** 6) -> PerronData:
    """Perron root and eigenvectors of exp(log_weights) elementwise, with
    -inf marking forbidden entries.  Deterministic all-ones start.

    Power iteration (with a +I shift and two-sided Collatz-Wielandt
    brackets) is the primary route; when the bracket stalls, e.g. for
    nearly degenerate Perron pairs at large inverse temperature, the solver
    switches to exact log-space repeated squaring, which reaches the same
    tolerance regardless of the spectral gap.
    """
    F = np.asarray(log_weights, dtype=float)
    n = F.shape[0]
    finite = np.isfinite(F)
    if not finite.any():
        raise ValueError("matrix has no allowed entries")
    fmax = F[finite].max()
    G = np.where(finite, F - fmax, -np.inf)
    offset = fmax

    budget = min(5000, max_iter)
    total_it = 0
    for attempt in range(2):
        W = np.where(finite, np.exp(G), 0.0)
        ok, mid, x, z, it = _plain_power_stage(W, tol, budget)
        total_it += it
        if ok:
            rho_w = mid - 1.0
            if rho_w >= 0.01 or attempt == 1:
                if rho_w <= 0:
                    break  # conditioning loss near the +1 shift; go exact
                log_rho = offset + np.log(rho_w)
                return PerronData(log_rho, x / x.sum(), z / z.sum(),
                                  tol * mid, total_it)
            # recenter so rho is O(1), then re-run for full precision
            crude = np.log(rho_w)
            offset += crude
            G = np.where(finite, G - crude, -np.inf)
        else:
            break

    # exact fallback: square log(W + I) until the gap is overwhelming
    H = G.copy()
    d = np.arange(n)
    H[d, d] = np.logaddexp(G[d, d], 0.0)
    log_shifted, x_log, z_log, relw, squarings = _squared_power_stage(H, tol)
    if total_it + squarings > max_iter:
        raise ConvergenceError(f"Perron solver exceeded max_iter={max_iter}")
    rho_w = np.expm1(log_shifted)  # = rho(W), relative accuracy ~ tol
    if rho_w <= 0:
        raise ConvergenceError("spectral radius underflowed to zero")
    log_rho = offset + np.log(rho_w)
    right = np.exp(x_log - x_log.max())
    left = np.exp(z_log - z_log.max())
    return PerronData(log_rho, right / right.sum(), left / left.sum(),
                      relw * abs(log_shifted) + tol, total_it + squarings)


@dataclass(frozen=True)
class PressureReport:
    """Pressure estimate with its method tag, the finite-T trace that led
    to it, and the tolerance the method claims.  Serializes to JSON and to
    a two-column CSV of the trace."""

    method: str
    value: float
    tolerance: float
    trace: tuple = ()
    convention: str | None = None

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

    def to_json(self) -> str:
        sig = _sig12
        obj = {
            "method": self.method,
            "value": sig(self.value),
            "tolerance": sig(self.tolerance),
            "trace": [[T, sig(est)] for T, est in self.trace],
        }
        if self.convention is not None:
            obj["convention"] = self.convention
        return json.dumps(obj)

    def trace_csv(self) -> str:
        lines = ["T,estimate"]
        lines += [f"{T},{est:.12g}" for T, est in self.trace]
        return "\n".join(lines) + "\n"


def _require_irreducible(graph):
    if not graph.irreducible:
        raise NotIrreducibleError(
            "pressure requires a strongly connected graph; "
            "use ergopt.pressure_on_set for subgraphs"
        )


def pressure_transfer(graph: TransitionGraph, f: EdgePotential,
                      tol: float = TRANSFER_TOL,
                      max_iter: int = 10 ** 6) -> PressureReport:
    """Pressure as log spectral radius of L_ij = allowed[i][j] e^{f_ij}."""
    _require_irreducible(graph)
    if not f.graph.same_graph(graph):
        raise ValueError("potential lives on a different graph")
    data = perron(f.log_matrix(), tol=tol, max_iter=max_iter)
    return PressureReport("transfer", data.log_rho, tol)


def _cycle_log_mass(f, t_max):
    """Log of sum of exp(Birkhoff sum) over cyclic words, per length T: the
    log of trace(L^T), read off the diagonal of log-space powers of L."""
    F = f.log_matrix()
    masses = []
    M = F
    for T in range(1, t_max + 1):
        if T > 1:
            M = _log_matmul(M, F)
        masses.append(_lse(np.diag(M)))
    return masses


def pressure_periodic_orbits(graph: TransitionGraph, f: EdgePotential,
                             t_max: int) -> PressureReport:
    """Pressure from cycle sums P_T = (1/T) log sum over period-T cyclic
    words of exp(Birkhoff sum) = (1/T) log trace(L^T), for T = 1..t_max.

    Lengths with no admissible cycle carry no mass and are omitted from the
    trace; if the final length t_max has no mass (e.g. a periodic graph
    whose period does not divide t_max) the estimate is undefined and a
    ZeroMassError is raised.
    """
    _require_irreducible(graph)
    if not f.graph.same_graph(graph):
        raise ValueError("potential lives on a different graph")
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    masses = _cycle_log_mass(f, t_max)
    trace = [
        (T, mass / T)
        for T, mass in zip(range(1, t_max + 1), masses)
        if np.isfinite(mass)
    ]
    if not trace or trace[-1][0] != t_max:
        raise ZeroMassError(
            f"no cyclic words of length {t_max}: choose t_max compatible "
            "with the graph period or use the transfer method"
        )
    tol = abs(trace[-1][1] - trace[-2][1]) if len(trace) > 1 else np.inf
    return PressureReport("periodic-orbits", trace[-1][1], tol, trace)


def _bowen_boundary(f):
    """Closing weight per state: the largest outgoing edge weight."""
    F = f.log_matrix()
    return F.max(axis=1)


def pressure_bowen(graph: TransitionGraph, f: EdgePotential,
                   t_max: int) -> PressureReport:
    """Pressure from separated-set sums over admissible words of length T:
    the T-1 interior edges plus a closing term b, the maximal outgoing
    weight of the final state.  The sum is 1^T L^(T-1) e^b, accumulated as
    the log row vector u = log(1^T L^(T-1)).  Trace runs over T = 1..t_max."""
    _require_irreducible(graph)
    if not f.graph.same_graph(graph):
        raise ValueError("potential lives on a different graph")
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    FT = f.log_matrix().T
    b = _bowen_boundary(f)
    trace = []
    u = np.zeros(graph.n_states)
    for T in range(1, t_max + 1):
        if T > 1:
            u = _log_matvec(FT, u)
        trace.append((T, _lse(u + b) / T))
    tol = abs(trace[-1][1] - trace[-2][1]) if len(trace) > 1 else np.inf
    return PressureReport("bowen", trace[-1][1], tol, trace,
                          convention=BOWEN_CONVENTION)


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


def equilibrium_state(graph: TransitionGraph, f: EdgePotential,
                      tol: float = TRANSFER_TOL,
                      max_iter: int = 10 ** 6) -> EquilibriumState:
    """Equilibrium state via P_ij = e^{f_ij} r_j / (lambda r_i) and
    p_i proportional to l_i r_i, from the Perron data of the transfer
    matrix.  Rows are renormalized after the eigenvector solve; the
    pre-normalization defect must be below 1e-10."""
    _require_irreducible(graph)
    if not f.graph.same_graph(graph):
        raise ValueError("potential lives on a different graph")
    data = perron(f.log_matrix(), tol=tol, max_iter=max_iter)
    logr = np.log(data.right)
    logP = f.log_matrix() + logr[None, :] - logr[:, None] - data.log_rho
    P = np.where(graph.allowed, np.exp(logP), 0.0)
    rowsums = P.sum(axis=1)
    defect = np.abs(rowsums - 1.0).max()
    if defect > 1e-10:
        raise ConvergenceError(
            f"equilibrium rows off stochastic by {defect:.3e} (> 1e-10)"
        )
    P = P / rowsums[:, None]
    p = data.left * data.right
    p = p / p.sum()
    # polish stationarity to well inside the measure's validation tolerance
    for _ in range(200):
        if np.abs(p @ P - p).max() <= 1e-13:
            break
        p = p @ P
        p = p / p.sum()
    measure = MarkovMeasure(graph, P, p)
    return EquilibriumState(measure, data.log_rho, data.right, data.left)
