"""Subshifts of finite type: transition graphs, edge potentials, cyclic
words, and Markov measures, together with the exact operations everything
else builds on (cycle enumeration, Birkhoff sums, entropy, integrals).

Conventions: a potential assigns one real weight (nats per time step) to
every allowed edge; all objects are immutable after construction and all
operations here are pure functions of their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import EnumerationCapError, GraphFormatError

# Default cap on n_states**T for explicit word enumeration.
ENUMERATION_CAP = 10_000_000

STOCHASTIC_TOL = 1e-12
STATIONARY_TOL = 1e-10
# stopping step and step limit of MarkovMeasure.from_transitions
STATIONARY_STEP_TOL = 1e-13
STATIONARY_MAX_STEPS = 200_000


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Finite directed graph over states 0..n-1 given by a 0-1 matrix.

    ``allowed[i, j]`` is True when the transition i -> j is admissible.
    Every state must have at least one outgoing and one incoming edge;
    construction fails otherwise.  ``irreducible`` records strong
    connectivity and is computed once at construction.
    """

    allowed: np.ndarray
    irreducible: bool = field(init=False)

    def __post_init__(self):
        allowed = np.asarray(self.allowed)
        if allowed.ndim != 2 or allowed.shape[0] != allowed.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if allowed.shape[0] < 1:
            raise ValueError("graph needs at least one state")
        allowed = allowed.astype(bool)
        no_out = np.flatnonzero(~allowed.any(axis=1))
        if no_out.size:
            raise ValueError(f"states without outgoing edges: {no_out.tolist()}")
        no_in = np.flatnonzero(~allowed.any(axis=0))
        if no_in.size:
            raise ValueError(f"states without incoming edges: {no_in.tolist()}")
        object.__setattr__(self, "allowed", _frozen_array(allowed, bool))
        n_comp, _ = connected_components(
            csr_matrix(allowed), directed=True, connection="strong"
        )
        object.__setattr__(self, "irreducible", bool(n_comp == 1))

    @property
    def n_states(self) -> int:
        return self.allowed.shape[0]

    @property
    def n_edges(self) -> int:
        return int(self.allowed.sum())

    def edges(self) -> list[tuple[int, int]]:
        """All allowed (i, j) pairs in lexicographic order."""
        ii, jj = np.nonzero(self.allowed)
        return list(zip(ii.tolist(), jj.tolist()))

    def successors(self, i: int) -> list[int]:
        return np.flatnonzero(self.allowed[i]).tolist()

    def same_graph(self, other: "TransitionGraph") -> bool:
        return self is other or (
            self.n_states == other.n_states
            and bool(np.array_equal(self.allowed, other.allowed))
        )

    def __repr__(self):
        return f"TransitionGraph(n_states={self.n_states}, n_edges={self.n_edges}, irreducible={self.irreducible})"


def full_shift(n_symbols: int) -> TransitionGraph:
    """Full shift on n_symbols: every transition allowed."""
    return TransitionGraph(np.ones((n_symbols, n_symbols), dtype=bool))


def golden_mean_shift() -> TransitionGraph:
    """Two states, forbidden word 11: adjacency [[1, 1], [1, 0]]."""
    return TransitionGraph(np.array([[True, True], [True, False]]))


@dataclass(frozen=True, eq=False)
class EdgePotential:
    """A real weight on every allowed edge of a graph.

    Values on forbidden pairs are stored as 0 but are not part of the
    potential; querying a forbidden edge raises.  Supports the vector
    operations needed for one-parameter families: f + g, -f, beta * f,
    f + const.
    """

    graph: TransitionGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.graph.allowed.shape:
            raise ValueError("potential shape does not match graph")
        if not np.isfinite(vals[self.graph.allowed]).all():
            raise ValueError("potential must be finite on allowed edges")
        vals = np.where(self.graph.allowed, vals, 0.0)
        object.__setattr__(self, "values", _frozen_array(vals, float))

    def value(self, i: int, j: int) -> float:
        if not self.graph.allowed[i, j]:
            raise KeyError(f"edge ({i}, {j}) is forbidden")
        return float(self.values[i, j])

    def log_matrix(self) -> np.ndarray:
        """Dense matrix of edge weights with -inf on forbidden pairs."""
        return np.where(self.graph.allowed, self.values, -np.inf)

    def min(self) -> float:
        return float(self.values[self.graph.allowed].min())

    def max(self) -> float:
        return float(self.values[self.graph.allowed].max())

    @classmethod
    def constant(cls, graph: TransitionGraph, c: float) -> "EdgePotential":
        return cls(graph, np.full(graph.allowed.shape, float(c)))

    @classmethod
    def from_edges(cls, graph, edge_values: dict) -> "EdgePotential":
        """Build from {(i, j): value}; every allowed edge must appear."""
        vals = np.zeros(graph.allowed.shape)
        seen = np.zeros(graph.allowed.shape, dtype=bool)
        for (i, j), v in edge_values.items():
            if not graph.allowed[i, j]:
                raise KeyError(f"edge ({i}, {j}) is forbidden")
            vals[i, j] = v
            seen[i, j] = True
        missing = graph.allowed & ~seen
        if missing.any():
            i, j = np.argwhere(missing)[0]
            raise ValueError(f"no value given for allowed edge ({i}, {j})")
        return cls(graph, vals)

    def _check_same_graph(self, other):
        if not self.graph.same_graph(other.graph):
            raise ValueError("potentials live on different graphs")

    def __add__(self, other):
        if isinstance(other, EdgePotential):
            self._check_same_graph(other)
            return EdgePotential(self.graph, self.values + other.values)
        return EdgePotential(self.graph, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, EdgePotential) else -float(other))

    def __neg__(self):
        return EdgePotential(self.graph, -self.values)

    def __mul__(self, scalar):
        return EdgePotential(self.graph, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class CyclicWord:
    """A cyclically admissible word: every consecutive transition is an
    allowed edge, including the wrap-around from the last state to the
    first."""

    graph: TransitionGraph
    states: tuple

    def __post_init__(self):
        states = tuple(int(s) for s in self.states)
        if len(states) < 1:
            raise ValueError("cyclic word must have length >= 1")
        n = self.graph.n_states
        for s in states:
            if not 0 <= s < n:
                raise ValueError(f"state {s} out of range")
        for i, j in zip(states, states[1:] + states[:1]):
            if not self.graph.allowed[i, j]:
                raise ValueError(f"transition ({i}, {j}) is forbidden")
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.states)

    def edges(self) -> list[tuple[int, int]]:
        s = self.states
        return list(zip(s, s[1:] + s[:1]))


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Shift-invariant Markov measure: a row-stochastic transition matrix
    supported on allowed edges plus its stationary distribution.

    Rows may be degenerate (all zero) only on states of zero stationary
    mass.  Stationarity ``p P = p`` is validated to STATIONARY_TOL.
    """

    graph: TransitionGraph
    transitions: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        p = np.asarray(self.stationary, dtype=float)
        n = self.graph.n_states
        if P.shape != (n, n) or p.shape != (n,):
            raise ValueError("measure shape does not match graph")
        if (P < 0).any() or (p < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if (P[~self.graph.allowed] != 0).any():
            raise ValueError("transition mass on a forbidden edge")
        if abs(p.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValueError("stationary vector must sum to 1")
        rowsums = P.sum(axis=1)
        bad = np.abs(rowsums - 1.0) > STOCHASTIC_TOL
        # degenerate rows are tolerated only where the state carries no mass
        if (bad & (p > STOCHASTIC_TOL)).any():
            raise ValueError("rows of P must sum to 1 on charged states")
        if np.abs(p @ P - p).max() > STATIONARY_TOL:
            raise ValueError("stationary vector fails p P = p")
        object.__setattr__(self, "transitions", _frozen_array(P, float))
        object.__setattr__(self, "stationary", _frozen_array(p, float))

    @classmethod
    def from_transitions(cls, graph, P):
        """Stationary distribution by averaged power iteration on P^T.

        P must be row-stochastic with a unique stationary vector (e.g.
        irreducible on its support).
        """
        P = np.asarray(P, dtype=float)
        p = np.full(graph.n_states, 1.0 / graph.n_states)
        for _ in range(STATIONARY_MAX_STEPS):
            # (P + I)/2 damps periodicity without moving the fixed point
            nxt = 0.5 * (p @ P + p)
            nxt /= nxt.sum()
            if np.abs(nxt - p).max() <= STATIONARY_STEP_TOL:
                p = nxt
                break
            p = nxt
        return cls(graph, P, p)


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
    out = []
    word = [0] * length

    def extend(pos, start):
        if pos == length:
            if graph.allowed[word[-1], start]:
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
    return float(sum(f.values[i, j] for i, j in word.edges()))


def ks_entropy(mu: MarkovMeasure) -> float:
    """Entropy rate -sum_i p_i sum_j P_ij log P_ij, with 0 log 0 = 0."""
    P = mu.transitions
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    h = -float(mu.stationary @ plogp.sum(axis=1))
    # roundoff can leave a tiny negative residue on deterministic measures
    return max(h, 0.0)


def integrate(f: EdgePotential, mu: MarkovMeasure) -> float:
    """Edge average sum_{ij} p_i P_ij f_ij."""
    if not f.graph.same_graph(mu.graph):
        raise ValueError("potential and measure live on different graphs")
    return float(mu.stationary @ (mu.transitions * f.values).sum(axis=1))


# ---------------------------------------------------------------------------
# Text format: one graph plus two potentials (damping a, base potential phi).
#
#   line 1:            n
#   following lines:   i j a_ij phi_ij      (0-based states, two reals)
#
# Blank lines and lines starting with '#' are ignored.


def load_system(path) -> tuple[TransitionGraph, EdgePotential, EdgePotential]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    n = None
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if n is None:
            if len(parts) != 1:
                raise GraphFormatError("expected a single state count", line=lineno)
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphFormatError(f"bad state count {parts[0]!r}", line=lineno)
            if n < 1:
                raise GraphFormatError("state count must be >= 1", line=lineno)
            continue
        if len(parts) != 4:
            raise GraphFormatError(
                f"expected 'i j a phi', got {len(parts)} fields", line=lineno
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            a_val, phi_val = float(parts[2]), float(parts[3])
        except ValueError:
            raise GraphFormatError(f"could not parse edge {text!r}", line=lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(f"edge ({i}, {j}) out of range for n={n}", line=lineno)
        if not (np.isfinite(a_val) and np.isfinite(phi_val)):
            raise GraphFormatError("edge weights must be finite", line=lineno)
        entries.append((lineno, i, j, a_val, phi_val))
    if n is None:
        raise GraphFormatError("empty input: no state count found")
    if not entries:
        raise GraphFormatError("no edges given")
    allowed = np.zeros((n, n), dtype=bool)
    a_vals = np.zeros((n, n))
    phi_vals = np.zeros((n, n))
    for lineno, i, j, a_val, phi_val in entries:
        if allowed[i, j]:
            raise GraphFormatError(f"duplicate edge ({i}, {j})", line=lineno)
        allowed[i, j] = True
        a_vals[i, j] = a_val
        phi_vals[i, j] = phi_val
    try:
        graph = TransitionGraph(allowed)
    except ValueError as exc:
        raise GraphFormatError(str(exc))
    return graph, EdgePotential(graph, a_vals), EdgePotential(graph, phi_vals)


def save_system(path, graph: TransitionGraph, a: EdgePotential,
                phi: EdgePotential) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{graph.n_states}\n")
        for i, j in graph.edges():
            fh.write(f"{i} {j} {float(a.values[i, j])!r} {float(phi.values[i, j])!r}\n")
