"""Subshifts of finite type: transition graphs, edge potentials, cyclic
words, and Markov measures, together with the exact operations everything
else builds on (entropy, integrals).

Conventions: a potential assigns one real weight (nats per time step) to
every allowed edge, stored per edge in the graph's row-major (CSR) edge
order; all objects are immutable after construction and all operations
here are pure functions of their arguments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, GraphFormatError

STOCHASTIC_TOL = 1e-12
STATIONARY_TOL = 1e-10


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Directed graph on states 0..n_states-1, given by its edge arrays:
    edge k runs src[k] -> dst[k], in strictly increasing row-major order
    (by source, then target), and these arrays are the only copy of the
    edge set.  Every state needs an outgoing and an incoming edge.
    ``indptr`` (the edges leaving i are indptr[i]:indptr[i+1]) and
    ``irreducible`` (strong connectivity) are computed at construction.
    """

    n_states: int
    src: np.ndarray
    dst: np.ndarray
    indptr: np.ndarray = field(init=False)
    irreducible: bool = field(init=False)

    def __post_init__(self):
        n = int(self.n_states)
        src = np.asarray(self.src, dtype=np.intp)
        dst = np.asarray(self.dst, dtype=np.intp)
        if n < 1:
            raise ValueError("graph needs at least one state")
        if src.size != dst.size:
            raise ValueError(f"{src.size} edge sources but {dst.size} targets")
        # every state needs an outgoing edge; checked before any O(n) work
        if n > src.size:
            raise ValueError(f"{n} states but only {src.size} edges: every "
                             "state needs an outgoing edge")
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
            raise ValueError(f"edge state out of range for n={n}")
        bad = np.flatnonzero(np.diff(src * n + dst) <= 0)
        if bad.size:  # one check catches both unsorted and repeated edges
            raise ValueError(f"edge {bad[0] + 1} breaks the strictly "
                             "increasing row-major edge order")
        for what, ends in (("outgoing", src), ("incoming", dst)):
            dead = np.flatnonzero(np.bincount(ends, minlength=n) == 0)
            if dead.size:
                raise ValueError(f"{dead.size} states without {what} edges, "
                                 f"first {dead[:10].tolist()}")
        indptr = np.searchsorted(src, np.arange(n + 1))
        object.__setattr__(self, "n_states", n)
        for name, arr in (("src", src), ("dst", dst), ("indptr", indptr)):
            object.__setattr__(self, name, _frozen_array(arr, np.intp))
        n_comp, _ = connected_components(self.adjacency(), connection="strong")
        object.__setattr__(self, "irreducible", bool(n_comp == 1))

    @property
    def n_edges(self) -> int:
        return len(self.dst)

    def adjacency(self, weights=None) -> csr_matrix:
        """Sparse n x n matrix with the per-edge weights (ones if None)."""
        if weights is None:
            weights = np.ones(self.n_edges, dtype=np.int8)
        n = self.n_states
        return csr_matrix((weights, self.dst, self.indptr), shape=(n, n))

    @cached_property
    def two_sided(self) -> csr_matrix:
        """diag(A, A^T) in CSR form, A = adjacency(), holding edge ids, so
        diag(W, W^T) for W = adjacency(w) has data w[two_sided.data].  A^T
        lists each row's sources in ascending order, as A.T.tocsr() does:
        its edge order is a stable argsort of dst.  Read-only."""
        n, m = self.n_states, self.n_edges
        order = np.argsort(self.dst, kind="stable")
        into = np.searchsorted(self.dst[order], np.arange(n + 1))
        both = csr_matrix((np.concatenate((np.arange(m), order)),
                           np.concatenate((self.dst, self.src[order] + n)),
                           np.concatenate((self.indptr, into[1:] + m))),
                          shape=(2 * n, 2 * n))
        for x in (both.data, both.indices, both.indptr):
            x.setflags(write=False)
        return both

    def edge_id(self, i: int, j: int) -> int:
        """Position of the edge (i, j) in the edge arrays; KeyError when
        (i, j) is not an edge, including any state outside 0..n-1."""
        if 0 <= i < self.n_states and 0 <= j < self.n_states:
            lo, hi = self.indptr[i], self.indptr[i + 1]
            k = lo + np.searchsorted(self.dst[lo:hi], j)
            if k < hi and self.dst[k] == j:
                return int(k)
        raise KeyError(f"edge ({i}, {j}) is forbidden")

    def row_sums(self, x) -> np.ndarray:
        """sum_j x_ij per state i, for per-edge values x (or per row of x)."""
        return self._bin_sums(self.src, x)

    def column_sums(self, x) -> np.ndarray:
        """sum_i x_ij per state j, for per-edge values x (or per row of x)."""
        return self._bin_sums(self.dst, x)

    def _bin_sums(self, ends, x):
        """One bincount of x by edge ends, row b of a 2-d x offset by b n:
        as each state has edges in and out, no bin is missing at the end."""
        x, n = np.asarray(x), self.n_states
        bins = ends + n * np.arange(x.size // self.n_edges)[:, None]
        return np.bincount(bins.ravel(), x.ravel()).reshape(x.shape[:-1] + (n,))

    def edges(self) -> list[tuple[int, int]]:
        """All allowed (i, j) pairs in lexicographic order."""
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def successors(self, i: int) -> list[int]:
        return self.dst[self.indptr[i]:self.indptr[i + 1]].tolist()

    def same_graph(self, other: "TransitionGraph") -> bool:
        return self is other or (
            self.n_states == other.n_states
            and bool(np.array_equal(self.src, other.src))
            and bool(np.array_equal(self.dst, other.dst))
        )

    def __repr__(self):
        return f"TransitionGraph(n_states={self.n_states}, n_edges={self.n_edges}, irreducible={self.irreducible})"


def full_shift(n_symbols: int) -> TransitionGraph:
    """Full shift on n_symbols: every transition allowed."""
    return TransitionGraph(n_symbols, *np.divmod(np.arange(n_symbols**2), n_symbols))


def golden_mean_shift() -> TransitionGraph:
    """Two states, forbidden word 11: edges 0->0, 0->1 and 1->0."""
    return TransitionGraph(2, [0, 0, 1], [0, 1, 0])


@dataclass(frozen=True, eq=False)
class EdgePotential:
    """A real weight on every allowed edge of a graph.

    ``values[k]`` is the weight of edge k of the graph's edge arrays, so
    forbidden pairs carry no value and querying one raises KeyError.
    Supports the vector operations needed for one-parameter families:
    f + g, -f, beta * f, f + const.
    """

    graph: TransitionGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.graph.n_edges,):
            raise ValueError("potential shape does not match graph")
        if not np.isfinite(vals).all():
            raise ValueError("potential must be finite on allowed edges")
        object.__setattr__(self, "values", _frozen_array(vals, float))

    def value(self, i: int, j: int) -> float:
        return float(self.values[self.graph.edge_id(i, j)])

    def log_matrix(self) -> np.ndarray:
        """Dense matrix of edge weights with -inf on forbidden pairs; the
        one entry to the dense routes, so it refuses (ConvergenceError)
        rather than try 8 n^2 bytes beyond physical memory."""
        n = self.graph.n_states
        if 8 * n * n > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ConvergenceError(f"a dense {n} x {n} log matrix exceeds memory")
        out = np.full((n, n), -np.inf)
        out[self.graph.src, self.graph.dst] = self.values
        return out

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    @classmethod
    def constant(cls, graph: TransitionGraph, c: float) -> "EdgePotential":
        return cls(graph, np.full(graph.n_edges, float(c)))

    @classmethod
    def from_edges(cls, graph, edge_values: dict) -> "EdgePotential":
        """Build from {(i, j): value}; every allowed edge must appear."""
        vals = np.zeros(graph.n_edges)
        seen = np.zeros(graph.n_edges, dtype=bool)
        for (i, j), v in edge_values.items():
            k = graph.edge_id(i, j)
            vals[k], seen[k] = v, True
        if not seen.all():
            k = np.argmin(seen)
            raise ValueError(f"no value given for allowed edge "
                             f"({graph.src[k]}, {graph.dst[k]})")
        return cls(graph, vals)

    def __add__(self, other):
        if isinstance(other, EdgePotential):
            if not self.graph.same_graph(other.graph):
                raise ValueError("potentials live on different graphs")
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
        for i, j in zip(states, states[1:] + states[:1]):
            if not (0 <= i < self.graph.n_states
                    and j in self.graph.successors(i)):
                raise ValueError(f"transition ({i}, {j}) is forbidden")
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.states)

    def edges(self) -> list[tuple[int, int]]:
        s = self.states
        return list(zip(s, s[1:] + s[:1]))


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Shift-invariant Markov measure, stored as its edge mass: mass[k] =
    p_i P_ij, the measure of the cylinder [i j] of edge k = (i, j).  The
    stationary vector p (the row marginal) and the transitions P (mass /
    p_i, 0 on zero-mass states) are derived from it, so rows of P are
    stochastic by construction.  Validated: mass >= 0, total 1 to
    STOCHASTIC_TOL, and equal marginals (p P = p) to STATIONARY_TOL.
    """

    graph: TransitionGraph
    mass: np.ndarray
    stationary: np.ndarray = field(init=False)
    transitions: np.ndarray = field(init=False)

    def __post_init__(self):
        g = self.graph
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (g.n_edges,):
            raise ValueError("measure shape does not match graph")
        (p,), (P,) = _markov_rows(g, mass[None])
        for name, arr in (("mass", mass), ("stationary", p),
                          ("transitions", P)):
            object.__setattr__(self, name, _frozen_array(arr, float))


def _markov_rows(graph, mass):
    """MarkovMeasure's checks and (stationary, transitions), per row."""
    if not (mass >= 0).all():  # NaN fails too
        raise ValueError("edge mass must be nonnegative")
    if not (np.abs(mass.sum(axis=1) - 1.0) <= STOCHASTIC_TOL).all():
        raise ValueError("edge mass must sum to 1")
    p = graph.row_sums(mass)
    if np.abs(graph.column_sums(mass) - p).max() > STATIONARY_TOL:
        raise ValueError("edge mass fails p P = p: marginals differ")
    at_src = p[:, graph.src]
    return p, np.divide(mass, at_src, out=np.zeros_like(mass),
                        where=at_src > 0)


def ks_entropy(mu: MarkovMeasure) -> float:
    """Entropy rate -sum_ij p_i P_ij log P_ij, with 0 log 0 = 0."""
    return _entropy_rows(mu.mass[None], mu.transitions[None])[0]


def _entropy_rows(mass, P):
    """ks_entropy per row of edge masses and their transitions."""
    logP = np.log(P, out=np.zeros_like(P), where=P > 0)
    # roundoff can leave a tiny negative residue on deterministic measures
    return [max(-float(m @ h), 0.0) for m, h in zip(mass, logP)]


def integrate(f: EdgePotential, mu: MarkovMeasure) -> float:
    """Edge average sum_{ij} p_i P_ij f_ij."""
    if not f.graph.same_graph(mu.graph):
        raise ValueError("potential and measure live on different graphs")
    return float(f.values @ mu.mass)


# ---------------------------------------------------------------------------
# Text format: one graph plus two potentials (damping a, base potential phi).
#
#   line 1:            n
#   following lines:   i j a_ij phi_ij      (0-based states, two reals)
#
# Blank lines and lines starting with '#' are ignored.


def load_system(path) -> tuple[TransitionGraph, EdgePotential, EdgePotential]:
    with open(path, "r", encoding="utf-8") as fh:
        content = [(k, text) for k, text in enumerate(map(str.strip, fh), 1)
                   if text and not text.startswith("#")]
    if not content:
        raise GraphFormatError("empty input: no state count found")
    lineno, header = content[0]
    if len(header.split()) != 1:
        raise GraphFormatError("expected a single state count", line=lineno)
    try:
        n = int(header)
    except ValueError:
        raise GraphFormatError(f"bad state count {header!r}", line=lineno)
    if n < 1:
        raise GraphFormatError("state count must be >= 1", line=lineno)
    linenos, texts = zip(*content[1:]) if len(content) > 1 else ((), ())
    fields = [len(text.split()) for text in texts]
    # rows before the first malformed one are checked at once, in file order
    end = next((k for k, m in enumerate(fields) if m != 4), len(fields))
    error = (None if end == len(fields) else
             f"expected 'i j a phi', got {fields[end]} fields")
    tokens = " ".join(texts[:end]).split()
    try:  # columns i, j, a, phi; i and j parse as int
        table = np.concatenate((
            np.array(tokens[0::4] + tokens[1::4], dtype=np.int64),
            np.array(tokens[2::4] + tokens[3::4], dtype=float))).reshape(4, end).T
    except (ValueError, OverflowError):  # find the row; Python ints are unbounded
        parsed = []
        for k, row in enumerate(map(str.split, texts[:end])):
            try:  # states clamped to [-1, n] stay out of range if they were
                parsed.append([*(max(-1, min(int(v), n)) for v in row[:2]),
                               *map(float, row[2:])])
            except ValueError:
                end, error = k, f"could not parse edge {texts[k]!r}"
                break
        table = np.array(parsed, dtype=float).reshape(end, 4)
    in_range = ((table[:, :2] >= 0) & (table[:, :2] < n)).all(axis=1)
    finite = np.isfinite(table[:, 2:]).all(axis=1)
    order = np.lexsort(table[:, 1::-1].T)  # stable: the graph's edge order
    repeat = np.zeros(end, dtype=bool)
    repeat[order[1:]] = (table[order[1:], :2] == table[order[:-1], :2]).all(
        axis=1) & in_range[order[1:]]
    if (bad := ~in_range | ~finite | repeat).any():
        end = int(np.argmax(bad))
        i, j = map(int, texts[end].split()[:2])
        error = (f"edge ({i}, {j}) out of range for n={n}"
                 if not in_range[end] else "edge weights must be finite"
                 if not finite[end] else f"duplicate edge ({i}, {j})")
    if error is not None:
        raise GraphFormatError(error, line=linenos[end])
    if not texts:
        raise GraphFormatError("no edges given")
    try:
        graph = TransitionGraph(n, *table[order, :2].T.astype(np.int64))
    except ValueError as exc:
        raise GraphFormatError(str(exc))
    return (graph, EdgePotential(graph, table[order, 2]),
            EdgePotential(graph, table[order, 3]))


def save_system(path, graph: TransitionGraph, a: EdgePotential,
                phi: EdgePotential) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{graph.n_states}\n")
        for (i, j), a_val, phi_val in zip(graph.edges(), a.values, phi.values):
            fh.write(f"{i} {j} {float(a_val)!r} {float(phi_val)!r}\n")
