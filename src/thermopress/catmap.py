"""Symbolic dynamics for the hyperbolic torus automorphism [[2,1],[1,1]].

In the expanding/contracting eigencoordinates

    U = g*x + y,   S = x - g*y,        g = (1 + sqrt 5)/2,

the map acts by (U, S) -> (g^2 U, S / g^2) and the integer lattice becomes
the lattice spanned by (g, 1) and (1, -g).  Three half-open rectangles

    C0 = [0, 1) x [0, g),   C1 = [1, g) x [0, g),   C2 = [g, g+1) x [0, 1)

tile the plane under that lattice and form a Markov partition; the induced
subshift has transition matrix [[1,1,1],[1,1,0],[1,1,1]], whose Perron
root g^2 recovers the expansion rate LYAPUNOV = log g^2.  Membership is
decided in exact Q(sqrt 5) arithmetic, floats only ruling out the cells a
point misses by more than 1e-9, and the map is iterated in exact
rationals, so codings of rational points are reproducible.

cell_map and code give the cells a point visits; refine recodes on
words of a fixed length, held as base-3 codes, refusing an order whose
words cannot fit in physical memory; state_of_word counts a word's
state.  damping_from_orbit damps a refinement off a neighborhood of a
periodic orbit, given by its itinerary; window_automaton is the same
damped coding on at most p*order + 3 states, and orbit_damping_report
runs the full pressure-decay computation for one orbit on it alone.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InvariantViolation
from .ergopt import minimize
from .pressure import pressure_transfer
from .sft import EdgePotential, TransitionGraph
from .thermo import default_schedule, find_gap_beta, thermo_curve, verify_limit

_SQRT5 = math.sqrt(5.0)
# a candidate cell is ruled out in floats only when the point misses it by
# more than this; the float translates of a point of [0, 1)^2 are off by
# about 1e-15, so no cell that holds the point is ever ruled out
BOUNDARY_MARGIN = 1e-9
# log of the expanding eigenvalue g^2 = (3 + sqrt 5)/2, in nats per step
LYAPUNOV = math.log((3 + _SQRT5) / 2.0)
# bytes per refined state (codes, edge arrays, solver vectors, measures):
# peak RSS of `catmap --refine k --point 1/2,0 --beta-max 50` was 87, 121,
# 199 and 413 MB at k = 10-13 while that report solved on the refinement,
# 468, 418 and 435 B per added state, rounded up
STATE_BYTES = 500


class Qs5:
    """Exact element p + q*sqrt(5) of the quadratic field, p and q rational.

    Comparisons are exact: when p and q disagree in sign the order is
    decided by comparing p^2 against 5 q^2.
    """

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        self.p = Fraction(p)
        self.q = Fraction(q)

    def __add__(self, other):
        other = _coerce(other)
        return Qs5(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        other = _coerce(other)
        return Qs5(self.p - other.p, self.q - other.q)

    def __mul__(self, other):
        other = _coerce(other)
        return Qs5(self.p * other.p + 5 * self.q * other.q,
                   self.p * other.q + self.q * other.p)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Qs5(-self.p, -self.q)

    def sign(self):
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return (self.q > 0) - (self.q < 0)
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        pp, qq = self.p * self.p, 5 * self.q * self.q
        if self.p > 0:  # q < 0
            return 1 if pp > qq else -1
        return -1 if pp > qq else 1

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __eq__(self, other):
        d = self - _coerce(other)
        return d.p == 0 and d.q == 0

    def __hash__(self):
        return hash((self.p, self.q))

    def __float__(self):
        return float(self.p) + float(self.q) * _SQRT5

    def __repr__(self):
        return f"Qs5({self.p}, {self.q})"


def _coerce(v):
    if isinstance(v, Qs5):
        return v
    return Qs5(v)


GOLDEN = Qs5(Fraction(1, 2), Fraction(1, 2))

# rectangle bounds (u_lo, u_hi, s_lo, s_hi), half-open on the high side
_CELLS = (
    (Qs5(0), Qs5(1), Qs5(0), GOLDEN),
    (Qs5(1), GOLDEN, Qs5(0), GOLDEN),
    (GOLDEN, GOLDEN + 1, Qs5(0), Qs5(1)),
)
_CELLS_F = tuple(tuple(float(b) for b in cell) for cell in _CELLS)

# coding transition matrix of the partition
PARTITION_MATRIX = ((1, 1, 1), (1, 1, 0), (1, 1, 1))


def _cat_step(x, y):
    """One exact step (x, y) -> (2x + y, x + y) mod 1 of the cat map."""
    return (2 * x + y) % 1, (x + y) % 1


def _reduction_candidates(uf, sf):
    """Integer lattice-coordinate window certain to contain the translate
    mapping (U, S) into the fundamental domain."""
    denom = _SQRT5 + 2.0  # g + 2 = |det| of the coordinate change
    g = float(GOLDEN)
    alpha = (g * uf + sf) / denom
    beta = (uf - g * sf) / denom
    ma, mb = math.floor(alpha), math.floor(beta)
    return [(m, n)
            for m in range(ma - 2, ma + 3)
            for n in range(mb - 2, mb + 3)]


def _classify(x, y):
    """Cell index of the point (x, y) of [0, 1)^2, x and y rational.
    Floats rule out each candidate cell the point misses by more than
    BOUNDARY_MARGIN; exact arithmetic decides the rest and verifies that
    exactly one translate lands in the fundamental domain."""
    g = float(GOLDEN)
    uf, sf = g * float(x) + float(y), float(x) - g * float(y)
    U = GOLDEN * x + Qs5(y)
    S = Qs5(x) - GOLDEN * y
    hits = []
    for m, n in _reduction_candidates(uf, sf):
        u, s = uf - m * g - n, sf - m + n * g
        for c, (ulo, uhi, slo, shi) in enumerate(_CELLS_F):
            if min(u - ulo, uhi - u, s - slo, shi - s) < -BOUNDARY_MARGIN:
                continue
            ue = U - GOLDEN * m - Qs5(n)
            se = S - Qs5(m) + GOLDEN * n
            ulo, uhi, slo, shi = _CELLS[c]
            if ulo <= ue and ue < uhi and slo <= se and se < shi:
                hits.append(c)
    if len(hits) != 1:
        raise InvariantViolation(
            f"point ({x}, {y}) hit {len(hits)} rectangles; tiling broken"
        )
    return hits[0]


def _windows(itinerary, length):
    """The cyclic windows of the given length, one row per start."""
    p = len(itinerary)
    return np.asarray(itinerary)[(np.arange(p)[:, None] + np.arange(length)) % p]


class SymbolicRefinement:
    """Subshift on words of length order+1 of the partition coding,
    conjugate to the original system; edges are overlaps.  States are the
    admissible words in lexicographic order, held as their ascending
    base-3 codes: word w has code sum_i w_i 3^(order-i), and for words of
    one length lexicographic order is numeric order of the codes."""

    def __init__(self, order, codes, graph):
        self.order = order
        self.codes = codes
        self.graph = graph

    @property
    def n_states(self):
        return self.codes.size

    def __repr__(self):
        return f"SymbolicRefinement(order={self.order}, states={self.n_states})"


def cell_map(point) -> int:
    """Rectangle index of a torus point, boundary-exact for rational
    coordinates (floats are rationals too, so any input is decidable)."""
    return _classify(Fraction(point[0]) % 1, Fraction(point[1]) % 1)


def code(point, length: int) -> tuple:
    """Cells visited by the first `length` iterates of a torus point."""
    if length < 1:
        raise ValueError("length must be >= 1")
    x, y = Fraction(point[0]) % 1, Fraction(point[1]) % 1
    out = []
    for _ in range(length):
        out.append(_classify(x, y))
        x, y = _cat_step(x, y)
    return tuple(out)


def _word_counts(order: int) -> np.ndarray:
    """Row m counts the admissible words of m + 1 symbols by first symbol,
    m = 0..order; ValueError from order 45 on, where they outnumber int64."""
    allowed = np.array(PARTITION_MATRIX, dtype=object)  # exact Python ints
    rows = [np.ones(3, dtype=object)]
    for _ in range(order):
        rows.append(allowed @ rows[-1])
        if rows[-1].sum() > np.iinfo(np.int64).max:
            raise ValueError(f"refinement order {order} has more than 2**63 - 1"
                             " states: its state ids overflow int64")
    return np.array(rows, dtype=np.int64)


def state_of_word(word) -> int:
    """State of a word in refine(len(word) - 1): its rank among the
    admissible words of its length, per position those that agree before
    it and read a smaller symbol there.  KeyError for a word with no state."""
    word = tuple(word)
    if not word or not set(word) <= {0, 1, 2}:
        raise KeyError(word)
    rank, after = 0, (1, 1, 1)
    counts = _word_counts(len(word) - 1)[::-1].tolist()
    for s, row in zip(map(int, word), counts):
        if not after[s]:
            raise KeyError(word)
        rank += sum(n for n, ok in zip(row[:s], after) if ok)
        after = PARTITION_MATRIX[s]
    return rank


def refine(order: int) -> SymbolicRefinement:
    """Recode on words of length order+1; order 0 is the coding itself.
    ValueError when the words would not fit in physical memory at
    STATE_BYTES each."""
    if order < 0:
        raise ValueError("order must be >= 0")
    # count the words and refuse, before building any, an order that
    # cannot fit
    n = int(_word_counts(order)[-1].sum())
    if n * STATE_BYTES > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ValueError(f"refinement order {order} has {n} states, beyond"
                         f" physical memory at {STATE_BYTES} B each")
    allowed = np.array(PARTITION_MATRIX, dtype=bool)
    codes = np.arange(3, dtype=np.int64)
    for _ in range(order):
        i, t = np.nonzero(allowed[codes % 3])
        codes = 3 * codes[i] + t
    # u -> (u mod 3^order)*3 + t: row-major, as codes rise and t rises
    src, t = np.nonzero(allowed[codes % 3])
    dst = np.searchsorted(codes, codes[src] % 3 ** order * 3 + t)
    return SymbolicRefinement(order, codes, TransitionGraph(codes.size, src, dst))


def periodic_itinerary(point, limit: int = 1024) -> tuple:
    """Cells visited by a periodic point over one period; ValueError if
    the point does not return within `limit` steps."""
    start = (Fraction(point[0]) % 1, Fraction(point[1]) % 1)
    seq = []
    p = start
    for _ in range(limit):
        seq.append(_classify(*p))
        p = _cat_step(*p)
        if p == start:
            return tuple(seq)
    raise ValueError(f"point {point} did not return within {limit} steps")


def refinement_for_scale(epsilon: float) -> int:
    """Word length exponent making cylinder diameter 2^-order at most
    epsilon.  The symbolic metric never exceeds 1, so scales above 1 are
    meaningless and rejected; scale exactly 1 needs no refinement."""
    if not epsilon > 0:
        raise ValueError("scale must be positive")
    if epsilon > 1:
        raise ValueError("scale exceeds the symbolic diameter 1")
    return max(0, math.ceil(-math.log2(epsilon) - 1e-12))


def _check_orbit_damping(itinerary, order: int, strength: float) -> tuple:
    """The itinerary as a tuple of ints; ValueError unless it is nonempty,
    PARTITION_MATRIX allows each step, the last back to the first, and
    order and strength are nonnegative."""
    itinerary = tuple(int(s) for s in itinerary)
    if not itinerary:
        raise ValueError("itinerary must have length >= 1")
    for s, t in zip(itinerary, itinerary[1:] + itinerary[:1]):
        if not (0 <= s < 3 and 0 <= t < 3 and PARTITION_MATRIX[s][t]):
            raise ValueError(f"transition ({s}, {t}) is forbidden")
    if order < 0:
        raise ValueError("order must be >= 0")
    if strength < 0:
        raise ValueError("strength must be nonnegative")
    return itinerary


def damping_from_orbit(refinement: SymbolicRefinement, itinerary,
                       strength: float = 1.0) -> EdgePotential:
    """Damping on the refined graph that vanishes exactly on the symbolic
    2^-order neighborhood of the periodic orbit with this itinerary and
    equals `strength` elsewhere.

    An edge costs 0 when the first `order` symbols of its source word
    match some cyclic window of the orbit (those cylinders meet the
    neighborhood), else `strength`.  At order 0 every cylinder meets the
    neighborhood and the weight is identically zero.
    """
    order = refinement.order
    itinerary = _check_orbit_damping(itinerary, order, strength)
    zero_source = np.isin(refinement.codes // 3, _windows(itinerary, order)
                          @ 3 ** np.arange(order - 1, -1, -1))
    graph = refinement.graph
    return EdgePotential(graph, np.where(zero_source[graph.src], 0.0, strength))


def expansion_potential(graph: TransitionGraph) -> EdgePotential:
    """Constant potential on a coding's graph: half the log of the backward
    unstable Jacobian, which is minus half the expansion rate.  Its
    pressure controls energy decay rates for the damped flow."""
    return EdgePotential.constant(graph, -0.5 * LYAPUNOV)


def window_automaton(itinerary, order: int, strength: float = 1.0):
    """The coding read by an Aho-Corasick automaton over the cyclic windows
    of length `order` of a periodic itinerary, with the damping of
    damping_from_orbit and the phi of expansion_potential; the inputs are
    checked as damping_from_orbit checks them.

    A state is (s, c): s the longest suffix read that is a prefix of a
    window, c the last symbol; states are numbered in ascending order of
    (s, c).  Reading t, where PARTITION_MATRIX allows it after c, leads to
    (the longest suffix of s + t that is a window prefix, t), and the edge
    costs 0 when s is a whole window, `strength` otherwise: the refined
    edge whose source word is the last `order` symbols read, then t,
    costs the same.  After `order` symbols the state depends on those
    symbols alone, so the terminal strongly connected class, the only
    one kept, is a right-resolving presentation of the refinement with
    the same Pr(phi - beta a) for every beta (Lind and Marcus, ch. 3), on
    at most p*order + 3 states.  Returns (graph, a, phi), as load_system,
    and words: row e is the refined word s + (t,) edge e reads where s is
    a whole window, else -1s; edges e -> f read words[e] -> words[f].
    """
    itinerary = _check_orbit_damping(itinerary, order, strength)
    prefixes = {tuple(w[:m]) for w in _windows(itinerary, order).tolist()
                for m in range(order + 1)}
    keys = sorted({(s, s[-1]) for s in prefixes if s}
                  | {((), c) for c in range(3)})
    index = {key: i for i, key in enumerate(keys)}
    edges = []
    for i, (s, c) in enumerate(keys):
        for t in np.flatnonzero(PARTITION_MATRIX[c]).tolist():
            u = s + (t,)
            while u not in prefixes:
                u = u[1:]
            whole = len(s) == order
            edges.append((i, index[u, t], 0.0 if whole else strength,
                          s + (t,) if whole else (-1,) * (order + 1)))
    src, dst, cost, words = (np.array(x) for x in zip(*sorted(edges)))
    n = len(keys)
    _, label = connected_components(
        csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n)),
        connection="strong")
    (terminal,) = np.setdiff1d(label, label[src[label[src] != label[dst]]])
    keep = label == terminal
    new = np.cumsum(keep) - 1
    kept = keep[src]
    graph = TransitionGraph(keep.sum(), new[src[kept]], new[dst[kept]])
    return (graph, EdgePotential(graph, cost[kept]), expansion_potential(graph),
            words[kept])


def orbit_damping_report(epsilon: float, strength: float = 1.0,
                         point=(0, 0), beta_max: float = 40.0,
                         beta_step: float = 0.5) -> dict:
    """End-to-end pressure-decay computation for damping supported off the
    epsilon-neighborhood of one periodic orbit of the cat map.

    Builds no refinement: n_states counts its words, and one minimize on
    the orbit's window_automaton gives a0, the limit target and the
    refined critical edges, between the state_of_word of the words that
    consecutive critical edges read.  If those are exactly the orbit's,
    between its p distinct states (epsilon below the isolation threshold),
    runs the damped pressure curve, audits it, and finds the strength
    where the pressure turns negative (find_gap_beta: warm-started Newton
    with certified signs), both on the automaton.  Otherwise reports the
    above-threshold regime, which is a finding, not an error.
    All values are plain JSON types; undamped_edges lists the refined
    critical edges as ascending [i, j] pairs.
    entropy is LYAPUNOV, as a higher-block recoding keeps h_top; each
    other number comes from one solve: pressure_undamped from the curve's
    beta = 0 point (from its own solve above the threshold), and
    beta_star, beta_star_enclosure and pressure_at_beta_star from
    find_gap_beta's bracket and the solve that certified beta_star.
    """
    order = refinement_for_scale(epsilon)
    n_states = int(_word_counts(order)[-1].sum())
    itinerary = periodic_itinerary(point)
    graph, a, phi, words = window_automaton(itinerary, order, strength)
    result = minimize(graph, a, phi)
    crit = result.critical_edges
    if (words[crit] < 0).any():  # strength within Howard's tolerance of 0
        raise ValueError(f"strength {strength!r} leaves a damped edge critical")
    ranks = [state_of_word(w) for w in words[crit]]
    follows = np.nonzero(graph.dst[crit][:, None] == graph.src[crit])
    undamped = sorted({(ranks[e], ranks[f]) for e, f in zip(*follows)})
    orbit = [state_of_word(w) for w in _windows(itinerary, order + 1)]
    # a state the orbit visits twice closes cycles besides the orbit
    isolated = len(set(orbit)) == len(orbit) and undamped == sorted(
        zip(orbit, orbit[1:] + orbit[:1]))
    if isolated:
        curve = thermo_curve(graph, a, phi, default_schedule(
            beta_max, beta_step), minimization=result)
    report = {
        "lyapunov": LYAPUNOV,
        "entropy": LYAPUNOV,
        "epsilon": float(epsilon),
        "refinement_order": order,
        "symbolic_scale": 2.0 ** (-order),
        "n_states": n_states,
        "orbit_period": len(itinerary),
        "orbit_itinerary": list(itinerary),
        "strength": float(strength),
        "min_average": result.value,
        "undamped_edges": [list(e) for e in undamped],
        "pressure_on_undamped": result.restricted_pressure,
        "pressure_undamped": (curve.pressure_phi if isolated
                              else pressure_transfer(graph, phi).value),
        "undamped_set_is_orbit": isolated,
    }
    if not isolated:
        # neighborhood admits cycles besides the orbit; the restricted
        # pressure need not be negative and no decay threshold is claimed
        report["regime"] = "above-threshold"
        report["beta_star"] = None
        report["beta_star_enclosure"] = None
        report["pressure_at_beta_star"] = None
        report["final_pressure"] = None
        report["decays"] = False
        return report
    ok, diag = verify_limit(curve, tol=1e-6)
    # a short schedule may stop before the limit is reached; only the
    # bracketing and monotonicity checks signal an actual bug
    if not ok and diag["failed_check"] != "limit-gap":
        raise InvariantViolation(f"pressure curve failed audit: {diag}")
    gap = find_gap_beta(graph, a, phi, beta_max=beta_max, minimization=result)
    found = gap.hi is not None
    report["regime"] = "below-threshold"
    report["limit_verified"] = bool(ok)
    report["beta_star"] = gap.hi
    report["beta_star_enclosure"] = gap.hi - gap.lo if found else None
    report["pressure_at_beta_star"] = gap.at_hi.log_rho if found else None
    report["final_pressure"] = float(curve.values[-1]
                                     - curve.betas[-1] * curve.a0)
    report["final_beta"] = float(curve.betas[-1])
    report["decays"] = found
    return report
