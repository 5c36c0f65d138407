"""Built-in model instances, so experiments and acceptance runs need no
external files.  Each factory returns (graph, a, phi) with a the damping
weight and phi the base potential."""

from __future__ import annotations

from .catmap import (damping_from_orbit, expansion_potential,
                     periodic_itinerary, refine)
from .sft import EdgePotential, TransitionGraph, full_shift, golden_mean_shift


def full2_instance():
    """Full 2-shift, damping 1 everywhere except the 1 -> 1 loop."""
    graph = full_shift(2)
    a = EdgePotential(graph, [1.0, 1.0, 1.0, 0.0])  # edges 00, 01, 10, 11
    return graph, a, EdgePotential.constant(graph, 0.0)


def golden_mean_instance():
    """Golden-mean shift, damping on the single edge 0 -> 1."""
    graph = golden_mean_shift()
    a = EdgePotential(graph, [0.0, 1.0, 0.0])  # edges 00, 01, 10
    return graph, a, EdgePotential.constant(graph, 0.0)


def two_loops_path_instance():
    """Two undamped loops joined by an undamped path whose return edge is
    damped: the minimizing cycles are the loops, but the connecting path
    is invisible to the damping as well, so the zero set is strictly
    larger than the union of minimizing cycles."""
    src, dst, vals = zip((0, 0, 0.0), (0, 1, 0.0), (1, 2, 0.0),
                         (2, 0, 0.7), (2, 2, 0.0))
    graph = TransitionGraph(3, src, dst)
    a = EdgePotential(graph, vals)
    return graph, a, EdgePotential.constant(graph, 0.0)


def catmap_instance(order: int = 4, strength: float = 1.0):
    """Refined coding of the torus automorphism with damping vanishing on
    the 2^-order neighborhood of the fixed point and the half-expansion
    base potential."""
    ref = refine(order)
    a = damping_from_orbit(ref, periodic_itinerary((0, 0)), strength)
    return ref.graph, a, expansion_potential(ref.graph)


BUILTINS = {
    "full2": full2_instance,
    "golden-mean": golden_mean_instance,
    "two-loops-path": two_loops_path_instance,
    "catmap": catmap_instance,
}


def get_builtin(name: str):
    if name not in BUILTINS:
        known = ", ".join(sorted(BUILTINS))
        raise ValueError(f"unknown builtin {name!r} (known: {known})")
    return BUILTINS[name]()
