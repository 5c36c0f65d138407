#!/usr/bin/env python3
"""Compare the three pressure estimators on random weighted graphs.

For each random irreducible transition graph we compute the transfer
value (spectral, effectively exact), then watch the periodic-orbit and
Bowen estimates walk toward it as the horizon grows. The point of the
demo is the convergence rate: the orbit route oscillates with the cycle
structure while the Bowen route is biased high by its boundary term,
and both land within the advertised tolerance by T = 40.

Run:
    python3 demos/compare_pressure_routes.py --graphs 5 --seed 3
"""

import argparse

import numpy as np

from thermopress.errors import ZeroMassError
from thermopress.pressure import (
    pressure_bowen,
    pressure_periodic_orbits,
    pressure_transfer,
)
from thermopress.sft import EdgePotential, TransitionGraph, golden_mean_shift


def random_instance(rng, n):
    A = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for k in range(n):
        A[order[k], order[(k + 1) % n]] = True
    A |= rng.random((n, n)) < 0.4
    g = TransitionGraph(A.shape[0], *np.nonzero(A))
    f = EdgePotential.from_edges(
        g, {e: float(rng.uniform(-1.0, 1.0)) for e in g.edges()}
    )
    return g, f


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graphs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t-max", type=int, default=40)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    horizons = [5, 10, 20, args.t_max]

    print("golden mean shift, zero potential")
    g = golden_mean_shift()
    f = EdgePotential.constant(g, 0.0)
    exact = pressure_transfer(g, f).value
    print(f"  transfer          {exact:+.12f}")
    for T in horizons:
        per = pressure_periodic_orbits(g, f, T).value
        bow = pressure_bowen(g, f, T).value
        print(f"  T={T:3d}  orbits {per:+.9f} ({per - exact:+.2e})"
              f"   bowen {bow:+.9f} ({bow - exact:+.2e})")

    worst = 0.0
    for k in range(args.graphs):
        n = int(rng.integers(2, 7))
        g, f = random_instance(rng, n)
        exact = pressure_transfer(g, f).value
        print(f"\nrandom graph {k}: {n} states, {len(g.edges())} edges,"
              f" transfer {exact:+.9f}")
        for T in horizons:
            bow = pressure_bowen(g, f, T).value
            errors = [abs(bow - exact)]
            try:
                per = pressure_periodic_orbits(g, f, T).value
            except ZeroMassError:  # a periodic graph whose period misses T
                orbits = f"n/a (no cyclic words of length {T})"
            else:
                orbits = f"{per - exact:+.3e}"
                errors.append(abs(per - exact))
            print(f"  T={T:3d}  orbits {orbits}   bowen {bow - exact:+.3e}")
            if T == args.t_max:
                worst = max(worst, *errors)

    print(f"\nworst route error at T={args.t_max}: {worst:.3e}")


if __name__ == "__main__":
    main()
