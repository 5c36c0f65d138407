#!/usr/bin/env python3
"""Trace the damped-pressure curve down to its restricted-pressure limit.

Sweeps beta for the full-2-shift builtin and prints the compensated
pressure together with the sandwich bounds, the equilibrium damping
average, and the entropy of the equilibrium state. Optionally repeats
the sweep on random instances to show the same squeeze.
"""

import argparse

import numpy as np

from thermopress.instances import full2_instance, two_loops_path_instance
from thermopress.sft import EdgePotential, TransitionGraph
from thermopress.thermo import default_schedule, thermo_curve, verify_limit

BUILTINS = {
    "full2": full2_instance,
    "two-loops-path": two_loops_path_instance,
}


def show(curve, every=4):
    print(f"  Pr(phi) = {curve.pressure_phi:+.9f}"
          f"   restricted limit = {curve.limit_target:+.9f}"
          f"   a0 = {curve.a0:.6f}")
    print("  beta    value       eq<a>      eq entropy")
    for k in range(0, len(curve), every):
        print(f"  {curve.betas[k]:5.1f} {curve.values[k]:+.8f}"
              f"  {curve.eq_averages[k]:.6f}  {curve.eq_entropies[k]:.6f}")
    ok, diag = verify_limit(curve)
    print(f"  verdict: {'converged' if ok else diag}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--builtin", choices=sorted(BUILTINS), default="full2")
    ap.add_argument("--beta-max", type=float, default=30.0)
    ap.add_argument("--random", type=int, default=0,
                    help="also sweep this many random instances")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g, a, phi = BUILTINS[args.builtin]()
    print(f"{args.builtin}: {g.n_states} states")
    show(thermo_curve(g, a, phi, default_schedule(args.beta_max, 0.5)))

    rng = np.random.default_rng(args.seed)
    for k in range(args.random):
        n = int(rng.integers(2, 6))
        A = np.zeros((n, n), dtype=bool)
        order = rng.permutation(n)
        for i in range(n):
            A[order[i], order[(i + 1) % n]] = True
        A |= rng.random((n, n)) < 0.4
        g = TransitionGraph(A.shape[0], *np.nonzero(A))
        a = EdgePotential.from_edges(
            g, {e: 0.0 if rng.random() < 0.5 else float(rng.uniform(0.1, 1.5))
                for e in g.edges()})
        phi = EdgePotential.from_edges(
            g, {e: float(rng.uniform(-1.0, 1.0)) for e in g.edges()})
        print(f"\nrandom instance {k}: {n} states")
        show(thermo_curve(g, a, phi, default_schedule(args.beta_max, 1.0)),
             every=8)


if __name__ == "__main__":
    main()
