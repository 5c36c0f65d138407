#!/usr/bin/env python3
"""Walk the hyperbolic-torus-map pipeline end to end.

Steps, in order: code a chosen periodic orbit by the 3-cell Markov
partition of the area-preserving torus map, read the partition's
refinement at the requested symbolic scale through an automaton over
the orbit's windows (the refinement itself is counted, never built),
switch on damping everywhere except an epsilon-window around the orbit,
locate the undamped set, and then push beta up until the damped
pressure (offset by half the expansion rate) goes negative.

The headline numbers: undamped pressure is +lambda/2, the pressure
restricted to the bare orbit is -lambda/2, and a finite beta already
puts the full damped pressure below zero, so the construction needs no
limit to certify a spectral gap.
"""

import argparse
import json
from fractions import Fraction

from thermopress.catmap import (
    LYAPUNOV,
    orbit_damping_report,
    refinement_for_scale,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epsilon", type=float, default=2.0 ** -4,
                    help="half-width of the undamped window on the torus")
    ap.add_argument("--beta-max", type=float, default=50.0)
    ap.add_argument("--point", default="0,0",
                    help="periodic point as x,y (rationals allowed)")
    ap.add_argument("--json", action="store_true",
                    help="dump the full report instead of the narrative")
    args = ap.parse_args()

    print(f"torus map lyapunov exponent: {LYAPUNOV:.12f}")
    order = refinement_for_scale(args.epsilon)
    print(f"epsilon {args.epsilon:g} needs refinement order {order}"
          f" (cylinder scale {2.0 ** -order:g})")

    point = tuple(Fraction(c) for c in args.point.split(","))
    rep = orbit_damping_report(args.epsilon, beta_max=args.beta_max,
                               point=point)
    if args.json:
        print(json.dumps(rep, indent=2, sort_keys=True))
        return

    print(f"refined graph: {rep['n_states']} states,"
          f" orbit period {rep['orbit_period']},"
          f" itinerary {rep['orbit_itinerary']}")
    print(f"minimum damping average a0 = {rep['min_average']:g}")
    print(f"undamped edges: {rep['undamped_edges']}"
          f" (isolated orbit: {rep['undamped_set_is_orbit']})")
    print(f"pressure with no damping:     {rep['pressure_undamped']:+.9f}")
    print(f"pressure on the undamped set: {rep['pressure_on_undamped']:+.9f}")
    if rep["regime"] == "above-threshold":
        print("window admits cycles besides the orbit; no decay threshold")
        return
    if rep["beta_star"] is None:
        print("no beta in range pushes the pressure negative"
              " (raise --beta-max)")
    else:
        print(f"first negative pressure at beta* = {rep['beta_star']:.6f}"
              f" (bracket width {rep['beta_star_enclosure']:.1e})"
              f" where Pr = {rep['pressure_at_beta_star']:+.3e}")
    print(f"curve at beta-max: {rep['final_pressure']:+.9f}"
          f" (limit verified: {rep['limit_verified']})")


if __name__ == "__main__":
    main()
