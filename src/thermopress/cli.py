"""Command line front end.

Four subcommands drive the library end to end and write CSV/JSON for
external plotting:

    pressure   three pressure routes on one system
    thermo     damped pressure curve plus its audit
    catmap     the full orbit-damping computation on the torus map
    wave       damped wave spectrum, energy history, decay fit

Every number is emitted with 12 significant digits, CSV uses comma
separators and LF endings, and reruns of the same command line are
byte-identical.  Exit codes: 0 ok, 2 usage or input error, 3 numeric
failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .catmap import orbit_damping_report
from .errors import (ConvergenceError, GraphFormatError, InvariantViolation,
                     NotIrreducibleError, ZeroMassError)
from .instances import get_builtin
from .pressure import (_sig12, pressure_bowen, pressure_periodic_orbits,
                       pressure_transfer)
from .sft import load_system
from .thermo import (default_schedule, measure_convergence, thermo_curve,
                     verify_limit)
from .wave import (LENGTH, build_system, evolve, fit_decay_rate,
                   spectrum_gap)


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON."""
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write(directory: Path, name: str, text: str):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(text, encoding="utf-8", newline="\n")


def _write_json(directory: Path, name: str, obj):
    _write(directory, name, json.dumps(_round12(obj), indent=2) + "\n")


def _load(args):
    if args.builtin is not None:
        return get_builtin(args.builtin)
    return load_system(args.input)


def _add_system_source(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", metavar="NAME",
                        help="built-in instance: full2, golden-mean, "
                             "two-loops-path, catmap")
    source.add_argument("--input", metavar="FILE",
                        help="system file: 'n' then lines 'i j a phi'")


def _add_common(sub):
    sub.add_argument("--out", metavar="DIR", default=".",
                     help="output directory (default: current)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for any randomized data (default 0)")


def cmd_pressure(args) -> int:
    graph, _, phi = _load(args)
    out = Path(args.out)
    transfer = pressure_transfer(graph, phi)
    periodic = pressure_periodic_orbits(graph, phi, args.t_max)
    bowen = pressure_bowen(graph, phi, args.t_max)
    _write(out, "transfer.json", transfer.to_json() + "\n")
    _write(out, "periodic_orbits.csv", periodic.trace_csv())
    _write(out, "bowen.csv", bowen.trace_csv())
    print(f"{transfer.value:.12g}")
    return 0


def cmd_thermo(args) -> int:
    graph, a, phi = _load(args)
    out = Path(args.out)
    betas = default_schedule(args.beta_max, args.beta_step)
    curve = thermo_curve(graph, a, phi, betas)
    ok, diag = verify_limit(curve, tol=args.tol)
    convergence = measure_convergence(curve, tol=args.tol)
    _write(out, "thermo_curve.csv", curve.to_csv())
    _write_json(out, "verify.json",
                {"verdict": bool(ok), **diag, "convergence": convergence})
    if not ok and diag["failed_check"] != "limit-gap":
        raise InvariantViolation(
            f"{diag['failed_check']} violated: {diag['detail']}"
        )
    print(f"verdict {'true' if ok else 'false'}")
    return 0


def cmd_catmap(args) -> int:
    out = Path(args.out)
    epsilon = args.epsilon if args.epsilon is not None else 2.0 ** -args.refine
    try:
        point = tuple(Fraction(c) for c in args.point.split(","))
        if len(point) != 2:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"point must be 'x,y' with rational parts, "
                         f"got {args.point!r}") from None
    report = orbit_damping_report(epsilon, strength=args.strength,
                                  point=point, beta_max=args.beta_max,
                                  beta_step=args.beta_step)
    _write_json(out, "catmap_report.json", report)
    print(f"regime {report['regime']}")
    star = report["beta_star"]
    print("beta_star none" if star is None else f"beta_star {star:.12g}")
    return 0


def _wave_initial_data(n: int, grid: np.ndarray, seed: int):
    """Random smooth data with every low mode's coefficient bounded away
    from zero, so the slowest-decaying mode is always excited."""
    rng = np.random.default_rng(seed)
    u0 = np.zeros(n)
    v0 = np.zeros(n)
    for k in range(1, min(16, n // 2 - 1) + 1):
        amp_u, ph_u = rng.uniform(1.0, 2.0), rng.uniform(0.0, LENGTH)
        amp_v, ph_v = rng.uniform(1.0, 2.0), rng.uniform(0.0, LENGTH)
        u0 += amp_u / k * np.cos(k * grid + ph_u)
        v0 += amp_v / k * np.cos(k * grid + ph_v)
    return u0, v0


def cmd_wave(args) -> int:
    out = Path(args.out)
    system = build_system(args.n, args.profile)
    dt = args.dt if args.dt is not None else 0.5 * system.dx
    t_end = args.t_end
    t_min = args.t_min if args.t_min is not None else 0.25 * t_end
    tau = system.spectrum()
    u0, v0 = _wave_initial_data(system.n_grid, system.grid, args.seed)
    trace = evolve(system, u0, v0, t_end, dt)
    rate = fit_decay_rate(trace, t_min)
    gap = spectrum_gap(system)
    lines = ["re_tau,im_tau"]
    lines += [f"{z.real:.12g},{z.imag:.12g}" for z in tau]
    _write(out, "spectrum.csv", "\n".join(lines) + "\n")
    _write(out, "energy.csv", trace.to_csv())
    _write_json(out, "wave_summary.json", {
        "profile": args.profile,
        "n_grid": system.n_grid,
        "dt": dt,
        "t_end": t_end,
        "t_min": t_min,
        "seed": args.seed,
        "fitted_rate": rate,
        "spectrum_gap": gap,
        "two_gap": 2.0 * gap,
    })
    print(f"fitted_rate {rate:.12g}")
    print(f"spectrum_gap {gap:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermopress",
        description="pressure, damped-pressure curves, torus-map orbit "
                    "damping, and damped wave spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="three pressure routes")
    _add_system_source(p)
    p.add_argument("--T-max", dest="t_max", type=int, default=20,
                   help="largest time horizon for the traces (default 20)")
    _add_common(p)
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("thermo", help="damped pressure curve and audit")
    _add_system_source(p)
    p.add_argument("--beta-max", type=float, default=30.0,
                   help="end of the damping-strength schedule (default 30)")
    p.add_argument("--beta-step", type=float, default=0.5,
                   help="schedule increment (default 0.5)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="limit-gap tolerance (default 1e-6)")
    _add_common(p)
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("catmap", help="orbit damping on the torus map")
    scale = p.add_mutually_exclusive_group(required=True)
    scale.add_argument("--refine", type=int,
                       help="refinement order (neighborhood scale 2^-k)")
    scale.add_argument("--epsilon", type=float,
                       help="neighborhood scale in (0, 1]")
    p.add_argument("--beta-max", type=float, required=True,
                   help="end of the damping-strength schedule")
    p.add_argument("--beta-step", type=float, default=0.5,
                   help="schedule increment (default 0.5)")
    p.add_argument("--strength", type=float, default=1.0,
                   help="damping value off the neighborhood (default 1)")
    p.add_argument("--point", default="0,0",
                   help="periodic point as 'x,y', rational parts "
                        "(default 0,0)")
    _add_common(p)
    p.set_defaults(func=cmd_catmap)

    p = sub.add_parser("wave", help="damped wave spectrum and decay")
    p.add_argument("--profile", required=True,
                   help="damping profile, e.g. const:0.5 or "
                        "bump:3.14,1,2 or twobump:...")
    p.add_argument("--n", type=int, default=256,
                   help="grid points (default 256, spectrum cap 512)")
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default 0.5*dx)")
    p.add_argument("--t-end", dest="t_end", type=float, default=20.0,
                   help="integration end time (default 20)")
    p.add_argument("--t-min", dest="t_min", type=float, default=None,
                   help="start of the decay-fit window (default t_end/4)")
    _add_common(p)
    p.set_defaults(func=cmd_wave)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConvergenceError, ZeroMassError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphFormatError, NotIrreducibleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
