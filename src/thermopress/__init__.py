"""Topological pressure on finite subshifts, ergodic optimization of
damping weights, damped-pressure limits, the torus-automorphism coding
that realizes them, and a damped wave equation whose spectrum shows the
resulting decay rates.
"""

from .errors import (ConvergenceError, GraphFormatError, InvariantViolation,
                     NotIrreducibleError, ThermopressError, ZeroMassError)
from .sft import (CyclicWord, EdgePotential, MarkovMeasure, TransitionGraph,
                  full_shift, golden_mean_shift, integrate, ks_entropy,
                  load_system, save_system)
from .pressure import (EquilibriumState, PressureReport, equilibrium_state,
                       perron, pressure_bowen, pressure_periodic_orbits,
                       pressure_transfer)
from .ergopt import (MinimizationResult, min_average, minimize,
                     noncontrolled_set, pressure_on_set, undamped_set)
from .thermo import (ThermoCurve, default_schedule, find_gap_beta,
                     measure_convergence, thermo_curve, verify_limit)
from .catmap import (LYAPUNOV, SymbolicRefinement,
                     damping_from_orbit, expansion_potential,
                     orbit_damping_report, periodic_itinerary,
                     refinement_for_scale, window_automaton)
from .wave import (EnergyTrace, WaveSystem, build_system, energy, evolve,
                   fit_decay_rate, mode_frequencies, parse_profile,
                   spectrum_gap)
from .instances import get_builtin

__version__ = "0.1.0"

__all__ = [
    "ThermopressError", "GraphFormatError", "NotIrreducibleError",
    "ConvergenceError", "ZeroMassError", "InvariantViolation",
    "TransitionGraph", "EdgePotential", "CyclicWord", "MarkovMeasure",
    "ks_entropy", "integrate", "full_shift", "golden_mean_shift",
    "load_system", "save_system",
    "PressureReport", "EquilibriumState", "perron", "pressure_transfer",
    "pressure_periodic_orbits", "pressure_bowen", "equilibrium_state",
    "MinimizationResult", "min_average", "undamped_set", "noncontrolled_set",
    "pressure_on_set", "minimize",
    "ThermoCurve", "default_schedule", "thermo_curve", "verify_limit",
    "measure_convergence", "find_gap_beta",
    "LYAPUNOV", "SymbolicRefinement", "periodic_itinerary",
    "refinement_for_scale", "damping_from_orbit", "expansion_potential",
    "orbit_damping_report", "window_automaton",
    "WaveSystem", "EnergyTrace", "parse_profile", "build_system",
    "mode_frequencies", "spectrum_gap", "energy", "evolve",
    "fit_decay_rate",
    "get_builtin",
    "__version__",
]
