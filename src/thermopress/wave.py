"""Damped wave equation on the circle of circumference 2*pi:

    u_tt + 2 a(x) u_t = u_xx,

finite differences in space, a semi-implicit leapfrog in time.  The
module exposes the generator spectrum (eigenvalues reported as tau = i z,
so the decay rate of a mode is |Im tau|), the spectral gap, an energy
history integrator with an instability guard, and a least-squares decay
rate fit, which together make the damping/decay relationship observable
on a concrete PDE.

This is the 1d circle: every geodesic is the whole circle, so any damping
with nonempty support is seen by every trajectory.  Uncontrolled-orbit
effects live in the symbolic modules, not here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sft import _frozen_array

LENGTH = 2.0 * math.pi
MIN_GRID = 16
SPECTRUM_GRID_CAP = 512
CFL_FACTOR = 0.9
ENERGY_FLOOR = 1e-300


def parse_profile(text: str):
    """Damping profile from a compact string.

    const:c                    constant c >= 0
    bump:center,width,height   cos^2 bump, support |x - center| < width
    twobump:c1,w1,h1,c2,w2,h2  sum of two bumps

    Returns a vectorized callable on [0, 2*pi).
    """
    kind, _, argstr = text.partition(":")
    try:
        args = [float(v) for v in argstr.split(",")] if argstr else []
    except ValueError:
        raise ValueError(f"bad profile arguments in {text!r}") from None

    def bump(center, width, height):
        if width <= 0:
            raise ValueError("bump width must be positive")
        if height < 0:
            raise ValueError("bump height must be nonnegative")

        def f(x):
            d = np.abs((np.asarray(x, dtype=float) - center + math.pi)
                       % LENGTH - math.pi)
            return np.where(d < width,
                            height * np.cos(math.pi * d / (2 * width)) ** 2,
                            0.0)

        return f

    if kind == "const":
        if len(args) != 1:
            raise ValueError("const profile takes one value")
        c = args[0]
        if c < 0:
            raise ValueError("damping must be nonnegative")
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if kind == "bump":
        if len(args) != 3:
            raise ValueError("bump profile takes center,width,height")
        return bump(*args)
    if kind == "twobump":
        if len(args) != 6:
            raise ValueError("twobump profile takes six values")
        f1, f2 = bump(*args[:3]), bump(*args[3:])
        return lambda x: f1(x) + f2(x)
    raise ValueError(f"unknown profile kind {kind!r}")


class WaveSystem:
    """Spatially discretized damped wave operator on a periodic grid."""

    def __init__(self, damping):
        a = np.asarray(damping, dtype=float).copy()
        if a.ndim != 1 or len(a) < MIN_GRID:
            raise ValueError(f"damping must be 1-d with >= {MIN_GRID} points")
        if not np.isfinite(a).all() or (a < 0).any():
            raise ValueError("damping must be finite and nonnegative")
        a.setflags(write=False)
        self.damping = a
        self.n_grid = len(a)
        self.dx = LENGTH / self.n_grid
        self.grid = np.arange(self.n_grid) * self.dx
        self._spectrum = None

    @classmethod
    def from_profile(cls, n_grid: int, profile):
        if isinstance(profile, str):
            profile = parse_profile(profile)
        x = np.arange(int(n_grid)) * (LENGTH / int(n_grid))
        return cls(profile(x))

    def laplacian(self, u):
        """Periodic second difference (u[i+1] - 2 u[i] + u[i-1]) / dx^2."""
        u = np.asarray(u, dtype=float)
        return _laplacian(u, self.dx ** 2, np.empty_like(u), np.empty_like(u))

    def generator(self) -> np.ndarray:
        """Real 2n x 2n first-order generator d/dt (u, v) = G (u, v)."""
        n = self.n_grid
        eye = np.eye(n)
        lap = (np.roll(eye, -1, axis=1) - 2.0 * eye
               + np.roll(eye, 1, axis=1)) / self.dx ** 2
        G = np.zeros((2 * n, 2 * n))
        G[:n, n:] = eye
        G[n:, :n] = lap
        G[n:, n:] = -2.0 * np.diag(self.damping)
        return G

    def spectrum(self) -> np.ndarray:
        """Eigenvalues tau = i z of the generator, sorted by (Re, Im).
        Dense solve, so the grid is capped at SPECTRUM_GRID_CAP points."""
        if self.n_grid > SPECTRUM_GRID_CAP:
            raise ValueError(
                f"spectrum needs n_grid <= {SPECTRUM_GRID_CAP}; "
                "evolve() has no such cap"
            )
        if self._spectrum is None:
            z = np.linalg.eigvals(self.generator())
            tau = 1j * z
            order = np.lexsort((tau.imag, tau.real))
            self._spectrum = tau[order]
            self._spectrum.setflags(write=False)
        return self._spectrum


def build_system(n_grid: int, profile) -> WaveSystem:
    """WaveSystem on n_grid points from a profile string (see
    parse_profile) or a callable on [0, 2*pi)."""
    return WaveSystem.from_profile(n_grid, profile)


def mode_frequencies(n_grid: int) -> np.ndarray:
    """Frequencies of the discrete Laplacian modes, 2 sin(pi k / n) / dx."""
    dx = LENGTH / n_grid
    k = np.arange(n_grid)
    return 2.0 * np.sin(math.pi * k / n_grid) / dx


def spectrum_gap(system: WaveSystem) -> float:
    """Smallest modal decay rate min |Im tau|, ignoring the zero mode."""
    tau = system.spectrum()
    live = np.abs(tau) > 1e-10
    if not live.any():
        raise ValueError("spectrum has no nonzero eigenvalues")
    return float(np.abs(tau.imag[live]).min())


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled energy history of one integration, plus the final state."""

    times: np.ndarray
    energies: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dt: float

    def __post_init__(self):
        for name in ("times", "energies", "u", "v"):
            object.__setattr__(self, name,
                               _frozen_array(getattr(self, name), float))
        if len(self.times) != len(self.energies):
            raise ValueError("times and energies must align")

    def __len__(self):
        return len(self.times)


# Periodic stencils written into preallocated arrays.  Each forms its
# differences in the order np.roll would, so results are bit-identical
# to the roll form.

def _grad(u, dx, out=None):
    """Forward difference (u[i+1] - u[i]) / dx on the periodic grid."""
    if out is None:
        out = np.empty(len(u))
    np.subtract(u[1:], u[:-1], out=out[:-1])
    out[-1] = u[0] - u[-1]
    out /= dx
    return out


def _laplacian(u, dx2, out, twice):
    """(u[i+1] - 2 u[i] + u[i-1]) / dx2 into out; twice is a work array."""
    np.multiply(u, 2.0, out=twice)
    np.subtract(u[1:], twice[:-1], out=out[:-1])
    out[-1] = u[0] - twice[-1]
    np.add(out[1:], u[:-1], out=out[1:])
    out[0] += u[-1]
    out /= dx2
    return out


def energy(system: WaveSystem, u, v) -> float:
    """Discrete field energy 0.5 * sum((D+ u)^2 + v^2) * dx."""
    g = _grad(u, system.dx)
    return float(0.5 * system.dx * (g @ g + v @ v))


def evolve(system: WaveSystem, u0, v0, t_end: float, dt: float,
           sample_every: int = 1, _enforce_cfl: bool = True) -> EnergyTrace:
    """Integrate to t_end with the semi-implicit leapfrog

        v+ (1 + a dt) = v- (1 - a dt) + dt lap(u),   u+ = u + dt v+,

    velocities staggered half a step.  The recorded energy is the
    scheme's own conserved bracket

        E_m = 0.5 dx (|v_{m+1/2}|^2 + <D+ u_m, D+ u_{m+1}>),

    which drops by exactly 2 dt dx <a vbar, vbar> per step: for a >= 0 it
    never increases (up to roundoff), and for a = 0 it is constant, off
    the pointwise energy by O(dt^2).  It is positive for dt < dx.

    Requires dt <= 0.9 dx (disable via _enforce_cfl only to exercise the
    instability guard); raises RuntimeError when the bracket grows more
    than 1e-6 relative to its starting value.
    """
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    n = system.n_grid
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"state must have shape ({n},)")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("state must be finite")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if _enforce_cfl and dt > CFL_FACTOR * system.dx:
        raise ValueError(
            f"dt={dt} violates the step bound {CFL_FACTOR} * dx = "
            f"{CFL_FACTOR * system.dx:.6g}"
        )
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    steps = int(round(t_end / dt))
    if steps < 1:
        raise ValueError("t_end shorter than one step")

    a = system.damping
    dx = system.dx
    dx2 = dx ** 2
    dec = (1.0 - a * dt)
    inc = 1.0 / (1.0 + a * dt)
    g, dg, lap, work = (np.empty(n) for _ in range(4))

    def bracket(uu, vv):
        _grad(uu, dx, g)
        np.multiply(_grad(vv, dx, dg), dt, out=dg)
        np.add(dg, g, out=dg)
        return 0.5 * dx * (vv @ vv + g @ dg)

    # half-step start for the staggered velocity
    vh = v + 0.5 * dt * (system.laplacian(u) - 2.0 * a * v)
    e0 = bracket(u, vh)
    guard_cap = abs(e0) * (1.0 + 1e-6) + 1e-30 * n

    samples = steps // sample_every + (steps % sample_every != 0) + 1
    times = np.empty(samples)
    energies = np.empty(samples)
    times[0], energies[0], k = 0.0, e0, 1

    vnext = np.empty(n)
    for m in range(1, steps + 1):
        np.multiply(vh, dt, out=work)
        u += work
        _laplacian(u, dx2, lap, work)
        lap *= dt
        np.multiply(vh, dec, out=vnext)
        vnext += lap
        vnext *= inc
        e = bracket(u, vnext)
        if not np.isfinite(e) or e > guard_cap:
            raise RuntimeError(
                f"instability detected at step {m} (t={m * dt:.6g}): "
                "energy grew beyond 1e-6 relative; check the step bound "
                "dt <= 0.9 dx"
            )
        vh, vnext = vnext, vh  # vnext keeps the previous half step
        if m % sample_every == 0 or m == steps:
            times[k], energies[k], k = m * dt, e, k + 1

    # the velocity at the last integer step, averaged from its half steps
    vbar = 0.5 * (vnext + vh)
    return EnergyTrace(times, energies, u, vbar, dt)


def fit_decay_rate(trace: EnergyTrace, t_min: float | None = None,
                   t_max: float | None = None) -> float:
    """Energy decay rate from a least-squares line through log E(t) on
    [t_min, t_max]: for E(t) = C exp(-r t) the result is r.

    Energies at or below the floor 1e-300 are excluded, with a warning,
    since they carry no slope information."""
    t = trace.times
    E = trace.energies
    lo = t_min if t_min is not None else t[0]
    hi = t_max if t_max is not None else t[-1]
    keep = (t >= lo) & (t <= hi)
    if keep.sum() and E[keep].min() <= ENERGY_FLOOR:
        warnings.warn("energies at the floor excluded from the decay fit",
                      stacklevel=2)
        keep &= E > ENERGY_FLOOR
    if keep.sum() < 2:
        raise ValueError("need at least two samples inside the fit window")
    slope = np.polyfit(t[keep], np.log(E[keep]), 1)[0]
    return float(-slope)
