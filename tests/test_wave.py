"""Damped wave on a periodic grid: spectrum, strip bounds, energy decay."""

import math

import numpy as np
import pytest

from thermopress import cli
from thermopress.wave import (
    EnergyTrace,
    WaveSystem,
    build_system,
    energy,
    evolve,
    fit_decay_rate,
    mode_frequencies,
    parse_profile,
    spectrum_gap,
)

from .oracles import evolve_by_roll

PI = math.pi


def _sorted_by_re_im(taus):
    taus = np.asarray(taus)
    return taus[np.lexsort((taus.imag, taus.real))]


# ---------------------------------------------------------------------------
# profiles and construction


def test_parse_profile_forms():
    c = parse_profile("const:0.5")
    x = np.linspace(0, 2 * PI, 7)
    assert np.allclose(c(x), 0.5)
    b = parse_profile("bump:3.0,1.0,2.0")
    assert b(3.0) == pytest.approx(2.0)  # peak height at the center
    assert b(3.0 + 1.001) == 0.0  # compact support
    assert b(3.0 - 1.001) == 0.0
    tb = parse_profile("twobump:1.0,0.5,1.0,4.0,0.5,3.0")
    assert tb(1.0) == pytest.approx(1.0)
    assert tb(4.0) == pytest.approx(3.0)
    assert tb(2.5) == 0.0


def test_parse_profile_wraps_around():
    b = parse_profile("bump:0.0,0.5,1.0")
    assert b(2 * PI - 0.1) == pytest.approx(b(0.1), abs=1e-12)


def test_parse_profile_errors():
    for bad in ("const:", "const:1,2", "const:-0.5", "bump:1.0",
                "bump:1,0,-1", "bump:1,-2,1", "twobump:1,2,3",
                "mystery:1", "const:abc"):
        with pytest.raises(ValueError):
            parse_profile(bad)


def test_system_validation():
    with pytest.raises(ValueError):
        WaveSystem(np.zeros(8))  # below the minimum grid
    with pytest.raises(ValueError):
        WaveSystem(np.full(32, -0.1))
    with pytest.raises(ValueError):
        WaveSystem(np.full((4, 8), 0.1))


def test_build_system_profile_and_callable():
    s1 = build_system(64, "const:0.25")
    s2 = build_system(64, lambda x: np.full_like(x, 0.25))
    assert np.array_equal(s1.damping, s2.damping)
    assert s1.dx == pytest.approx(2 * PI / 64)


def test_spectrum_grid_cap():
    s = WaveSystem(np.zeros(600))
    with pytest.raises(ValueError):
        s.spectrum()


def test_mode_frequencies():
    n = 64
    w = mode_frequencies(n)
    dx = 2 * PI / n
    assert w[0] == 0.0
    assert w[1] == pytest.approx(2 * math.sin(PI / n) / dx, rel=1e-15)
    assert w[n // 2] == pytest.approx(2.0 / dx, rel=1e-15)


# ---------------------------------------------------------------------------
# spectrum: dispersion relation, strip, symmetry


def test_constant_damping_dispersion_discrete():
    # every eigenvalue must match the per-mode quadratic built on the
    # discrete frequencies; modes k and n-k coincide, giving the exact
    # multiset
    n, c = 256, 0.5
    sys = build_system(n, f"const:{c}")
    tau = sys.spectrum()
    w = mode_frequencies(n)
    expected = [0.0 + 0.0j, -2.0j * c]
    for k in range(1, n):
        s = math.sqrt(w[k] ** 2 - c ** 2)
        expected += [s - 1j * c, -s - 1j * c]
    want = _sorted_by_re_im(expected)
    got = _sorted_by_re_im(tau)
    assert np.abs(got - want).max() <= 1e-8


def test_constant_damping_dispersion_continuum_low_modes():
    # the discrete frequencies approach the integers like k^3 dx^2 / 24,
    # so continuum agreement at 1e-3 is only available for small k on
    # this grid
    n, c = 256, 0.5
    sys = build_system(n, f"const:{c}")
    tau = sys.spectrum()
    for k in (1, 2, 3):
        want = math.sqrt(k ** 2 - c ** 2) - 1j * c
        err = np.abs(tau - want).min()
        assert err <= 1e-3, (k, err)


def test_zero_mode_block():
    n, c = 64, 0.7
    sys = build_system(n, f"const:{c}")
    tau = sys.spectrum()
    assert np.abs(tau).min() <= 1e-10  # tau = 0 always present
    assert np.abs(tau - (-2j * c)).min() <= 1e-8
    # the zero mode's eigenvector is the constant field
    G = sys.generator()
    e = np.concatenate([np.ones(n), np.zeros(n)])
    assert np.abs(G @ e).max() == 0.0


def test_undamped_spectrum_real():
    sys = build_system(128, "const:0")
    tau = sys.spectrum()
    assert np.abs(tau.imag).max() <= 1e-10
    assert spectrum_gap(sys) <= 1e-10


def test_spectrum_strip_random_profiles():
    # all eigenvalues live in the strip -2 max(a) <= Im tau <= 0, and the
    # only real eigenvalue is tau = 0 whenever the damping is not
    # identically zero
    rng = np.random.default_rng(7)
    n = 32
    for _ in range(50):
        a = rng.uniform(0.0, 2.0, n)
        sys = WaveSystem(a)
        tau = sys.spectrum()
        assert tau.imag.max() <= 1e-8
        assert tau.imag.min() >= -2.0 * a.max() - 1e-8
        real = np.abs(tau.imag) <= 1e-12
        assert real.sum() == 1
        assert np.abs(tau[real]).max() <= 1e-10


def test_spectrum_symmetric_under_reflection():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.uniform(0.0, 1.5, 32)
        tau = WaveSystem(a).spectrum()
        for t in tau:
            assert np.abs(tau - (-t.conjugate())).min() <= 1e-8


def test_gap_constant_damping():
    sys = build_system(256, "const:0.5")
    assert spectrum_gap(sys) == pytest.approx(0.5, abs=1e-6)


def test_gap_half_circle_bump_positive():
    sys = build_system(128, f"bump:{PI},{PI / 2},1.0")
    assert spectrum_gap(sys) > 0.0


# ---------------------------------------------------------------------------
# energy and the integrator


def test_energy_closed_forms():
    n = 128
    sys = build_system(n, "const:0")
    x = sys.grid
    w1 = mode_frequencies(n)[1]
    assert energy(sys, np.sin(x), np.zeros(n)) == pytest.approx(
        0.5 * PI * w1 ** 2, rel=1e-12
    )
    assert energy(sys, np.zeros(n), np.sin(x)) == pytest.approx(
        0.5 * PI, rel=1e-12
    )
    assert energy(sys, np.zeros(n), np.zeros(n)) == 0.0


def test_undamped_energy_conserved():
    # fine grid, small step: the recorded bracket must hold to 1e-6
    # relative over 50 time units
    n = 4096
    sys = build_system(n, "const:0")
    x = sys.grid
    tr = evolve(sys, np.sin(x), np.zeros(n), 50.0, 1e-3, sample_every=50)
    dev = np.abs(tr.energies - tr.energies[0]) / tr.energies[0]
    assert dev.max() <= 1e-6


def test_energy_never_increases_with_damping():
    # the bracket identity makes monotonicity exact up to roundoff
    n = 128
    sys = build_system(n, "const:0.01")
    x = sys.grid
    u0 = np.sin(x) + 0.3 * np.cos(3 * x)
    v0 = 0.2 * np.sin(2 * x)
    tr = evolve(sys, u0, v0, 10.0, 0.5 * sys.dx, sample_every=1)
    rises = np.diff(tr.energies)
    assert rises.max() <= 1e-12 * tr.energies[0]


@pytest.mark.parametrize("profile, n, t_end, sample_every", [
    ("const:0.5", 64, 6.0, 1),
    ("bump:3.14159,1.5708,1", 128, 5.0, 1),
    ("twobump:1,0.5,2,4,0.7,1", 128, 5.0, 7),
    ("const:0", 32, 3.0, 1000),  # one sample: the last step
])
def test_evolve_matches_roll_reference_bit_for_bit(profile, n, t_end,
                                                   sample_every):
    # the slice stencils and preallocated arrays change no operation
    sys = build_system(n, profile)
    rng = np.random.default_rng(n)
    u0, v0 = rng.standard_normal(n), rng.standard_normal(n)
    tr = evolve(sys, u0, v0, t_end, 0.5 * sys.dx, sample_every=sample_every)
    ref = evolve_by_roll(sys, u0, v0, t_end, 0.5 * sys.dx, sample_every)
    for got, want in zip((tr.times, tr.energies, tr.u, tr.v), ref):
        assert np.array_equal(got, want)
    assert np.array_equal(sys.laplacian(u0),
                          (np.roll(u0, -1) - 2.0 * u0 + np.roll(u0, 1))
                          / sys.dx ** 2)


def test_zero_state_stays_zero():
    n = 64
    sys = build_system(n, "const:0.5")
    tr = evolve(sys, np.zeros(n), np.zeros(n), 1.0, 0.5 * sys.dx)
    assert np.all(tr.energies == 0.0)
    assert np.all(tr.u == 0.0) and np.all(tr.v == 0.0)


def test_evolve_validation():
    n = 64
    sys = build_system(n, "const:0")
    z = np.zeros(n)
    with pytest.raises(ValueError):
        evolve(sys, z, z, -1.0, 0.01)
    with pytest.raises(ValueError):
        evolve(sys, z, z, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve(sys, z, z, 1.0, 0.01, sample_every=0)
    with pytest.raises(ValueError):
        evolve(sys, np.zeros(n - 1), z, 1.0, 0.01)
    with pytest.raises(ValueError, match="step bound"):
        evolve(sys, z, z, 1.0, sys.dx)  # dt > 0.9 dx


def test_instability_guard_fires():
    n = 64
    sys = build_system(n, "const:0")
    x = sys.grid
    with pytest.raises(RuntimeError, match="instability"):
        evolve(sys, np.sin(x), np.zeros(n), 5.0, 1.2 * sys.dx,
               _enforce_cfl=False)


def test_trace_csv(tmp_path):
    # written as cmd_wave writes energy.csv
    tr = EnergyTrace(np.array([0.0, 1.0]), np.array([2.0, 1.0]),
                     np.zeros(4), np.zeros(4), 0.5)
    cli._write_csv(tmp_path, "energy.csv", ("t", "E"),
                   zip(tr.times, tr.energies))
    lines = (tmp_path / "energy.csv").read_text().splitlines()
    assert lines[0] == "t,E"
    assert lines[1] == "0,2"
    assert len(tr) == 2


def test_trace_validation():
    with pytest.raises(ValueError):
        EnergyTrace(np.array([0.0, 1.0]), np.array([2.0]),
                    np.zeros(4), np.zeros(4), 0.5)


# ---------------------------------------------------------------------------
# decay-rate fitting


def test_fit_exact_exponential():
    t = np.linspace(0.0, 10.0, 101)
    tr = EnergyTrace(t, 3.0 * np.exp(-0.8 * t), np.zeros(4), np.zeros(4), 0.1)
    assert fit_decay_rate(tr) == pytest.approx(0.8, abs=1e-10)
    assert fit_decay_rate(tr, 2.0, 8.0) == pytest.approx(0.8, abs=1e-10)


def test_fit_needs_two_samples():
    t = np.linspace(0.0, 10.0, 101)
    tr = EnergyTrace(t, np.exp(-t), np.zeros(4), np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        fit_decay_rate(tr, 9.99, 10.0)


def test_fit_warns_on_floored_energy():
    t = np.linspace(0.0, 10.0, 11)
    E = np.exp(-t)
    E[5:] = 0.0
    tr = EnergyTrace(t, E, np.zeros(4), np.zeros(4), 1.0)
    with pytest.warns(UserWarning):
        r = fit_decay_rate(tr)
    assert r == pytest.approx(1.0, abs=1e-8)


def test_undamped_rate_is_zero():
    n = 64
    sys = build_system(n, "const:0")
    x = sys.grid
    tr = evolve(sys, np.sin(x), np.zeros(n), 20.0, 0.5 * sys.dx)
    assert abs(fit_decay_rate(tr, 5.0)) <= 1e-6


def test_single_mode_rate_constant_damping():
    # eigenmode initial data: u = sin x with v = -c sin x puts the state
    # on the slow branch, whose energy decays at 2 Im tau = 2 (c - Re s)
    # ... for c < omega_1 that is close to 2 c times the modal factor;
    # the fitted rate must land within 2 percent of twice the gap
    n, c = 256, 0.5
    sys = build_system(n, f"const:{c}")
    x = sys.grid
    gap = spectrum_gap(sys)
    tr = evolve(sys, np.sin(x), -c * np.sin(x), 40.0, 0.5 * sys.dx)
    rate = fit_decay_rate(tr, 10.0)
    assert rate == pytest.approx(2.0 * gap, rel=0.02)


def test_multimode_rate_constant_damping():
    # generic low-mode data: the slowest pair dominates after a transient
    n, c = 256, 0.5
    sys = build_system(n, f"const:{c}")
    x = sys.grid
    rng = np.random.default_rng(0)
    u0 = np.zeros(n)
    v0 = np.zeros(n)
    for k in range(1, 9):
        u0 += rng.uniform(-1, 1) / k * np.cos(k * x + rng.uniform(0, 2 * PI))
        v0 += rng.uniform(-1, 1) / k * np.cos(k * x + rng.uniform(0, 2 * PI))
    gap = spectrum_gap(sys)
    tr = evolve(sys, u0, v0, 60.0, 0.5 * sys.dx)
    rate = fit_decay_rate(tr, 15.0)
    assert rate == pytest.approx(2.0 * gap, rel=0.05)


def test_rate_matches_gap_for_bump_damping():
    # nonconstant damping: the slowest modes hug the band edge and avoid
    # the damped region, so the gap is small; seeding the slowest
    # eigenvector (plus a smooth perturbation that dies off quickly)
    # exposes exactly that rate.  sample_every stays 1 because the slow
    # pair beats at 2 Re tau, near the sampling Nyquist for coarser grids
    n = 128
    sys = build_system(n, f"bump:{PI},{PI / 2},1.0")
    lam, W = np.linalg.eig(sys.generator())
    tau = 1j * lam
    live = np.abs(tau) > 1e-10
    idx = int(np.argmin(np.where(live, np.abs(tau.imag), np.inf)))
    state = np.real(W[:, idx])
    state /= math.sqrt(state @ state)
    rng = np.random.default_rng(7)
    x = sys.grid
    un = np.zeros(n)
    vn = np.zeros(n)
    for k in range(1, 11):
        un += rng.uniform(-1, 1) / k * np.cos(k * x + rng.uniform(0, 2 * PI))
        vn += rng.uniform(-1, 1) / k * np.cos(k * x + rng.uniform(0, 2 * PI))
    noise = np.concatenate([un, vn])
    noise /= math.sqrt(noise @ noise)
    st = state + 0.1 * noise
    gap = spectrum_gap(sys)
    tr = evolve(sys, st[:n], st[n:], 100.0, 0.1 * sys.dx, sample_every=1)
    rate = fit_decay_rate(tr, 25.0)
    assert rate == pytest.approx(2.0 * gap, rel=0.05)
