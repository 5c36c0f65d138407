"""Command-line entry points, file outputs, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "thermopress", *args],
        capture_output=True, text=True, cwd=cwd,
    )


# ---------------------------------------------------------------------------
# pressure


def test_pressure_golden_mean(tmp_path):
    r = run_cli("pressure", "--builtin", "golden-mean", "--T-max", "30",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    value = float(r.stdout.strip())
    assert value == pytest.approx(math.log(GOLDEN), abs=1e-9)
    assert f"{value:.6f}" == "0.481212"
    rep = json.loads((tmp_path / "transfer.json").read_text())
    assert rep["method"] == "transfer"
    assert rep["value"] == pytest.approx(math.log(GOLDEN), abs=1e-9)
    for name in ("periodic_orbits.csv", "bowen.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "T,estimate"
        assert len(lines) == 31
        # finite-T estimates approach the transfer value
        last = float(lines[-1].split(",")[1])
        assert last == pytest.approx(value, abs=0.05)


def test_pressure_full2(tmp_path):
    r = run_cli("pressure", "--builtin", "full2", "--out", str(tmp_path))
    assert r.returncode == 0
    assert f"{float(r.stdout.strip()):.6f}" == "0.693147"


def test_pressure_from_input_file(tmp_path):
    src = tmp_path / "golden.txt"
    src.write_text("2\n0 0 0.0 0.0\n0 1 1.0 0.0\n1 0 0.0 0.0\n")
    r = run_cli("pressure", "--input", str(src), "--out", str(tmp_path))
    assert r.returncode == 0
    assert float(r.stdout.strip()) == pytest.approx(math.log(GOLDEN), abs=1e-9)


def test_pressure_malformed_input(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("2\n0 0 0.0 0.0\n0 1 1.0\n1 0 0.0 0.0\n")
    r = run_cli("pressure", "--input", str(src), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "line 3" in r.stderr


def test_pressure_input_with_too_many_states(tmp_path):
    # the declared state count is checked against the edges before any
    # array of that size is allocated
    src = tmp_path / "huge.txt"
    src.write_text("1000000000\n0 0 1.0 0.0\n")
    r = run_cli("pressure", "--input", str(src), "--out", str(tmp_path))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert lines[0].startswith("error:") and len(lines[0]) < 200


def test_pressure_zero_mass_exit_code(tmp_path):
    # two-state swap has no odd-length cycles, so the periodic route has
    # nothing to sum at T = 5
    src = tmp_path / "swap.txt"
    src.write_text("2\n0 1 0.0 0.0\n1 0 0.0 0.0\n")
    r = run_cli("pressure", "--input", str(src), "--T-max", "5",
                "--out", str(tmp_path))
    assert r.returncode == 3
    assert "length 5" in r.stderr


def test_pressure_requires_one_source(tmp_path):
    r = run_cli("pressure", "--out", str(tmp_path))
    assert r.returncode == 2
    r = run_cli("pressure", "--builtin", "full2", "--input", "x.txt",
                "--out", str(tmp_path))
    assert r.returncode == 2


def test_unknown_builtin(tmp_path):
    r = run_cli("pressure", "--builtin", "nope", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "full2" in r.stderr  # the message lists the known names


# ---------------------------------------------------------------------------
# thermo


def test_thermo_full2_converges(tmp_path):
    r = run_cli("thermo", "--builtin", "full2", "--beta-max", "30",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "verdict true"
    verify = json.loads((tmp_path / "verify.json").read_text())
    assert verify["verdict"] is True
    assert verify["failed_check"] is None
    assert verify["final_gap"] <= 1e-6
    assert verify["convergence"]["averages_converged"] is True
    lines = (tmp_path / "thermo_curve.csv").read_text().splitlines()
    assert lines[0].startswith("beta,")
    assert len(lines) == 62  # header + 61 schedule points


def test_thermo_zero_beta_max_reports_gap(tmp_path):
    r = run_cli("thermo", "--builtin", "full2", "--beta-max", "0",
                "--out", str(tmp_path))
    assert r.returncode == 0
    assert r.stdout.strip() == "verdict false"
    verify = json.loads((tmp_path / "verify.json").read_text())
    assert verify["failed_check"] == "limit-gap"


def test_thermo_rejects_negative_damping(tmp_path):
    src = tmp_path / "neg.txt"
    src.write_text("2\n0 0 -0.5 0.0\n0 1 1.0 0.0\n1 0 1.0 0.0\n")
    r = run_cli("thermo", "--input", str(src), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "nonnegative" in r.stderr


@pytest.mark.parametrize("tol", ["nan", "-1e-6"])
def test_thermo_rejects_bad_tol(tmp_path, tol):
    # a NaN tol used to print "verdict true" with a 0.114 final gap
    r = run_cli("thermo", "--builtin", "golden-mean", "--beta-max", "2",
                f"--tol={tol}", "--out", str(tmp_path))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert lines[0].startswith("error: tol must be finite and > 0")
    assert r.stdout == ""


# ---------------------------------------------------------------------------
# catmap


def test_catmap_below_threshold(tmp_path):
    r = run_cli("catmap", "--refine", "4", "--beta-max", "50",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    out = r.stdout.splitlines()
    assert out[0] == "regime below-threshold"
    star = float(out[1].split()[1])
    assert star == pytest.approx(0.505049, abs=1e-4)
    rep = json.loads((tmp_path / "catmap_report.json").read_text())
    lam = 2.0 * math.log(GOLDEN)
    assert rep["pressure_on_undamped"] == pytest.approx(-lam / 2, abs=1e-6)
    assert rep["pressure_undamped"] == pytest.approx(lam / 2, abs=1e-6)
    assert rep["decays"] is True


def test_catmap_above_threshold(tmp_path):
    r = run_cli("catmap", "--refine", "0", "--beta-max", "10",
                "--out", str(tmp_path))
    assert r.returncode == 0
    out = r.stdout.splitlines()
    assert out[0] == "regime above-threshold"
    assert out[1] == "beta_star none"
    rep = json.loads((tmp_path / "catmap_report.json").read_text())
    assert len(rep["undamped_edges"]) == 8


def test_catmap_orbit_with_a_repeated_window_is_above_threshold(tmp_path):
    # (1/3, 5/9) has period 12 but only 3 distinct 1-symbol windows at
    # --epsilon 1 (order 0): its critical edges close cycles besides the
    # orbit, so no decay threshold is claimed; the verdict once held them
    # isolated and the search then refused a nonnegative restricted pressure
    r = run_cli("catmap", "--epsilon", "1", "--point", "1/3,5/9",
                "--beta-max", "30", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[:2] == ["regime above-threshold",
                                         "beta_star none"]
    rep = json.loads((tmp_path / "catmap_report.json").read_text())
    assert rep["orbit_period"] == 12 and rep["n_states"] == 3
    assert rep["undamped_set_is_orbit"] is False and rep["decays"] is False
    assert rep["pressure_on_undamped"] == pytest.approx(0.4812118250595978,
                                                        abs=1e-12)


def test_catmap_requires_beta_max(tmp_path):
    r = run_cli("catmap", "--refine", "4", "--out", str(tmp_path))
    assert r.returncode == 2


def test_catmap_scale_flags_exclusive(tmp_path):
    r = run_cli("catmap", "--refine", "2", "--epsilon", "0.25",
                "--beta-max", "10", "--out", str(tmp_path))
    assert r.returncode == 2


def test_catmap_epsilon_form(tmp_path):
    r = run_cli("catmap", "--epsilon", "0.25", "--beta-max", "5",
                "--out", str(tmp_path))
    assert r.returncode == 0
    rep = json.loads((tmp_path / "catmap_report.json").read_text())
    assert rep["refinement_order"] == 2
    assert rep["n_states"] == 21


def test_catmap_refuses_order_beyond_int64(tmp_path):
    # order 44 has F(92) < 2**63 refined states, which the report counts
    # without building; order 45 has F(94) > 2**63 and is refused
    r = run_cli("catmap", "--refine", "45", "--beta-max", "5",
                "--out", str(tmp_path))
    assert r.returncode == 2
    assert r.stderr == ("error: refinement order 45 has more than 2**63 - 1"
                        " states: its state ids overflow int64\n")
    assert not (tmp_path / "catmap_report.json").exists()
    r = run_cli("catmap", "--refine", "44", "--beta-max", "5",
                "--out", str(tmp_path))
    assert r.returncode == 0
    rep = json.loads((tmp_path / "catmap_report.json").read_text())
    assert rep["n_states"] == 7_540_113_804_746_346_429


@pytest.mark.parametrize("argv, name", [
    (("thermo", "--builtin", "full2", "--beta-max", "inf"), "beta_max"),
    (("thermo", "--builtin", "full2", "--beta-max", "nan"), "beta_max"),
    (("thermo", "--builtin", "full2", "--beta-step", "nan"), "step"),
    (("catmap", "--refine", "2", "--beta-max", "inf"), "beta_max"),
    (("catmap", "--refine", "2", "--beta-max", "nan"), "beta_max"),
])
def test_non_finite_schedule_is_usage_error(tmp_path, argv, name):
    # infinity used to end in an uncaught OverflowError traceback
    r = run_cli(*argv, "--out", str(tmp_path))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert lines[0].startswith(f"error: {name} must be finite")


@pytest.mark.parametrize("step", ["0.5", "1e-10"])
def test_oversized_schedule_is_usage_error(tmp_path, step):
    # the schedule used to be built point by point until memory ran out,
    # and a point count overflowing to inf ended in an OverflowError
    r = run_cli("thermo", "--builtin", "full2", "--beta-max", "1e300",
                "--beta-step", step, "--out", str(tmp_path))
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert lines[0].startswith("error: schedule would have")


# ---------------------------------------------------------------------------
# wave


def test_wave_constant_damping(tmp_path):
    r = run_cli("wave", "--profile", "const:0.5", "--n", "256",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    lines = {ln.split()[0]: float(ln.split()[1])
             for ln in r.stdout.splitlines()}
    assert lines["spectrum_gap"] == pytest.approx(0.5, abs=1e-6)
    assert lines["fitted_rate"] == pytest.approx(1.0, rel=0.05)
    spec = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert spec[0] == "re_tau,im_tau"
    assert len(spec) == 513
    summary = json.loads((tmp_path / "wave_summary.json").read_text())
    assert summary["two_gap"] == pytest.approx(1.0, abs=1e-6)
    assert summary["n_grid"] == 256
    energy_lines = (tmp_path / "energy.csv").read_text().splitlines()
    assert energy_lines[0] == "t,E"


def test_wave_undamped_rate_zero(tmp_path):
    r = run_cli("wave", "--profile", "const:0", "--n", "128",
                "--out", str(tmp_path))
    assert r.returncode == 0
    rate = float(r.stdout.splitlines()[0].split()[1])
    assert abs(rate) <= 1e-3


def test_wave_cfl_violation(tmp_path):
    r = run_cli("wave", "--profile", "const:0.5", "--n", "64",
                "--dt", "0.2", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "step bound" in r.stderr


def test_wave_bad_profile(tmp_path):
    r = run_cli("wave", "--profile", "tent:1", "--out", str(tmp_path))
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# determinism


def test_wave_outputs_bit_identical(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    for d in (d1, d2):
        d.mkdir()
        r = run_cli("wave", "--profile", "bump:3.14,1.0,0.5", "--n", "64",
                    "--t-end", "10", "--out", str(d))
        assert r.returncode == 0
    for name in ("spectrum.csv", "energy.csv", "wave_summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_wave_seed_changes_data_not_spectrum(tmp_path):
    d1 = tmp_path / "s0"
    d2 = tmp_path / "s1"
    for d, seed in ((d1, "0"), (d2, "1")):
        d.mkdir()
        r = run_cli("wave", "--profile", "const:0.3", "--n", "64",
                    "--t-end", "10", "--seed", seed, "--out", str(d))
        assert r.returncode == 0
    assert (d1 / "spectrum.csv").read_bytes() == (d2 / "spectrum.csv").read_bytes()
    assert (d1 / "energy.csv").read_bytes() != (d2 / "energy.csv").read_bytes()


def test_thermo_rerun_is_byte_identical(tmp_path):
    d1 = tmp_path / "first"
    d2 = tmp_path / "second"
    for d in (d1, d2):
        d.mkdir()
        r = run_cli("thermo", "--builtin", "golden-mean", "--beta-max", "20",
                    "--out", str(d))
        assert r.returncode == 0
    for name in ("thermo_curve.csv", "verify.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# ---------------------------------------------------------------------------
# file formats


def test_output_formats_are_pinned(tmp_path):
    r = run_cli("pressure", "--builtin", "full2", "--T-max", "3",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    for name in ("periodic_orbits.csv", "bowen.csv"):
        assert (tmp_path / name).read_bytes() == (
            b"T,estimate\n1,0.69314718056\n2,0.69314718056\n"
            b"3,0.69314718056\n")
    transfer = (tmp_path / "transfer.json").read_bytes()
    assert transfer.startswith(b'{"method": "transfer", "value": '
                               b'0.69314718056, "tolerance": ')
    assert transfer.endswith(b', "trace": []}\n')
    assert transfer.count(b"\n") == 1
    r = run_cli("thermo", "--builtin", "full2", "--beta-max", "1",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    curve = (tmp_path / "thermo_curve.csv").read_bytes()
    assert curve.startswith(b"beta,pressure_plus_beta_a0,eq_average_a,"
                            b"eq_entropy,limit_target\n0,0.69314718056,")
    r = run_cli("catmap", "--epsilon", "1", "--beta-max", "1",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    report = (tmp_path / "catmap_report.json").read_bytes()
    assert report.startswith(b'{\n  "lyapunov": ')
    assert b'\n  "beta_star": null,\n' in report
    assert report.endswith(b"\n}\n")


@pytest.mark.parametrize("argv", [
    ("pressure", "--builtin", "full2"),
    ("thermo", "--builtin", "full2"),
    ("catmap", "--epsilon", "1", "--beta-max", "1"),
])
def test_seed_is_a_wave_option(tmp_path, argv):
    r = run_cli(*argv, "--seed", "1", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "--seed" in r.stderr
    assert not any(tmp_path.iterdir())


def test_no_subcommand_is_usage_error():
    r = run_cli()
    assert r.returncode == 2
