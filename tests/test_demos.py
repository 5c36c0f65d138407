"""Smoke test: every demo script runs to completion on small arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    # the defaults reach a period-2 graph, whose odd horizons have no
    # cyclic words
    "compare_pressure_routes": [],
    "damping_limit_curve": ["--random", "1"],
    "torus_orbit_damping": ["--epsilon", "0.0625", "--beta-max", "50"],
    "wave_decay_vs_gap": ["--n", "64", "--t-end", "20"],
}


def test_every_demo_is_listed():
    assert {p.stem for p in (ROOT / "demos").glob("*.py")} == set(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py"), *DEMOS[name]],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
