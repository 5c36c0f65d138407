"""Tests of the benchmark itself: seeded inputs, span arithmetic, span
wiring, and oracles that reject wrong values.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from thermopress import cli, thermo  # noqa: E402
from thermopress.instances import get_builtin  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _argv(job_list, directory):
    return [tuple(a.replace(str(directory), "<in>") for a in j.argv)
            for j in job_list]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = jobs.make_jobs(workload, 7, tmp_path / "a")
    second = jobs.make_jobs(workload, 7, tmp_path / "b")
    assert _argv(first, tmp_path / "a") == _argv(second, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    for x, y in zip(first, second):
        assert x.oracle.keys() == y.oracle.keys()
        for key, value in x.oracle.items():
            assert np.array_equal(value, y.oracle[key]) if isinstance(
                value, np.ndarray) else value == y.oracle[key]


@pytest.mark.parametrize("workload", ["system-files", "tied-loops", "wave-decay"])
def test_other_seed_other_inputs(tmp_path, workload):
    a = jobs.make_jobs(workload, 1, tmp_path / "a")
    b = jobs.make_jobs(workload, 2, tmp_path / "b")
    assert (_argv(a, tmp_path / "a") != _argv(b, tmp_path / "b")
            or _files(tmp_path / "a") != _files(tmp_path / "b"))


def test_catmap_seed_picks_a_listed_point(tmp_path):
    points = {jobs.make_jobs("catmap-refined", s, tmp_path)[0].argv[-1]
              for s in range(40)}
    assert points == set(jobs.CATMAP_POINTS)


def test_tail_needs_ten_passes_above_it():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail([float(k) for k in range(20)]) == (100.0, 19.0)
    percentile, value = run.tail([float(k) for k in range(40)])
    assert percentile == 75.0 and value == 29.0  # ten values above it
    assert run.tail([1.0, float("inf")]) == (100.0, float("inf"))


def test_interval_arithmetic():
    merged = spans.union([(4, 9), (1, 6), (10, 11)])
    assert merged == [(1, 9), (10, 11)]
    assert spans.length(merged) == 9
    assert spans.overlap(merged, [(0, 2), (8, 10.5)]) == pytest.approx(2.5)


def test_self_time_with_children_on_other_threads():
    # a curve on thread 1 whose two equilibrium solves overlap on threads
    # 2 and 3; one calls perron (same module, so its own time), the other
    # an sft function; an integral runs on thread 1
    trace = [
        Span(1, None, "thermo.thermo_curve", 1, 0.0, 10.0),
        Span(2, 1, "pressure.equilibrium_state", 2, 1.0, 6.0),
        Span(3, 1, "pressure.equilibrium_state", 3, 4.0, 9.0),
        Span(4, 2, "pressure.perron", 2, 2.0, 5.0),
        Span(5, 3, "sft.ks_entropy", 3, 7.0, 8.0),
        Span(6, 1, "sft.integrate", 1, 9.5, 9.8),
    ]
    stats = spans.layer_stats(trace)
    eq = stats["pressure.equilibrium_state"]
    assert eq["calls"] == 2
    assert eq["busy_s"] == pytest.approx(10.0)
    assert eq["wall_s"] == pytest.approx(8.0)
    assert eq["self_s"] == pytest.approx(7.0)
    curve = stats["thermo.thermo_curve"]
    assert curve["busy_s"] == pytest.approx(10.0)
    assert curve["self_s"] == pytest.approx(10.0 - 8.0 - 0.3)
    assert stats["pressure.perron"]["self_s"] == pytest.approx(3.0)


def test_self_time_counts_own_module_callees_as_self():
    trace = [
        Span(1, None, "cli.main", 1, 0.0, 10.0),
        Span(2, 1, "cli.cmd_thermo", 1, 1.0, 9.0),
        Span(3, 2, "thermo.thermo_curve", 1, 2.0, 8.0),
    ]
    stats = spans.layer_stats(trace)
    assert stats["cli.main"]["self_s"] == pytest.approx(4.0)
    assert stats["cli.cmd_thermo"]["self_s"] == pytest.approx(2.0)
    assert spans.descendants(trace, "cli.main", "thermo.thermo_curve") == 1
    assert spans.descendants(trace, "cli.cmd_thermo", "cli.main") == 0


def test_pool_threads_inherit_the_callers_span(monkeypatch):
    monkeypatch.setenv("THERMOPRESS_THREADS", "2")
    graph, a, phi = get_builtin("full2")
    with spans.Tracer() as tracer:
        thermo.thermo_curve(graph, a, phi, [0.0, 0.5, 1.0, 1.5])
    curve = [s for s in tracer.spans if s.name == "thermo.thermo_curve"]
    eq = [s for s in tracer.spans if s.name == "pressure.equilibrium_state"]
    assert len(curve) == 1 and len(eq) == 4
    assert {s.parent for s in eq} == {curve[0].sid}
    assert any(s.thread != curve[0].thread for s in eq)
    assert thermo.thermo_curve.__name__ == "thermo_curve"
    assert not hasattr(thermo.thermo_curve, "__wrapped__")  # uninstalled


def _public_code_objects():
    """code object -> span name, found independently of the Tracer."""
    import inspect
    out = {}
    for mod in spans.MODULES:
        module = sys.modules[spans.PACKAGE + mod]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                out[obj.__code__] = f"{mod}.{attr}"
    for mod, cls, meth in spans.METHODS:
        fn = vars(getattr(sys.modules[spans.PACKAGE + mod], cls))[meth]
        out[fn.__code__] = f"{mod}.{meth}"
    return out


def test_every_call_is_traced(tmp_path):
    """The profiler sees calls whatever name they go through; the tracer
    must count the same number for every wrapped function."""
    codes = _public_code_objects()
    seen = {}
    lock = threading.Lock()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            with lock:
                name = codes[frame.f_code]
                seen[name] = seen.get(name, 0) + 1

    argv = [["catmap", "--refine", "3", "--beta-max", "20"],
            ["pressure", "--builtin", "golden-mean", "--T-max", "6"]]
    with spans.Tracer() as tracer:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            for i, args in enumerate(argv):
                assert cli.main([*args, "--out", str(tmp_path / str(i))]) == 0
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    counted = {name: row["calls"]
               for name, row in spans.layer_stats(tracer.spans).items()}
    assert seen["ergopt.min_average"] == 5
    assert counted == seen


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out


def _edit_json(path, key, delta):
    obj = json.loads(path.read_text())
    obj[key] += delta
    path.write_text(json.dumps(obj))


def test_pressure_oracle_rejects_perturbed_transfer(tmp_path):
    out = _run(tmp_path, "pressure", "--builtin", "golden-mean", "--T-max", "10")
    spec = {"kind": "pressure", "closed_form": jobs.CLOSED_FORMS["golden-mean"]}
    spec["allowed"], spec["phi"] = jobs.BUILTIN_GRAPHS["golden-mean"]()
    assert oracles.check(spec, out) == []
    _edit_json(out / "transfer.json", "value", 1e-8)
    failures = oracles.check(spec, out)
    assert len(failures) == 1 and "transfer value" in failures[0]


def test_pressure_oracle_rejects_perturbed_periodic_estimate(tmp_path):
    out = _run(tmp_path, "pressure", "--builtin", "full2", "--T-max", "8")
    spec = {"kind": "pressure", "closed_form": jobs.CLOSED_FORMS["full2"]}
    spec["allowed"], spec["phi"] = jobs.BUILTIN_GRAPHS["full2"]()
    assert oracles.check(spec, out) == []
    path = out / "periodic_orbits.csv"
    lines = path.read_text().splitlines()
    T, est = lines[-1].split(",")
    lines[-1] = f"{T},{float(est) + 1e-9!r}"
    path.write_text("\n".join(lines) + "\n")
    assert any("periodic-orbit" in f for f in oracles.check(spec, out))


@pytest.mark.parametrize("delta", [1e-5, -1e-5])
def test_catmap_oracle_rejects_moved_beta_star(tmp_path, delta):
    out = _run(tmp_path, "catmap", "--refine", "4", "--beta-max", "50")
    spec = {"kind": "catmap", "order": 4, "strength": 1.0}
    assert oracles.check(spec, out) == []
    _edit_json(out / "catmap_report.json", "beta_star", delta)
    assert oracles.check(spec, out)


def test_wave_oracle_rejects_perturbed_gap_and_rising_energy(tmp_path):
    out = _run(tmp_path, "wave", "--profile", "const:0.5", "--n", "256",
               "--t-end", "40")
    spec = {"kind": "wave", "const": 0.5}
    assert oracles.check(spec, out) == []
    _edit_json(out / "wave_summary.json", "spectrum_gap", 1e-6)
    assert any("spectrum gap" in f for f in oracles.check(spec, out))
    _edit_json(out / "wave_summary.json", "spectrum_gap", -1e-6)
    path = out / "energy.csv"
    lines = path.read_text().splitlines()
    t, _ = lines[5].split(",")
    before = float(lines[4].split(",")[1])
    lines[5] = f"{t},{before * (1 + 1e-9)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert [f for f in oracles.check(spec, out) if "energy rises" in f]


def test_missing_output_is_a_failure(tmp_path):
    spec = {"kind": "thermo", "closed_form": 0.0}
    assert oracles.check(spec, tmp_path)
