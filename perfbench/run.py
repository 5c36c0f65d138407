#!/usr/bin/env python3
"""thermopress benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run repeats passes over the workload's
job list (jobs.py) until S seconds have gone by.  Each pass is a fresh
Python process, as each CLI invocation of a user is: it imports
thermopress from src/, writes the seeded inputs and prints 'ready', then
calls ``thermopress.cli.main(argv)`` for each job in turn, a closed loop of
one job at a time.  The run takes the time to 'ready' as a set-up sample
and the pass's wall time and peak RSS as pass samples, and then, untimed,
checks every output against the oracles in oracles.py.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 its first pass runs with spans around the public functions
of each module (spans.py) and the run reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record (environment, pass and job
times, error texts, the layer table) goes to .perfbench/results/.

``--workload all`` runs every workload, tied-loops included, one after the
other, and prints each one's report.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_SETUPS = 11
TAIL_BEYOND = 10  # the tail percentile must have this many passes above it
CHILD_TIMEOUT = 170
E2E_UNITS = {"solve_s": "s", "solve_s_tail": "s", "peak_rss_mb": "MB",
             "setup_s": "s", "failed_frac": "ratio"}

sys.path.insert(0, str(HERE))
from jobs import WORKLOADS, make_jobs  # noqa: E402


def load_program():
    """Import thermopress.cli from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    import thermopress.cli as cli
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise SystemExit(f"error: thermopress imported from {cli.__file__}")
    return cli


def run_job(cli, job, out: Path):
    """Call the CLI once; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*job.argv, "--out", str(out)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"uncaught {type(exc).__name__}"
            print(f"error: {exc}", file=sys.stderr)
    return code, err.getvalue().strip()


def pass_main(args) -> int:
    """Body of one pass process: set up, print 'ready', run the jobs,
    print the pass record as JSON."""
    cli = load_program()
    outdir = Path(args.pass_dir)
    jobs = make_jobs(args.workload, args.seed, outdir / "inputs")
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    codes, job_seconds = {}, {}
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            codes[job.label] = run_job(cli, job, outdir / job.label)
            job_seconds[job.label] = time.perf_counter() - t0
        seconds = time.perf_counter() - start
    record = {
        "seconds": seconds,
        "job_seconds": job_seconds,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["layers"] = spans.layer_stats(tracer.spans)
        record["transfer_calls"] = spans.descendants(
            tracer.spans, "thermo.find_gap_beta", "pressure.pressure_transfer")
    print(json.dumps(record))
    return 0


def spawn_pass(args, pass_dir: Path, traced: bool, setup_only=False) -> dict:
    """Run one pass process; its record plus the seconds it took from
    spawn to 'ready'."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--pass-dir", str(pass_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        try:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: pass process exited with {proc.returncode}")
    record = {} if setup_only else json.loads(rest.splitlines()[-1])
    record["setup_s"] = setup
    return record


def check_pass(jobs, record, outdir: Path) -> dict:
    """Oracle verdicts for one pass: {job label: error text} of failed jobs."""
    import oracles
    errors = {}
    for job in jobs:
        code, stderr = record["codes"][job.label]
        if code != 0:
            errors[job.label] = f"exit {code}: {stderr}"
            continue
        failures = oracles.check(job.oracle, outdir / job.label)
        if failures:
            errors[job.label] = "oracle: " + "; ".join(failures)
    return errors


def tail(times):
    """(percentile, value): the highest nearest-rank percentile with at
    least TAIL_BEYOND passes above it.  Below 2 * TAIL_BEYOND passes that
    percentile is not above the median, so the slowest pass is reported
    instead, as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        # left at the defaults users run with; None means unset
        "THERMOPRESS_THREADS": os.environ.get("THERMOPRESS_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def run_workload(args, spec) -> dict:
    if not (SRC / "thermopress" / "cli.py").is_file():
        raise SystemExit(f"error: no thermopress sources under {SRC}")
    work = WORK / f"work-{args.workload}-{os.getpid()}"
    try:
        jobs = make_jobs(args.workload, args.seed, work / "inputs")
        passes = []
        start = time.perf_counter()
        while (len(passes) < 1 + args.trace
               or time.perf_counter() - start < args.seconds):
            pass_dir = work / f"pass{len(passes)}"
            traced = bool(args.trace) and not passes
            p = spawn_pass(args, pass_dir, traced)
            p["traced"] = traced
            p["errors"] = check_pass(jobs, p, pass_dir)
            del p["codes"]
            shutil.rmtree(pass_dir)
            passes.append(p)
        setups = [p["setup_s"] for p in passes]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(spawn_pass(args, work / "setup", False,
                                     setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(jobs) * len(passes)
    failed = sum(len(p["errors"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    # a pass with a failed job never reached a solution: unbounded time
    times = [p["seconds"] if not p["errors"] else float("inf") for p in untraced]
    errors = {}
    for p in passes:
        for label, text in p["errors"].items():
            errors.setdefault(label, text)
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "jobs": [" ".join(j.argv) for j in jobs],
        "passes": passes,
        "errors": errors,
    }
    if args.trace:
        metrics = spec["per_layer"]
        traced = passes[0]
        layers = traced.pop("layers")
        untraced_s = statistics.median(p["seconds"] for p in untraced)
        values = {
            "thermo.find_gap_beta.transfer_calls": traced.pop("transfer_calls"),
            "trace.traced_solve_s": traced["seconds"],
            "trace.untraced_solve_s": untraced_s,
            "trace.overhead_s": traced["seconds"] - untraced_s,
        }
        for m in metrics:
            function, _, stat = m["name"].rpartition(".")
            values.setdefault(m["name"], layers.get(function, {}).get(stat, 0))
        record["layers"] = layers
    else:
        metrics = spec["end_to_end"]
        percentile, tail_value = tail(times)
        values = {
            "solve_s": statistics.median(times),
            "solve_s_tail": tail_value,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": statistics.median(setups),
            "failed_frac": failed / attempted,
        }
        missing = [m["name"] for m in metrics if m["name"] not in values]
        if missing:
            raise SystemExit(f"error: no measurement for {missing}")
        record["end_to_end"] = values
        record["tail_percentile"] = percentile
        record["setup_samples"] = setups
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    return record


def report(record) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    w = record["workload"]
    print(f"[{w}] environment {json.dumps(record['environment'])}")
    untraced = [p for p in record["passes"] if not p["traced"]]
    print(f"[{w}] {len(untraced)} untraced passes: "
          + ", ".join(f"{p['seconds']:.3f}" for p in untraced) + " s")
    for label in untraced[0]["job_seconds"]:
        times = [p["job_seconds"][label] for p in untraced]
        print(f"[{w}]   job {label}: median {statistics.median(times):.3f} s")
    if "layers" in record:
        top = sorted(record["layers"].items(), key=lambda kv: -kv[1]["busy_s"])
        for name, row in top[:12]:
            print(f"[{w}]   span {name}: calls {row['calls']}, busy "
                  f"{row['busy_s']:.3f} s, wall {row['wall_s']:.3f} s, "
                  f"self {row['self_s']:.3f} s")
        for name, m in record["result"]["metrics"].items():
            print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    else:
        r = record["result"]
        notes = {
            "solve_s_tail": f"p{record['tail_percentile']:.0f} of "
                            f"{len(untraced)} passes",
            "setup_s": f"median of {len(record['setup_samples'])} set-ups",
            "failed_frac": f"{r['failed']} of {r['attempted']} jobs",
        }
        for name, value in record["end_to_end"].items():
            parts = [notes.get(name, "")]
            if name not in r["metrics"]:
                parts.append("not in BENCHMARK.json")
            note = ", ".join(x for x in parts if x)
            print(f"[{w}] {name} = {value:.6g} {E2E_UNITS[name]}"
                  + (f"  ({note})" if note else ""))
    for label, text in record["errors"].items():
        print(f"[{w}] FAILED {label}: {text}")


def write_record(record, seed, trace) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record['workload']}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Each workload in its own run; their reports one after the other."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT + args.seconds)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one pass process: write outputs under this directory
    parser.add_argument("--pass-dir", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_dir:
        return pass_main(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args, spec)
    write_record(record, args.seed, args.trace)
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
