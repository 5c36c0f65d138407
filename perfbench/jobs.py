"""Seeded workloads: the CLI jobs each workload runs, the input files they
read, and what the oracles need to check each job's outputs.

Everything here is a pure function of (workload, seed, directory): the
same seed writes byte-identical files and yields identical argv lists.
The program only ever sees the argv and the files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("catmap-refined", "system-files", "tied-loops", "wave-decay")

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# periodic points the catmap-refined seed chooses from
CATMAP_POINTS = ("0,0", "1/2,0", "1/3,0", "1/5,2/5")
CATMAP_ORDER = 6

# README pressure commands and thermo builtins of the system-files workload
SYSTEM_PRESSURE = (("full2", 20), ("golden-mean", 30))
SYSTEM_THERMO = ("full2", "golden-mean", "two-loops-path", "catmap")

TIED_SIZES = (3, 10, 30, 60, 90, 120)

WAVE_JOBS = (
    ("const:0.5", 256, 40.0),
    ("bump:3.1416,1.5708,1.0", 512, 60.0),
    ("twobump:1.0,0.6,0.8,4.2,0.9,0.5", 512, 80.0),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation (without --out) and the oracle spec for it.

    oracle["kind"] names the check; the other keys are its data: for graph
    jobs the 0-1 adjacency ``allowed`` and base potential ``phi`` as dense
    arrays (or a ``closed_form`` pressure of phi where one is known).
    """

    label: str
    argv: tuple
    oracle: dict = field(default_factory=dict)


def _full2():
    return np.ones((2, 2), dtype=bool), np.zeros((2, 2))


def _golden_mean():
    return np.array([[True, True], [True, False]]), np.zeros((2, 2))


def _two_loops_path():
    allowed = np.zeros((3, 3), dtype=bool)
    for i, j in [(0, 0), (0, 1), (1, 2), (2, 2), (2, 0)]:
        allowed[i, j] = True
    return allowed, np.zeros((3, 3))


# Graph and base potential of each builtin, written out independently of
# thermopress.instances; catmap is covered by its closed form log(golden).
BUILTIN_GRAPHS = {
    "full2": _full2,
    "golden-mean": _golden_mean,
    "two-loops-path": _two_loops_path,
}
CLOSED_FORMS = {
    "full2": math.log(2.0),
    "golden-mean": math.log(GOLDEN),
    # constant phi = -log(golden) on a coding of entropy 2 log(golden)
    "catmap": math.log(GOLDEN),
}


def _builtin_oracle(kind, name):
    spec = {"kind": kind, "closed_form": CLOSED_FORMS.get(name)}
    if name in BUILTIN_GRAPHS:
        spec["allowed"], spec["phi"] = BUILTIN_GRAPHS[name]()
    return spec


def write_system(path: Path, allowed, a, phi) -> None:
    """Write the 'n' / 'i j a phi' system file format."""
    lines = [f"{allowed.shape[0]}"]
    for i, j in zip(*np.nonzero(allowed)):
        lines.append(f"{i} {j} {float(a[i, j])!r} {float(phi[i, j])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_system(rng, n, extra_out, loops, loop_phi=None):
    """Irreducible random graph on n states: a Hamiltonian cycle through a
    random permutation plus `extra_out` random successors per state.  The
    self-loops at the states in `loops` are undamped (a = 0) and share
    the base potential `loop_phi` when it is given; every other edge has
    damping in [0.5, 1.5] and base potential in [-1, 0.5].
    """
    allowed = np.zeros((n, n), dtype=bool)
    perm = rng.permutation(n)
    allowed[perm, np.roll(perm, -1)] = True
    for i in range(n):
        allowed[i, rng.choice(n, size=min(extra_out, n), replace=False)] = True
    a = np.where(allowed, rng.uniform(0.5, 1.5, (n, n)), 0.0)
    phi = np.where(allowed, rng.uniform(-1.0, 0.5, (n, n)), 0.0)
    for s in loops:
        allowed[s, s] = True
        a[s, s] = 0.0
        if loop_phi is not None:
            phi[s, s] = loop_phi
    return allowed, a, phi


def _catmap_jobs(rng, _inputs):
    point = CATMAP_POINTS[int(rng.integers(len(CATMAP_POINTS)))]
    argv = ("catmap", "--refine", str(CATMAP_ORDER), "--beta-max", "50",
            "--point", point)
    return [Job(f"catmap-{CATMAP_ORDER}", argv,
                {"kind": "catmap", "order": CATMAP_ORDER, "strength": 1.0})]


def _system_jobs(rng, inputs: Path):
    jobs = []
    for name, t_max in SYSTEM_PRESSURE:
        jobs.append(Job(f"pressure-{name}",
                        ("pressure", "--builtin", name, "--T-max", str(t_max)),
                        _builtin_oracle("pressure", name)))
    for name in SYSTEM_THERMO:
        jobs.append(Job(f"thermo-{name}",
                        ("thermo", "--builtin", name, "--beta-max", "30"),
                        _builtin_oracle("thermo", name)))
    n = int(rng.integers(190, 211))
    allowed, a, phi = random_system(rng, n, extra_out=10,
                                    loops=[int(rng.integers(n))])
    path = inputs / "system.txt"
    write_system(path, allowed, a, phi)
    graph = {"allowed": allowed, "phi": phi, "closed_form": None}
    jobs.append(Job("pressure-file",
                    ("pressure", "--input", str(path), "--T-max", "12"),
                    {"kind": "pressure", **graph}))
    jobs.append(Job("thermo-file",
                    ("thermo", "--input", str(path), "--beta-max", "30"),
                    {"kind": "thermo", **graph}))
    return jobs


def _tied_jobs(rng, inputs: Path):
    jobs = []
    for size in TIED_SIZES:
        n = size + int(rng.integers(-(size // 10), size // 10 + 1))
        loops = rng.choice(n, size=2, replace=False).tolist()
        allowed, a, phi = random_system(rng, n, extra_out=2, loops=loops,
                                        loop_phi=float(rng.uniform(-1, 0)))
        path = inputs / f"tied-{n}.txt"
        write_system(path, allowed, a, phi)
        jobs.append(Job(f"thermo-tied-{n}",
                        ("thermo", "--input", str(path), "--beta-max", "30"),
                        {"kind": "thermo", "allowed": allowed, "phi": phi,
                         "closed_form": None}))
    return jobs


def _wave_jobs(rng, _inputs):
    jobs = []
    for profile, n, t_end in WAVE_JOBS:
        kind, _, args = profile.partition(":")
        const = float(args) if kind == "const" else None
        argv = ("wave", "--profile", profile, "--n", str(n),
                "--t-end", f"{t_end:g}", "--seed", str(int(rng.integers(2 ** 31))))
        jobs.append(Job(f"wave-{kind}-{n}", argv,
                        {"kind": "wave", "const": const}))
    return jobs


_BUILDERS = {
    "catmap-refined": _catmap_jobs,
    "system-files": _system_jobs,
    "tied-loops": _tied_jobs,
    "wave-decay": _wave_jobs,
}


def make_jobs(workload: str, seed: int, inputs: Path) -> list:
    """Job list of one pass of the workload; input files go to `inputs`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, inputs)
