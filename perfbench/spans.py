"""Spans around the public functions of thermopress, installed from
outside the package for the traced passes and removed afterwards.

A module often binds another module's function under its own name
(``from .ergopt import min_average``), so installing replaces every
binding of a wrapped function in every loaded thermopress module, not
just the defining module's attribute.  The thread pool the damped
pressure curve uses does not carry the caller's context to its workers,
so ``ordered_map`` is wrapped too: spans opened on a pool thread get the
caller's open span as their parent.

Spans stay in memory; ``layer_stats`` reduces them when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "thermopress."
MODULES = ("sft", "pressure", "ergopt", "thermo", "catmap", "wave", "cli")
METHODS = (("wave", "WaveSystem", "spectrum"), ("catmap", "MarkovCoding", "refine"))
POOL_MAP = ("_threads", "ordered_map")

# Counters read off a wrapped function's return value, summed over calls
# except those in MAX_COUNTERS.
COUNTERS = {
    "pressure.perron": lambda r: {"iterations": r.iterations,
                                  "enclosure_max": r.enclosure},
    "sft.enumerate_cycles": lambda r: {"words": len(r)},
    "catmap.refine": lambda r: {"states": r.n_states},
    "wave.evolve": lambda r: {"steps": round(r.times[-1] / r.dt)},
}
MAX_COUNTERS = ("enclosure_max", "states")


def _read_counters(extract, result) -> dict:
    if extract is None or result is None:
        return {}
    try:
        return extract(result)
    except (AttributeError, TypeError, IndexError):
        return {}  # the return type changed: the counter reads zero


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str       # "<module>.<function>"
    thread: int
    start: float
    end: float
    counters: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []

    def _current(self):
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def _wrap(self, name, fn):
        extract = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            if not hasattr(local, "stack"):
                local.stack = []
            parent = self._current()
            sid = next(self._ids)  # count() and list.append are atomic under the GIL
            local.stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                local.stack.pop()
                counters = _read_counters(extract, result)
                self.spans.append(Span(sid, parent, name, threading.get_ident(),
                                       start, end, counters))

        return traced

    def _propagate(self, pool_map):
        @functools.wraps(pool_map)
        def mapped(fn, items):
            parent = self._current()

            def run(item):
                local = self._local
                saved = getattr(local, "inherited", None)
                local.inherited = parent
                try:
                    return fn(item)
                finally:
                    local.inherited = saved

            return pool_map(run, items)

        return mapped

    def install(self) -> None:
        """Wrap every binding; names the program no longer has are skipped,
        so their metrics read zero."""
        modules = {}
        for mod in MODULES + (POOL_MAP[0],):
            try:
                modules[mod] = importlib.import_module(PACKAGE + mod)
            except ModuleNotFoundError:
                continue
        replacements = {}  # id(original) -> (original, replacement)
        for mod in MODULES:
            module = modules.get(mod)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    replacements[id(obj)] = (obj, self._wrap(f"{mod}.{attr}", obj))
        pool_map = getattr(modules.get(POOL_MAP[0]), POOL_MAP[1], None)
        if pool_map is not None:
            replacements[id(pool_map)] = (pool_map, self._propagate(pool_map))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE[:-1] and not name.startswith(PACKAGE):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for mod, cls_name, meth in METHODS:
            cls = getattr(modules.get(mod), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(original):
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{mod}.{meth}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def union(intervals) -> list:
    """Merge (start, end) intervals into sorted disjoint ones."""
    merged = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1][1] = e
        else:
            merged.append([s, e])
    return [tuple(iv) for iv in merged]


def length(merged) -> float:
    return sum(e - s for s, e in merged)


def overlap(a, b) -> float:
    """Total length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _calls_into_other_layers(spans, by_id, name):
    """Spans of other modules called from `name`, directly or through
    functions of name's own module."""
    module = name.split(".", 1)[0]
    out = []
    for s in spans:
        if s.module == module:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.module == module and p.name != name:
            p = by_id.get(p.parent)
        if p is not None and p.name == name:
            out.append(s)
    return out


def layer_stats(spans) -> dict:
    """Per function: calls; busy_s, the summed span durations over all
    threads; wall_s, the length of the union of its spans; self_s, wall_s
    minus the part of it covered by calls into other modules (a layer's
    own time); and its counters."""
    by_id = {s.sid: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    stats = {}
    for name, own in by_name.items():
        wall = union((s.start, s.end) for s in own)
        children = union((c.start, c.end)
                         for c in _calls_into_other_layers(spans, by_id, name))
        row = {
            "calls": len(own),
            "busy_s": sum(s.end - s.start for s in own),
            "wall_s": length(wall),
            "self_s": length(wall) - overlap(wall, children),
        }
        for s in own:
            for key, value in s.counters.items():
                if key in MAX_COUNTERS:
                    row[key] = max(row.get(key, value), value)
                else:
                    row[key] = row.get(key, 0) + value
        stats[name] = row
    return stats


def descendants(spans, ancestor: str, name: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    by_id = {s.sid: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != ancestor:
            p = by_id.get(p.parent)
        count += p is not None
    return count
