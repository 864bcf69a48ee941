"""Span tracer for the benchmark: wraps named functions and aggregates nested spans.

A span covers one call of a traced function. Each span carries a tuple of
keys: its own name first, then any groups it also counts towards (a layer
or a phase). For every key the tracer sums

- ``calls``: spans opened under the key;
- ``total``: wall time of the outermost spans of the key, so a recursive or
  nested call inside another span of the same key is not counted twice;
- ``self``: span duration minus the time covered by its direct child spans.

Spans are aggregated as they close, so memory stays flat however many calls
a workload makes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Aggregates calls, inclusive time and self time per key."""

    def __init__(self, clock=time.perf_counter, sampled=()):
        self._clock = clock
        self._stack: list = []          # open spans: [keys, start, child_time]
        self._depth: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self._sampled = frozenset(sampled)
        self.samples: dict = defaultdict(list)  # key -> span durations, for sampled keys
        self.installed: set = set()     # keys fed by at least one installed wrapper
        self.closed = 0                 # spans closed

    def enter(self, keys: tuple) -> None:
        for k in keys:
            self._depth[k] += 1
        self._stack.append([keys, self._clock(), 0.0])

    def exit(self) -> None:
        keys, start, child = self._stack.pop()
        dur = self._clock() - start
        self.closed += 1
        own = dur - child
        for k in keys:
            self._depth[k] -= 1
            self.calls[k] += 1
            self.self_time[k] += own
            if self._depth[k] == 0:
                self.total[k] += dur
            if k in self._sampled:
                self.samples[k].append(dur)
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, fn, keys_of):
        """A wrapper that opens a span with keys ``keys_of(args, kwargs)`` around ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(keys_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a plain call: best of ``repeats`` timings on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, lambda a, k: ("noop", "group"))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


@dataclass(frozen=True)
class Probe:
    """A function to trace: where it is defined and the keys its spans feed.

    ``keys`` lists every key the probe can feed, its own name first. When
    ``keys_of`` is given, it picks the keys of one call from ``(args, kwargs)``.
    """

    module: str
    qualname: str
    keys: tuple
    keys_of: Callable | None = None


def _resolve(module_name: str, qualname: str):
    """(owner, object) for ``module:qualname``, or None if it does not exist."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    if obj is None:
        return None
    return owner, obj


def install(tracer: Tracer, probes, package: str) -> list:
    """Replace every binding of each probed function with one traced wrapper.

    A module-level function is rebound in every loaded module of ``package``
    that imported it, and a method in every attribute of its class that names
    it, so each call passes through exactly one wrapper. Returns the
    ``module:qualname`` of probes that do not exist in the program; their keys
    stay out of ``tracer.installed``.
    """
    absent = []
    for probe in probes:
        found = _resolve(probe.module, probe.qualname)
        if found is None:
            absent.append(f"{probe.module}:{probe.qualname}")
            continue
        owner, orig = found
        wrapper = tracer.wrap(orig, probe.keys_of or (lambda a, k, keys=probe.keys: keys))
        if isinstance(owner, type):
            spaces = [owner]
        else:
            spaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == package or name.startswith(package + "."))]
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is orig:
                    setattr(space, attr, wrapper)
        tracer.installed.update(probe.keys)
    return absent
