"""Outside-in span tracer: times calls into a package without editing it.

The tracer replaces functions and methods by timing wrappers.  A method is
replaced on its class; a module function is replaced in every module of the
package that binds the same function object, because ``from .x import f``
copies the binding (``rref`` lives in both ``fieldcode`` and ``ringcode``).
Objects captured at import time inside containers or default arguments keep
the original function; ``captured_bindings`` lists them so a caller can
decide whether they matter.

Each call becomes a span (name, start, end, parent, run id, work).  A
generator function gets one span per resumption, so the time its consumer
spends between items is not charged to it, and ``work`` holds the measure of
the item it yielded.  Spans live in parallel lists and are only written out
when asked; self time is a span's duration minus its children's durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory spans plus event counts, grouped by run id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.work: list[int] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.run_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # ---- spans ----

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run_id)
        self.work.append(0)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[(self.run_id, key)] += amount

    @contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    # ---- wrappers ----

    def wrap_function(self, fn, name: str, measure=None):
        """Timing wrapper; ``measure(args, kwargs, result)`` gives the work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if measure is not None:
                tracer.work[i] = measure(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, measure=len):
        """Time every resumption of a generator; ``measure(item)`` per yield."""
        tracer = self

        def iterate(it):
            try:
                while True:
                    i = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    tracer.work[i] = measure(item)
                    yield item
            finally:
                it.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.count("calls:" + name)
            return iterate(fn(*args, **kwargs))

        return traced

    # ---- patching ----

    def patch(self, package_modules, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` (a class or a module) and every module-level
        binding of the same function object in ``package_modules``."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod, property)):
            raise TypeError(f"{name}: only plain functions and methods can be traced")
        if inspect.isgeneratorfunction(original):
            wrapper = self.wrap_generator(original, name, measure or len)
        else:
            wrapper = self.wrap_function(original, name, measure)
        self._originals[id(original)] = name
        self._set(owner, attr, original, wrapper)
        if inspect.isclass(owner):
            return
        for module in package_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _is_original(self, value) -> bool:
        return id(value) in self._originals and callable(value)

    def unpatched_bindings(self, package_modules) -> list[str]:
        """Module attributes that still hold an original function."""
        return [
            f"{module.__name__}.{key}"
            for module in package_modules
            for key, value in vars(module).items()
            if self._is_original(value)
        ]

    def captured_bindings(self, package_modules) -> list[str]:
        """Originals held in module-level containers or default arguments,
        which patching cannot reach."""
        found = []
        for module in package_modules:
            for key, value in vars(module).items():
                if isinstance(value, dict):
                    items = list(value.values())
                elif isinstance(value, (list, tuple)):
                    items = [x for v in value for x in (v if isinstance(v, tuple) else (v,))]
                elif inspect.isfunction(value):
                    items = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
                else:
                    continue
                for item in items:
                    if self._is_original(item):
                        found.append(f"{module.__name__}.{key} -> {self._originals[id(item)]}")
        return found

    # ---- analysis ----

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def summary(self, run: int | None = None) -> dict[str, dict]:
        """Per span name: self seconds, span count and summed work."""
        self_t = self.self_times()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            if run is not None and self.runs[i] != run:
                continue
            s = out.setdefault(name, {"self_s": 0.0, "spans": 0, "work": 0})
            s["self_s"] += float(self_t[i])
            s["spans"] += 1
            s["work"] += int(self.work[i])
        return out

    def dump(self, path) -> None:
        """Write every span as columns, names interned."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        obj = {
            "names": names,
            "name": [index[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "run": self.runs,
            "work": self.work,
            "counts": [[run, key, value] for (run, key), value in sorted(self.counts.items())],
        }
        with open(path, "w") as fh:
            json.dump(obj, fh, separators=(",", ":"))


def package_modules(package_name: str) -> list:
    """The package and its already imported submodules."""
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == package_name or name.startswith(package_name + "."))
    ]
