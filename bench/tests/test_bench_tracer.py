"""Tracer arithmetic and patching, on synthetic calls with a scripted clock."""

import sys
import types

import pytest

import tracer as tracer_mod
from tracer import Tracer, package_modules


@pytest.fixture
def clock(monkeypatch):
    """perf_counter returns 0, 1, 2, ... one tick per reading."""
    ticks = iter(range(1000))
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: float(next(ticks)))


@pytest.fixture
def fakepkg():
    """A package whose two modules bind the same function, plus a class."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf(x):
        return x + 1

    def outer(x):
        return a.leaf(x) + b.leaf(x)

    def chunks(n):
        for i in range(n):
            yield [0] * (i + 1)

    class Thing:
        def work(self, x):
            return a.outer(x)

    a.leaf, a.outer, a.chunks, a.Thing = leaf, outer, chunks, Thing
    b.leaf = leaf
    pkg.leaf = leaf
    a.REGISTRY = {"leaf": leaf}
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b, pkg
    for name in mods:
        del sys.modules[name]


def test_self_time_subtracts_direct_children(clock, fakepkg):
    a, b, pkg = fakepkg
    t = Tracer()
    mods = package_modules("fakepkg")
    t.patch(mods, a, "leaf", "a.leaf")
    t.patch(mods, a, "outer", "a.outer")
    t.patch(mods, a.Thing, "work", "a.Thing.work")
    assert a.Thing().work(1) == 4
    # clock readings: work opens 0, outer 1, leaf 2-3, leaf 4-5, outer closes 6, work closes 7
    assert t.names == ["a.Thing.work", "a.outer", "a.leaf", "a.leaf"]
    assert t.parents == [-1, 0, 1, 1]
    assert list(t.self_times()) == [2.0, 3.0, 1.0, 1.0]
    summary = t.summary()
    assert summary["a.leaf"] == {"self_s": 2.0, "spans": 2, "work": 0}
    assert sum(s["self_s"] for s in summary.values()) == 7.0  # the root span's duration


def test_patch_reaches_every_module_binding_and_reports_captured_ones(fakepkg):
    a, b, pkg = fakepkg
    original = a.leaf
    t = Tracer()
    mods = package_modules("fakepkg")
    t.patch(mods, a, "leaf", "a.leaf")
    assert a.leaf is b.leaf is pkg.leaf
    assert a.leaf is not original
    assert t.unpatched_bindings(mods) == []
    assert t.captured_bindings(mods) == ["fakepkg.a.REGISTRY -> a.leaf"]
    b.late = original  # a binding made after patching is caught
    assert t.unpatched_bindings(mods) == ["fakepkg.b.late"]
    t.uninstall()
    assert a.leaf is b.leaf is pkg.leaf is original


def test_generator_spans_cover_only_resumptions(clock, fakepkg):
    a, _, _ = fakepkg
    t = Tracer()
    t.patch(package_modules("fakepkg"), a, "chunks", "a.chunks")
    with t.span("consumer"):
        rows = 0
        for chunk in a.chunks(3):
            rows += len(chunk)
            tracer_mod.perf_counter()  # the consumer's own work takes one tick
    assert rows == 6
    names = t.names
    assert names == ["consumer"] + ["a.chunks"] * 4  # three items and the final StopIteration
    assert t.work[1:] == [1, 2, 3, 0]
    self_t = list(t.self_times())
    assert self_t[1:] == [1.0, 1.0, 1.0, 1.0]
    assert self_t[0] == (t.ends[0] - t.starts[0]) - 4.0
    assert t.counts[(0, "calls:a.chunks")] == 1


def test_wrapped_exception_still_closes_the_span(fakepkg):
    a, _, _ = fakepkg
    t = Tracer()
    t.patch(package_modules("fakepkg"), a, "leaf", "a.leaf")
    with pytest.raises(TypeError):
        a.leaf("x")
    assert t.stack == [] and t.ends[0] >= t.starts[0]
