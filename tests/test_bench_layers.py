"""The benchmark tracer still reaches every lattice entry point it wraps."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from vcodes import cyclic, fsd  # noqa: E402
from vcodes.ring import ring_over  # noqa: E402
from vcodes.submodules import AmbientSpace  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    modules = layers.install(t)
    try:
        yield t, modules
    finally:
        t.uninstall()


def test_tracer_covers_the_submodule_entry_points(tracer):
    t, modules = tracer
    assert t.unpatched_bindings(modules) == []
    cyclic.self_dual_cyclic_search(ring_over(2), 2)
    fsd.odd_fsd_search(ring_over(2), 1)
    names = set(t.names)
    entry_points = [
        ".".join(p for p in (mod, cls, attr) if p)
        for mod, cls, attr, _ in layers.ENTRY_POINTS
        if mod == "submodules"
    ]
    assert entry_points and [e for e in entry_points if e not in names] == []
    metrics = layers.span_metrics(t, [t.run_id])
    assert metrics["submodules.lattice_nodes"] == 21 + 6
    spaces = (AmbientSpace(ring_over(2), 2), AmbientSpace(ring_over(2), 1))
    assert metrics["submodules.table_bytes"] == sum(s.decode.nbytes + s.vec_shift.nbytes for s in spaces)
