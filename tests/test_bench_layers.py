"""The benchmark tracer still reaches every lattice entry point it wraps."""

import collections
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from vcodes import cyclic, fsd, verify, wenum  # noqa: E402
from vcodes.errors import DEFAULT_BUDGET  # noqa: E402
from vcodes.fieldcode import LinearCodeFq  # noqa: E402
from vcodes.gf import GF  # noqa: E402
from vcodes.ring import ring_over  # noqa: E402
from vcodes.ringcode import LinearCodeR  # noqa: E402
from vcodes.submodules import AmbientSpace  # noqa: E402
from vcodes.wenum import hamming_enumerator_fq  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    modules = layers.install(t)
    try:
        yield t, modules
    finally:
        t.uninstall()


def _missing_entry_points(t, module):
    names = set(t.names)
    entry_points = [
        ".".join(p for p in (mod, cls, attr) if p)
        for mod, cls, attr, _ in layers.ENTRY_POINTS
        if mod == module
    ]
    assert entry_points
    return [e for e in entry_points if e not in names]


def test_tracer_covers_the_wenum_entry_points(tracer):
    t, modules = tracer
    assert t.unpatched_bindings(modules) == []
    code = LinearCodeR(ring_over(3), 2, [[1, 3]])
    lee = wenum.lee_enumerator(code)
    wenum.hamming_enumerator_r(code)
    wenum.specialize(wenum.symmetrized_enumerator(code), "lee")
    wenum.specialize(wenum.complete_enumerator(code), "hamming")
    wenum.macwilliams_lee(lee, code.size)
    field_code = LinearCodeFq.full_space(GF(3), 2)
    wenum.macwilliams_hamming_fq(hamming_enumerator_fq(field_code), field_code.size)
    assert _missing_entry_points(t, "wenum") == []


def test_tracer_covers_the_submodule_entry_points(tracer):
    t, modules = tracer
    assert t.unpatched_bindings(modules) == []
    cyclic.self_dual_cyclic_search(ring_over(2), 2)
    fsd.odd_fsd_search(ring_over(2), 1)
    assert _missing_entry_points(t, "submodules") == []
    metrics = layers.span_metrics(t, [t.run_id])
    assert metrics["submodules.lattice_nodes"] == 21 + 6
    # each join call reduces a batch of node x atom pairs, never one pair
    assert metrics["submodules.joins"] < metrics["submodules.join_pairs"]
    spaces = (AmbientSpace(ring_over(2), 2), AmbientSpace(ring_over(2), 1))
    assert metrics["submodules.table_bytes"] == sum(s.decode.nbytes + s.vec_shift.nbytes for s in spaces)


def test_tracer_covers_the_fsd_entry_points(tracer):
    t, modules = tracer
    assert t.unpatched_bindings(modules) == []
    claim = next(fn for cid, _, _, fn in verify.CLAIMS if cid == "thm12-construction-a")
    assert verify._run_claim(verify._Ctx(42, DEFAULT_BUDGET), claim)[0] == "confirmed"
    spans = collections.Counter(t.names)
    # 100 samples at q = 3, each with its witness and its FSD check, and 10 witness-only samples at q = 5
    assert spans["fsd.isodual_witness_check"] == 100 + 10
    assert spans["fsd.is_formally_self_dual"] == 100
    assert spans["wenum.lee_enumerator"] == 2 * 100  # each read from the memo the stack filled
    metrics = layers.span_metrics(t, [t.run_id])
    assert metrics["fsd.fsd_checks"] == 100 and metrics["fsd.witness_checks"] == 110
