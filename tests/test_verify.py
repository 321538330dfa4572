import collections
import json
from pathlib import Path

import numpy as np
import pytest

from vcodes import ringcode, verify
from vcodes.cyclic import CyclicSpecR
from vcodes.errors import DEFAULT_BUDGET
from vcodes.ring import ring_over
from vcodes.verify import CLAIM_IDS, CLAIMS, SCOPES, run_verification_suite


EXPECTED_IDS = {
    "lee-table-audit",
    "thm2-weight-preserving",
    "thm3-self-orthogonal",
    "cor4-min-weights",
    "lem5-dimension",
    "lem5-distance",
    "thm6-dual-gray-image",
    "cardinality-identity",
    "thm7-1-lee-from-cwe",
    "thm7-2-hamming-from-cwe",
    "thm7-3-lee-equals-gray",
    "thm7-4-macwilliams",
    "thm8-cyclic-components",
    "cor9-cyclic-dual",
    "cor10-self-dual-cyclic",
    "thm11-cardinality",
    "thm12-construction-a",
    "thm14-construction-b",
    "thm16-construction-c",
    "thm18-gray-fsd",
    "lem19-direct-product",
    "thm20-odd-fsd",
    "ex13-symmetric",
    "ex15-double-circulant",
    "ex17-bordered",
}


def test_registry_is_complete_and_unique():
    assert set(CLAIM_IDS) == EXPECTED_IDS
    assert len(CLAIM_IDS) == len(EXPECTED_IDS) == 25
    scopes = {scope for _, _, scope, _ in CLAIMS}
    assert scopes == {"gray", "enumerators", "cyclic", "fsd", "examples"}
    assert set(SCOPES) == scopes | {"all"}


def test_unknown_scope_rejected():
    with pytest.raises(ValueError):
        run_verification_suite(scope="everything")


def test_gray_scope_entries():
    report = run_verification_suite(scope="gray", seed=42)
    ids = [e.claim_id for e in report.entries]
    assert ids == sorted(ids)
    assert set(ids) == {cid for cid, _, scope, _ in CLAIMS if scope == "gray"}
    statuses = {e.claim_id: e.status for e in report.entries}
    assert statuses["thm2-weight-preserving"] == "confirmed"
    assert statuses["thm3-self-orthogonal"] == "confirmed"
    assert statuses["cor4-min-weights"] == "confirmed"
    assert statuses["lem5-dimension"] == "confirmed"
    assert statuses["thm6-dual-gray-image"] == "confirmed"
    assert statuses["lee-table-audit"] == "refuted"
    assert statuses["lem5-distance"] == "refuted"
    assert statuses["cardinality-identity"] == "canonicalized"
    for e in report.entries:
        assert e.status in ("confirmed", "refuted", "canonicalized", "untestable")
        assert e.tested > 0
        assert e.anchor


def test_entries_serialize_without_timings_by_default():
    report = run_verification_suite(scope="enumerators", seed=42)
    obj = json.loads(report.to_json())
    assert all("seconds" not in e for e in obj["entries"])
    with_timings = json.loads(report.to_json(include_timings=True))
    assert all("seconds" in e for e in with_timings["entries"])


def test_text_rendering_has_summary():
    report = run_verification_suite(scope="enumerators", seed=42)
    text = report.to_text()
    assert "summary:" in text
    assert "thm7-4-macwilliams" in text


def test_example_distances_are_exact():
    entries = {e.claim_id: e for e in run_verification_suite(scope="examples", seed=42).entries}
    ex13 = entries["ex13-symmetric"]
    assert ex13.observed["gray_parameters"] == [30, 15, 3]
    assert ex13.tested == 3**15
    # the first weight-3 codeword in message order, as full enumeration reports it
    assert ex13.observed["minimum_weight_codeword"] == [
        "[1,0,2]", "[0,0,0]", "[0,0,0]", "[0,0,0]", "[0,0,0]",
        "[0,0,0]", "[0,0,0]", "[2,0,1]", "[1,0,2]", "[0,0,0]",
    ]
    ex15 = entries["ex15-double-circulant"]
    assert ex15.observed["minimum_distance_exact"] == 3 and ex15.status == "refuted"
    assert ex15.observed["certified_distance_range"] == [2, 3]
    assert "exact by Brouwer-Zimmermann" in ex15.note
    assert entries["ex17-bordered"].observed["gray_parameters"] == [24, 12, 2]


def test_cyclic_scope_builds_each_triple_code_once_per_run(monkeypatch):
    builds = collections.Counter()
    build = verify.cyclic_code_r

    def counting(ring, spec, mode="idempotent"):
        builds[ring.q, spec, mode] += 1
        return build(ring, spec, mode)

    monkeypatch.setattr(verify, "cyclic_code_r", counting)
    first = run_verification_suite(scope="cyclic", seed=42)
    once = dict(builds)
    assert once and max(once.values()) == 1
    builds.clear()
    second = run_verification_suite(scope="cyclic", seed=42)
    assert builds == once  # every code built again: no state outlived the first run
    assert second.to_json() == first.to_json()
    recorded = json.loads((Path(__file__).parent / "data" / "report_seed42.json").read_text())
    tested = {e["claim_id"]: e["tested"] for e in recorded["entries"]}
    assert all(e.tested == tested[e.claim_id] for e in first.entries)


def _identity_dual_form(monkeypatch):
    monkeypatch.setattr(ringcode, "DUAL_FORM", np.eye(3, dtype=np.int64))


def _e2_is_v_squared(monkeypatch):
    ring = ring_over(3)  # shared instance: monkeypatch restores it
    monkeypatch.setattr(ring, "e2", ring.index(0, 0, 1))


def _cyclic_dual_spec_is_identity(monkeypatch):
    monkeypatch.setattr(verify, "cyclic_dual_spec", lambda spec: spec)


def _size_formula_off_by_one(monkeypatch):
    formula = CyclicSpecR.size_formula
    monkeypatch.setattr(CyclicSpecR, "size_formula", lambda spec, q: formula(spec, q) + 1)


@pytest.mark.parametrize(
    "fault, claim_id, tested",
    [
        (_identity_dual_form, "thm6-dual-gray-image", 1),
        (_identity_dual_form, "cor9-cyclic-dual", 1),
        (_identity_dual_form, "lem19-direct-product", 0),
        (_identity_dual_form, "thm12-construction-a", 0),
        (_identity_dual_form, "thm14-construction-b", 0),
        (_identity_dual_form, "thm16-construction-c", 0),
        (_e2_is_v_squared, "cor9-cyclic-dual", 4),
        (_e2_is_v_squared, "thm11-cardinality", 16),
        (_cyclic_dual_spec_is_identity, "cor9-cyclic-dual", 0),
        (_size_formula_off_by_one, "thm11-cardinality", 0),
    ],
)
def test_injected_fault_refutes_its_claim(monkeypatch, fault, claim_id, tested):
    fault(monkeypatch)
    claim = next(fn for cid, _, _, fn in CLAIMS if cid == claim_id)
    status, observed, _, count = claim(verify._Ctx(42, DEFAULT_BUDGET))[:4]
    assert (status, count) == ("refuted", tested)
    assert observed is not None
