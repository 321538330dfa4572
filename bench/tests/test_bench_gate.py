"""The correctness gate rejects tampered verdicts, weaker evidence and bad oracles."""

import copy
from types import SimpleNamespace

import pytest

import gate
import workloads


@pytest.fixture(scope="module")
def golden():
    return gate.load_golden()


def _entry(obj):
    return SimpleNamespace(claim_id=obj["claim_id"], seconds=0.5, to_json_obj=lambda: copy.deepcopy(obj))


def _fake_vcodes(golden, tamper=None, raise_scope=None):
    reference = golden["reports"]["42"]

    def run_verification_suite(scope, seed):
        assert seed == 42
        if scope == raise_scope:
            raise ValueError("boom")
        entries = []
        for cid, e in sorted(reference.items()):
            if e["scope"] == scope:
                obj = copy.deepcopy(e["entry"])
                if tamper:
                    tamper(obj)
                entries.append(_entry(obj))
        return SimpleNamespace(entries=entries)

    return SimpleNamespace(run_verification_suite=run_verification_suite)


def test_golden_covers_every_seed_with_the_seed_42_verdicts(golden):
    assert golden["suite_seeds"] == list(workloads.SUITE_SEEDS)
    statuses = [e["entry"]["status"] for e in golden["reports"]["42"].values()]
    assert len(statuses) == 25
    assert {s: statuses.count(s) for s in set(statuses)} == {"confirmed": 17, "refuted": 6, "canonicalized": 2}


def test_untouched_report_passes(golden):
    out = workloads.run_claims(_fake_vcodes(golden), ("cyclic", "fsd"), 42, golden)
    assert out["attempted"] == 10 and out["failures"] == [] and out["entries_changed"] == 0


def test_tampered_verdict_is_a_failure(golden):
    def flip(obj):
        if obj["claim_id"] == "thm20-odd-fsd":
            obj["status"] = "confirmed"

    out = workloads.run_claims(_fake_vcodes(golden, flip), ("fsd",), 42, golden)
    assert out["failures"] == ["thm20-odd-fsd: verdict confirmed != golden refuted"]
    assert out["entries_changed"] == 1


def test_fewer_checks_is_a_failure_but_stronger_evidence_is_not(golden):
    def weaken(obj):
        obj["tested"] -= 1

    def strengthen(obj):
        obj["tested"] += 1
        obj["note"] += " (exact)"

    weak = workloads.run_claims(_fake_vcodes(golden, weaken), ("cyclic",), 42, golden)
    assert len(weak["failures"]) == 4
    strong = workloads.run_claims(_fake_vcodes(golden, strengthen), ("cyclic",), 42, golden)
    assert strong["failures"] == [] and strong["entries_changed"] == 4


def test_a_raising_scope_fails_its_claims_and_the_run_goes_on(golden):
    out = workloads.run_claims(_fake_vcodes(golden, raise_scope="cyclic"), ("cyclic", "fsd"), 42, golden)
    assert out["attempted"] == 10
    assert len(out["failures"]) == 4 and all("raised ValueError: boom" in f for f in out["failures"])
    assert set(out["claim_seconds"]) == {cid for cid, e in golden["reports"]["42"].items() if e["scope"] == "fsd"}


def test_library_oracles_catch_a_wrong_result():
    import vcodes

    code = workloads.library_codes(3)[6]  # q=3, n=4
    result = workloads.library_pipeline(vcodes, code["q"], code["n"], code["gens"])
    assert gate.check_library_code(code["q"], code["n"], code["k"], result) == []
    bad = dict(result, macwilliams={**result["macwilliams"], 0: 2}, d_gray=result["d_gray"] + 1)
    problems = gate.check_library_code(code["q"], code["n"], code["k"], bad)
    assert len(problems) == 2


def test_library_inputs_depend_only_on_the_seed():
    first = workloads.library_codes(5)
    assert first == workloads.library_codes(5)
    assert first != workloads.library_codes(6)
    assert [(c["q"], c["n"]) for c in first] == [(q, n) for q, n, _, _ in workloads.LIBRARY_SLOTS]
