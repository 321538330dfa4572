"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact integer arithmetic, so every tolerance is equality;
the only stated allowances are the wall-clock ceilings, asserted as given.
Criteria 6-8 compare recomputed example parameters against the published
ones and require the observed value to be *reported*, not to agree; the
disagreements themselves are recorded in the verification report entries.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from vcodes.cyclic import all_divisor_triples, cyclic_code_r, self_dual_cyclic_search
from vcodes.fsd import (
    construction_a,
    construction_b,
    construction_c,
    is_formally_self_dual,
    isodual_witness_check,
    odd_fsd_search,
    random_bordered,
    random_circulant,
    random_symmetric,
)
from vcodes.ring import audit_published_lee_table, ring_over
from vcodes.ringcode import random_code_r
from vcodes.verify import run_verification_suite
from vcodes import wenum


# `vcodes verify-paper --scope all --seed 42 --format json --out tests/data/report_seed42.json`;
# a change that alters the report re-records this file and names what changed
REPORT_SEED42 = Path(__file__).parent / "data" / "report_seed42.json"


def _report_line(num, title, ok, detail):
    print(f"ACCEPTANCE {num:>2} ({title}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def full_report():
    return run_verification_suite(scope="all", seed=42)


def test_criterion_1_gray_lee_foundation():
    t0 = time.perf_counter()
    ok = True
    for q in (2, 3, 5):
        ring = ring_over(q)
        for idx in range(ring.size):
            a0, a1, a2 = ring.triple(idx)
            image = (a0, (a0 + a2) % q, a1)
            ok &= int(ring.lee_table[idx]) == sum(1 for u in image if u)
        gray = ring.gray_table
        add = ring.add_table
        i = np.arange(ring.size)
        sums = gray[add[i[:, None], i[None, :]]]
        ok &= bool(((gray[i][:, None, :] + gray[i][None, :, :]) % q == sums).all())
    elapsed = time.perf_counter() - t0
    audit = audit_published_lee_table(ring_over(3))
    rows_flagged = [r["row"] for r in audit["rows"] if r["disagreements"]]
    pairs = audit["conflicting_row_pairs"]
    ok &= bool(rows_flagged) and [3, 10] in pairs
    ok &= elapsed < 1.0
    _report_line(
        1, "Gray/Lee foundation", ok,
        f"w_L = w_H(gray) and additivity exact over all symbols, q in {{2,3,5}}, {elapsed:.3f}s; "
        f"table rows flagged {rows_flagged}, conflicting pairs {pairs}",
    )
    assert ok


def test_criterion_2_theorem6_dual_gray():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:thm6")
    checked = 0
    ok = True
    for _ in range(200):
        q = rng.choice([2, 3])
        ring = ring_over(q)
        code = random_code_r(ring, rng.randrange(1, 4), rng)
        dual = code.dual()
        lhs = code.gray_image().dual()
        rhs = dual.gray_image()
        ok &= lhs == rhs
        if checked < 25 and lhs.size <= 1 << 12:
            a = {tuple(map(int, w)) for w in lhs.codewords()}
            b = {tuple(map(int, w)) for w in rhs.codewords()}
            ok &= a == b
        checked += 1
    elapsed = time.perf_counter() - t0
    ok &= checked >= 200 and elapsed < 30.0
    _report_line(2, "Theorem 6 gray(C)^dual = gray(C^dual)", ok, f"{checked} seeded random codes, exact, {elapsed:.2f}s")
    assert ok


def test_criterion_3_macwilliams(full_report):
    rng = random.Random("acceptance:macwilliams")
    ok = True
    literal_refuted = False
    for _ in range(200):
        q = rng.choice([2, 3])
        ring = ring_over(q)
        code = random_code_r(ring, rng.randrange(1, 3), rng)
        dual = code.brute_force_dual()
        lee, dual_lee = wenum.lee_enumerator(code), wenum.lee_enumerator(dual)
        ok &= wenum.macwilliams_lee(lee, code.size) == dual_lee
        if q == 3 and not literal_refuted:
            try:
                literal_refuted = wenum.macwilliams_lee(lee, code.size, literal=True) != dual_lee
            except wenum.TransformInconsistent:
                literal_refuted = True
    entry = full_report.by_id("thm7-4-macwilliams")
    recorded = entry.observed.get("literal_form_counterexample") is not None
    ok &= literal_refuted and recorded and entry.status == "canonicalized"
    _report_line(
        3, "Theorem 7.4 MacWilliams", ok,
        "corrected (q-1) form matched brute-force dual enumerators on 200 codes; "
        f"printed form refuted at q=3 and recorded in the report ({recorded})",
    )
    assert ok


def test_criterion_4_theorem11_sizes(full_report):
    ring = ring_over(3)
    ok = True
    tested = 0
    for n in (2, 4):
        for spec in all_divisor_triples(ring, n):
            ok &= cyclic_code_r(ring, spec, "idempotent").size == spec.size_formula(3)
            tested += 1
    entry = full_report.by_id("thm11-cardinality")
    literal_logged = entry.observed.get("literal_mismatches", 0) > 0
    ok &= tested == 64 + 512 and entry.status == "confirmed" and literal_logged
    _report_line(
        4, "Theorem 11 cardinality", ok,
        f"|C| = q^(3n - sum deg) exact on all {tested} divisor triples (q=3, n in {{2,4}}); "
        f"paper-literal deviations logged: {entry.observed.get('literal_mismatches')}",
    )
    assert ok


def test_criterion_5_corollary10_desk_scale(full_report):
    ok = True
    details = []
    for n in (2, 3, 4):
        res = self_dual_cyclic_search(ring_over(3), n)
        ok &= res["witness"] is None and res["exhausted"]
        details.append(f"q=3 n={n}: none/{res['tested']}")
    res2 = self_dual_cyclic_search(ring_over(2), 2)
    ok &= res2["witness"] is not None and res2["exhausted"]
    ok &= res2["witness"] == res2["witness"].brute_force_dual()
    details.append(f"q=2 n=2: witness/{res2['tested']}")
    entry = full_report.by_id("cor10-self-dual-cyclic")
    obs4 = entry.observed.get("q=2,n=4", {})
    ok &= obs4.get("found") is True and obs4.get("exhausted") is True
    details.append(f"q=2 n=4: witness/{obs4.get('tested')}")
    ok &= entry.status == "confirmed"
    _report_line(5, "Corollary 10 desk scale", ok, "; ".join(details) + " (exhaustion flags set)")
    assert ok


def test_criterion_6_example17(full_report):
    entry = full_report.by_id("ex17-bordered")
    params = entry.observed["gray_parameters"]
    ok = (
        params[:2] == [24, 12]
        and isinstance(params[2], int)
        and entry.expected == [24, 12, 9]
        and entry.seconds < 5.0
        and entry.observed["isodual_witness"]
    )
    _report_line(
        6, "Example 17 bordered circulant", ok,
        f"canonicalized input gives [24,12] with exact (Brouwer-Zimmermann) d={params[2]} vs published 9 "
        f"(status {entry.status}, {entry.seconds:.2f}s)",
    )
    assert ok


def test_criterion_7_example13(full_report):
    entry = full_report.by_id("ex13-symmetric")
    params = entry.observed["gray_parameters"]
    ok = (
        params[:2] == [30, 15]
        and isinstance(params[2], int)
        and entry.expected == [30, 15, 9]
        and entry.tested == 3**15
        and entry.seconds < 300.0
        and entry.observed["isodual_witness"]
    )
    _report_line(
        7, "Example 13 symmetric construction", ok,
        f"canonicalized input gives [30,15] with exact (Brouwer-Zimmermann) d={params[2]} over 3^15 codewords "
        f"vs published 9 (status {entry.status}, {entry.seconds:.1f}s)",
    )
    assert ok


def test_criterion_8_example15_and_lemma5(full_report):
    entry = full_report.by_id("ex15-double-circulant")
    comp = entry.observed["component_codes"]
    ok = (
        entry.observed["gray_parameters"] == [30, 15]
        and [c[:2] for c in comp] == [[10, 5], [10, 5], [10, 5]]
        and "minimum_distance_lemma5_based" in entry.observed
        and entry.expected == [30, 15, 12]
    )
    lem5 = full_report.by_id("lem5-distance")
    ok &= lem5.tested >= 100 and lem5.status in ("confirmed", "refuted")
    _report_line(
        8, "Example 15 + Lemma 5 audit", ok,
        f"[30,15]_5 component distances {[c[2] for c in comp]} -> lemma5-based "
        f"d={entry.observed['minimum_distance_lemma5_based']} vs published 12 (status {entry.status}); "
        f"Lemma 5 distance formula {lem5.status} on {lem5.tested} random codes "
        f"({lem5.observed['disagreements']} disagreements)",
    )
    assert ok


def test_criterion_9_constructions_random():
    rng = random.Random("acceptance:constructions")
    ring = ring_over(3)
    ok = True
    counts = {"a": 0, "b": 0, "c": 0}
    t0 = time.perf_counter()
    for _ in range(100):
        n = rng.randrange(1, 4)
        code, witness = construction_a(ring, random_symmetric(ring, n, rng))
        ok &= isodual_witness_check(code, witness) and is_formally_self_dual(code)
        counts["a"] += 1
        code, witness = construction_b(ring, random_circulant(ring, n, rng))
        ok &= isodual_witness_check(code, witness) and is_formally_self_dual(code)
        counts["b"] += 1
        code, witness = construction_c(ring, random_bordered(ring, max(n, 2), rng))
        ok &= isodual_witness_check(code, witness) and is_formally_self_dual(code)
        counts["c"] += 1
    elapsed = time.perf_counter() - t0
    ok &= all(v >= 100 for v in counts.values())
    _report_line(
        9, "Constructions A/B/C", ok,
        f"isodual witness + exact Lee enumerator equality on {counts} seeded inputs (q=3, n<=3), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_theorem20_audit():
    ok = True
    details = []
    for q in (2, 3):
        res = odd_fsd_search(ring_over(q), 1)
        ok &= res["witness"] is None and res["exhausted"]
        details.append(f"(q={q},n=1): refuted over {res['tested']} submodules")
    res2 = odd_fsd_search(ring_over(3), 2)
    ok &= res2["exhausted"] and res2["witness"] is not None
    details.append(f"(q=3,n=2): witness over {res2['tested']} submodules")
    _report_line(
        10, "Theorem 20 odd FSD audit", ok,
        "; ".join(details) + " (length-1 blocked by |C|^2 = q^3)",
    )
    assert ok


def test_criterion_11_determinism(full_report):
    first = full_report.to_json()
    second = run_verification_suite(scope="all", seed=42).to_json()
    ok = first == second and len(first) > 0
    parsed = json.loads(first)
    ok &= len(parsed["entries"]) == 25
    _report_line(
        11, "Determinism", ok,
        f"two verify-paper runs (scope=all, seed=42) produced byte-identical {len(first)}-byte reports",
    )
    assert ok


def test_criterion_12_recorded_report(full_report):
    recorded = REPORT_SEED42.read_text()
    ok = full_report.to_json() + "\n" == recorded
    _report_line(
        12, "Recorded report", ok,
        f"the seed-42 report is byte-identical to the recorded {len(recorded)}-byte {REPORT_SEED42.name}",
    )
    assert ok
