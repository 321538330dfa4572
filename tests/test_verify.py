import ast
import collections
import json
from pathlib import Path

import numpy as np
import pytest

from vcodes import cyclic, fieldcode, ringcode, submodules, verify, wenum
from vcodes.cyclic import CyclicSpecR, all_divisor_triples, cyclic_dual_spec
from vcodes.errors import DEFAULT_BUDGET
from vcodes.fieldcode import LinearCodeFq
from vcodes.fsd import (
    SignedPermutation,
    direct_product,
    is_formally_self_dual,
    random_bordered,
    random_circulant,
    random_symmetric,
)
from vcodes.ring import PROJECTIONS, ring_over
from vcodes.ringcode import LinearCodeR
from vcodes.verify import CLAIMS, SCOPES, run_verification_suite

import oracles
from oracles import zero_code_r


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
    claim_ids = [c[0] for c in CLAIMS]
    assert set(claim_ids) == EXPECTED_IDS
    assert len(claim_ids) == len(EXPECTED_IDS) == 25
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
    assert ex15.observed["minimum_weight_codeword"] == [
        "[0,0,0]", "[0,0,0]", "[0,0,0]", "[0,0,0]", "[1,0,4]",
        "[0,0,0]", "[3,0,2]", "[1,0,4]", "[0,0,0]", "[0,0,0]",
    ]
    ex17 = entries["ex17-bordered"]
    assert ex17.observed["gray_parameters"] == [24, 12, 2]
    assert ex17.observed["minimum_weight_codeword"] == ["[0,1,2]"] + ["[0,0,0]"] * 7


def test_cyclic_scope_builds_each_triple_code_once_per_run(monkeypatch):
    builds = collections.Counter()
    build = verify.cyclic_codes_r

    def counting(ring, specs, mode="idempotent"):
        specs = list(specs)
        builds.update((ring.q, spec, mode) for spec in specs)
        return build(ring, specs, mode)

    monkeypatch.setattr(verify, "cyclic_codes_r", counting)
    monkeypatch.setattr(cyclic, "cyclic_codes_r", counting)  # under the self-dual search's own builder
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


def test_corollary_9_tabulates_each_dual_generator_once_per_run(monkeypatch):
    calls = collections.Counter()
    dual_generator = verify.cyclic_dual_generator
    monkeypatch.setattr(verify, "cyclic_dual_generator", lambda g, n: calls.update([(n, g)]) or dual_generator(g, n))
    run_verification_suite(scope="cyclic", seed=42)
    assert len(calls) == 16 and set(calls.values()) == {1}  # 4 + 4 + 8 divisors at n = 2, 3, 4
    ring, ctx = ring_over(3), verify._Ctx(42, DEFAULT_BUDGET)
    for n in (2, 3, 4):
        for spec in all_divisor_triples(ring, n):
            assert ctx.cyclic_dual_spec(ring, spec) == cyclic_dual_spec(spec)


def test_cyclic_and_fsd_scopes_pin_their_row_reductions(monkeypatch):
    """Deterministic work: a change that adds or saves a reduction moves these counts."""
    calls = collections.Counter()
    for name in ("rref", "rref_stack"):
        kernel = getattr(fieldcode, name)

        def counting(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        for module in (fieldcode, ringcode, submodules, cyclic):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counting)
    for scope in ("cyclic", "fsd"):
        run_verification_suite(scope=scope, seed=42)
    # the q = 2, n = 4 ideal walk stops at node 58 after 10 half-size duals
    assert dict(calls) == {"rref": 148, "rref_stack": 138}


def _reference_construction(claim_id, make_block, make_input, label):
    """A construction claim as a loop of one-code builds and checks, with the
    tuple builders of the oracles: the per-code path the stacks must match."""

    def run(ctx):
        rng = ctx.rng(claim_id)
        for q, count, max_n in ((3, 100, 3), (5, 10, 2)):
            ring = ring_over(q)
            for _ in ctx.each(range(count)):
                n = rng.randrange(1, max_n + 1)
                rows, perm = make_block(make_input(ring, n, rng))
                code = LinearCodeR(ring, 2 * len(rows), oracles.identity_block_rows(rows))
                witness = SignedPermutation(*oracles.block_witness(len(rows), perm))
                if not verify.isodual_witness_check(code, witness):
                    raise verify._Refuted({"failure": "witness", "q": q, "n": n, "gens": verify._gens(code)}, label)
                if q == 3 and not verify.is_formally_self_dual(code, ctx.budget):
                    raise verify._Refuted({"failure": "enumerator", "q": q, "n": n, "gens": verify._gens(code)}, label)
        return "confirmed", None, label, None

    return run


def _reference_lem19(ctx):
    rng = ctx.rng("lem19")
    ring = ring_over(3)
    for _ in ctx.each(range(25)):
        c1 = LinearCodeR(ring, 2, oracles.identity_block_rows(random_symmetric(ring, 1, rng).rows))
        first_row = random_circulant(ring, rng.randrange(1, 3), rng).first_row
        c2 = LinearCodeR(ring, 2 * len(first_row), oracles.identity_block_rows(oracles.circulant_rows(first_row)))
        prod = direct_product(c1, c2)
        l1 = wenum.lee_enumerator(c1, ctx.budget)
        l2 = wenum.lee_enumerator(c2, ctx.budget)
        if wenum.lee_enumerator(prod, ctx.budget).counts != wenum.product_counts(l1.counts, l2.counts):
            raise verify._Refuted({"gens": verify._gens(prod)}, "enumerator product law")
        if prod.dual() != direct_product(c1.dual(), c2.dual()):
            raise verify._Refuted({"gens": verify._gens(prod)}, "(C1 x C2)^dual = C1^dual x C2^dual")
        if not verify.is_formally_self_dual(prod, ctx.budget):
            raise verify._Refuted({"gens": verify._gens(prod)}, "product of FSD is FSD")
    return "confirmed", None, "direct products preserve FSD", None


def _bordered_perm(m):
    return lambda i: 0 if i == 0 else 1 + ((1 - i) % m)


_REFERENCES = {
    "thm12-construction-a": _reference_construction(
        "thm12-construction-a", lambda a: (a.rows, lambda i: i), random_symmetric, "symmetric [I|A] codes are isodual, hence FSD"
    ),
    "thm14-construction-b": _reference_construction(
        "thm14-construction-b",
        lambda c: (oracles.circulant_rows(c.first_row), lambda i: -i % c.order),
        random_circulant,
        "double circulant codes are isodual, hence FSD",
    ),
    "thm16-construction-c": _reference_construction(
        "thm16-construction-c",
        lambda b: (oracles.bordered_rows(b.alpha, b.omega, b.core.first_row), _bordered_perm(b.core.order)),
        lambda ring, n, rng: random_bordered(ring, max(n, 2), rng),
        "bordered circulant codes are FSD",
    ),
    "lem19-direct-product": _reference_lem19,
}


def _fsd_check_fails_from_call(monkeypatch, calls: int):
    """``is_formally_self_dual`` as the claims and the references read it, false from its ``calls``-th call on."""
    seen = []
    monkeypatch.setattr(verify, "is_formally_self_dual", lambda code, budget=DEFAULT_BUDGET: seen.append(1) or len(seen) < calls and is_formally_self_dual(code, budget))


@pytest.mark.parametrize("fail_from", [None, 1, 3])  # 1: refuted at the first sample, before any over-budget code
@pytest.mark.parametrize("budget", [3**5, 3**8, DEFAULT_BUDGET])
@pytest.mark.parametrize("claim_id", sorted(_REFERENCES))
def test_stacked_fsd_claims_match_the_per_code_loop(monkeypatch, claim_id, budget, fail_from):
    claim = next(fn for cid, _, _, fn in CLAIMS if cid == claim_id)
    entries = []
    for run in (claim, _REFERENCES[claim_id]):
        if fail_from:
            _fsd_check_fails_from_call(monkeypatch, fail_from)
        ctx = verify._Ctx(42, budget)
        entries.append((*verify._run_claim(ctx, run), ctx.tested))  # an untestable entry reports 0; the ctx keeps the count
    (status, observed, expected, tested, note, passed), want = entries
    if want[0] == "confirmed":  # the reference leaves out the summary texts
        assert (status, expected, tested) == (want[0], want[2], want[3])
    else:
        assert (status, observed, expected, tested, note, passed) == want
    if budget == DEFAULT_BUDGET or (fail_from == 1 and claim_id != "lem19-direct-product"):  # lem19 enumerates before that check
        assert status == ("refuted" if fail_from else "confirmed")


def _identity_dual_form(monkeypatch):
    monkeypatch.setattr(ringcode, "DUAL_FORM_INVERSE", np.eye(3, dtype=np.int64))


def _e2_is_v_squared(monkeypatch):
    ring = ring_over(3)  # shared instance: monkeypatch restores it
    monkeypatch.setattr(ring, "e2", ring.index(0, 0, 1))


def _cyclic_dual_spec_is_identity(monkeypatch):
    monkeypatch.setattr(verify, "cyclic_dual_generator", lambda g, n: g)  # each divisor its own dual generator


def _size_formula_off_by_one(monkeypatch):
    formula = CyclicSpecR.size_formula
    monkeypatch.setattr(CyclicSpecR, "size_formula", lambda spec, q: formula(spec, q) + 1)


def _lee_table_entry_off(monkeypatch):
    ring = ring_over(2)
    table = ring.lee_table.copy()
    table[1] += 1
    monkeypatch.setattr(ring, "lee_table", table)


def _gray_table_entry_flipped(monkeypatch):
    ring = ring_over(2)
    table = ring.gray_table.copy()
    table[1, 0] ^= 1
    monkeypatch.setattr(ring, "gray_table", table)


def _gray_words_are_zero(monkeypatch):
    monkeypatch.setattr(LinearCodeR, "gray_words", lambda code, rows: np.zeros((len(rows), 3 * code.n), dtype=np.int64))


def _fq_codewords_drop_last(monkeypatch):
    codewords = LinearCodeFq.codewords
    monkeypatch.setattr(LinearCodeFq, "codewords", lambda code, budget=DEFAULT_BUDGET: codewords(code, budget)[:-1])


def _gray_is_printed_projections(monkeypatch):
    monkeypatch.setattr(ringcode, "GRAY", PROJECTIONS)


def _fq_distance_off_by_one(monkeypatch):
    distance = LinearCodeFq.min_distance
    monkeypatch.setattr(LinearCodeFq, "min_distance", lambda code, budget=DEFAULT_BUDGET: distance(code, budget) + 1)


def _evaluation_is_printed_projections(monkeypatch):
    monkeypatch.setattr(ringcode, "EVALUATION", PROJECTIONS)


def _specialize_shifts_keys(monkeypatch):
    specialize = wenum.specialize

    def shifted(enum, target):
        out = specialize(enum, target)
        return wenum.WeightEnumerator(out.kind, out.n, out.q, {w + 1: c for w, c in out.counts.items()})

    monkeypatch.setattr(wenum, "specialize", shifted)


def _specialize_reads_swe_as_hamming(monkeypatch):
    specialize = wenum.specialize
    monkeypatch.setattr(wenum, "specialize", lambda enum, target: specialize(enum, "hamming" if enum.kind == "swe" else target))


def _cwe_tallies_symbol_1_as_zero(monkeypatch):
    count = wenum._count_by_tally

    def misfiled(kind, code, symbol_slot, budget):
        if kind == "cwe":  # the slot rows themselves tally symbol 1 in the zero symbol's slot
            symbol_slot = np.where(symbol_slot == 1, 0, symbol_slot)
        return count(kind, code, symbol_slot, budget)

    monkeypatch.setattr(wenum, "_count_by_tally", misfiled)


def _brute_force_dual_is_the_code(monkeypatch):
    monkeypatch.setattr(LinearCodeR, "brute_force_dual", lambda code, budget=DEFAULT_BUDGET: code)


def _macwilliams_is_printed_form(monkeypatch):
    def printed(enum, code_size):
        return wenum.WeightEnumerator("lee", enum.n, enum.q, wenum.macwilliams_counts(enum.counts, 3 * enum.n, 2, code_size))

    monkeypatch.setattr(wenum, "macwilliams_lee", printed)


def _is_cyclic_r_false(monkeypatch):
    monkeypatch.setattr(verify, "is_cyclic_r", lambda code: False)


def _is_cyclic_r_true(monkeypatch):
    monkeypatch.setattr(verify, "is_cyclic_r", lambda code: True)


def _fq_is_cyclic_false(monkeypatch):
    monkeypatch.setattr(LinearCodeFq, "is_cyclic", lambda code: False)


def _search_finds_no_witness(monkeypatch):
    search = verify.self_dual_cyclic_search
    monkeypatch.setattr(verify, "self_dual_cyclic_search", lambda *args: {**search(*args), "witness": None})


def _gray_fsd_transfer_false(monkeypatch):
    monkeypatch.setattr(verify, "gray_fsd_transfer", lambda code, budget=DEFAULT_BUDGET: False)


def _gray_fsd_transfer_true(monkeypatch):
    monkeypatch.setattr(verify, "gray_fsd_transfer", lambda code, budget=DEFAULT_BUDGET: True)


def _direct_product_zeroes_c2(monkeypatch):
    product = verify.direct_product
    monkeypatch.setattr(verify, "direct_product", lambda c1, c2: product(c1, zero_code_r(c2.ring, c2.n)))


def _fsd_check_false(monkeypatch):
    monkeypatch.setattr(verify, "is_formally_self_dual", lambda code, budget=DEFAULT_BUDGET: False)


# fault, claim, samples that passed before the refutation, the refutation's
# expected value, and an observed key or value that tells apart two checks
# with the same expected value (None where the expected value alone does)
FAULTS = [
    (_identity_dual_form, "thm6-dual-gray-image", 1, "gray(C)^dual = gray(C^dual)", None),
    (_identity_dual_form, "cor9-cyclic-dual", 1, "componentwise dual is the dual and cyclic", None),
    (_identity_dual_form, "lem19-direct-product", 0, "(C1 x C2)^dual = C1^dual x C2^dual", None),
    (_identity_dual_form, "thm12-construction-a", 0, "symmetric [I|A] codes are isodual, hence FSD", "witness"),
    (_identity_dual_form, "thm14-construction-b", 0, "double circulant codes are isodual, hence FSD", "witness"),
    (_identity_dual_form, "thm16-construction-c", 0, "bordered circulant codes are FSD", "witness"),
    (_e2_is_v_squared, "cor9-cyclic-dual", 4, "componentwise dual is the dual and cyclic", None),
    (_e2_is_v_squared, "thm11-cardinality", 16, "|C| = q^(3n - sum deg fi)", None),
    (_cyclic_dual_spec_is_identity, "cor9-cyclic-dual", 0, "componentwise dual is the dual and cyclic", None),
    (_size_formula_off_by_one, "thm11-cardinality", 0, "|C| = q^(3n - sum deg fi)", None),
    (_lee_table_entry_off, "thm2-weight-preserving", 1, "w_L = w_H(gray)", "symbol"),
    (_lee_table_entry_off, "thm7-3-lee-equals-gray", 5, "Lee_C = Ham_gray(C)", None),
    (_gray_table_entry_flipped, "thm2-weight-preserving", 18, "gray additive", None),
    (_gray_words_are_zero, "thm2-weight-preserving", 16578, "w_L = w_H(gray)", "vector"),
    (_gray_words_are_zero, "thm6-dual-gray-image", 1, "set equality", None),
    (_fq_codewords_drop_last, "thm6-dual-gray-image", 0, "set equality", None),
    (_gray_is_printed_projections, "thm3-self-orthogonal", 0, "gray image self-orthogonal", None),
    (_fq_distance_off_by_one, "cor4-min-weights", 0, "d_L(C) = d_H(gray(C))", None),
    (_evaluation_is_printed_projections, "lem5-dimension", 2, "dim gray(C) = k1+k2+k3", None),
    (_evaluation_is_printed_projections, "cardinality-identity", 0, "|C| = |C1||C2||C3|", None),
    (_specialize_shifts_keys, "thm7-1-lee-from-cwe", 0, "cwe(X^3, X^2 Y, X Y^2, Y^3) = Lee", None),
    (_specialize_shifts_keys, "thm7-2-hamming-from-cwe", 0, "cwe(X, Y, ..., Y) = Ham", None),
    (_specialize_reads_swe_as_hamming, "thm7-1-lee-from-cwe", 0, "swe specialization = Lee", None),
    (_cwe_tallies_symbol_1_as_zero, "thm7-1-lee-from-cwe", 0, "cwe(X^3, X^2 Y, X Y^2, Y^3) = Lee", None),
    (_cwe_tallies_symbol_1_as_zero, "thm7-2-hamming-from-cwe", 3, "cwe(X, Y, ..., Y) = Ham", None),
    (_brute_force_dual_is_the_code, "thm7-4-macwilliams", 1, "corrected transform matches dual", None),
    (_macwilliams_is_printed_form, "thm7-4-macwilliams", 0, "corrected transform matches dual", None),
    (_is_cyclic_r_false, "thm8-cyclic-components", 0, "triple codes are cyclic", None),
    (_is_cyclic_r_true, "thm8-cyclic-components", 640, "negative control", None),
    (_fq_is_cyclic_false, "thm8-cyclic-components", 0, "components of cyclic codes are cyclic", None),
    (_search_finds_no_witness, "cor10-self-dual-cyclic", 745, "self-dual cyclic codes exist iff q is a power of 2 and n is even", None),
    (_gray_fsd_transfer_false, "thm18-gray-fsd", 0, "gray image of FSD is FSD", None),
    (_gray_fsd_transfer_true, "thm18-gray-fsd", 40, "negative control should fail", None),
    (_direct_product_zeroes_c2, "lem19-direct-product", 0, "enumerator product law", None),
    (_fsd_check_false, "lem19-direct-product", 0, "product of FSD is FSD", None),
    (_fsd_check_false, "thm12-construction-a", 0, "symmetric [I|A] codes are isodual, hence FSD", "enumerator"),
]


def _strings(obj) -> set:
    """Keys and string values at the top level of an observed object."""
    if isinstance(obj, dict):
        return set(obj) | {v for v in obj.values() if isinstance(v, str)}
    return set()


@pytest.mark.parametrize(
    "fault, claim_id, tested, expected, mark",
    FAULTS,
    ids=[f"{f.__name__}-{cid}-{t}" for f, cid, t, *_ in FAULTS],
)
def test_injected_fault_refutes_its_claim(monkeypatch, fault, claim_id, tested, expected, mark):
    fault(monkeypatch)
    claim = next(fn for cid, _, _, fn in CLAIMS if cid == claim_id)
    status, observed, got_expected, count, _ = verify._run_claim(verify._Ctx(42, DEFAULT_BUDGET), claim)
    assert (status, count, got_expected) == ("refuted", tested, expected)
    assert observed is not None
    assert mark is None or mark in _strings(observed)


def _refutation_sites(node, owner=None):
    """(innermost function, expected literal or None, observed string constants) of each ``raise _Refuted``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _refutation_sites(child, child.name)
        elif isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) and getattr(child.exc.func, "id", None) == "_Refuted":
            observed, expected = child.exc.args
            literal = expected.value if isinstance(expected, ast.Constant) else None
            strings = {c.value for c in ast.walk(observed) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
            yield owner, literal, frozenset(strings)
        else:
            yield from _refutation_sites(child, owner)


def test_every_refutation_check_is_reached_by_a_fault():
    sites = list(_refutation_sites(ast.parse(Path(verify.__file__).read_text())))
    assert sites and len(set(sites)) == len(sites)
    checker = {cid: fn.__name__ for cid, _, _, fn in CLAIMS}
    reached = set()
    for fault, claim_id, _, expected, mark in FAULTS:
        hits = [
            site
            for site in sites
            if site[0] == checker[claim_id] and site[1] in (None, expected) and (mark is None or mark in site[2])
        ]
        assert len(hits) <= 1, (fault.__name__, claim_id, hits)  # a row names exactly one check
        reached.update(hits)
    assert [site for site in sites if site not in reached] == []
