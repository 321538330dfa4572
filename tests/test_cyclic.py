import random
from itertools import product

import numpy as np
import pytest

from vcodes import cyclic, fieldcode, ringcode
from vcodes.cyclic import (
    CyclicSpecR,
    all_divisor_triples,
    cyclic_code_r,
    cyclic_codes_r,
    cyclic_dual_r,
    cyclic_dual_spec,
    is_cyclic_r,
    self_dual_cyclic_search,
)
from vcodes.errors import CharacteristicTwoUnsupported, NotADivisor
from vcodes.fieldcode import LinearCodeFq, cyclic_code_fq
from vcodes.gf import Poly, monic_divisors_of_xn_minus_1, parse_poly
from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR, combine_components, random_code_r

from oracles import closure_codewords, full_space_r, zero_code_r


R2 = ring_over(2)
R3 = ring_over(3)
F3 = R3.field


def spec3(n, f1, f2, f3):
    return CyclicSpecR(n, parse_poly(F3, f1), parse_poly(F3, f2), parse_poly(F3, f3))


def test_degenerate_triples():
    xn1 = "x^2+2"  # x^2 - 1 over GF(3)
    zero = cyclic_code_r(R3, spec3(2, xn1, xn1, xn1))
    assert zero.size == 1
    full = cyclic_code_r(R3, spec3(2, "1", "1", "1"))
    assert full == full_space_r(R3, 2)


def test_spec_example_size_81():
    spec = spec3(2, "x+2", "x+1", "1")
    code = cyclic_code_r(R3, spec)
    assert code.size == 81 == spec.size_formula(3)
    assert is_cyclic_r(code)


def test_spec_rejects_non_divisors():
    with pytest.raises(NotADivisor):
        spec3(3, "x+1", "1", "1")  # x^3-1 = (x-1)^3 over GF(3)


def test_divisor_triples_check_each_divisor_once(monkeypatch):
    checked = []
    cofactor = cyclic._cofactor
    monkeypatch.setattr(cyclic, "_cofactor", lambda f, n: checked.append(f) or cofactor(f, n))
    divisors = monic_divisors_of_xn_minus_1(F3, 4)
    specs = list(all_divisor_triples(R3, 4))
    assert checked == divisors  # not three checks per triple
    checked.clear()
    assert specs == [CyclicSpecR(4, *fs) for fs in product(divisors, repeat=3)]
    assert len(checked) == 3 * len(specs)  # a spec built directly checks its own divisors
    assert len({hash(s) for s in specs}) == len(specs)


def test_triple_codes_and_dual_specs_trust_checked_divisors(monkeypatch):
    specs = list(all_divisor_triples(R3, 4))
    divisors = []
    divide = Poly.__divmod__  # divides, % and // all divide through it
    monkeypatch.setattr(Poly, "__divmod__", lambda f, g: divisors.append(g) or divide(f, g))
    for spec in specs:
        cyclic_code_r(R3, spec)
    assert divisors == []  # a spec's divisors were checked when it was made
    duals = [cyclic_dual_spec(spec) for spec in specs]
    assert divisors == [f for spec in specs for f in (spec.f1, spec.f2, spec.f3)]  # one division each
    monkeypatch.undo()
    assert duals == [CyclicSpecR(4, d.f1, d.f2, d.f3) for d in duals]  # each still a divisor triple


def test_is_cyclic_examples():
    assert is_cyclic_r(full_space_r(R3, 2))
    assert is_cyclic_r(zero_code_r(R3, 2))
    assert not is_cyclic_r(LinearCodeR(R3, 2, [[1, 0]]))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_is_cyclic_matches_shifting_each_generator(q):
    ring, rng = ring_over(q), random.Random(q)
    for _ in range(40):
        code = random_code_r(ring, rng.randrange(1, 4), rng)
        if rng.random() < 0.3:  # add the shifts, so cyclic codes turn up too
            code = LinearCodeR(ring, code.n, [g[k:] + g[:k] for g in code.gens for k in range(code.n)])
        assert is_cyclic_r(code) == all(code.contains(g[-1:] + g[:-1]) for g in code.gens)


def test_cyclic_dual_example():
    spec = spec3(2, "x+2", "x+1", "1")
    dual = cyclic_dual_r(R3, spec)
    assert dual.size == 9
    assert dual == cyclic_code_r(R3, spec).dual()
    assert is_cyclic_r(dual)


def test_cyclic_dual_needs_odd_q():
    f2 = R2.field
    spec = CyclicSpecR(2, Poly.one(f2), Poly.one(f2), Poly.one(f2))
    with pytest.raises(CharacteristicTwoUnsupported):
        cyclic_dual_r(R2, spec)


@pytest.mark.parametrize(
    "q, ns, modes",
    [
        (3, (1, 2, 3, 4), ("idempotent", "paper-literal")),
        (5, (1, 2, 3), ("idempotent", "paper-literal")),
        (2, (1, 2, 3, 4), ("paper-literal",)),
    ],
)
def test_triple_code_equals_its_combined_field_cyclic_codes(q, ns, modes):
    ring = ring_over(q)
    for n in ns:
        for spec in all_divisor_triples(ring, n):
            components = tuple(cyclic_code_fq(f, spec.n) for f in (spec.f1, spec.f2, spec.f3))
            for mode in modes:
                assert cyclic_code_r(ring, spec, mode) == combine_components(ring, components, mode)


def _record_stack_shapes(monkeypatch) -> list:
    """Every ``rref_stack`` shape the builds and fills reduce, all of them in ``ringcode``."""
    shapes = []
    stack = fieldcode.rref_stack
    monkeypatch.setattr(ringcode, "rref_stack", lambda s, q: shapes.append(s.shape) or stack(s, q))
    return shapes


@pytest.mark.parametrize("cap", [None, 2000])
@pytest.mark.parametrize(
    "q, ns, modes",
    [
        (3, (1, 2, 3, 4), ("idempotent", "paper-literal")),
        (5, (1, 2, 3), ("idempotent", "paper-literal")),
        (2, (1, 2, 3, 4), ("paper-literal",)),
    ],
)
def test_batched_triple_codes_match_one_spec_builds(monkeypatch, cap, q, ns, modes):
    shapes = _record_stack_shapes(monkeypatch)
    if cap:
        monkeypatch.setattr(fieldcode, "_MAX_ENTRIES", cap)
    ring = ring_over(q)
    for n in ns:
        specs = list(all_divisor_triples(ring, n))
        for mode in modes:
            shapes.clear()
            batched = cyclic_codes_r(ring, specs, mode)
            assert all(b * r * c <= fieldcode._MAX_ENTRIES for b, r, c in shapes)
            assert sum(b for b, _, _ in shapes) == len(specs)
            assert cap is None or n == 1 or len(shapes) > 1  # the cap splits the batch
            for spec, code in zip(specs, batched, strict=True):
                single = cyclic_code_r(ring, spec, mode)
                assert code.gens == single.gens
                assert np.array_equal(code.flat.gen, single.flat.gen)
                assert code.flat.pivots == single.flat.pivots


def _assert_same_fq(stacked, fresh):
    assert (stacked.n, stacked.k, stacked.pivots) == (fresh.n, fresh.k, fresh.pivots)
    assert np.array_equal(stacked.gen, fresh.gen)


@pytest.mark.parametrize("q, cap", [(3, None), (5, None), (7, None), (3, 144)])
def test_stack_fill_matches_per_code_results(monkeypatch, q, cap):
    shapes = _record_stack_shapes(monkeypatch)
    if cap:
        monkeypatch.setattr(fieldcode, "_MAX_ENTRIES", cap)
    ring = ring_over(q)
    for n in (1, 2, 3, 4):
        specs = list(all_divisor_triples(ring, n))
        for mode in ("idempotent", "paper-literal"):
            stacked = cyclic_codes_r(ring, specs, mode)
            shapes.clear()
            cyclic.fill_stack(ring, stacked)
            assert all(b * r * c <= fieldcode._MAX_ENTRIES for b, r, c in shapes)
            assert sum(b for b, _, _ in shapes) == 4 * len(specs)  # each code's dual and 3 components
            assert cap is None or n == 1 or len(shapes) > 2  # the cap splits the batch
            for spec, code in zip(specs, stacked, strict=True):
                assert {"_dual", "_crt", "_cyclic"} <= set(vars(code))  # filled, not computed on call
                fresh = LinearCodeR._from_flat(ring, n, LinearCodeFq.from_rref(ring.field, code.flat.gen), np.array(code.gens))
                assert code.dual().gens == fresh.dual().gens
                _assert_same_fq(code.dual().flat, fresh.dual().flat)
                assert is_cyclic_r(code) == is_cyclic_r(fresh)
                for comp, fresh_comp in zip(code.components_crt(), fresh.components_crt(), strict=True):
                    _assert_same_fq(comp, fresh_comp)
                    assert "_cyclic" in vars(comp) and comp.is_cyclic() == fresh_comp.is_cyclic()


def test_stack_fill_decides_non_cyclic_codes():
    codes = [LinearCodeR(R3, 2, [[1, 0]]), LinearCodeR(R3, 2, [[1, 1]]), LinearCodeR(R3, 2, [[R3.e1, 0], [0, 1]])]
    cyclic.fill_stack(R3, codes)
    for code in codes:
        fresh = LinearCodeR(R3, 2, code.gens)
        assert code._cyclic == is_cyclic_r(fresh)
        assert [c._cyclic for c in code._crt] == [c.is_cyclic() for c in fresh.components_crt()]
    assert [code._cyclic for code in codes] == [False, True, False]
    with pytest.raises(CharacteristicTwoUnsupported):
        cyclic.fill_stack(R2, [LinearCodeR(R2, 1, [[1]])])


def test_idempotent_triple_code_needs_odd_q():
    one = Poly.one(R2.field)
    with pytest.raises(CharacteristicTwoUnsupported):
        cyclic_code_r(R2, CyclicSpecR(2, one, one, one), "idempotent")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triple_codes_are_cyclic_with_cyclic_components(n):
    for spec in all_divisor_triples(R3, n):
        code = cyclic_code_r(R3, spec, "idempotent")
        assert is_cyclic_r(code)
        for comp in code.components_crt():
            assert comp.is_cyclic()


@pytest.mark.parametrize("n", [2, 3])
def test_componentwise_dual_matches_brute_force(n):
    for spec in all_divisor_triples(R3, n):
        code = cyclic_code_r(R3, spec)
        assert cyclic_dual_r(R3, spec) == code.brute_force_dual()


@pytest.mark.parametrize("n", [2, 4])
def test_size_formula_all_triples(n):
    for spec in all_divisor_triples(R3, n):
        assert cyclic_code_r(R3, spec, "idempotent").size == spec.size_formula(3)


def test_size_formula_cross_checked_by_closure_n2():
    for spec in all_divisor_triples(R3, 2):
        code = cyclic_code_r(R3, spec, "idempotent")
        assert len(closure_codewords(code)) == spec.size_formula(3)


def test_paper_literal_mode_deviates_from_size_formula():
    deviations = 0
    for spec in all_divisor_triples(R3, 2):
        lit = cyclic_code_r(R3, spec, "paper-literal")
        if lit.size != spec.size_formula(3):
            deviations += 1
    assert deviations > 0
    # one concrete case: C1 full, C2 = C3 = zero; v*C1 spans {av+bv^2} per coordinate
    spec = spec3(1, "1", "x+2", "x+2")
    assert cyclic_code_r(R3, spec, "paper-literal").size == 9
    assert spec.size_formula(3) == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_self_dual_cyclic_for_odd_q(n):
    res = self_dual_cyclic_search(R3, n)
    assert res["witness"] is None
    assert res["exhausted"]
    assert res["tested"] > 0


def test_self_dual_cyclic_found_q2_n2():
    res = self_dual_cyclic_search(R2, 2)
    code = res["witness"]
    assert code is not None and res["exhausted"]
    assert res["tested"] == 11
    assert code.size == 8
    # the code of the node the walk stopped at: R*(1,1), by its RREF F_2 basis
    assert code.gens == ((1, 1), (2, 2), (4, 4))
    assert is_cyclic_r(code)
    assert code == code.brute_force_dual()


def test_self_dual_cyclic_found_q2_n4():
    res = self_dual_cyclic_search(R2, 4)
    code = res["witness"]
    assert code is not None and res["exhausted"]
    assert res["tested"] == 58
    assert code.size == 64
    # R*(1,0,1,0) + R*(0,1,0,1), by its RREF F_2 basis
    assert code == LinearCodeR(R2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]]) and len(code.gens) == 6
    assert is_cyclic_r(code)
    assert code == code.brute_force_dual()


def test_no_self_dual_cyclic_q2_odd_length():
    res = self_dual_cyclic_search(R2, 3)
    assert res["witness"] is None and res["exhausted"]
    assert res["tested"] == 36
