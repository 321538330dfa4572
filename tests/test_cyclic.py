import random

import pytest

from vcodes.cyclic import (
    CyclicSpecR,
    all_divisor_triples,
    cyclic_code_r,
    cyclic_dual_r,
    is_cyclic_r,
    self_dual_cyclic_search,
)
from vcodes.errors import CharacteristicTwoUnsupported, NotADivisor
from vcodes.gf import Poly, parse_poly
from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR, random_code_r


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
    assert full == LinearCodeR.full_space(R3, 2)


def test_spec_example_size_81():
    spec = spec3(2, "x+2", "x+1", "1")
    code = cyclic_code_r(R3, spec)
    assert code.size == 81 == spec.size_formula(3)
    assert is_cyclic_r(code)


def test_spec_rejects_non_divisors():
    with pytest.raises(NotADivisor):
        spec3(3, "x+1", "1", "1")  # x^3-1 = (x-1)^3 over GF(3)


def test_is_cyclic_examples():
    assert is_cyclic_r(LinearCodeR.full_space(R3, 2))
    assert is_cyclic_r(LinearCodeR.zero_code(R3, 2))
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
        assert len(code.closure_codewords()) == spec.size_formula(3)


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
    assert is_cyclic_r(code)
    assert code == code.brute_force_dual()


def test_self_dual_cyclic_found_q2_n4():
    res = self_dual_cyclic_search(R2, 4)
    code = res["witness"]
    assert code is not None and res["exhausted"]
    assert res["tested"] == 54
    assert code.size == 64
    # the witness is generated by all its members, as the report prints them
    assert len(code.gens) == 64 and code.gens[0] == (0, 0, 0, 0)
    assert is_cyclic_r(code)
    assert code == code.brute_force_dual()


def test_no_self_dual_cyclic_q2_odd_length():
    res = self_dual_cyclic_search(R2, 3)
    assert res["witness"] is None and res["exhausted"]
    assert res["tested"] == 36
