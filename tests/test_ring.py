import tracemalloc

import numpy as np
import pytest

from vcodes.errors import (
    ParamMismatch,
    ParseError,
)
from vcodes.gf import GF
from vcodes.ring import (
    DUAL_FORM,
    V,
    Ring,
    audit_published_lee_table,
    format_elem,
    format_row,
    _inverse_mod,
    parse_elem,
    ring_over,
)

from oracles import eval_table, evaluate, ring_tables


R2 = ring_over(2)
R3 = ring_over(3)
R5 = ring_over(5)


def crt_split(x):
    """(x(0), x(1), x(-1)), read from the evaluation tables."""
    return tuple(evaluate(x, t) for t in (0, 1, -1))


def idempotent_sum(ring, u0, u1, u2):
    """u1*e1 + u2*e2 + u0*e0 by ring arithmetic: the element with evaluations (u0, u1, u2)."""
    e0, e1, e2 = (ring.from_index(e) for e in (ring.e0, ring.e1, ring.e2))
    return u1 * e1 + u2 * e2 + u0 * e0


def is_unit(x):
    """Unit iff every evaluation of v at a root of v^3 - v is nonzero."""
    return all(crt_split(x))


def test_mul_examples():
    v = R3.v
    assert v * (v * v) == v  # v^3 = v
    assert R3.parse("1+v") * R3.parse("1+2v") == R3.parse("1+2v^2")
    v2 = R2.v * R2.v
    assert v2 * v2 == v2  # v^4 = v^2


def test_mul_matches_coefficient_formula():
    # c0 = a0b0, c1 = a0b1+a1b0+a1b2+a2b1, c2 = a0b2+a1b1+a2b0+a2b2
    for ring in (R2, R3):
        q = ring.q
        for x in ring.elements():
            for y in ring.elements():
                c0 = (x.a0 * y.a0) % q
                c1 = (x.a0 * y.a1 + x.a1 * y.a0 + x.a1 * y.a2 + x.a2 * y.a1) % q
                c2 = (x.a0 * y.a2 + x.a1 * y.a1 + x.a2 * y.a0 + x.a2 * y.a2) % q
                assert (x * y) == ring.elem(c0, c1, c2)


def test_mixed_rings_rejected():
    with pytest.raises(ParamMismatch):
        R3.v * R5.v


def test_evaluate_examples():
    x = R3.parse("1+2v+v^2")
    assert evaluate(x, 1) == 1
    assert evaluate(R3.v, 0) == 0
    assert evaluate(x, 2) == 0  # 2 = -1 mod 3


def test_evaluate_rejects_non_roots():
    with pytest.raises(ValueError):
        evaluate(R5.v, 2)


@pytest.mark.parametrize("ring", [R2, R3])
def test_evaluate_is_multiplicative(ring):
    points = {0, 1, (ring.q - 1) % ring.q}
    mul = ring_tables(ring.q)[0]
    for t in points:
        ev = eval_table(ring.q)[t]
        for i in range(ring.size):
            for j in range(ring.size):
                assert ev[mul[i, j]] == (ev[i] * ev[j]) % ring.q


def test_crt_examples():
    assert crt_split(R3.v) == (0, 1, 2)
    assert idempotent_sum(R3, 0, 1, 2) == R3.v
    assert crt_split(R5.one) == (1, 1, 1)


@pytest.mark.parametrize("ring", [R3, R5])
def test_crt_roundtrip_everywhere(ring):
    for x in ring.elements():
        assert idempotent_sum(ring, *crt_split(x)) == x


def test_idempotents_are_orthogonal_and_complete():
    for ring in (R3, R5, ring_over(7)):
        e1, e2, e0 = ring.from_index(ring.e1), ring.from_index(ring.e2), ring.from_index(ring.e0)
        assert e1 * e1 == e1 and e2 * e2 == e2 and e0 * e0 == e0
        assert (e1 * e2).is_zero() and (e1 * e0).is_zero() and (e2 * e0).is_zero()
        assert e1 + e2 + e0 == ring.one
        assert ring.idempotents == (ring.e0, ring.e1, ring.e2)


@pytest.mark.parametrize("q, sizes", [(2, [2, 4]), (3, [3] * 3), (5, [5] * 3), (7, [7] * 3)])
def test_idempotents_split_r_for_every_q(q, sizes):
    ring = ring_over(q)
    es = [ring.from_index(e) for e in ring.idempotents]
    for i, e in enumerate(es):
        assert e * e == e
        assert all((e * f).is_zero() for f in es[i + 1 :])
    assert sum(es, ring.zero) == ring.one
    assert [len({e * x for x in ring.elements()}) for e in es] == sizes


def test_unit_examples():
    assert is_unit(R3.elem(2))
    assert not is_unit(R3.v)
    assert not is_unit(R3.parse("1+v"))


@pytest.mark.parametrize("ring", [R2, R3])
def test_units_match_exhaustive_inverse_search(ring):
    for x in ring.elements():
        has_inverse = any((x * y) == ring.one for y in ring.elements())
        assert is_unit(x) == has_inverse


def test_gray_examples():
    assert R3.parse("1+2v^2").gray() == (1, 0, 0)
    assert R3.zero.gray() == (0, 0, 0)
    assert R5.zero.gray() == (0, 0, 0)
    assert R3.parse("1+v+v^2").gray() == (1, 2, 1)


def test_lee_examples():
    assert R2.v.lee_weight() == 1
    assert R2.one.lee_weight() == 2
    assert R3.parse("1+2v^2").lee_weight() == 1


@pytest.mark.parametrize("ring", [R2, R3, R5])
def test_lee_weight_is_gray_hamming_everywhere(ring):
    for x in ring.elements():
        assert x.lee_weight() == sum(1 for u in x.gray() if u)


@pytest.mark.parametrize("ring", [R2, R3, R5])
def test_gray_is_additive(ring):
    q = ring.q
    add = ring_tables(q)[1]
    for i in range(ring.size):
        gi = ring.gray_table[i]
        for j in range(ring.size):
            s = int(add[i, j])
            assert ((gi + ring.gray_table[j]) % q == ring.gray_table[s]).all()


def test_parse_examples():
    assert parse_elem(R3, "[1,2,0]") == R3.elem(1, 2, 0)
    assert parse_elem(R3, "1+2v") == R3.elem(1, 2, 0)
    assert parse_elem(R5, "4v+3v^2") == R5.elem(0, 4, 3)
    assert parse_elem(R3, " 2 v ^ 2 ".replace(" ", "")) == R3.elem(0, 0, 2)
    assert parse_elem(R3, "2*v^2") == R3.elem(0, 0, 2)


def test_parse_format_roundtrip():
    for ring in (R2, R3, R5):
        for x in ring.elements():
            assert parse_elem(ring, format_elem(x)) == x
        row = np.arange(ring.size)
        assert format_row(ring, row) == [format_elem(x) for x in ring.elements()]
        assert format_row(ring, ()) == []


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_elem(R3, "[1,2,3]")  # 3 out of range
    with pytest.raises(ParseError):
        parse_elem(R3, "3v")
    with pytest.raises(ParseError):
        parse_elem(R3, "v^3")
    with pytest.raises(ParseError):
        parse_elem(R3, "")


@pytest.mark.parametrize("ring", [R2, R3])
def test_ring_axioms_exhaustive(ring):
    mul, add = ring_tables(ring.q)
    assert (mul == mul.T).all()  # commutative
    assert (add == add.T).all()
    idx = np.arange(ring.size)
    # associativity and distributivity via table composition
    assert (mul[mul[idx[:, None], idx[None, :]][:, :, None], idx[None, None, :]]
            == mul[idx[:, None, None], mul[idx[None, :, None], idx[None, None, :]]]).all()
    assert (mul[idx[:, None, None], add[idx[None, :, None], idx[None, None, :]]]
            == add[mul[idx[:, None, None], idx[None, :, None]], mul[idx[:, None, None], idx[None, None, :]]]).all()


def test_ring_axioms_random_q5():
    rng = np.random.default_rng(20240817)
    i = rng.integers(0, R5.size, 10_000)
    j = rng.integers(0, R5.size, 10_000)
    k = rng.integers(0, R5.size, 10_000)
    mul, add = ring_tables(5)
    assert (mul[mul[i, j], k] == mul[i, mul[j, k]]).all()
    assert (mul[i, add[j, k]] == add[mul[i, j], mul[i, k]]).all()
    assert (mul[i, j] == mul[j, i]).all()


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_times_matches_the_oracle_product(q):
    ring = ring_over(q)
    idx = np.arange(ring.size)
    matrices = ring.times(idx)
    products = matrices @ ring.coeff.T % q  # [x, coefficient, y]
    assert np.array_equal(products.transpose(0, 2, 1), ring.coeff[ring_tables(q)[0]])
    assert all(np.array_equal(ring.times(x), matrices[x]) for x in range(ring.size))
    assert np.array_equal(ring.times(ring.v.idx), V)
    assert np.array_equal(ring.times(ring.one.idx), np.eye(3))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_ring_elem_arithmetic_matches_the_oracle(q):
    ring = ring_over(q)
    mul, add = ring_tables(q)
    if ring.size <= 27:
        pairs = [(i, j) for i in range(ring.size) for j in range(ring.size)]
    else:
        pairs = np.random.default_rng(q).integers(0, ring.size, (2000, 2)).tolist()
    for i, j in pairs:
        x, y = ring.from_index(i), ring.from_index(j)
        assert (x + y).idx == add[i, j] and type((x + y).idx) is int
        assert (x * y).idx == mul[i, j] and type((x * y).idx) is int
        assert add[(x - y).idx, j] == i
        assert add[(-x).idx, i] == 0


def test_ring_build_allocates_no_element_pair_table():
    """Building R over GF(7) stays far below one |R| x |R| int64 table (0.9 MB)."""
    field = GF(7)
    tracemalloc.start()
    try:
        Ring(field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("ring", [R2, R3, R5])
def test_published_table_audit(ring):
    audit = audit_published_lee_table(ring)
    bad_rows = [r["row"] for r in audit["rows"] if r["disagreements"]]
    assert bad_rows == [3, 5, 6, 8, 9]
    assert audit["conflicting_row_pairs"] == [[3, 10], [4, 6], [5, 7]]
    # the flagged duplicated pattern: a0 != 0, a1 != 0, a2 = 0 under weights 1 and 3
    assert [3, 10] in audit["conflicting_row_pairs"]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_dual_form_times_its_inverse_is_the_identity(q):
    inverse = _inverse_mod(DUAL_FORM.astype(np.int64).tobytes(), q)
    assert (DUAL_FORM @ inverse % q == np.eye(3, dtype=np.int64)).all()
    assert (inverse @ DUAL_FORM % q == np.eye(3, dtype=np.int64)).all()
    assert _inverse_mod(np.eye(3, dtype=np.int64).tobytes(), q).tolist() == np.eye(3).tolist()


def test_inverse_mod_refuses_a_singular_matrix():
    with pytest.raises(ValueError):
        _inverse_mod(V.astype(np.int64).tobytes(), 3)  # v is a zero divisor
    with pytest.raises(ValueError):
        _inverse_mod((2 * np.eye(3, dtype=np.int64)).tobytes(), 2)
