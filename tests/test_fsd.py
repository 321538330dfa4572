import random

import pytest

from vcodes.errors import NotSymmetric, ParamMismatch, ShapeError
from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR
from vcodes.fsd import (
    BorderedSpecR,
    CirculantSpecR,
    SignedPermutation,
    SymmetricMatrixR,
    construction_a,
    construction_b,
    construction_c,
    direct_product,
    gray_fsd_transfer,
    has_odd_lee_word,
    is_formally_self_dual,
    isodual_witness_check,
    odd_fsd_search,
    random_bordered,
    random_circulant,
    random_symmetric,
)
from vcodes import wenum


R2 = ring_over(2)
R3 = ring_over(3)
R5 = ring_over(5)


def test_symmetric_matrix_validation():
    SymmetricMatrixR(R3, [[1, 2], [2, 0]])
    with pytest.raises(NotSymmetric):
        SymmetricMatrixR(R3, [[1, 2], [0, 1]])
    with pytest.raises(ShapeError):
        SymmetricMatrixR(R3, [[1, 2]])


def test_circulant_rows():
    spec = CirculantSpecR(R3, (1, 2, 3))
    assert spec.rows() == [(1, 2, 3), (3, 1, 2), (2, 3, 1)]


def test_bordered_rows():
    spec = BorderedSpecR(R3, 7, 8, CirculantSpecR(R3, (1, 2)))
    assert spec.rows() == [(7, 8, 8), (8, 1, 2), (8, 2, 1)]


def test_construction_a_trivial():
    code, witness = construction_a(R3, [[0]])
    assert code.size == 27
    assert isodual_witness_check(code, witness)
    assert is_formally_self_dual(code)
    # dual is the mirror {(0, r)}
    assert code.dual() == LinearCodeR(R3, 2, [[0, 1]])


def test_construction_a_with_zero_divisor_entry():
    code, witness = construction_a(R3, [[R3.q]])  # A = [v]
    assert isodual_witness_check(code, witness)
    assert is_formally_self_dual(code)
    lee = wenum.lee_enumerator(code)
    assert lee == wenum.lee_enumerator(code.dual())
    assert lee.total() == 27


def test_wrong_witness_rejected():
    code, witness = construction_a(R3, [[R3.q]])
    unsigned = SignedPermutation(witness.src, tuple(False for _ in witness.negate))
    assert not isodual_witness_check(code, unsigned)
    identity = SignedPermutation(tuple(range(code.n)), tuple(False for _ in range(code.n)))
    assert not isodual_witness_check(code, identity)


@pytest.mark.parametrize("builder,maker", [
    (construction_a, random_symmetric),
    (construction_b, random_circulant),
])
def test_constructions_random_small(builder, maker):
    rng = random.Random(builder.__name__)
    for _ in range(25):
        q = rng.choice([3, 5])
        ring = ring_over(q)
        n = rng.randrange(1, 4)
        code, witness = builder(ring, maker(ring, n, rng))
        assert code.n == 2 * n and code.size == ring.size**n
        assert isodual_witness_check(code, witness)
        if q == 3:
            assert is_formally_self_dual(code)


def test_construction_c_random_small():
    rng = random.Random(271828)
    for _ in range(25):
        q = rng.choice([3, 5])
        ring = ring_over(q)
        n = rng.randrange(2, 4)
        code, witness = construction_c(ring, random_bordered(ring, n, rng))
        assert isodual_witness_check(code, witness)
        if q == 3:
            assert is_formally_self_dual(code)


def test_construction_b_q2():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randrange(1, 3)
        code, witness = construction_b(R2, random_circulant(R2, n, rng))
        assert isodual_witness_check(code, witness)
        assert is_formally_self_dual(code)


def test_direct_product_examples():
    c1, _ = construction_a(R3, [[R3.q]])
    zero_len0 = LinearCodeR.zero_code(R3, 0)
    assert direct_product(c1, zero_len0) == c1
    z2 = direct_product(LinearCodeR.zero_code(R3, 2), LinearCodeR.zero_code(R3, 1))
    assert z2.size == 1 and z2.n == 3
    prod = direct_product(c1, c1)
    assert prod.n == 4
    l1 = wenum.lee_enumerator(c1)
    assert wenum.lee_enumerator(prod).counts == wenum.product_counts(l1.counts, l1.counts)
    assert is_formally_self_dual(prod)
    assert prod.dual() == direct_product(c1.dual(), c1.dual())


def test_direct_product_rejects_mixed_rings():
    c1, _ = construction_a(R3, [[0]])
    c2, _ = construction_a(R5, [[0]])
    with pytest.raises(ParamMismatch):
        direct_product(c1, c2)


def test_weight_symmetry_under_negation():
    for ring in (R2, R3, R5):
        for i in range(ring.size):
            assert ring.lee_table[i] == ring.lee_table[ring.neg_table[i]]


def test_odd_fsd_search_length1_refuted():
    for ring, ideal_count in ((R2, 6), (R3, 8)):
        res = odd_fsd_search(ring, 1)
        assert res["witness"] is None
        assert res["exhausted"]
        assert res["tested"] == ideal_count
        # cardinality obstruction: |C| = |C^dual| would force |C|^2 = q^3
        assert all((ring.q ** (3 * 1)) != s * s for s in (1, ring.q, ring.q**2, ring.q**3))


def test_odd_fsd_search_length2_q3_finds_witness():
    res = odd_fsd_search(R3, 2)
    assert res["exhausted"]
    assert res["tested"] == 65
    code = res["witness"]
    assert code is not None
    assert len(code.gens) == code.size == 27
    assert has_odd_lee_word(code)
    assert is_formally_self_dual(code)


def test_gray_fsd_transfer():
    code, _ = construction_a(R3, [[R3.q]])
    assert gray_fsd_transfer(code)
    # self-dual code: gray image is self-dual, trivially FSD
    members = [(0, 0), (6, 0), (3, 3), (5, 3), (3, 5), (5, 5), (0, 6), (6, 6)]
    sd = LinearCodeR(R2, 2, members)
    assert gray_fsd_transfer(sd)
    # the idempotent-slot code is not FSD (its dual has a different size)
    e1code = LinearCodeR(R3, 1, [[R3.e1]])
    assert not is_formally_self_dual(e1code)
    assert not gray_fsd_transfer(e1code)


def test_mirror_codes_are_formally_self_dual():
    # span{(1,0)} is isodual under the coordinate swap, so it is FSD
    code = LinearCodeR(R3, 2, [[1, 0]])
    assert is_formally_self_dual(code)
    assert gray_fsd_transfer(code)
