import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from vcodes import fieldcode, fsd, ringcode
from vcodes.errors import NotSymmetric, ParamMismatch, SearchSpaceTooLarge, ShapeError
from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR, fill_duals, random_code_r
from vcodes.fsd import (
    BorderedSpecR,
    CirculantSpecR,
    SignedPermutation,
    SymmetricMatrixR,
    construction_a,
    construction_b,
    construction_c,
    constructions,
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

import oracles
from oracles import zero_code_r


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


def _right_block_rows(code):
    n = code.n // 2
    return [row[n:] for row in code.gens]


def test_spec_rows_are_reduced_like_the_code_built_from_them():
    circulant = CirculantSpecR(R3, (1, 2, 30))
    assert circulant.first_row == (1, 2, 3)
    assert circulant.rows() == _right_block_rows(construction_b(R3, circulant)[0])
    assert construction_b(R3, [1, 2, 30])[0] == construction_b(R3, circulant)[0]
    bordered = BorderedSpecR(R3, 40, -1, CirculantSpecR(R3, (-1, 29)))
    assert bordered.rows()[0] == (13, 26, 26)
    assert bordered.rows() == _right_block_rows(construction_c(R3, bordered)[0])


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


@pytest.mark.parametrize("builder, maker, min_n", [
    (construction_a, random_symmetric, 1),
    (construction_b, random_circulant, 1),
    (construction_c, random_bordered, 2),
])
def test_witness_check_by_containment_matches_two_reductions(builder, maker, min_n):
    rng = random.Random(f"containment:{builder.__name__}")
    rejected = 0
    for _ in range(40):
        ring = ring_over(rng.choice([3, 5]))
        code, witness = builder(ring, maker(ring, rng.randrange(min_n, 4), rng))
        assert isodual_witness_check(code, witness) is oracles.two_reduction_witness_check(code, witness) is True
        flip = rng.randrange(code.n)
        negate = tuple(s != (i == flip) for i, s in enumerate(witness.negate))
        flipped = SignedPermutation(witness.src, negate)
        verdict = isodual_witness_check(code, flipped)
        assert verdict == oracles.two_reduction_witness_check(code, flipped)
        rejected += not verdict
    assert rejected >= 30  # a sign flip keeps the dual only where a coordinate splits off it


def test_witness_with_one_sign_flipped_is_rejected():
    for q in (3, 5):
        ring = ring_over(q)
        code, witness = construction_b(ring, CirculantSpecR(ring, (1, 2, 1)))
        for flip in range(code.n):
            negate = tuple(s != (i == flip) for i, s in enumerate(witness.negate))
            flipped = SignedPermutation(witness.src, negate)
            assert not isodual_witness_check(code, flipped)
            assert not oracles.two_reduction_witness_check(code, flipped)
        assert isodual_witness_check(code, witness)


def test_construction_b_q2():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randrange(1, 3)
        code, witness = construction_b(R2, random_circulant(R2, n, rng))
        assert isodual_witness_check(code, witness)
        assert is_formally_self_dual(code)


def test_direct_product_examples():
    c1, _ = construction_a(R3, [[R3.q]])
    zero_len0 = zero_code_r(R3, 0)
    assert direct_product(c1, zero_len0) == c1
    z2 = direct_product(zero_code_r(R3, 2), zero_code_r(R3, 1))
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
    assert code.size == 27
    # (v,0), (0,v+v^2), (v^2,0): the RREF F_3 basis of its lattice node
    assert code.gens == ((3, 0), (0, 12), (9, 0))
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


def test_mirror_codes_are_formally_self_dual(monkeypatch):
    # span{(1,0)} is isodual under the coordinate swap, so it is FSD
    code = LinearCodeR(R3, 2, [[1, 0]])
    assert is_formally_self_dual(code)
    assert gray_fsd_transfer(code)
    # at odd n no code has |C| = |C^dual|: the sizes settle it before any dual or enumeration
    monkeypatch.setattr(LinearCodeR, "dual", lambda code: pytest.fail("dual computed"))
    monkeypatch.setattr(wenum, "lee_enumerator", lambda *args: pytest.fail("words enumerated"))
    for ring in (R2, R3):
        assert not is_formally_self_dual(LinearCodeR(ring, 3, [[1, 0, 0], [0, ring.q, 1]]))


def test_signed_permutation_shape_checked():
    with pytest.raises(ShapeError):
        SignedPermutation((5, 0), (True, False))  # 5 is out of range
    with pytest.raises(ShapeError):
        SignedPermutation((1, 0, 2), (True, False))  # one sign short
    with pytest.raises(ShapeError):
        SignedPermutation((0, 0), (True, False))  # not a permutation
    code, witness = construction_a(R3, [[1, 2], [2, 0]])
    with pytest.raises(ShapeError):
        isodual_witness_check(code, SignedPermutation((1, 0), (True, False)))


@st.composite
def fsd_inputs(draw):
    """A ring, a length n <= 4 (n = 0 and 1 included) and the entries of the three builders."""
    ring = ring_over(draw(st.sampled_from([2, 3, 5])))
    n = draw(st.integers(0, 4))
    entry = st.integers(0, ring.size - 1)
    grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    first_row = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    border = (draw(entry), draw(entry))
    return ring, n, grid, first_row, border


def _assert_matches_references(ring, code, witness, b_rows, block_perm, words):
    n = len(b_rows)
    assert code.gens == tuple(oracles.identity_block_rows(b_rows))
    assert (witness.src, witness.negate) == oracles.block_witness(n, block_perm)
    moved = witness.apply(ring, words)
    assert [tuple(r) for r in moved.tolist()] == [oracles.signed_permutation_apply(ring, witness, w) for w in words]
    moved_gens = [oracles.signed_permutation_apply(ring, witness, g) for g in code.gens]
    assert oracles.apply_code(witness, code) == LinearCodeR(ring, 2 * n, moved_gens)
    # the check passes only when its own companion spans the dual, so both companions span it
    assert isodual_witness_check(code, witness)
    assert LinearCodeR(ring, 2 * n, oracles.companion_rows(ring, b_rows)) == code.dual()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fsd_inputs())
def test_array_builders_match_tuple_references(inputs):
    ring, n, grid, first_row, (alpha, omega) = inputs
    words = [tuple(g) for g in grid] or [()]  # rows of length n for the witness to move

    symmetric = oracles.upper_triangle_rows(grid)
    matrix = SymmetricMatrixR.from_upper_triangle(ring, grid)
    assert matrix.rows == tuple(symmetric)
    code, witness = construction_a(ring, matrix)
    _assert_matches_references(ring, code, witness, symmetric, lambda i: i, [c + c for c in words])

    spec = CirculantSpecR(ring, first_row)
    assert spec.rows() == oracles.circulant_rows(first_row)
    code, witness = construction_b(ring, spec)
    _assert_matches_references(ring, code, witness, spec.rows(), lambda i: (-i) % n, [c + c for c in words])

    if n >= 1:  # a bordered matrix of order n + 1 around this circulant core
        bordered = BorderedSpecR(ring, alpha, omega, spec)
        assert bordered.rows() == oracles.bordered_rows(alpha, omega, first_row)
        code, witness = construction_c(ring, bordered)
        perm = lambda i: 0 if i == 0 else 1 + ((1 - i) % n)  # noqa: E731
        rows = [(alpha,) + c + (omega,) + c for c in words]
        _assert_matches_references(ring, code, witness, bordered.rows(), perm, rows)


def test_random_symmetric_keeps_its_draws():
    for q, n, seed in ((2, 0, 1), (3, 1, 2), (3, 3, 3), (5, 4, 4)):
        ring = ring_over(q)
        drawn = random_symmetric(ring, n, random.Random(seed)).rows
        assert drawn == tuple(oracles.random_symmetric_rows(ring, n, random.Random(seed)))


@pytest.mark.parametrize("q", [3, 5])
def test_bulk_memos_match_per_code_results(monkeypatch, q):
    ring = ring_over(q)
    rng = random.Random(f"memos:{q}")
    makers = {fsd._symmetric_block: random_symmetric, fsd._circulant_block: random_circulant, fsd._bordered_block: random_bordered}
    codes = []
    for block, make in makers.items():
        inputs = [make(ring, n, rng) for n in (1, 2, 3) if block is not fsd._bordered_block or n > 1 for _ in range(12)]
        codes += [code for code, _ in constructions(ring, block, inputs)]
    codes += [random_code_r(ring, rng.randrange(1, 4), rng) for _ in range(36)]  # ranks of every size
    reductions = []
    stack = fieldcode.rref_stack
    monkeypatch.setattr(ringcode, "rref_stack", lambda s, q: reductions.append(s.shape) or stack(s, q))
    monkeypatch.setattr(fieldcode, "_MAX_ENTRIES", 100)  # at most 11 duals a batch at n = 1, 2 at n = 2, 1 past that
    monkeypatch.setattr(fieldcode, "_CHUNK_ROWS", 512)  # and few Lee bases a product
    fill_duals(ring, codes)
    assert sum(b for b, _, _ in reductions) == len(codes)
    batches = collections.Counter(c // 3 for _, _, c in reductions)
    assert set(batches) == {code.n for code in codes} and min(batches.values()) > 1  # every length's batch split
    wenum.fill_lee_enumerators(codes + [code._dual for code in codes])
    for code in codes:
        assert {"_dual", "_lee"} <= set(vars(code)) and "_lee" in vars(code._dual)
        fresh = LinearCodeR(ring, code.n, code.gens)
        assert code.dual().gens == fresh.dual().gens
        assert np.array_equal(code.dual().flat.gen, fresh.dual().flat.gen)
        assert code.dual().flat.pivots == fresh.dual().flat.pivots
        assert wenum.lee_enumerator(code) == wenum.lee_enumerator(fresh)
        assert wenum.lee_enumerator(code.dual()) == wenum.lee_enumerator(fresh.dual())


def test_lee_memo_keeps_the_budget():
    code, _ = construction_a(R3, [[1, 2], [2, 0]])  # 3^6 words
    wenum.fill_lee_enumerators([code], budget=3**5)
    assert "_lee" not in vars(code)  # over budget: nothing filled
    wenum.fill_lee_enumerators([code])
    assert wenum.lee_enumerator(code) is code._lee
    with pytest.raises(SearchSpaceTooLarge, match="729 codewords exceeds budget 243"):
        wenum.lee_enumerator(code, 3**5)  # a memo never hides the budget
