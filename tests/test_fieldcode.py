import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vcodes.errors import EmptyCode, NotADivisor, ParamMismatch, SearchSpaceTooLarge, ShapeError
from vcodes.gf import GF, Poly, monic_divisors_of_xn_minus_1, parse_poly
from vcodes import fieldcode
from vcodes.fieldcode import (
    _CHUNK_ROWS,
    LinearCodeFq,
    _information_sets,
    _messages,
    cyclic_code_fq,
    cyclic_dual_generator,
    rref,
    rref_stack,
    span_weight_counts,
)
from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR, _unflatten
from vcodes.verify import _ex17_code
from vcodes.wenum import hamming_enumerator_fq, macwilliams_hamming_fq

from oracles import random_code, self_dual_cyclic_audit, self_dual_cyclic_exists, span_weight_counts_by_words, zero_code_fq


F2, F3, F5 = GF(2), GF(3), GF(5)


def test_rref_examples():
    m, rank, _ = rref(np.eye(4, dtype=int), 3)
    assert rank == 4 and (m == np.eye(4, dtype=int)).all()
    m, rank, _ = rref([[1, 2], [2, 1]], 3)
    assert rank == 1 and m.tolist() == [[1, 2], [0, 0]]
    m, rank, _ = rref(np.zeros((2, 3), dtype=int), 3)
    assert rank == 0 and not m.any()


@st.composite
def stacks(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 131]))
    batch, rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 24)), draw(st.integers(0, 40))
    rank = draw(st.integers(0, min(rows, cols)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a product through `rank` columns has rank at most that
    stack = rng.integers(0, q, (batch, rows, rank)) @ rng.integers(0, q, (batch, rank, cols))
    stack[rng.random((batch, rows)) < zero_share] = 0  # zero rows anywhere
    return q, stack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stacks())
def test_rref_stack_matches_rref(case):
    q, stack = case
    reduced, ranks, pivots = rref_stack(stack, q)
    assert reduced.shape == stack.shape
    for b, matrix in enumerate(stack):
        m, rank, piv = rref(matrix, q)
        assert isinstance(m, np.ndarray) and m.dtype == np.int64
        assert type(rank) is int and type(piv) is list and all(type(c) is int for c in piv)
        assert np.array_equal(reduced[b], m)
        assert ranks[b] == rank
        assert pivots[b].tolist() == piv + [-1] * (len(matrix) - rank)


def _reduce_pivot_by_pivot(code, vec):
    """The sequential elimination that ``reduce_vector`` does as one product."""
    v = np.array(vec, dtype=np.int64) % code.field.q
    for row, col in enumerate(code.pivots):
        v = (v - v[col] * code.gen[row]) % code.field.q
    return v


@st.composite
def codes_and_vectors(draw):
    q = draw(st.sampled_from([2, 3, 5, 131]))
    n, rows, count = draw(st.integers(1, 12)), draw(st.integers(0, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = LinearCodeFq(GF(q), n, rng.integers(0, q, (rows, n)))
    # codewords, random vectors (mostly outside a small code) and shifted rows
    words = (rng.integers(0, q, (count, code.k)) @ code.gen) % q
    vecs = np.concatenate([words, rng.integers(0, q, (count, n)), np.roll(code.gen, 1, axis=1)])
    return code, vecs[rng.permutation(len(vecs))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(codes_and_vectors())
def test_membership_matches_the_rank_oracle(case):
    code, vecs = case
    q = code.field.q
    inside = [rref(np.vstack([code.gen, v]), q)[1] == code.k for v in vecs]
    assert [code.contains(v) for v in vecs] == inside
    assert code.contains(vecs) == all(inside)
    assert np.array_equal(code.reduce_vector(vecs), [_reduce_pivot_by_pivot(code, v) for v in vecs])
    assert code.is_cyclic() == all(code.contains(np.roll(row, 1)) for row in code.gen)


def test_dual_examples():
    full = LinearCodeFq.full_space(F3, 3)
    assert full.dual().k == 0
    rep = LinearCodeFq(F3, 3, [[1, 1, 1]])
    dual = rep.dual()
    assert dual.k == 2
    assert dual.contains([1, 2, 0])
    zero = zero_code_fq(F3, 2)
    assert zero.dual() == LinearCodeFq.full_space(F3, 2)


def test_length_zero_codes():
    zero, full = zero_code_fq(F3, 0), LinearCodeFq.full_space(F3, 0)
    assert zero == full and (zero.k, zero.size) == (0, 1)
    assert zero.dual() == full
    assert zero.codewords().shape == (1, 0)


def test_a_bare_empty_vector_has_length_zero():
    """[] at ``contains`` or ``reduce_vector`` is one vector of length 0, in both
    code classes, while the constructor reads it as no generator rows."""
    assert LinearCodeFq(F3, 0, []).contains([]) and LinearCodeR(ring_over(3), 0, []).contains([])
    assert LinearCodeFq(F3, 0, []).reduce_vector([]).shape == (0,)
    for code in (LinearCodeFq(F3, 2, []), LinearCodeR(ring_over(3), 2, [])):
        with pytest.raises(ShapeError):
            code.contains([])
    with pytest.raises(ShapeError):
        LinearCodeFq(F3, 2, []).reduce_vector([])
    assert LinearCodeFq(F3, 2, np.zeros((0, 2), dtype=np.int64)).contains(np.zeros((0, 2), dtype=np.int64))  # an empty stack


def test_integer_entries_of_any_width_pass_and_others_are_refused():
    for mat in ([[True, 2]], np.array([[1, 2]], dtype=np.uint8), np.array([[4, 5]], dtype=np.int16)):
        assert rref(mat, 3)[0].tolist() == [[1, 2]]
        assert rref_stack([mat], 3)[0].tolist() == [[[1, 2]]]
    assert Poly(F3, [np.int64(4), np.uint8(1), True]) == Poly(F3, [1, 1, 1])
    for bad in ([[1.5, 2]], np.ones((1, 2)), [["1", 2]], [[None, 2]]):
        with pytest.raises(ParamMismatch):
            rref(bad, 3)
        with pytest.raises(ParamMismatch):
            rref_stack([bad], 3)
    for coeffs in ([1.5, 1], [np.float64(1)], ["1"], [None]):
        with pytest.raises(ParamMismatch):
            Poly(F3, coeffs)


def test_generator_of_the_wrong_width_is_a_shape_error():
    mat = [[1, 2, 0], [0, 1, 1]]
    for n in (2, 4):  # six entries would read as three rows of length 2
        with pytest.raises(ShapeError):
            LinearCodeFq(F3, n, mat)
    with pytest.raises(ShapeError):
        LinearCodeFq(F3, 3, [1, 2, 0])
    with pytest.raises(ShapeError):
        LinearCodeFq(F3, 3, [[1, 2, 0], [0, 1]])
    assert LinearCodeFq(F3, 3, []).k == LinearCodeFq(F3, 3, []).k == 0
    assert LinearCodeFq(F3, 3, mat).k == 2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dual_involution_and_sizes(q):
    rng = random.Random(q * 101)
    field = GF(q)
    for _ in range(20):
        n = rng.randrange(1, 9)
        code = random_code(field, n, rng)
        dual = code.dual()
        assert dual.dual() == code
        assert code.size * dual.size == q**n
        assert not ((code.gen @ dual.gen.T) % q).any()


def test_min_distance_examples():
    rep3 = LinearCodeFq(F3, 3, [[1, 1, 1]])
    assert rep3.min_distance() == 3
    assert rep3.dual().min_distance() == 2
    with pytest.raises(EmptyCode):
        zero_code_fq(F3, 3).min_distance()


def test_min_distance_budget():
    # one information set, so round 1 alone is its 8 * 2 weight-1 messages
    code = LinearCodeFq.full_space(F3, 8)
    with pytest.raises(SearchSpaceTooLarge, match="16 codewords exceeds budget 10"):
        code.min_distance(budget=10)
    with pytest.raises(SearchSpaceTooLarge, match="16 codewords exceeds budget 10"):
        code.minimum_words(budget=10)
    assert code.min_distance(budget=16) == 1
    with pytest.raises(SearchSpaceTooLarge):
        code.weight_counts(budget=100)


def _assert_matches_oracle(code):
    """Brouwer-Zimmermann against full enumeration: d and every weight-d word."""
    d = min(w for w in code.weight_counts() if w)
    words = code.codewords()
    words = words[np.count_nonzero(words, axis=1) == d]
    assert code.min_distance() == d
    got_d, got_words = code.minimum_words()
    assert got_d == d
    assert got_words.shape == words.shape and (got_words == words).all()


# largest dimension per q that keeps the exhaustive oracle at most 3^8 words
_ORACLE_K = {2: 10, 3: 8, 5: 5}


@st.composite
def random_codes(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 10))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    code = LinearCodeFq(GF(q), n, draw(st.lists(row, min_size=1, max_size=min(n, _ORACLE_K[q]))))
    assume(code.k > 0)
    return code


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_codes())
def test_brouwer_zimmermann_matches_exhaustive(code):
    _assert_matches_oracle(code)


@pytest.mark.parametrize(
    "q,rows",
    [
        (3, np.eye(6, dtype=int)),  # k = n: one information set
        (5, [[1, 2, 3, 4, 1, 2, 3]]),  # k = 1
        (2, [[1, 1, 1, 1, 1, 1, 1, 1, 1, 1]]),  # k = 1, ten disjoint sets
        (3, [[1, 0, 0, 2, 0, 1], [0, 0, 1, 1, 0, 2]]),  # zero columns 1 and 4
        (3, [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]),  # every column repeated
        (2, [[1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 1, 0], [0, 0, 1, 0, 1, 0, 1], [0, 0, 0, 1, 0, 1, 1]]),
        (5, [[1, 0, 0, 0, 1, 2], [0, 1, 0, 0, 3, 1], [0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 4, 2]]),
        # relative ranks 5, 3: the second set joins the bound in round 2, and
        # 4 of the 20 minimum words are met only by its weight-1 messages
        (3, [[1, 0, 0, 0, 0, 1, 0, 1], [0, 1, 0, 0, 0, 2, 1, 0], [0, 0, 1, 0, 0, 0, 2, 1],
             [0, 0, 0, 1, 0, 2, 1, 2], [0, 0, 0, 0, 1, 1, 2, 2]]),
    ],
)
def test_brouwer_zimmermann_edge_cases(q, rows):
    # the last two have n < 2k: no second information set disjoint from the first
    code = LinearCodeFq(GF(q), len(rows[0]), rows)
    _assert_matches_oracle(code)


def test_brouwer_zimmermann_skips_sets_that_add_nothing():
    # Example 17's [24,12]_3 Gray image: the rank-1 set would raise the bound
    # only from round 11, and d = 2 is certified in round 1 by the other two
    image = _ex17_code()[1].gray_image()
    assert [r for _, r in _information_sets(image.gen, 3)] == [12, 11, 1]
    words = np.concatenate([w[np.count_nonzero(w, axis=1) == 2] for w in image.codeword_chunks()])
    assert image.min_distance(budget=48) == 2
    d, got = image.minimum_words(budget=48)
    assert d == 2 and np.array_equal(got, words)
    with pytest.raises(SearchSpaceTooLarge, match="48 codewords exceeds budget 47"):
        image.min_distance(budget=47)


def test_information_sets_take_new_columns_first():
    # [7,4] Hamming code: the second set can only add the 3 parity columns
    code = LinearCodeFq(
        F2, 7, [[1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 1, 0], [0, 0, 1, 0, 1, 0, 1], [0, 0, 0, 1, 0, 1, 1]]
    )
    sets = _information_sets(code.gen, 2)
    assert [r for _, r in sets] == [4, 3]
    for systematic, _ in sets:
        assert LinearCodeFq(F2, 7, systematic) == code
    assert code.min_distance() == 3


def test_hamming_enumerator_examples():
    rep2 = LinearCodeFq(F2, 3, [[1, 1, 1]])
    assert hamming_enumerator_fq(rep2).counts == {0: 1, 3: 1}
    full22 = LinearCodeFq.full_space(F2, 2)
    assert hamming_enumerator_fq(full22).counts == {0: 1, 1: 2, 2: 1}
    rep3 = LinearCodeFq(F3, 3, [[1, 1, 1]])
    assert hamming_enumerator_fq(rep3).counts == {0: 1, 3: 2}


def test_field_macwilliams_matches_dual_enumerator():
    rng = random.Random(7)
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        field = GF(q)
        n = rng.randrange(1, 7)
        code = random_code(field, n, rng)
        if code.size > 10_000:
            continue
        lhs = macwilliams_hamming_fq(hamming_enumerator_fq(code), code.size)
        assert lhs == hamming_enumerator_fq(code.dual())


def test_cyclic_code_examples():
    assert cyclic_code_fq(Poly.xn_minus_1(F3, 4), 4).k == 0
    assert cyclic_code_fq(Poly.one(F3), 4) == LinearCodeFq.full_space(F3, 4)
    even = cyclic_code_fq(parse_poly(F2, "x+1"), 3)
    words = {tuple(map(int, w)) for w in even.codewords()}
    assert words == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}


def test_cyclic_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        cyclic_code_fq(parse_poly(F3, "x+1"), 3)  # x^3-1 = (x-1)^3 over GF(3)


@pytest.mark.parametrize("g", ["x+1", "0"])
def test_public_cyclic_entry_points_reject_non_divisors(g):
    with pytest.raises(NotADivisor):
        cyclic_dual_generator(parse_poly(F3, g), 3)
    with pytest.raises(NotADivisor):
        cyclic_code_fq(parse_poly(F3, g), 3)


@pytest.mark.parametrize("q,n", [(2, 4), (2, 7), (3, 4), (3, 6), (5, 4)])
def test_cyclic_dimension_and_closure(q, n):
    field = GF(q)
    for g in monic_divisors_of_xn_minus_1(field, n):
        code = cyclic_code_fq(g, n)
        assert code.k == n - g.degree
        assert code.is_cyclic()


def test_cyclic_dual_generator_examples():
    assert cyclic_dual_generator(Poly.one(F3), 4) == Poly.xn_minus_1(F3, 4).monic()
    assert cyclic_dual_generator(Poly.xn_minus_1(F3, 4), 4) == Poly.one(F3)
    hstar = cyclic_dual_generator(parse_poly(F2, "x+1"), 3)
    assert hstar == parse_poly(F2, "x^2+x+1")
    assert cyclic_code_fq(hstar, 3) == cyclic_code_fq(parse_poly(F2, "x+1"), 3).dual()


@pytest.mark.parametrize("q,n", [(2, 4), (2, 6), (3, 4), (3, 6), (5, 4)])
def test_cyclic_dual_generator_matches_dual(q, n):
    field = GF(q)
    for g in monic_divisors_of_xn_minus_1(field, n):
        hstar = cyclic_dual_generator(g, n)
        assert cyclic_code_fq(hstar, n) == cyclic_code_fq(g, n).dual()


def test_self_dual_cyclic_examples():
    assert self_dual_cyclic_exists(F2, 2)
    assert not self_dual_cyclic_exists(F3, 4)
    assert not self_dual_cyclic_exists(F2, 3)
    audit = self_dual_cyclic_audit(F2, 2)
    assert audit["exists"] and audit["witness"] == parse_poly(F2, "x+1")
    code = cyclic_code_fq(audit["witness"], 2)
    assert {tuple(map(int, w)) for w in code.codewords()} == {(0, 0), (1, 1)}


@pytest.mark.parametrize("n", range(1, 9))
def test_self_dual_cyclic_audit_confirms_criterion_q2(n):
    audit = self_dual_cyclic_audit(F2, n)
    assert audit["exists"] == self_dual_cyclic_exists(F2, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_self_dual_cyclic_audit_confirms_criterion_q3(n):
    audit = self_dual_cyclic_audit(F3, n)
    assert audit["exists"] == self_dual_cyclic_exists(F3, n)


def test_enumeration_is_deterministic_and_complete():
    code = LinearCodeFq(F3, 4, [[1, 0, 2, 1], [0, 1, 1, 1]])
    words = code.codewords()
    assert words.shape == (9, 4)
    again = code.codewords()
    assert (words == again).all()
    assert len({tuple(map(int, w)) for w in words}) == 9


# largest k per q whose oracle stays near 10^5 words; every q reaches
# q^k > _CHUNK_ROWS, so the half tables split into several chunks
_CHUNK_ORACLE_K = {2: 16, 3: 10, 5: 7, 7: 6, 131: 2}


@st.composite
def codes_of_dimension(draw, max_k=_CHUNK_ORACLE_K):
    q = draw(st.sampled_from(sorted(max_k)))
    k = draw(st.integers(0, max_k[q]))
    n = k + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # an identity block makes the rank k; shuffled columns move the pivots
    gen = np.concatenate([np.eye(k, dtype=np.int64), rng.integers(0, q, (k, n - k))], axis=1)
    return LinearCodeFq(GF(q), n, gen[:, rng.permutation(n)])


def _oracle_words(code):
    q = code.field.q
    return (_messages(q, code.k, 0, q**code.k) @ code.gen) % q


@settings(max_examples=80, deadline=None, derandomize=True)
@given(codes_of_dimension())
def test_codeword_chunks_match_the_message_product(code):
    chunks = list(code.codeword_chunks())
    assert all(len(chunk) <= _CHUNK_ROWS for chunk in chunks)
    words = np.concatenate(chunks)
    assert words.shape == (code.size, code.n)
    assert np.array_equal(words, _oracle_words(code))  # row for row: message order


def test_codeword_chunks_cover_every_q_at_the_edges():
    for q in _CHUNK_ORACLE_K:
        for k in (0, 1, _CHUNK_ORACLE_K[q]):
            code = LinearCodeFq.full_space(GF(q), k)
            assert np.array_equal(code.codewords(), _oracle_words(code))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_ring_codeword_chunks_match_the_int64_oracle_at_q7(n, rows, seed):
    ring = ring_over(7)  # element indices run to 342, past int8
    rng = np.random.default_rng(seed)
    code = LinearCodeR(ring, n, rng.integers(0, ring.size, (rows, n)).tolist())
    chunks = list(code.codeword_chunks())
    assert all(len(chunk) <= _CHUNK_ROWS for chunk in chunks)
    assert np.array_equal(np.concatenate(chunks), _unflatten(ring.q, _oracle_words(code.flat)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(codes_of_dimension({2: 9, 3: 6, 5: 4, 7: 3}))
def test_span_weight_counts_match_per_word_weights(code):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldcode, "_CHUNK_ROWS", 128)  # tables of at most 128 / 16 = 8 words, several blocks against each
        got = span_weight_counts(code.gen, code.field.q)
        want = np.zeros(code.n + 1, dtype=np.int64)
        for words in code.codeword_chunks():
            want += np.bincount(np.count_nonzero(words, axis=1), minlength=code.n + 1)
    assert np.array_equal(got, want)


def test_span_weight_counts_at_the_edges():
    for q in (2, 3, 5, 7):
        assert span_weight_counts(np.zeros((0, 0), dtype=np.int64), q).tolist() == [1]  # n = 0: the empty word
        assert span_weight_counts(np.zeros((0, 3), dtype=np.int64), q).tolist() == [1, 0, 0, 0]
        assert span_weight_counts(np.eye(2, dtype=np.int64), q).tolist() == [1, 2 * (q - 1), (q - 1) ** 2]
    with pytest.raises(SearchSpaceTooLarge, match="27 codewords exceeds budget 26"):
        span_weight_counts(np.eye(3, dtype=np.int64), 3, budget=26)


def _independent_stack(q: int, batch: int, k: int, n: int, rng) -> np.ndarray:
    """A (batch, k, n) stack of bases [I_k | random] with their columns shuffled: independent rows."""
    stack = np.concatenate([np.broadcast_to(np.eye(k, dtype=np.int64), (batch, k, k)), rng.integers(0, q, (batch, k, n - k))], axis=2)
    return np.stack([basis[:, rng.permutation(n)] for basis in stack]).reshape(batch, k, n)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from([(2, 10), (3, 6), (5, 4)]),  # q and the largest k drawn
    st.integers(1, 4),
    st.integers(0, 10),
    st.integers(0, 4),
    st.sampled_from([128, 1024, fieldcode._CHUNK_ROWS]),
    st.integers(0, 2**32 - 1),
)
def test_stacked_span_weight_counts_match_the_word_oracle(field, batch, k, extra, chunk, seed):
    q, most = field
    k = min(k, most)
    stack = _independent_stack(q, batch, k, k + extra, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldcode, "_CHUNK_ROWS", chunk)  # small caps split the stack and the high words
        got = span_weight_counts(stack, q)
        one = span_weight_counts(stack[0], q)
    want = np.stack([span_weight_counts_by_words(basis, q) for basis in stack])
    assert got.shape == (batch, k + extra + 1) and np.array_equal(got, want)
    assert np.array_equal(one, want[0])  # a 2-D basis is the stack of one


@pytest.mark.parametrize("q, k, n", [(2, 16, 19), (3, 10, 12), (5, 7, 8)])
@pytest.mark.parametrize("chunk", [fieldcode._CHUNK_ROWS, 64])
def test_stacked_span_weight_counts_over_several_high_chunks(monkeypatch, q, k, n, chunk):
    monkeypatch.setattr(fieldcode, "_CHUNK_ROWS", chunk)
    lows = q ** fieldcode._table_rows(q, (k + 1) // 2, chunk // 16)
    lines = (q ** k // lows - 1) // (q - 1)  # one high message per F_q-line
    assert lines * lows > chunk  # so a basis spans several products
    if chunk == 64:
        assert lines > max(chunk // lows, chunk // 64)  # and several encoded blocks of high words
    stack = _independent_stack(q, 2, k, n, np.random.default_rng(k))
    want = np.stack([span_weight_counts_by_words(basis, q) for basis in stack])
    assert np.array_equal(span_weight_counts(stack, q), want)


@pytest.mark.parametrize("q, k", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2)])
def test_line_messages_take_the_leading_one_of_each_line(q, k):
    every = fieldcode._messages(q, k, 0, q**k)
    leading = every[[row.any() and row[np.flatnonzero(row)[0]] == 1 for row in every]]
    assert len(leading) == (q**k - 1) // (q - 1)
    assert np.array_equal(fieldcode._line_messages(q, k, 0, len(leading)), leading)
    for start in range(0, len(leading), 5):  # any block of them, as the kernel asks for
        assert np.array_equal(fieldcode._line_messages(q, k, start, min(start + 5, len(leading))), leading[start : start + 5])


def test_span_weight_counts_at_large_q():
    rng = np.random.default_rng(0)
    stack = _independent_stack(131, 3, 2, 4, rng)  # digit sums run to 2 * 130^2
    assert np.array_equal(span_weight_counts(stack, 131), np.stack([span_weight_counts_by_words(b, 131) for b in stack]))


def test_span_weight_counts_memory_does_not_grow_with_k():
    # q = 2, k = 23: 8.4 million words, 8191 high messages of 13 digits
    rng = np.random.default_rng(3)
    basis = np.concatenate([np.eye(23, dtype=np.int64), rng.integers(0, 2, (23, 3))], axis=1)
    tracemalloc.start()
    try:
        counts = span_weight_counts(basis, 2, budget=2**23)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2**23
    # making every high message at once peaked at 1.77 MB here and at 3.80 MB
    # for k = 24; a block at a time peaks at 0.68 MB for either
    assert peak < 1.0e6


def test_weight_counts_peak_memory():
    # q = 3, k = 12, n = 20: 531,441 words, 33 times _CHUNK_ROWS
    rng = np.random.default_rng(5)
    code = LinearCodeFq(F3, 20, np.concatenate([np.eye(12, dtype=np.int64), rng.integers(0, 3, (12, 8))], axis=1))
    tracemalloc.start()
    try:
        counts = code.weight_counts()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == code.size
    # forming every word in chunks and counting its nonzeros peaked at 1.03 MB;
    # matching the two one-hot half tables peaked at 0.39 MB from uint8 words
    # and peaks at 0.58 MB from the intp digit sums of float32 products
    assert peak < 1.0e6


def test_codeword_chunks_memory_does_not_grow_with_k():
    code = LinearCodeFq.full_space(F2, 36)
    tracemalloc.start()
    try:
        first = next(code.codeword_chunks(budget=2**40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) <= _CHUNK_ROWS
    assert peak < 16 * 2**20
