import json
import random
import tracemalloc
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcodes import fieldcode
from vcodes.errors import TransformInconsistent
from vcodes.fieldcode import LinearCodeFq
from vcodes.gf import GF
from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR, random_code_r
from vcodes import wenum

from oracles import binary_substitution, full_space_r, iter_codewords, zero_code_r


R2 = ring_over(2)
R3 = ring_over(3)
R5 = ring_over(5)
R7 = ring_over(7)


def test_lee_enumerator_examples():
    zero = zero_code_r(R2, 1)
    assert wenum.lee_enumerator(zero).counts == {0: 1}
    assert wenum.hamming_enumerator_r(zero).counts == {0: 1}
    assert wenum.lee_enumerator(zero) != wenum.hamming_enumerator_r(zero)  # kind is part of ==
    full = full_space_r(R2, 1)
    assert wenum.lee_enumerator(full).counts == {0: 1, 1: 3, 2: 3, 3: 1}  # (X+Y)^3
    cv = LinearCodeR(R2, 1, [[R2.q]])
    assert wenum.lee_enumerator(cv).counts == {0: 1, 1: 2, 2: 1}


def test_enumerator_totals_match_code_size():
    rng = random.Random(3)
    for _ in range(25):
        q = rng.choice([2, 3])
        code = random_code_r(ring_over(q), rng.randrange(1, 4), rng)
        assert wenum.lee_enumerator(code).total() == code.size
        assert wenum.hamming_enumerator_r(code).total() == code.size
        assert wenum.symmetrized_enumerator(code).total() == code.size
        assert wenum.complete_enumerator(code).total() == code.size


def _complete_by_word(code):
    """Oracle: tally every codeword's symbols one word at a time."""
    counts = {}
    for word in iter_codewords(code):
        tally = [0] * code.ring.size
        for sym in word:
            tally[sym] += 1
        counts[tuple(tally)] = counts.get(tuple(tally), 0) + 1
    return counts


def _symmetrized_by_word(code):
    """Oracle: tally every codeword's symbol classes (Lee weights) one word at a time."""
    counts = {}
    for word in iter_codewords(code):
        tally = [0] * 4
        for sym in word:
            tally[int(code.ring.lee_table[sym])] += 1
        counts[tuple(tally)] = counts.get(tuple(tally), 0) + 1
    return counts


def test_complete_enumerator_matches_per_word_tallies():
    rng = random.Random(13)
    codes = [random_code_r(ring_over(q), rng.randrange(1, 4 if q < 5 else 3), rng) for q in (2, 3, 5) * 6]
    codes.append(full_space_r(R3, 3))  # 3^9 words: more than one chunk
    codes.append(zero_code_r(R2, 2))
    codes += [zero_code_r(R2, 0), LinearCodeR(R3, 0, [])]  # n = 0: one empty word
    for code in codes:
        assert wenum.complete_enumerator(code).counts == _complete_by_word(code)
        assert wenum.symmetrized_enumerator(code).counts == _symmetrized_by_word(code)


def _tally_by_unique_rows(code, symbol_slot, slots):
    """Oracle: a 2-D unique of each chunk's sorted slot rows, tallied by np.add.at."""
    counts = {}
    for rows in code.codeword_chunks():
        shapes, mult = np.unique(np.sort(symbol_slot[rows], axis=1), axis=0, return_counts=True)
        tallies = np.zeros((len(shapes), slots), dtype=np.int64)
        np.add.at(tallies, (np.arange(len(shapes))[:, None], shapes), 1)
        for t, c in zip(map(tuple, tallies.tolist()), mult.tolist()):
            counts[t] = counts.get(t, 0) + c
    return counts


_TALLY_ORACLE_ROWS = {2: 3, 3: 2, 5: 1, 7: 1}  # generator rows: at most 729 words


def test_zero_counts_are_dropped_and_zero_free_counts_kept():
    counts = {0: 1, 2: 3}
    assert wenum.WeightEnumerator("lee", 1, 2, counts).counts is counts  # no copy without a zero
    assert wenum.WeightEnumerator("lee", 1, 2, {0: 1, 1: 0, 2: 3}).counts == counts


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from(sorted(_TALLY_ORACLE_ROWS)))
    ring = ring_over(q)
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)
    return LinearCodeR(ring, n, draw(st.lists(row, min_size=1, max_size=_TALLY_ORACLE_ROWS[q])))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_codes())
def test_tallies_match_the_unique_rows_oracle_across_chunks(code):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldcode, "_CHUNK_ROWS", 8)  # at most 8 words a chunk, so a tally recurs across chunks
        kinds = (
            (wenum.complete_enumerator, np.arange(code.ring.size), code.ring.size),
            (wenum.symmetrized_enumerator, code.ring.lee_table, 4),
        )
        for enum, symbol_slot, slots in kinds:
            got = enum(code).counts
            assert got == _tally_by_unique_rows(code, symbol_slot, slots)
            assert all(type(c) is int and all(type(x) is int for x in t) for t, c in got.items())


def test_merge_network_sorts_every_row_length():
    rng = np.random.default_rng(3)
    for n in range(41):
        rows = rng.integers(0, 5, size=(60, n)).astype(np.int16)
        assert (wenum._sort_rows(rows.copy()) == np.sort(rows, axis=1)).all()


@pytest.mark.parametrize("slots,n", [(8, 45), (343, 8)])  # 8^45 and 343^8 exceed 2^63
def test_row_keys_are_equal_exactly_when_rows_are(slots, n):
    row = np.random.default_rng(5).integers(0, slots, size=n)
    rows = np.tile(row, (n + 2, 1)).astype(np.int16)  # the last two rows are equal
    rows[np.arange(n), np.arange(n)] = (row + 1) % slots  # row j differs from them in column j only
    keys = wenum._row_keys(rows, slots)
    assert ((keys[:, None] == keys[None, :]) == (rows[:, None] == rows[None, :]).all(axis=2)).all()


@pytest.mark.parametrize(
    "code",
    [
        LinearCodeR(R7, 8, [np.random.default_rng(7).integers(1, 343, size=8)]),  # 343^8 > 2^63: keys fold
        LinearCodeR(R2, 30, [np.random.default_rng(2).integers(0, 8, size=30)]),  # 8^30 > 2^63: keys fold
        full_space_r(R3, 3),  # 3^9 words in two chunks, merged
    ],
    ids=["q7-n8", "q2-n30", "q3-full-n3"],
)
def test_tallies_match_the_unique_rows_oracle_on_long_rows_and_many_chunks(code):
    for enum, symbol_slot, slots in (
        (wenum.complete_enumerator, np.arange(code.ring.size), code.ring.size),
        (wenum.symmetrized_enumerator, code.ring.lee_table, 4),
    ):
        assert enum(code).counts == _tally_by_unique_rows(code, symbol_slot, slots)


def _traced_peak(work):
    tracemalloc.start()
    try:
        out = work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_complete_enumerator_peak_memory():
    # q = 3, n = 5, F_q-dimension 9: 19,683 words in two chunks, 16,332 distinct tallies
    code = LinearCodeR(R3, 5, [[1, 0, 0, 5, 22], [0, 1, 0, 13, 7], [0, 0, 1, 19, 11]])

    def tuple_keys():
        cwe = wenum.complete_enumerator(code)
        return cwe.total(), len(cwe.counts)  # counts builds the tuple keys, a block at a time

    (total, distinct), peak = _traced_peak(tuple_keys)
    assert total == 19683 and distinct == 16332
    # 10.7 MB was the peak of the per-chunk 2-D unique kernel; turning every
    # distinct tally into a tuple at once peaks at 14.6 MB
    assert peak < 10.7e6


def test_complete_enumerator_specializes_and_totals_in_little_memory():
    # q = 5, n = 4, F_q-dimension 6: 15,625 words and 15,581 distinct 125-slot
    # tallies, whose tuple keys alone peak at 24.7 MB; their slot rows take 0.25 MB
    code = LinearCodeR(R5, 4, [[1, 0, 7, 93], [0, 1, 58, 31]])

    def slot_rows_only():
        cwe = wenum.complete_enumerator(code)
        return wenum.specialize(cwe, "lee"), cwe.total()

    (lee, total), peak = _traced_peak(slot_rows_only)
    assert total == 15625 and lee == wenum.lee_enumerator(code)
    assert peak < 4e6  # 2.9 MB measured, most of it the enumeration's chunks


def _specialize_by_tally(enum, target):
    """Oracle: substitute the weight of each slot into every tally, one tuple at a time."""
    weights = np.arange(4) if enum.kind == "swe" else ring_over(enum.q).lee_table
    weights = (weights if target == "lee" else weights > 0).tolist()
    out = {}
    for tally, c in enum.counts.items():
        w = sum(map(mul, tally, weights))
        out[w] = out.get(w, 0) + c
    return out


@st.composite
def tiny_codes(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    ring = ring_over(q)
    n = draw(st.integers(0, 3))
    row = st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)
    return LinearCodeR(ring, n, draw(st.lists(row, max_size=_TALLY_ORACLE_ROWS[q])))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(tiny_codes(), st.sampled_from(["lee", "hamming"]))
def test_tally_enumerators_match_per_word_oracles(code, target):
    for build, by_word in (
        (wenum.symmetrized_enumerator, _symmetrized_by_word),
        (wenum.complete_enumerator, _complete_by_word),
    ):
        enum = build(code)
        by_hand = wenum.WeightEnumerator(enum.kind, code.n, code.ring.q, by_word(code))
        assert enum.total() == code.size == by_hand.total()  # read before counts is built
        assert enum.counts == by_hand.counts and enum == by_hand
        assert sum(enum.counts.values()) == code.size
        expected = _specialize_by_tally(by_hand, target)
        assert wenum.specialize(enum, target).counts == expected
        assert wenum.specialize(by_hand, target).counts == expected


def test_specialize_and_total_build_no_tuple_keys(monkeypatch):
    def no_keys(*args):
        raise AssertionError("a counts dict was built")

    monkeypatch.setattr(wenum, "_tally_counts", no_keys)
    code = LinearCodeR(R3, 3, [[1, 2, 3], [4, 5, 6]])
    lee, ham = wenum.lee_enumerator(code), wenum.hamming_enumerator_r(code)
    for enum in (wenum.complete_enumerator(code), wenum.symmetrized_enumerator(code)):
        assert enum.total() == code.size
        assert wenum.specialize(enum, "lee") == lee and wenum.specialize(enum, "hamming") == ham
    with pytest.raises(AssertionError, match="counts dict"):
        enum.counts  # the builder the enumerators would have used is the patched one


def test_hand_made_tallies_must_fill_n_slots():
    for counts in ({(1, 0, 0, 0): 1}, {(3, 0, 0, -1): 2}, {(2, 0, 0): 1}):
        with pytest.raises(ValueError):
            wenum.WeightEnumerator("swe", 2, 3, counts)


def test_symmetrized_examples():
    zero = zero_code_r(R2, 3)
    assert wenum.symmetrized_enumerator(zero).counts == {(3, 0, 0, 0): 1}
    cv = LinearCodeR(R2, 1, [[R2.q]])
    assert wenum.symmetrized_enumerator(cv).counts == {
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 2,
        (0, 0, 1, 0): 1,
    }


def test_class_tallies_partition_length():
    rng = random.Random(8)
    for _ in range(10):
        code = random_code_r(R3, rng.randrange(1, 4), rng)
        for tally in wenum.symmetrized_enumerator(code).counts:
            assert sum(tally) == code.n


def test_specialize_examples():
    zero = zero_code_r(R3, 2)
    assert wenum.specialize(wenum.symmetrized_enumerator(zero), "lee").counts == {0: 1}
    cv = LinearCodeR(R2, 1, [[R2.q]])
    cwe = wenum.complete_enumerator(cv)
    assert wenum.specialize(cwe, "lee") == wenum.lee_enumerator(cv)
    assert wenum.specialize(cwe, "hamming").counts == {0: 1, 1: 3}


def test_specializations_match_direct_enumerators():
    rng = random.Random(21)
    for _ in range(30):
        q = rng.choice([2, 3])
        code = random_code_r(ring_over(q), rng.randrange(1, 4), rng)
        lee = wenum.lee_enumerator(code)
        ham = wenum.hamming_enumerator_r(code)
        swe = wenum.symmetrized_enumerator(code)
        cwe = wenum.complete_enumerator(code)
        assert wenum.specialize(swe, "lee") == lee
        assert wenum.specialize(cwe, "lee") == lee
        assert wenum.specialize(swe, "hamming") == ham
        assert wenum.specialize(cwe, "hamming") == ham


def test_macwilliams_examples():
    zero = zero_code_r(R2, 1)
    out = wenum.macwilliams_lee(wenum.lee_enumerator(zero), 1)
    assert out.counts == {0: 1, 1: 3, 2: 3, 3: 1}
    cv = LinearCodeR(R2, 1, [[R2.q]])
    out = wenum.macwilliams_lee(wenum.lee_enumerator(cv), 4)
    assert out.counts == {0: 1, 1: 1}  # X^3 + X^2 Y, the dual {0, 1+v^2}


def test_macwilliams_fixed_point_on_self_dual_code():
    members = [(0, 0), (6, 0), (3, 3), (5, 3), (3, 5), (5, 5), (0, 6), (6, 6)]
    code = LinearCodeR(R2, 2, members)
    lee = wenum.lee_enumerator(code)
    assert wenum.macwilliams_lee(lee, code.size) == lee


def test_macwilliams_roundtrip_exhaustive_random():
    rng = random.Random(42)
    literal_failures = 0
    tested = 0
    for _ in range(200):
        q = rng.choice([2, 3])
        ring = ring_over(q)
        code = random_code_r(ring, rng.randrange(1, 3), rng)
        dual = code.brute_force_dual()
        lee = wenum.lee_enumerator(code)
        dual_lee = wenum.lee_enumerator(dual)
        assert wenum.macwilliams_lee(lee, code.size) == dual_lee
        tested += 1
        if q == 3:
            try:
                if wenum.macwilliams_counts(lee.counts, 3 * code.n, 2, code.size) != dual_lee.counts:
                    literal_failures += 1
            except TransformInconsistent:
                literal_failures += 1
    assert tested >= 200
    # the printed (X+Y, X-Y) substitution cannot survive q=3
    assert literal_failures > 0


def test_macwilliams_literal_correct_at_q2():
    rng = random.Random(9)
    for _ in range(40):
        code = random_code_r(R2, rng.randrange(1, 3), rng)
        dual = code.brute_force_dual()
        lee = wenum.lee_enumerator(code)
        assert wenum.macwilliams_counts(lee.counts, 3 * code.n, 2, code.size) == wenum.lee_enumerator(dual).counts


def test_macwilliams_integrality_guard():
    lee = wenum.WeightEnumerator("lee", 1, 3, {0: 1, 2: 2})  # span{e1} over q=3
    with pytest.raises(TransformInconsistent):
        wenum.macwilliams_counts(lee.counts, 3, 2, 3)


@pytest.mark.parametrize("q", [2, 3])
def test_macwilliams_at_q2_is_the_printed_binary_substitution(q):
    rng = random.Random(q)
    for _ in range(60):
        code = random_code_r(ring_over(q), rng.randrange(1, 3), rng)
        counts = wenum.lee_enumerator(code).counts
        expected = binary_substitution(counts, 3 * code.n, code.size)
        if all(c.denominator == 1 and c > 0 for c in expected.values()):
            assert wenum.macwilliams_counts(counts, 3 * code.n, 2, code.size) == expected
        else:  # the printed form gives no distribution, so the transform refuses
            with pytest.raises(TransformInconsistent):
                wenum.macwilliams_counts(counts, 3 * code.n, 2, code.size)


def test_macwilliams_total_mismatch_rejected():
    lee = wenum.WeightEnumerator("lee", 1, 3, {0: 1})
    with pytest.raises(TransformInconsistent):
        wenum.macwilliams_lee(lee, 3)
    ham = wenum.hamming_enumerator_fq(LinearCodeFq.full_space(GF(3), 2))  # 9 words
    for code_size in (1, 3):
        with pytest.raises(TransformInconsistent):
            wenum.macwilliams_hamming_fq(ham, code_size)


def test_lee_equals_gray_image_hamming():
    rng = random.Random(64)
    for _ in range(30):
        q = rng.choice([2, 3, 5])
        code = random_code_r(ring_over(q), rng.randrange(1, 4 if q < 5 else 3), rng)
        oracle = wenum.lee_enumerator_by_table(code).counts  # lee_table summed over element-index words
        assert wenum.lee_enumerator(code).counts == oracle == code.gray_image().weight_counts()
    for q in (2, 3):  # the zero code and a length-0 code hold only the zero word
        assert wenum.lee_enumerator(zero_code_r(ring_over(q), 2)).counts == {0: 1}
        assert wenum.lee_enumerator(zero_code_r(ring_over(q), 0)).counts == {0: 1}


def test_serialization_roundtrip():
    cv = LinearCodeR(R2, 1, [[R2.q]])
    for enum in (
        wenum.lee_enumerator(cv),
        wenum.hamming_enumerator_r(cv),
        wenum.symmetrized_enumerator(cv),
        wenum.complete_enumerator(cv),
    ):
        obj = json.loads(json.dumps(enum.to_json_obj()))
        assert obj["kind"] == enum.kind
        assert obj == enum.to_json_obj()
