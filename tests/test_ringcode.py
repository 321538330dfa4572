import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcodes import fieldcode, ringcode
from vcodes.cyclic import is_cyclic_r
from vcodes.errors import DEFAULT_BUDGET, CharacteristicTwoUnsupported, EmptyCode, ParamMismatch, SearchSpaceTooLarge, ShapeError
from vcodes.fieldcode import LinearCodeFq
from vcodes.ring import DUAL_FORM, EVALUATION, GRAY, GRAY_INVERSE, PROJECTIONS, ring_over
from vcodes.ringcode import (
    LinearCodeR,
    _flatten,
    _unflatten,
    brute_force_duals,
    combine_components,
    random_code_r,
)
from vcodes.wenum import lee_enumerator

from oracles import (
    closure_codewords,
    eval_table,
    full_space_r,
    iter_codewords,
    random_code,
    ring_tables,
    two_reduction_dual,
    zero_code_fq,
    zero_code_r,
)


R2 = ring_over(2)
R3 = ring_over(3)


def words_of(code, budget=1 << 22):
    return {tuple(map(int, w)) for w in code.codewords(budget)}


def test_construction_examples():
    zero = zero_code_r(R3, 2)
    assert zero.size == 1
    e1 = LinearCodeR(R3, 3, [[1, 0, 0]])
    assert e1.size == 27  # free rank 1
    cv = LinearCodeR(R2, 1, [[R2.q]])
    assert cv.size == 4
    assert words_of(cv) == {(0,), (R2.q,), (R2.q**2,), (R2.q + R2.q**2,)}


def test_ragged_generators_rejected():
    with pytest.raises(ShapeError):
        LinearCodeR(R3, 2, [[1, 2], [1]])
    with pytest.raises(ShapeError):
        LinearCodeR(R3, 2, [[R3.one, R3.v], [R3.one]])  # ragged rows of elements
    with pytest.raises(ShapeError):
        LinearCodeR(R3, 2, [[1, 2, 0]])


@pytest.mark.parametrize("entry", [2.7, 2.0, "2", None, b"2"])
def test_non_element_entries_rejected(entry):
    with pytest.raises(ParamMismatch):
        LinearCodeR(R3, 2, [[1, entry]])
    with pytest.raises(ParamMismatch):
        LinearCodeR(R3, 2, [[R3.v, entry]])  # next to a RingElem the row is read entry by entry
    with pytest.raises(ParamMismatch):
        LinearCodeR(R3, 2, [[1, 0]]).contains([1, entry])
    with pytest.raises(ParamMismatch):
        LinearCodeR(R3, 2, [[R2.v, 0]])  # an element of another ring


def test_array_list_and_element_rows_build_one_code():
    rng = np.random.default_rng(41)
    for q in (2, 3, 5):
        ring = ring_over(q)
        grid = rng.integers(0, ring.size, (3, 4))
        codes = [
            LinearCodeR(ring, 4, grid),
            LinearCodeR(ring, 4, grid.tolist()),
            LinearCodeR(ring, 4, [[ring.from_index(int(x)) for x in row] for row in grid]),
            LinearCodeR(ring, 4, grid + 7 * ring.size),  # indices are read mod |R|
        ]
        for code in codes[1:]:
            assert code.gens == codes[0].gens == tuple(map(tuple, grid.tolist()))
            assert np.array_equal(code.flat.gen, codes[0].flat.gen) and code.flat == codes[0].flat


def test_enumeration_matches_closure_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        q = rng.choice([2, 3])
        ring = ring_over(q)
        n = rng.randrange(1, 3)
        code = random_code_r(ring, n, rng)
        assert words_of(code) == closure_codewords(code)


def test_enumeration_budget():
    with pytest.raises(SearchSpaceTooLarge):
        full_space_r(R3, 4).codewords(budget=100)


def test_zero_code_enumerates_single_word():
    assert words_of(zero_code_r(R3, 3)) == {(0, 0, 0)}


def test_length_zero_code_enumerates_the_empty_word():
    for code in (zero_code_r(R2, 0), full_space_r(R3, 0)):
        assert code.codewords().shape == (1, 0)
        assert list(iter_codewords(code)) == [()]


def test_iter_codewords_streams_each_exactly_once():
    code = LinearCodeR(R3, 2, [[1, R3.q]])
    seen = list(iter_codewords(code))
    assert len(seen) == code.size == len(set(seen))
    assert list(iter_codewords(zero_code_r(R3, 2))) == [(0, 0)]


def test_components_crt_examples():
    full = full_space_r(R3, 2)
    t = full.components_crt()
    assert [c.k for c in t] == [2, 2, 2]
    z = zero_code_r(R3, 2).components_crt()
    assert [c.k for c in z] == [0, 0, 0]
    cv = LinearCodeR(R3, 1, [[R3.q]])
    tv = cv.components_crt()
    assert [c.size for c in tv] == [3, 3, 1]
    assert math.prod(c.size for c in tv) == cv.size == 9


def test_components_crt_needs_odd_q():
    with pytest.raises(CharacteristicTwoUnsupported):
        LinearCodeR(R2, 1, [[1]]).components_crt()


def test_components_paper_examples():
    cv = LinearCodeR(R3, 1, [[R3.q]])
    t = cv.components_paper()
    assert [c.k for c in t] == [0, 1, 1]
    z = zero_code_r(R3, 2).components_paper()
    assert [c.k for c in z] == [0, 0, 0]
    f = full_space_r(R3, 2).components_paper()
    assert [c.k for c in f] == [2, 2, 2]


def test_combine_components_examples():
    field = R3.field
    zero = (zero_code_fq(field, 2), zero_code_fq(field, 2), zero_code_fq(field, 2))
    assert combine_components(R3, zero, "idempotent").size == 1
    assert combine_components(R3, zero, "paper-literal").size == 1
    full = (LinearCodeFq.full_space(field, 2), LinearCodeFq.full_space(field, 2), LinearCodeFq.full_space(field, 2))
    assert combine_components(R3, full, "idempotent") == full_space_r(R3, 2)
    assert combine_components(R3, full, "paper-literal") == full_space_r(R3, 2)
    tri = (LinearCodeFq.full_space(field, 1), LinearCodeFq.full_space(field, 1), zero_code_fq(field, 1))
    assert combine_components(R3, tri, "idempotent") == LinearCodeR(R3, 1, [[R3.q]])
    for bad in ((), tri[:2], tri[:2] + (zero_code_fq(field, 2),)):  # too few components; two lengths
        with pytest.raises(ParamMismatch):
            combine_components(R3, bad, "idempotent")


def _combine_per_entry(ring, triple, mode):
    """Generators of combine_components, embedding each field entry u on its own (the reference)."""
    if mode == "idempotent":
        embeds = tuple(lambda u, e=e: (u * ring.from_index(e)).idx for e in (ring.e1, ring.e2, ring.e0))
    else:
        embeds = (
            lambda u: ring.index(0, u, 0),  # u * v
            lambda u: ring.index(u, -u, 0),  # u * (1-v)
            lambda u: ring.index(u, 0, -u),  # u * (1-v^2)
        )
    return tuple(tuple(int(embed(int(u))) for u in row) for code, embed in zip(triple, embeds) for row in code.gen)


@pytest.mark.parametrize(
    "q, mode",
    [(3, "idempotent"), (5, "idempotent"), (2, "paper-literal"), (3, "paper-literal"), (5, "paper-literal")],
)
def test_combine_components_matches_per_entry_embedding(q, mode):
    ring = ring_over(q)
    field = ring.field
    rng = random.Random(f"combine:{q}:{mode}")
    for trial in range(25):
        n = rng.randrange(1, 5)
        # the first trial has three zero components, later ones a zero component a third of the time
        comps = [
            zero_code_fq(field, n) if trial == 0 or rng.randrange(3) == 0 else random_code(field, n, rng)
            for _ in range(3)
        ]
        assert combine_components(ring, comps, mode).gens == _combine_per_entry(ring, comps, mode)


def test_combine_idempotent_needs_odd_q():
    field = R2.field
    tri = (LinearCodeFq.full_space(field, 1), LinearCodeFq.full_space(field, 1), zero_code_fq(field, 1))
    with pytest.raises(CharacteristicTwoUnsupported):
        combine_components(R2, tri, "idempotent")


def test_crt_split_and_combine_roundtrip_random():
    rng = random.Random(5)
    for _ in range(30):
        code = random_code_r(R3, rng.randrange(1, 4), rng)
        assert combine_components(R3, code.components_crt(), "idempotent") == code


def test_dual_examples():
    full = full_space_r(R3, 2)
    assert full.dual().size == 1
    cv = LinearCodeR(R2, 1, [[R2.q]])
    assert words_of(cv.dual()) == {(0,), (1 + R2.q**2,)}
    c11 = LinearCodeR(R3, 2, [[1, 1]])
    d = c11.dual()
    assert d.size == 27
    assert d.contains([1, 2])


def test_crt_dual_matches_brute_force():
    rng = random.Random(99)
    for _ in range(25):
        code = random_code_r(R3, rng.randrange(1, 3), rng)
        assert code.dual() == code.brute_force_dual()


def test_dual_size_product_both_parities():
    rng = random.Random(123)
    for _ in range(30):
        q = rng.choice([2, 3])
        ring = ring_over(q)
        n = rng.randrange(1, 3)
        code = random_code_r(ring, n, rng)
        dual = code.dual()
        assert code.size * dual.size == q ** (3 * n)
        for g in code.gens:
            for h in dual.gens:
                assert code.dot(g, h) == 0


@st.composite
def small_codes(draw):
    ring = ring_over(draw(st.sampled_from([2, 3, 5])))
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)
    return LinearCodeR(ring, n, draw(st.lists(row, max_size=n)))


# brute_force_dual sweeps all of R^n, about 0.6 s a code once |R|^n reaches
# 125^3 (q = 5, n = 3); the CRT oracle still covers that case
_BRUTE_AMBIENT = 27**3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_codes())
def test_kernel_dual_matches_oracles(code):
    ring, n = code.ring, code.n
    dual = code.dual()
    assert code.size * dual.size == ring.size**n
    assert dual.dual() == code
    # the kernel is the dual's flattened code as it stands: a rebuild from its
    # generators reduces to the same flat code, whose unflattened rows they are
    rebuilt = LinearCodeR(ring, n, dual.gens)
    assert dual.flat == rebuilt.flat and dual.flat.pivots == rebuilt.flat.pivots
    assert dual.gens == tuple(map(tuple, _unflatten(ring.q, rebuilt.flat.gen).tolist()))
    if ring.size**n <= _BRUTE_AMBIENT:
        assert dual == code.brute_force_dual()
    if ring.q % 2:
        crt = tuple(c.dual() for c in code.components_crt())
        assert dual == combine_components(ring, crt, "idempotent")


@st.composite
def dual_codes(draw):
    ring = ring_over(draw(st.sampled_from([2, 3, 5, 7])))
    n = draw(st.integers(1, 3 if ring.q < 5 else 2))
    row = st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)
    return LinearCodeR(ring, n, draw(st.lists(row, max_size=n)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dual_codes())
def test_one_reduction_dual_matches_two_reductions_and_brute_force(code):
    assert code.dual() == two_reduction_dual(code) == code.brute_force_dual()


# every |R|^n at most 729: q = 2 up to n = 3, q = 3 up to n = 2, q = 5 at n = 1
_BRUTE_LENGTHS = {2: 3, 3: 2, 5: 1}


@st.composite
def brute_force_code_lists(draw):
    codes = []
    for _ in range(draw(st.integers(0, 8))):
        ring = ring_over(draw(st.sampled_from(sorted(_BRUTE_LENGTHS))))
        n = draw(st.integers(0, _BRUTE_LENGTHS[ring.q]))
        row = st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)
        rows = draw(st.lists(row, max_size=n + 1))
        codes.append(LinearCodeR(ring, n, np.array(rows, dtype=np.int64).reshape(len(rows), n)))
    return codes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(brute_force_code_lists(), st.sampled_from([None, 200]))
def test_brute_force_duals_match_each_codes_dual(codes, cap):
    """A mixed (q, n) list, with the products and folds split by a small cap or
    not, gives each code's kernel dual and its own brute-force dual, in order."""
    shapes = []
    stack = fieldcode.rref_stack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ringcode, "rref_stack", lambda s, q: shapes.append(s.shape) or stack(s, q))
        if cap:
            patch.setattr(fieldcode, "_MAX_ENTRIES", cap)
        duals = brute_force_duals(codes)
        assert all(b == 1 or b * r * c <= fieldcode._MAX_ENTRIES for b, r, c in shapes)
    assert duals == [code.dual() for code in codes]
    for code, dual in zip(codes, duals, strict=True):
        single = code.brute_force_dual()
        assert dual.gens == single.gens and np.array_equal(dual.flat.gen, single.flat.gen)
        assert dual.gens == tuple(map(tuple, _unflatten(code.ring.q, dual.flat.gen).tolist()))


def test_brute_force_duals_check_every_budget_in_input_order_first(monkeypatch):
    enumerated = []
    full_space = LinearCodeFq.full_space
    monkeypatch.setattr(LinearCodeFq, "full_space", lambda field, n: enumerated.append(n) or full_space(field, n))
    codes = [LinearCodeR(R2, 1, [[1]]), LinearCodeR(R3, 2, [[1, 2]]), LinearCodeR(R2, 2, [[1, 1]]), LinearCodeR(R2, 2, [[2, 0]])]
    with pytest.raises(SearchSpaceTooLarge, match="ambient 729 exceeds budget 30"):
        brute_force_duals(codes, 30)
    assert enumerated == []  # the q = 2, n = 1 code fits, but nothing ran before the check of the second
    duals = brute_force_duals(codes, 729)
    assert [c.size * d.size for c, d in zip(codes, duals)] == [8, 729, 64, 64]
    assert enumerated == [3, 6, 6]  # one sweep of F_q^{3n} per (q, n)


def test_dual_is_computed_once_in_one_reduction(monkeypatch):
    calls = []
    rref = fieldcode.rref
    monkeypatch.setattr(fieldcode, "rref", lambda mat, q: calls.append(q) or rref(mat, q))
    code = LinearCodeR(R3, 3, [[1, 4, 9], [0, 2, 13]])
    calls.clear()
    dual = code.dual()
    assert len(calls) == 1
    assert code.dual() is dual and len(calls) == 1
    assert "_dual" not in vars(dual)  # the dual holds no link back to the code
    assert dual.dual() == code and dual.dual() is not code


def test_gray_image_examples():
    assert zero_code_r(R3, 2).gray_image().k == 0
    cv = LinearCodeR(R2, 1, [[R2.q]])
    image = cv.gray_image()
    assert (image.n, image.k) == (3, 2)
    img_words = {tuple(map(int, w)) for w in image.codewords()}
    assert img_words == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}
    full = full_space_r(R2, 2)
    assert full.gray_image() == LinearCodeFq.full_space(R2.field, 6)


def test_gray_image_preserves_size():
    rng = random.Random(17)
    for _ in range(30):
        q = rng.choice([2, 3])
        code = random_code_r(ring_over(q), rng.randrange(1, 4), rng)
        assert code.gray_image().size == code.size


def test_min_lee_distance_examples():
    cv = LinearCodeR(R2, 1, [[R2.q]])
    assert cv.min_lee_distance("exhaustive")[0] == 1
    for n in (1, 2, 3):
        rep = LinearCodeR(R3, n, [[1] * n])
        assert rep.min_lee_distance("exhaustive") == (n, "exhaustive")
    assert full_space_r(R3, 2).min_lee_distance("exhaustive")[0] == 1
    with pytest.raises(EmptyCode):
        zero_code_r(R3, 1).min_lee_distance("exhaustive")


def test_min_lee_strategies_agree():
    rng = random.Random(31)
    for _ in range(30):
        q = rng.choice([2, 3])
        code = random_code_r(ring_over(q), rng.randrange(1, 4), rng)
        if code.dim_fq == 0:
            continue
        exact = code.min_lee_distance("exhaustive")
        via_gray = code.min_lee_distance("gray-image")
        assert exact[0] == via_gray[0]
        assert exact[1] == "exhaustive" and via_gray[1] == "gray-image"


def _chunks_read(monkeypatch, code, strategy):
    """The distance by ``strategy``, how many R-codeword chunks it read and how
    many the code has, at most 8 words a chunk."""
    monkeypatch.setattr(fieldcode, "_CHUNK_ROWS", 8)
    chunks = LinearCodeR.codeword_chunks
    total = len(list(chunks(code)))
    read = []

    def counted(self, budget=DEFAULT_BUDGET):
        for rows in chunks(self, budget):
            read.append(len(rows))
            yield rows

    monkeypatch.setattr(LinearCodeR, "codeword_chunks", counted)
    return code.min_lee_distance(strategy), len(read), total


def test_exhaustive_distance_stops_at_the_first_chunk_with_weight_1(monkeypatch):
    code = full_space_r(R3, 2)
    (d, _), read, total = _chunks_read(monkeypatch, code, "exhaustive")
    assert d == 1 and read == 1 < total
    assert code.min_lee_distance("gray-image") == (1, "gray-image")


def test_exhaustive_distance_reads_every_chunk_above_weight_1(monkeypatch):
    code = LinearCodeR(R3, 2, [[1, 1]])  # Lee distance 2
    (d, _), read, total = _chunks_read(monkeypatch, code, "exhaustive")
    assert d == 2 and read == total > 1
    assert code.min_lee_distance("gray-image") == (2, "gray-image")


@st.composite
def distance_codes(draw):
    ring = ring_over(draw(st.sampled_from([2, 3, 5])))
    n = draw(st.integers(1, 3 if ring.q < 5 else 2))
    row = st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)
    return LinearCodeR(ring, n, draw(st.lists(row, min_size=1, max_size=2)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(distance_codes())
def test_gray_image_distance_matches_exhaustive(code):
    if code.dim_fq == 0:
        return
    exact, _ = code.min_lee_distance("exhaustive")
    assert code.min_lee_distance("gray-image") == (exact, "gray-image")
    d, rows = code.minimum_lee_words()
    assert d == exact
    # every minimum word, in the order full enumeration meets them
    words = np.concatenate(list(code.codeword_chunks()))
    assert rows.tolist() == words[code.ring.lee_table[words].sum(axis=1) == d].tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7]), st.tuples(*[st.integers(0, 6)] * 3), st.tuples(*[st.integers(0, 6)] * 3))
def test_symbol_matrices_match_their_formulas(q, coeffs, other):
    a0, a1, a2 = (a % q for a in coeffs)
    x = np.array([a0, a1, a2])
    gray = [a0, (a0 + a2) % q, a1]
    evaluations = [(a0 + a1 * t + a2 * t * t) % q for t in (1, -1, 0)]
    assert (GRAY @ x % q).tolist() == gray
    assert (EVALUATION @ x % q).tolist() == evaluations
    assert (PROJECTIONS @ x % q).tolist() == [a0, (a0 + a1) % q, (a0 + a1 + a2) % q]
    assert (GRAY_INVERSE @ GRAY % q == np.eye(3)).all()
    ring = ring_over(q)
    idx = ring.index(a0, a1, a2)
    assert ring.gray_table[idx].tolist() == gray
    assert [eval_table(q)[t % q][idx] for t in (1, -1, 0)] == evaluations
    y = np.array([b % q for b in other])
    assert x @ DUAL_FORM @ y % q == ring.coeff[ring_tables(q)[0][idx, ring.index(*y)], 2]
    assert round(np.linalg.det(DUAL_FORM)) % q != 0


@st.composite
def map_codes(draw):
    ring = ring_over(draw(st.sampled_from([2, 3, 5, 7])))
    n = draw(st.integers(1, 3 if ring.q < 5 else 2))
    row = st.lists(st.integers(0, ring.size - 1), min_size=n, max_size=n)
    gens = draw(st.lists(row, max_size=2))
    if draw(st.booleans()):  # add the shifts, so cyclic codes turn up too
        gens = [g[k:] + g[:k] for g in gens for k in range(n)]
    return LinearCodeR(ring, n, gens)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(map_codes())
def test_symbol_maps_match_the_hand_sliced_oracles(code):
    ring, n, q = code.ring, code.n, code.ring.q
    field = ring.field
    a0, a1, a2 = (code.flat.gen[:, k * n : (k + 1) * n] for k in range(3))
    gray = np.concatenate([a0, (a0 + a2) % q, a1], axis=1)
    assert code.gray_image() == LinearCodeFq(field, 3 * n, gray)
    for comp, rows in zip(code.components_paper(), (a0, a0 + a1, a0 + a1 + a2)):
        assert comp == LinearCodeFq(field, n, rows % q)
    gens = np.array(code.gens, dtype=np.int64).reshape(-1, n)
    if q % 2:
        c0, c1, c2 = np.moveaxis(ring.coeff[gens], -1, 0)  # the generators' coefficients
        for comp, t in zip(code.components_crt(), (1, -1, 0)):
            assert comp == LinearCodeFq(field, n, (c0 + c1 * t + c2 * t * t) % q)
    assert np.array_equal(_unflatten(q, _flatten(ring, gens)), gens)
    assert np.array_equal(_unflatten(q, _flatten(ring, gens[None])), gens[None])
    table = ring.gray_table[gens]  # (m, n, 3)
    words = np.concatenate([table[:, :, 0], table[:, :, 1], table[:, :, 2]], axis=1)
    assert np.array_equal(code.gray_words(gens), words)
    assert is_cyclic_r(code) == all(code.contains(g[-1:] + g[:-1]) for g in code.gens)
    if code.dim_fq == 0:
        return
    d, words = code.gray_image().minimum_words()
    g0, g1, g2 = words[:, :n], words[:, n : 2 * n], words[:, 2 * n :]
    flat = np.concatenate([g0, g2, (g1 - g0) % q], axis=1).astype(np.int64)
    flat = flat[np.lexsort(flat.T[::-1])]
    rows = flat[:, :n] + q * flat[:, n : 2 * n] + q * q * flat[:, 2 * n :]
    best, found = code.minimum_lee_words()
    assert best == d and np.array_equal(found, rows)


def test_self_dual_implies_chain():
    # the self-dual cyclic code of length 2 over q=2 found by exhaustive search
    members = [(0, 0), (6, 0), (3, 3), (5, 3), (3, 5), (5, 5), (0, 6), (6, 6)]
    code = LinearCodeR(R2, 2, members)
    assert code.size == 8
    dual = code.dual()
    assert all(code.dot(g, h) == 0 for g in code.gens for h in code.gens)
    assert code == dual
    assert lee_enumerator(code) == lee_enumerator(dual)


def test_self_orthogonal_transfers_to_gray_image():
    rng = random.Random(77)
    found = 0
    for _ in range(300):
        q = rng.choice([2, 3])
        ring = ring_over(q)
        code = random_code_r(ring, rng.randrange(1, 4), rng)
        if not all(code.dot(g, h) == 0 for g in code.gens for h in code.gens):
            continue
        found += 1
        image = code.gray_image()
        assert not ((image.gen @ image.gen.T) % q).any()
    assert found >= 3


def test_gray_dual_identity_random():
    rng = random.Random(13)
    for _ in range(40):
        q = rng.choice([2, 3])
        ring = ring_over(q)
        code = random_code_r(ring, rng.randrange(1, 4), rng)
        dual = code.dual()
        assert code.gray_image().dual() == dual.gray_image()


def test_cardinality_identity_crt_vs_literal():
    rng = random.Random(55)
    literal_breaks = 0
    for _ in range(40):
        code = random_code_r(R3, rng.randrange(1, 4), rng)
        assert math.prod(c.size for c in code.components_crt()) == code.size
        if math.prod(c.size for c in code.components_paper()) != code.size:
            literal_breaks += 1
    # the idempotent-slot code over e1 is a concrete literal-projection failure
    e1code = LinearCodeR(R3, 1, [[R3.e1]])
    assert e1code.size == 3
    assert math.prod(c.size for c in e1code.components_paper()) == 9
    assert literal_breaks > 0
