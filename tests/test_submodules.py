"""The RREF-basis lattice walks against two oracles.

Every submodule of R^n with n <= 2 is generated by two vectors, so the
closure spans of all pairs (a, b) are exactly the submodules, and the
shift-closed ones among them are the ideals.  The walk, which goes one
idempotent factor at a time, is also checked against the ambient walk it
replaced: the closure of the zero submodule under joins with the atoms of
all of R^n at once, sorted by the same (rank, flattened RREF basis) key.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR
from vcodes import fieldcode, submodules
from vcodes.fieldcode import rref_stack
from vcodes.submodules import _MAX_AMBIENT, AmbientSpace

from oracles import closure_codewords, members, ring_tables


def _encode(ring, word) -> int:
    return sum(x * ring.size**j for j, x in enumerate(word))


def _oracle(q, n, ideals_only):
    ring = ring_over(q)
    vectors = list(product(range(ring.size), repeat=n))
    spans = set()
    for a, b in combinations_with_replacement(vectors, 2):
        words = closure_codewords(LinearCodeR(ring, n, [a, b]))
        if ideals_only and any(w[-1:] + w[:-1] not in words for w in words):
            continue
        spans.add(frozenset(_encode(ring, w) for w in words))
    return spans


def _order(basis):
    """The walk's key: rank, then the flattened RREF entries."""
    return len(basis), basis.ravel().tolist()


def _ambient_walk(space, ideals_only):
    """Every join of the distinct atoms of R^n, one frontier level at a time."""
    if ideals_only:
        least = set()  # one generator per shift orbit
        for x in range(1, space.size):
            orbit = [x]
            for _ in range(space.n - 1):
                orbit.append(int(space.vec_shift[orbit[-1]]))
            least.add(min(orbit))
        atoms = space.principal_ideal(np.array(sorted(least), dtype=np.int64))
    else:
        atoms = space.cyclic_span(np.arange(1, space.size))
    atoms = atoms[sorted({a.tobytes(): i for i, a in enumerate(atoms)}.values())]  # distinct ones
    zero = np.zeros((0, 3 * space.n), dtype=np.int64)
    seen = {zero.tobytes(): zero}
    frontier = [zero]
    while frontier and len(atoms):
        nodes = np.zeros((len(frontier), max(map(len, frontier)), 3 * space.n), dtype=np.int64)
        for i, basis in enumerate(frontier):
            nodes[i, : len(basis)] = basis
        frontier = []
        for matrix in space.join(nodes, atoms):
            basis = matrix[: matrix.any(axis=1).sum()]
            if basis.tobytes() not in seen:
                seen[basis.tobytes()] = basis
                frontier.append(basis)
    return sorted(seen.values(), key=_order)


@lru_cache(maxsize=None)
def _walk(q, n, ideals_only):
    space = AmbientSpace(ring_over(q), n)
    return space, space.all_ideals() if ideals_only else space.all_submodules()


@pytest.mark.parametrize(
    "q, n, ideals_only, count",
    [(2, 1, False, 6), (2, 2, False, 75), (3, 1, False, 8), (2, 2, True, 21)],
)
def test_walk_matches_closure_oracle(q, n, ideals_only, count):
    space, walk = _walk(q, n, ideals_only)
    found = [frozenset(map(int, members(space, b))) for b in walk]
    assert len(found) == len(set(found)) == count
    assert set(found) == _oracle(q, n, ideals_only)


@pytest.mark.parametrize(
    "q, n, ideals_only, count",
    [
        (2, 0, False, 1),
        (2, 0, True, 1),
        (2, 2, False, 75),
        (3, 2, False, 216),
        (2, 2, True, 21),
        (2, 3, True, 36),
        (2, 4, True, 115),
    ],
)
def test_walk_counts_order_and_bases(q, n, ideals_only, count):
    space, walk = _walk(q, n, ideals_only)
    assert len(walk) == count
    for basis in walk:
        # each node is the RREF basis of the code it spans
        assert np.array_equal(space.code(basis).flat.gen, basis)
    _assert_sorted(walk)


def _assert_sorted(walk):
    """The walk is strictly sorted by its key, so no two nodes tie and the
    size order holds: a node of F_q rank r has q^r members."""
    keys = [_order(basis) for basis in walk]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "q, n, ideals_only",
    [(2, 2, True), (2, 3, True), (2, 4, True), (2, 1, False), (3, 1, False), (3, 2, False)],
)
def test_rank_keys_order_the_claims_lattices_by_members(q, n, ideals_only):
    """The lattices that cor10 (ideals, q = 2) and thm20 (submodules) walk,
    sorted by (rank, basis): smaller codes first, and equal-size codes in an
    order that does not depend on how the walk found them."""
    _assert_sorted(_walk(q, n, ideals_only)[1])


_SMALL_LATTICES = [
    (q, n, ideals_only)
    for q in (2, 3, 5, 7)
    for n in range(5)
    for ideals_only in (False, True)
    if q ** (3 * n) <= _MAX_AMBIENT and (ideals_only or q ** (3 * n) < 1 << 12)  # R^4 at q = 2: too many submodules
]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.sampled_from(_SMALL_LATTICES), st.sampled_from([None, 1, 300]))
def test_rank_keys_order_every_small_lattice_by_members(lattice, cap):
    """Batch sizes change the order joins find the nodes in, never the walk."""
    q, n, ideals_only = lattice
    with mock.patch.object(fieldcode, "_MAX_ENTRIES", cap or fieldcode._MAX_ENTRIES):
        space = AmbientSpace(ring_over(q), n)
        walk = space.all_ideals() if ideals_only else space.all_submodules()
    _assert_sorted(walk)
    assert list(map(_order, walk)) == list(map(_order, _walk(*lattice)[1]))


def test_join_is_the_span_of_both():
    space = AmbientSpace(ring_over(3), 2)
    node_vectors, atom_vectors = [1, 2, 28], [5, 10]
    nodes = space.cyclic_span(np.array(node_vectors))
    atoms = space.principal_ideal(np.array(atom_vectors))
    joined = space.join(nodes, atoms)
    assert joined.shape == (6, 3 + 6, 6)
    pairs = [(x, y) for x in node_vectors for y in atom_vectors]
    for basis, (x, y) in zip(joined, pairs):
        a, b = space.decode[x], space.decode[y]
        span = LinearCodeR(space.ring, 2, [a, b, np.roll(b, 1)]).flat.gen
        assert np.array_equal(basis[: len(span)], span) and not basis[len(span) :].any()
    # an atom inside the node leaves it unchanged
    again = space.join(joined, nodes)
    for k, basis in enumerate(joined):
        same = again[k * len(nodes) + k // len(atom_vectors)]
        assert np.array_equal(same[: len(basis)], basis) and not same[len(basis) :].any()


@pytest.mark.parametrize("cap", [1, 500])
def test_entry_cap_bounds_every_batch(monkeypatch, cap):
    shapes = []

    def spy(stack, q):
        shapes.append(stack.shape)
        return rref_stack(stack, q)

    expected = {flag: _walk(2, 2, flag)[1] for flag in (False, True)}  # at the default cap
    monkeypatch.setattr(fieldcode, "_MAX_ENTRIES", cap)
    monkeypatch.setattr(submodules, "rref_stack", spy)
    for ideals_only, bases in expected.items():
        space = AmbientSpace(ring_over(2), 2)
        walk = space.all_ideals() if ideals_only else space.all_submodules()
        assert [(b.shape, b.tobytes()) for b in walk] == [(b.shape, b.tobytes()) for b in bases]
    assert all(b == 1 or b * r * c <= cap for b, r, c in shapes)
    assert (cap == 1) == all(b == 1 for b, _, _ in shapes)


def test_ambient_arrays_are_linear_in_the_ambient():
    space = AmbientSpace(ring_over(2), 4)
    limit = space.size * space.n
    arrays = {k: v.size for k, v in vars(space).items() if isinstance(v, np.ndarray)}
    assert arrays and all(size <= limit for size in arrays.values()), arrays


@pytest.mark.parametrize(
    "q, n, ideals_only",
    [(2, 0, False), (2, 1, False), (2, 2, False), (3, 1, False), (3, 2, False)]
    + [(2, 1, True), (2, 2, True), (2, 3, True), (2, 4, True), (3, 1, True), (3, 2, True)],
)
def test_factor_walk_matches_the_ambient_walk(q, n, ideals_only):
    space, walk = _walk(q, n, ideals_only)
    oracle = _ambient_walk(AmbientSpace(ring_over(q), n), ideals_only)
    assert [(b.shape, b.tobytes()) for b in walk] == [(b.shape, b.tobytes()) for b in oracle]
    # M -> (e*M for each idempotent e) is one-to-one and onto the product of the factor lattices
    factors = []
    for e in space.ring.idempotents:
        scaled = ring_tables(q)[0][e][space.decode] @ space.powers
        factors.append({frozenset(scaled[members(space, b)].tolist()) for b in walk})
    assert len(walk) == np.prod([len(f) for f in factors])


@pytest.mark.parametrize("q, n", [(2, 2), (3, 1)])
def test_brute_force_dual_equals_the_kernel_dual_on_every_submodule(q, n):
    space = AmbientSpace(ring_over(q), n)
    for basis in space.all_submodules():
        code = space.code(basis)
        brute, dual = code.brute_force_dual(), code.dual()
        assert brute == dual and brute.gens == dual.gens


def _matrices_reduced(monkeypatch, q, n, ideals_only):
    reduced = []

    def spy(stack, q):
        reduced.append(len(stack))
        return rref_stack(stack, q)

    monkeypatch.setattr(submodules, "rref_stack", spy)
    space = AmbientSpace(ring_over(q), n)
    walk = space.all_ideals() if ideals_only else space.all_submodules()
    return walk, sum(reduced)


def test_factor_walk_reduces_few_matrices(monkeypatch):
    # the ambient walk reduced 10128 matrices here
    walk, reduced = _matrices_reduced(monkeypatch, 2, 4, True)
    assert len(walk) == 115 and reduced <= 1000


def test_submodules_of_r3_at_q2(monkeypatch):
    walk, reduced = _matrices_reduced(monkeypatch, 2, 3, False)
    assert len(walk) == 2064 == 16 * 129
    assert reduced <= 10000  # the ambient walk reduced 592879 matrices
