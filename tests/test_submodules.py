"""The RREF-basis lattice walks against an independent closure oracle.

Every submodule of R^n with n <= 2 is generated by two vectors, so the
closure spans of all pairs (a, b) are exactly the submodules, and the
shift-closed ones among them are the ideals.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from vcodes.ring import ring_over
from vcodes.ringcode import LinearCodeR
from vcodes import submodules
from vcodes.fieldcode import rref_stack
from vcodes.submodules import AmbientSpace


def _encode(ring, word) -> int:
    return sum(x * ring.size**j for j, x in enumerate(word))


def _oracle(q, n, ideals_only):
    ring = ring_over(q)
    vectors = list(product(range(ring.size), repeat=n))
    spans = set()
    for a, b in combinations_with_replacement(vectors, 2):
        words = LinearCodeR(ring, n, [a, b]).closure_codewords()
        if ideals_only and any(w[-1:] + w[:-1] not in words for w in words):
            continue
        spans.add(frozenset(_encode(ring, w) for w in words))
    return spans


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
    found = [frozenset(map(int, space.members(b))) for b in walk]
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
    keys = []
    for basis in walk:
        # each node is the RREF basis of the code it spans
        assert np.array_equal(space.code(basis).flat.gen, basis)
        members = space.members(basis)
        keys.append((len(members), members.tobytes()))
    assert keys == sorted(keys)


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
    monkeypatch.setattr(submodules, "_MAX_ENTRIES", cap)
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
