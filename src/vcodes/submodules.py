"""Exhaustive lattices of R-submodules and shift-closed ideals of R^n.

Only viable for tiny ambients (|R|^n up to a few thousand), which is exactly
where the searches that need it live: self-dual cyclic codes at q = 2 and
odd formally self-dual codes at length 1 and 2.  A submodule is held as the
RREF basis of its flattened F_q span (the ``flat.gen`` of its
``LinearCodeR``), so equal submodules have equal bases and
``basis.tobytes()`` is the lattice key.

R is the product of the rings e*R over its primitive idempotents e
(``Ring.idempotents``), so a submodule M of R^n is the direct sum of the
submodules e*M of e*R^n, each shift-closed when M is.  A factor lattice is
the closure of the zero node under joins with its atoms, walked
breadth-first: the deduplicated cyclic spans of the vectors of e*R^n, or
for ideals their principal ideals, one per shift orbit.  The product joins
every node of one factor with every node of the next, and each pair is a
new node.  Joins run in batches: a zero-padded stack within
``fieldcode._MAX_ENTRIES`` entries reduced by one ``rref_stack`` call, so
memory stays flat however large the level.  The walk is sorted by (rank,
flattened RREF entries), so smaller submodules come first, and no node's
members are ever listed.
"""

from __future__ import annotations

import numpy as np

from .errors import SearchSpaceTooLarge
from .fieldcode import LinearCodeFq, _pad, _step, rref_stack
from .ring import Ring
from .ringcode import LinearCodeR, _flatten, _map_symbols, flat_dual, fq_span_rows

_MAX_AMBIENT = 1 << 13


def _collect(stack: np.ndarray, seen: dict[bytes, np.ndarray]) -> list[np.ndarray]:
    """Add each basis of a reduced stack to ``seen``; returns those new to it."""
    new = []
    for matrix, rank in zip(stack, stack.any(axis=2).sum(axis=1)):
        basis = matrix[:rank]
        key = basis.tobytes()
        if key not in seen:
            seen[key] = basis = basis.copy()
            new.append(basis)
    return new


class AmbientSpace:
    """R^n with vectors encoded base |R| and submodules held as F_q bases."""

    def __init__(self, ring: Ring, n: int):
        size = ring.size**n
        if size > _MAX_AMBIENT:
            raise SearchSpaceTooLarge(f"ambient |R|^{n} = {size} exceeds {_MAX_AMBIENT}")
        self.ring = ring
        self.n = n
        self.size = size
        idx = np.arange(size, dtype=np.int64)
        self.powers = ring.size ** np.arange(n, dtype=np.int64)
        # column j holds the element index at coordinate j
        self.decode = (idx[:, None] // self.powers[None, :]) % ring.size
        self.vec_shift = np.roll(self.decode, 1, axis=1) @ self.powers
        # kept empty: bench/layers.py, their only reader, sums their nbytes
        self.vec_add = np.empty(0, dtype=np.int64)
        self.vec_smul = np.empty(0, dtype=np.int64)

    def code(self, basis: np.ndarray) -> LinearCodeR:
        """The R-code whose flattened F_q span has this basis."""
        return LinearCodeR._from_flat(self.ring, self.n, LinearCodeFq.from_rref(self.ring.field, basis))

    def cyclic_span(self, indices: np.ndarray) -> np.ndarray:
        """The reduced (len, 3, 3n) stack of the submodules R*a, a in indices."""
        gens = self.decode[indices][:, None, :]
        return rref_stack(fq_span_rows(self.ring, gens), self.ring.q)[0]

    def principal_ideal(self, indices: np.ndarray) -> np.ndarray:
        """The reduced (len, 3n, 3n) stack of the ideals generated by each a."""
        vectors = self.decode[indices]
        shifts = np.stack([np.roll(vectors, s, axis=1) for s in range(self.n)], axis=1)
        return rref_stack(fq_span_rows(self.ring, shifts), self.ring.q)[0]

    def join(self, nodes: np.ndarray, atoms: np.ndarray) -> np.ndarray:
        """The reduced (F*A, r+s, 3n) stack of every node joined with every atom.

        ``nodes`` is an (F, r, 3n) and ``atoms`` an (A, s, 3n) zero-padded
        stack of bases; the pairs come node by node, atoms in order.
        """
        pairs = np.concatenate(
            [np.repeat(nodes, len(atoms), axis=0), np.tile(atoms, (len(nodes), 1, 1))], axis=1
        )
        return rref_stack(pairs, self.ring.q)[0]

    def dual_set(self, basis: np.ndarray) -> np.ndarray:
        """The basis of the ring-dot dual of the submodule, in one reduction."""
        return flat_dual(self.ring, LinearCodeFq.from_rref(self.ring.field, basis)).gen

    def _atoms(self, span, indices: np.ndarray, rows: int) -> np.ndarray:
        """The distinct bases ``span`` gives for the indices, as a padded stack."""
        seen: dict[bytes, np.ndarray] = {}
        atoms = []
        step = _step(rows * 3 * self.n)
        for start in range(0, len(indices), step):
            atoms += _collect(span(indices[start : start + step]), seen)
        return _pad(atoms, 3 * self.n)

    def _joins(self, nodes: np.ndarray, atoms: np.ndarray):
        """Every node joined with every atom, as reduced batches within ``_MAX_ENTRIES``."""
        pairs = _step((nodes.shape[1] + atoms.shape[1]) * 3 * self.n)
        atom_step = max(1, min(len(atoms), pairs))  # a factor of R^0 has no atoms
        node_step = max(1, pairs // atom_step)
        for i in range(0, len(nodes), node_step):
            for j in range(0, len(atoms), atom_step):
                yield self.join(nodes[i : i + node_step], atoms[j : j + atom_step])

    def _closure(self, atoms: np.ndarray) -> list[np.ndarray]:
        """Every join of some of the atoms, the zero node included."""
        zero = np.zeros((0, 3 * self.n), dtype=np.int64)
        seen = {zero.tobytes(): zero}
        frontier = [zero]
        while frontier:
            nodes = _pad(frontier, 3 * self.n)
            frontier = []
            for joined in self._joins(nodes, atoms):
                frontier += _collect(joined, seen)
        return list(seen.values())

    def _lattice(self, span, indices: np.ndarray, rows: int) -> list[np.ndarray]:
        """The product of the lattices of the e*R^n, ordered by (rank, RREF entries).

        ``span`` gives the atoms of a factor from the indices that lie in it.
        """
        vectors = _flatten(self.ring, self.decode[indices])
        factors = []
        for e in self.ring.idempotents:
            scaled = _map_symbols(self.ring.q, self.ring.times(e), vectors).reshape(vectors.shape)
            inside = (scaled == vectors).all(axis=1)  # e*x = x
            factors.append(self._closure(self._atoms(span, indices[inside], rows)))
        nodes = factors[0]
        for factor in factors[1:]:
            # e*R^n meets the earlier factors only in 0, so every pair is a new node
            product: dict[bytes, np.ndarray] = {}
            for joined in self._joins(_pad(nodes, 3 * self.n), _pad(factor, 3 * self.n)):
                _collect(joined, product)
            nodes = list(product.values())
        return sorted(nodes, key=lambda basis: (len(basis), basis.ravel().tolist()))

    def all_submodules(self) -> list[np.ndarray]:
        """Every R-submodule of R^n, as RREF bases ordered by (rank, entries)."""
        return self._lattice(self.cyclic_span, np.arange(1, self.size), 3)

    def all_ideals(self) -> list[np.ndarray]:
        """Every shift-closed submodule (cyclic code) in R^n, likewise."""
        # one per shift orbit, its least member; orbit mates generate the same ideal
        vectors = shifted = least = np.arange(self.size)
        for _ in range(self.n - 1):
            shifted = self.vec_shift[shifted]
            least = np.minimum(least, shifted)
        indices = np.flatnonzero(least == vectors)[1:]  # the zero vector spans nothing
        return self._lattice(self.principal_ideal, indices, 3 * self.n)
