"""Exhaustive lattices of R-submodules and shift-closed ideals of R^n.

Only viable for tiny ambients (|R|^n up to a few thousand), which is exactly
where the searches that need it live: self-dual cyclic codes at q = 2 and
odd formally self-dual codes at length 1 and 2.  A submodule is held as the
RREF basis of its flattened F_q span (the ``flat.gen`` of its
``LinearCodeR``), so equal submodules have equal bases and
``basis.tobytes()`` is the lattice key.

Every submodule is the join of the cyclic (one-generator) submodules of its
elements, and a join is the RREF of the two stacked bases, so a breadth-first
closure over joins with the deduplicated cyclic spans enumerates the full
lattice; for ideals the cyclic spans are replaced by principal ideals (spans
of all coordinate shifts).  Members, encoded as integers base |R|, are
listed only to order the walk and to spell out a witness.
"""

from __future__ import annotations

import numpy as np

from .errors import SearchSpaceTooLarge
from .fieldcode import LinearCodeFq, rref
from .ring import Ring
from .ringcode import LinearCodeR

_MAX_AMBIENT = 1 << 13


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
        powers = ring.size ** np.arange(n, dtype=np.int64)
        # column j holds the element index at coordinate j
        self.decode = (idx[:, None] // powers[None, :]) % ring.size
        self.vec_shift = np.roll(self.decode, 1, axis=1) @ powers
        # flattened F_q coordinate (block k, position j) -> its share q^k |R|^j
        # of the encoded vector, since element indices are c0 + q c1 + q^2 c2
        q = ring.q
        self.flat_weights = ((q ** np.arange(3))[:, None] * powers[None, :]).reshape(-1)
        # kept empty: bench/layers.py, their only reader, sums their nbytes
        self.vec_add = np.empty(0, dtype=np.int64)
        self.vec_smul = np.empty(0, dtype=np.int64)

    def code(self, basis: np.ndarray) -> LinearCodeR:
        """The R-code whose flattened F_q span has this basis."""
        return LinearCodeR(self.ring, self.n, self.decode[basis @ self.flat_weights])

    def members(self, basis: np.ndarray) -> np.ndarray:
        """Every vector of the span of ``basis``, encoded and sorted."""
        words = LinearCodeFq(self.ring.field, 3 * self.n, basis).codewords()
        return np.sort(words @ self.flat_weights)

    def witness(self, basis: np.ndarray) -> LinearCodeR:
        """The code generated by all its members in encoded order."""
        return LinearCodeR(self.ring, self.n, self.decode[self.members(basis)])

    def cyclic_span(self, a: int) -> np.ndarray:
        """The basis of the submodule R*a."""
        return LinearCodeR(self.ring, self.n, [self.decode[a]]).flat.gen

    def principal_ideal(self, a: int) -> np.ndarray:
        """The basis of the shift-closed submodule generated by a."""
        shifts = [np.roll(self.decode[a], s) for s in range(self.n)]
        return LinearCodeR(self.ring, self.n, shifts).flat.gen

    def join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        reduced, rank, _ = rref(np.concatenate([a, b]), self.ring.q)
        return reduced[:rank]

    def dual_set(self, basis: np.ndarray) -> np.ndarray:
        """The basis of the ring-dot dual of the submodule."""
        return self.code(basis).dual().flat.gen

    def _lattice(self, atoms: list[np.ndarray]) -> list[np.ndarray]:
        zero = np.zeros((0, 3 * self.n), dtype=np.int64)
        seen = {zero.tobytes(): zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for m in frontier:
                for s in atoms:
                    j = self.join(m, s)
                    key = j.tobytes()
                    if key not in seen:
                        seen[key] = j
                        nxt.append(j)
            frontier = nxt

        def order(basis):
            members = self.members(basis)
            return len(members), members.tobytes()

        return sorted(seen.values(), key=order)

    def all_submodules(self) -> list[np.ndarray]:
        """Every R-submodule of R^n, as RREF bases ordered by (size, members)."""
        atoms = {s.tobytes(): s for s in map(self.cyclic_span, range(1, self.size))}
        return self._lattice(list(atoms.values()))

    def all_ideals(self) -> list[np.ndarray]:
        """Every shift-closed submodule (cyclic code) in R^n, likewise."""
        atoms: dict[bytes, np.ndarray] = {}
        done: set[int] = set()
        for a in range(1, self.size):
            if a in done:
                continue
            # dedupe by shift orbit; orbit mates generate the same ideal
            b = a
            for _ in range(self.n):
                done.add(b)
                b = int(self.vec_shift[b])
            s = self.principal_ideal(a)
            atoms.setdefault(s.tobytes(), s)
        return self._lattice(list(atoms.values()))
