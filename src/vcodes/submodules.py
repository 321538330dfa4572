"""Exhaustive lattices of R-submodules and shift-closed ideals of R^n.

Only viable for tiny ambients (|R|^n up to a few thousand), which is exactly
where the searches that need it live: self-dual cyclic codes at q = 2 and
odd formally self-dual codes at length 1 and 2.  Vectors are encoded as
single integers base |R| so that whole-subgroup operations are numpy table
lookups.

Every submodule is the join of the cyclic (one-generator) submodules of its
elements, so a breadth-first closure over joins with the deduplicated
cyclic spans enumerates the full lattice; for ideals the cyclic spans are
replaced by principal ideals (spans of all coordinate shifts).
"""

from __future__ import annotations

import numpy as np

from .errors import SearchSpaceTooLarge
from .ring import Ring
from .ringcode import LinearCodeR

_MAX_AMBIENT = 1 << 13


class AmbientSpace:
    """Encoded R^n with vector-level addition / scaling / shift tables."""

    def __init__(self, ring: Ring, n: int, max_size: int = _MAX_AMBIENT):
        size = ring.size**n
        if size > max_size:
            raise SearchSpaceTooLarge(f"ambient |R|^{n} = {size} exceeds {max_size}")
        self.ring = ring
        self.n = n
        self.size = size
        base = ring.size
        idx = np.arange(size, dtype=np.int64)
        powers = base ** np.arange(n, dtype=np.int64)
        # column j holds the element index at coordinate j
        self.decode = (idx[:, None] // powers[None, :]) % base
        enc_dtype = np.int64 if size > 1 << 15 else np.int16
        self.vec_add = np.empty((size, size), dtype=enc_dtype)
        block = max(1, (1 << 22) // max(size, 1))
        for start in range(0, size, block):
            stop = min(start + block, size)
            s = ring.add_table[self.decode[start:stop, None, :], self.decode[None, :, :]]
            self.vec_add[start:stop] = s @ powers
        self.vec_smul = (ring.mul_table[:, self.decode] @ powers).astype(enc_dtype)
        self.vec_shift = (np.roll(self.decode, 1, axis=1) @ powers).astype(np.int64)

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        powers = self.ring.size ** np.arange(self.n, dtype=np.int64)
        return np.asarray(rows, dtype=np.int64) @ powers

    def cyclic_span(self, a: int) -> np.ndarray:
        """The submodule R*a, sorted."""
        return np.unique(self.vec_smul[:, a].astype(np.int64))

    def principal_ideal(self, a: int) -> np.ndarray:
        """The shift-closed submodule generated by a, sorted."""
        span = np.zeros(1, dtype=np.int64)
        g = a
        for _ in range(self.n):
            mults = self.vec_smul[:, g].astype(np.int64)
            span = np.unique(self.vec_add[span[:, None], mults[None, :]].astype(np.int64))
            g = int(self.vec_shift[g])
        return span

    def join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.unique(self.vec_add[a[:, None], b[None, :]].astype(np.int64))

    def dual_set(self, members: np.ndarray) -> np.ndarray:
        """All ambient vectors orthogonal (ring dot) to every member, sorted."""
        dual = LinearCodeR(self.ring, self.n, self.decode[members]).dual()
        return np.sort(self.encode_rows(dual.codewords()))

    def _lattice(self, atoms: list[np.ndarray]) -> list[np.ndarray]:
        seen: dict[bytes, np.ndarray] = {}
        zero = np.zeros(1, dtype=np.int64)
        seen[zero.tobytes()] = zero
        frontier = [zero]
        while frontier:
            nxt = []
            for m in frontier:
                for s in atoms:
                    if np.isin(s, m, assume_unique=True).all():
                        continue
                    j = self.join(m, s)
                    key = j.tobytes()
                    if key not in seen:
                        seen[key] = j
                        nxt.append(j)
            frontier = nxt
        return sorted(seen.values(), key=lambda m: (len(m), m.tobytes()))

    def all_submodules(self) -> list[np.ndarray]:
        """Every R-submodule of R^n, as sorted vector-index arrays."""
        atoms: dict[bytes, np.ndarray] = {}
        for a in range(1, self.size):
            s = self.cyclic_span(a)
            atoms.setdefault(s.tobytes(), s)
        return self._lattice(list(atoms.values()))

    def all_ideals(self) -> list[np.ndarray]:
        """Every shift-closed submodule (cyclic code) in R^n."""
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

    def rows_of(self, members: np.ndarray) -> list[tuple[int, ...]]:
        return [tuple(map(int, r)) for r in self.decode[members]]
