"""Linear codes over R = F_q[v]/(v^3 - v).

A code is the R-span of a generator list.  Since R is a 3-dimensional
F_q-algebra, the span is also the F_q-span of {g, v*g, v^2*g}, so every code
wraps the length-3n F_q code of its flattened coordinates
(a0-block | a1-block | a2-block).  That code gives size, membership,
equality and chunked codeword enumeration, and the dual is the kernel of one
F_q matrix, uniformly for every q.  The evaluation/CRT components (q odd)
serve the component claims and, with ``brute_force_dual``, are the oracles
the dual is tested against.

Component codes come in two flavours: the canonical evaluation components
(images of the code under v -> 1, -1, 0) and the literal projections
a, a+b, a+b+c of the printed definition.  Both are kept because the
verification harness measures which one satisfies the published identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    CharacteristicTwoUnsupported,
    EmptyCode,
    ParamMismatch,
    SearchSpaceTooLarge,
    ShapeError,
)
from .fieldcode import LinearCodeFq, rref_stack
from .ring import Ring, RingElem


def fq_span_rows(ring: Ring, gens: np.ndarray) -> np.ndarray:
    """F_q rows spanning the R-span of each generator list in a (..., m, n) stack.

    The R-span of g_1..g_m is the F_q-span of all g, then all v*g, then all
    v^2*g; each row is flattened to (a0-block | a1-block | a2-block), so the
    result has shape (..., 3m, 3n).
    """
    stacked = np.concatenate(
        [gens, ring.mul_table[gens, ring.q], ring.mul_table[gens, ring.q * ring.q]], axis=-2
    )
    return _flatten(ring, stacked)


def _flatten(ring: Ring, rows: np.ndarray) -> np.ndarray:
    """Element-index rows (..., n) as F_q rows (..., 3n): (a0 | a1 | a2) blocks."""
    coeffs = np.swapaxes(ring.coeff[rows], -1, -2)  # (..., 3, n)
    return coeffs.reshape(*rows.shape[:-1], 3 * rows.shape[-1])


def _as_index_row(ring: Ring, row) -> tuple[int, ...]:
    out = []
    for x in row:
        if isinstance(x, RingElem):
            ring.check_same(x.ring)
            out.append(x.idx)
        else:
            out.append(int(x) % ring.size)
    return tuple(out)


class LinearCodeR:
    """The R-span of a list of generator vectors (possibly dependent)."""

    def __init__(self, ring: Ring, n: int, gens):
        self.ring = ring
        self.n = n
        rows = [_as_index_row(ring, g) for g in gens]
        for r in rows:
            if len(r) != n:
                raise ShapeError(f"generator length {len(r)} != n = {n}")
        self.gens = tuple(rows)
        self.flat = LinearCodeFq(ring.field, 3 * n, self._fq_generator_rows())

    def _fq_generator_rows(self) -> np.ndarray:
        """Flattened F_q generators: all g, then all v*g, then all v^2*g."""
        if not self.gens:
            return np.zeros((0, 3 * self.n), dtype=np.int64)
        return fq_span_rows(self.ring, np.array(self.gens, dtype=np.int64))

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> "LinearCodeR":
        rows = list(rows)
        if not rows:
            raise ShapeError("cannot infer length from an empty generator list")
        return cls(ring, len(rows[0]), rows)

    @classmethod
    def zero_code(cls, ring: Ring, n: int) -> "LinearCodeR":
        return cls(ring, n, [])

    @classmethod
    def full_space(cls, ring: Ring, n: int) -> "LinearCodeR":
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            rows.append(row)
        return cls(ring, n, rows)

    @property
    def dim_fq(self) -> int:
        return self.flat.k

    @property
    def size(self) -> int:
        return self.flat.size

    def __eq__(self, other):
        return isinstance(other, LinearCodeR) and self.flat == other.flat

    def __hash__(self):
        return hash(self.flat)

    def __repr__(self):
        return f"LinearCodeR(q={self.ring.q}, n={self.n}, |C|={self.size})"

    # ---- enumeration ----

    def _unflatten(self, flat: np.ndarray) -> np.ndarray:
        q, n = self.ring.q, self.n
        flat = flat.astype(np.int64, copy=False)  # indices outgrow a narrow word dtype
        return flat[:, :n] + q * flat[:, n : 2 * n] + q * q * flat[:, 2 * n :]

    def codeword_chunks(self, budget: int = DEFAULT_BUDGET):
        """Yield (rows, n) arrays of element indices; zero word comes first."""
        for flat in self.flat.codeword_chunks(budget):
            yield self._unflatten(flat)

    def codewords(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """All codewords as element-index rows, sorted lexicographically."""
        rows = np.concatenate(list(self.codeword_chunks(budget)), axis=0)
        order = np.lexsort(rows.T[::-1])
        return rows[order]

    def iter_codewords(self, budget: int = DEFAULT_BUDGET):
        """Stream every codeword exactly once as a tuple of element indices."""
        for rows in self.codeword_chunks(budget):
            for r in rows:
                yield tuple(map(int, r))

    def closure_codewords(self, budget: int = DEFAULT_BUDGET) -> set[tuple[int, ...]]:
        """Span by raw fixpoint closure; the independent oracle for the span."""
        ring = self.ring
        if self.size > budget:
            raise SearchSpaceTooLarge(f"{self.size} codewords exceeds budget {budget}")
        words = {(0,) * self.n}
        for g in self.gens:
            scaled = []
            for r in range(ring.size):
                scaled.append(tuple(int(ring.mul_table[r, gj]) for gj in g))
            words = {
                tuple(int(ring.add_table[wj, sj]) for wj, sj in zip(w, s))
                for w in words
                for s in scaled
            }
        return words

    def contains(self, row) -> bool:
        ring = self.ring
        vec = np.array(_as_index_row(ring, row), dtype=np.int64)
        return self.flat.contains(ring.coeff[vec].T.reshape(-1))

    # ---- structure maps ----

    def components_crt(self) -> "ComponentTriple":
        """Evaluation components (at v=1, v=-1, v=0); q odd only."""
        ring = self.ring
        if ring.q % 2 == 0:
            raise CharacteristicTwoUnsupported("evaluation components need odd q")
        rows = (
            np.array(self.gens, dtype=np.int64)
            if self.gens
            else np.zeros((0, self.n), dtype=np.int64)
        )
        comps = []
        for t in (1, (ring.q - 1) % ring.q, 0):
            comps.append(LinearCodeFq.from_rows(ring.field, self.n, ring.eval_table[t][rows]))
        return ComponentTriple(comps[0], comps[1], comps[2], "crt")

    def components_paper(self) -> "ComponentTriple":
        """Literal projections a, a+b, a+b+c of the printed definition."""
        ring = self.ring
        fq_rows = self.flat.gen
        n = self.n
        a = fq_rows[:, :n]
        b = fq_rows[:, n : 2 * n]
        c = fq_rows[:, 2 * n :]
        q = ring.q
        c1 = LinearCodeFq.from_rows(ring.field, n, a % q)
        c2 = LinearCodeFq.from_rows(ring.field, n, (a + b) % q)
        c3 = LinearCodeFq.from_rows(ring.field, n, (a + b + c) % q)
        return ComponentTriple(c1, c2, c3, "paper-literal")

    def gray_image(self) -> LinearCodeFq:
        """The F_q code Psi(C) of length 3n, blocks (a0 | a0+a2 | a1)."""
        ring = self.ring
        fq_rows = self.flat.gen
        n = self.n
        a0 = fq_rows[:, :n]
        a1 = fq_rows[:, n : 2 * n]
        a2 = fq_rows[:, 2 * n :]
        gray = np.concatenate([a0, (a0 + a2) % ring.q, a1], axis=1)
        return LinearCodeFq.from_rows(ring.field, 3 * n, gray)

    def minimum_lee_words(self, budget: int = DEFAULT_BUDGET) -> tuple[int, np.ndarray]:
        """Minimum Lee weight d and every codeword of weight d.

        Read off the Gray image (Lee weight is the Hamming weight of Psi):
        a Gray word (g0 | g1 | g2) has flattened coordinates
        (g0 | g2 | g1 - g0).  Rows are element indices in the order
        ``codeword_chunks`` yields them: sorted flattened words, since the
        flattened generator is in RREF.
        """
        d, words = self.gray_image().minimum_words(budget)
        n = self.n
        g0, g1, g2 = words[:, :n], words[:, n : 2 * n], words[:, 2 * n :]
        flat = np.concatenate([g0, g2, (g1 - g0) % self.ring.q], axis=1)
        return d, self._unflatten(flat[np.lexsort(flat.T[::-1])])

    def gray_words(self, rows: np.ndarray) -> np.ndarray:
        """Gray images of element-index rows, as (m, 3n) field arrays."""
        g = self.ring.gray_table[rows]  # (m, n, 3)
        return np.concatenate([g[:, :, 0], g[:, :, 1], g[:, :, 2]], axis=1)

    # ---- duals ----

    def dot(self, x, y) -> int:
        """Ring inner product of two element-index rows."""
        ring = self.ring
        acc = 0
        for xi, yi in zip(x, y):
            acc = int(ring.add_table[acc, ring.mul_table[xi, yi]])
        return acc

    def brute_force_dual(self, budget: int = DEFAULT_BUDGET) -> "LinearCodeR":
        """All of R^n filtered for orthogonality to every generator.

        The dual words of each chunk are folded into a running F_q basis of
        their flattened span, which is the flattened dual, and the code is
        built from its at most 3n unflattened rows.
        """
        ring = self.ring
        ambient = ring.size**self.n
        if ambient > budget:
            raise SearchSpaceTooLarge(f"ambient {ambient} exceeds budget {budget}")
        basis = np.zeros((0, 3 * self.n), dtype=np.int64)
        for rows in LinearCodeR.full_space(ring, self.n).codeword_chunks(budget):
            mask = np.ones(rows.shape[0], dtype=bool)
            for g in self.gens:
                acc = np.zeros(rows.shape[0], dtype=np.int64)
                for j, gj in enumerate(g):
                    acc = ring.add_table[acc, ring.mul_table[rows[:, j], gj]]
                mask &= acc == 0
            stack = np.concatenate([basis, _flatten(ring, rows[mask])])[None]
            reduced, ranks, _ = rref_stack(stack, ring.q)
            basis = reduced[0, : ranks[0]]
        return LinearCodeR(ring, self.n, self._unflatten(basis).tolist())

    def dual(self) -> "LinearCodeR":
        """C^dual as the kernel of one F_q matrix, for every q.

        With y = y0 + v*y1 + v^2*y2 coordinatewise, <g, y> is the sum of
        y_k . (v^k g), so its three coefficients are F_q-linear in the
        flattened y and the matrix is a reshape of the flattened generators.
        """
        n = self.n
        rows = self._fq_generator_rows()
        m = rows.shape[0] // 3
        constraints = rows.reshape(3, m, 3, n).transpose(1, 2, 0, 3).reshape(3 * m, 3 * n)
        kernel = LinearCodeFq(self.ring.field, 3 * n, constraints).dual()
        return LinearCodeR(self.ring, n, self._unflatten(kernel.gen).tolist())

    # ---- metrics ----

    def min_lee_distance(
        self, strategy: str = "exhaustive", budget: int = DEFAULT_BUDGET
    ) -> tuple[int, str]:
        """Minimum nonzero Lee weight with the provenance of the number.

        'exhaustive' and 'gray-image' are exact and must agree; the
        'component-lemma' value min{d(C_i)} is a published formula under
        test and is returned tagged, never silently substituted.
        """
        ring = self.ring
        if strategy == "exhaustive":
            if self.dim_fq == 0:
                raise EmptyCode("zero code has no nonzero Lee weight")
            best = 3 * self.n + 1
            for rows in self.codeword_chunks(budget):
                w = ring.lee_table[rows].sum(axis=1)
                nz = w[w > 0]
                if nz.size:
                    best = min(best, int(nz.min()))
                    if best == 1:
                        break
            return best, "exhaustive"
        if strategy == "gray-image":
            return self.gray_image().min_distance(budget), "gray-image"
        if strategy == "component-lemma":
            comps = self.components_crt()
            dists = [c.min_distance(budget) for c in comps if c.k > 0]
            if not dists:
                raise EmptyCode("all components are zero codes")
            return min(dists), "lemma5-based"
        raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class ComponentTriple:
    """F_q component codes of an R-code, with their provenance.

    For 'crt' the slots are the evaluation images at v = 1, -1, 0 in that
    order, recombined by the idempotents e1 = (v+v^2)/2, e2 = (v^2-v)/2,
    e0 = 1-v^2.
    """

    c1: LinearCodeFq
    c2: LinearCodeFq
    c3: LinearCodeFq
    provenance: str

    def __iter__(self):
        return iter((self.c1, self.c2, self.c3))

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.c1.k, self.c2.k, self.c3.k)

    def size_product(self) -> int:
        return self.c1.size * self.c2.size * self.c3.size


def combine_components(ring: Ring, triple: ComponentTriple, mode: str) -> LinearCodeR:
    """Rebuild an R-code from field components.

    'idempotent' uses e1*C1 + e2*C2 + e0*C3 (q odd), the genuine direct-sum
    decomposition.  'paper-literal' spans v*C1, (1-v)*C2, (1-v^2)*C3 as
    printed; those coefficients are not orthogonal idempotents, so this mode
    exists to measure how far the printed identities drift.
    """
    n = triple.c1.n
    if triple.c2.n != n or triple.c3.n != n:
        raise ParamMismatch("components must share the length n")
    gens = []
    if mode == "idempotent":
        if ring.q % 2 == 0:
            raise CharacteristicTwoUnsupported("idempotent combination needs odd q")
        slots = (
            (triple.c1, lambda u: ring.crt_table[u % ring.q, 0, 0]),
            (triple.c2, lambda u: ring.crt_table[0, u % ring.q, 0]),
            (triple.c3, lambda u: ring.crt_table[0, 0, u % ring.q]),
        )
        for code, embed in slots:
            for row in code.gen:
                gens.append(tuple(int(embed(int(u))) for u in row))
    elif mode == "paper-literal":
        q = ring.q
        coeff_maps = (
            (triple.c1, lambda u: ring.index(0, u, 0)),          # u * v
            (triple.c2, lambda u: ring.index(u, (-u) % q, 0)),   # u * (1-v)
            (triple.c3, lambda u: ring.index(u, 0, (-u) % q)),   # u * (1-v^2)
        )
        for code, embed in coeff_maps:
            for row in code.gen:
                gens.append(tuple(int(embed(int(u))) for u in row))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LinearCodeR(ring, n, gens)


def random_code_r(ring: Ring, n: int, rng, max_rows: int | None = None) -> LinearCodeR:
    """Seeded random R-code used by the verification suites."""
    rows = rng.randrange(1, (max_rows or n) + 1)
    gens = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(rows)]
    return LinearCodeR(ring, n, gens)
