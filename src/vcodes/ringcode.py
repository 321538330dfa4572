"""Linear codes over R = F_q[v]/(v^3 - v).

A code is the R-span of a generator list.  Since R is a 3-dimensional
F_q-algebra, the span is also the F_q-span of {g, v*g, v^2*g}, so every code
wraps the length-3n F_q code of its flattened coordinates
(a0-block | a1-block | a2-block).  That code gives size, membership,
equality and chunked codeword enumeration.  For every q the dual is the F_q
kernel of ``DUAL_FORM`` applied to that basis: lambda(x) = a2 vanishes on
no nonzero ideal (the form has determinant -1), so y is orthogonal to C iff
lambda(c*y) = 0 for every basis word c (Wood, Amer. J. Math. 121, 1999).
The evaluation/CRT components (q odd) serve the component claims and, with
``brute_force_dual``, are the oracles the dual is tested against.

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
from .ring import DUAL_FORM, EVALUATION, GRAY, GRAY_INVERSE, PROJECTIONS, Ring, RingElem


def fq_span_rows(ring: Ring, gens: np.ndarray) -> np.ndarray:
    """F_q rows spanning the R-span of each generator list in a (..., m, n) stack.

    The R-span of g_1..g_m is the F_q-span of all g, then all v*g, then all
    v^2*g; each row is flattened to (a0-block | a1-block | a2-block), so the
    result has shape (..., 3m, 3n).  Column k of ``times(x)`` holds the
    coefficients of v^k * x, so the rows are a transpose of ``times(gens)``.
    """
    lead = gens.ndim - 2
    m, n = gens.shape[-2:]
    # (..., m, n, coefficient, power) -> (..., power, m, coefficient, n)
    products = ring.times(gens).transpose(*range(lead), lead + 3, lead, lead + 2, lead + 1)
    return products.reshape(*gens.shape[:-2], 3 * m, 3 * n)


def _flatten(ring: Ring, rows: np.ndarray) -> np.ndarray:
    """Element-index rows (..., n) as F_q rows (..., 3n): (a0 | a1 | a2) blocks."""
    coeffs = np.swapaxes(ring.coeff[rows], -1, -2)  # (..., 3, n)
    return coeffs.reshape(*rows.shape[:-1], 3 * rows.shape[-1])


def _unflatten(q: int, flat: np.ndarray) -> np.ndarray:
    """F_q rows (..., 3n) as element-index rows (..., n); inverse of ``_flatten``."""
    n = flat.shape[-1] // 3
    flat = flat.astype(np.int64, copy=False)  # indices outgrow a narrow word dtype
    return flat[..., :n] + q * flat[..., n : 2 * n] + q * q * flat[..., 2 * n :]


def _map_symbols(q: int, matrix: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The (..., 3, n) output blocks of a 3x3 symbol map from ``ring`` applied to
    every symbol of F_q rows (..., 3n)."""
    return matrix @ flat.reshape(*flat.shape[:-1], 3, flat.shape[-1] // 3) % q


def flat_dual(ring: Ring, basis: np.ndarray) -> LinearCodeFq:
    """The flattened dual of the R-module whose flattened F_q span has this
    basis: the kernel of ``DUAL_FORM`` applied to every symbol of it."""
    constraints = _map_symbols(ring.q, DUAL_FORM, basis).reshape(basis.shape)
    return LinearCodeFq(ring.field, basis.shape[-1], constraints).dual()


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
        gens = np.array(self.gens, dtype=np.int64).reshape(len(rows), n)
        self.flat = LinearCodeFq(ring.field, 3 * n, fq_span_rows(ring, gens))

    @classmethod
    def _from_flat(cls, ring: Ring, n: int, flat: LinearCodeFq) -> "LinearCodeR":
        """The code whose flattened F_q code is ``flat``, generated by its
        unflattened rows without reducing again.  ``flat`` must be closed
        under multiplication by v, or it is not the R-span of those rows."""
        code = cls.__new__(cls)
        code.ring, code.n, code.flat = ring, n, flat
        code.gens = tuple(map(tuple, _unflatten(ring.q, flat.gen).tolist()))
        return code

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> "LinearCodeR":
        rows = list(rows)
        if not rows:
            raise ShapeError("cannot infer length from an empty generator list")
        return cls(ring, len(rows[0]), rows)

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

    def codeword_chunks(self, budget: int = DEFAULT_BUDGET):
        """Yield (rows, n) arrays of element indices; zero word comes first."""
        for flat in self.flat.codeword_chunks(budget):
            yield _unflatten(self.ring.q, flat)

    def codewords(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """All codewords as element-index rows, sorted lexicographically."""
        rows = np.concatenate(list(self.codeword_chunks(budget)), axis=0)
        return rows[np.lexsort(rows.T[::-1])] if self.n else rows  # n = 0: the empty word, no sort keys

    def contains(self, row) -> bool:
        ring = self.ring
        vec = np.array(_as_index_row(ring, row), dtype=np.int64)
        return self.flat.contains(_flatten(ring, vec))

    # ---- structure maps ----

    def _components(self, matrix: np.ndarray, provenance: str) -> "ComponentTriple":
        """The images of C under the rows of an F_q-linear symbol map, which
        the images of its F_q basis span."""
        blocks = _map_symbols(self.ring.q, matrix, self.flat.gen)
        codes = (LinearCodeFq(self.ring.field, self.n, blocks[:, i]) for i in range(3))
        return ComponentTriple(*codes, provenance)

    def components_crt(self) -> "ComponentTriple":
        """Evaluation components (at v=1, v=-1, v=0); q odd only."""
        if self.ring.q % 2 == 0:
            raise CharacteristicTwoUnsupported("evaluation components need odd q")
        return self._components(EVALUATION, "crt")

    def components_paper(self) -> "ComponentTriple":
        """Literal projections a, a+b, a+b+c of the printed definition."""
        return self._components(PROJECTIONS, "paper-literal")

    def gray_basis(self) -> np.ndarray:
        """Psi of each flattened basis row, as (dim_fq, 3n) field rows.

        Psi is bijective on each symbol, so these rows are independent and
        span Psi(C) without another row reduction.
        """
        return _map_symbols(self.ring.q, GRAY, self.flat.gen).reshape(self.dim_fq, 3 * self.n)

    def gray_image(self) -> LinearCodeFq:
        """The F_q code Psi(C) of length 3n, blocks (a0 | a0+a2 | a1)."""
        return LinearCodeFq(self.ring.field, 3 * self.n, self.gray_basis())

    def minimum_lee_words(self, budget: int = DEFAULT_BUDGET) -> tuple[int, np.ndarray]:
        """Minimum Lee weight d and every codeword of weight d.

        Read off the Gray image (Lee weight is the Hamming weight of Psi):
        a Gray word (g0 | g1 | g2) has flattened coordinates
        (g0 | g2 | g1 - g0).  Rows are element indices in the order
        ``codeword_chunks`` yields them: sorted flattened words, since the
        flattened generator is in RREF.
        """
        d, words = self.gray_image().minimum_words(budget)
        q = self.ring.q
        flat = _map_symbols(q, GRAY_INVERSE, words).reshape(words.shape)
        return d, _unflatten(q, flat[np.lexsort(flat.T[::-1])])

    def gray_words(self, rows: np.ndarray) -> np.ndarray:
        """Gray images of element-index rows, as (m, 3n) field arrays."""
        gray = _map_symbols(self.ring.q, GRAY, _flatten(self.ring, rows))
        return gray.reshape(len(rows), 3 * self.n)

    # ---- duals ----

    def dot(self, x, y) -> int:
        """Ring inner product of two element-index rows: sum_j times(x_j) @ coeff(y_j)."""
        ring = self.ring
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        return ring.index(*np.einsum("jab,jb->a", ring.times(x), ring.coeff[y]).tolist())

    def brute_force_dual(self, budget: int = DEFAULT_BUDGET) -> "LinearCodeR":
        """All of R^n filtered for orthogonality to every generator.

        <g, y> for a flattened word y is the (3, 3n) form of g, whose block j
        is ``times(g_j)``; the forms of all m generators stack into one
        (3m, 3n) matrix that tests a chunk of flattened words in one product.
        The dual words are folded into a running F_q basis of their span, the
        flattened dual, and the code is built from its unflattened rows.
        """
        ring = self.ring
        ambient = ring.size**self.n
        if ambient > budget:
            raise SearchSpaceTooLarge(f"ambient {ambient} exceeds budget {budget}")
        gens = np.array(self.gens, dtype=np.int64).reshape(len(self.gens), self.n)
        forms = ring.times(gens).transpose(0, 2, 3, 1).reshape(3 * len(gens), 3 * self.n)
        forms = forms.T.astype(np.float32)  # a product sums 3n terms below q^2: exact in float32
        basis = np.zeros((0, 3 * self.n), dtype=np.int64)
        for words in LinearCodeFq.full_space(ring.field, 3 * self.n).codeword_chunks(budget):
            products = (words.astype(np.float32) @ forms).astype(np.int32)
            mask = ~(products % ring.q).any(axis=1)
            stack = np.concatenate([basis, words[mask]])[None]
            reduced, ranks, _ = rref_stack(stack, ring.q)
            basis = reduced[0, : ranks[0]]
        return LinearCodeR(ring, self.n, _unflatten(ring.q, basis).tolist())

    def dual(self) -> "LinearCodeR":
        """C^dual as the F_q kernel of ``DUAL_FORM`` on the flattened basis, for every q."""
        kernel = flat_dual(self.ring, self.flat.gen)
        return LinearCodeR._from_flat(self.ring, self.n, kernel)  # the dual is an R-module

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
    if mode == "idempotent":
        if ring.q % 2 == 0:
            raise CharacteristicTwoUnsupported("idempotent combination needs odd q")
        units = (ring.e1, ring.e2, ring.e0)
    elif mode == "paper-literal":
        units = (ring.index(0, 1, 0), ring.index(1, -1, 0), ring.index(1, 0, -1))  # v, 1-v, 1-v^2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # a field scalar u is the ring element of index u, with coefficients (u, 0, 0)
    products = ring.times(np.array(units)) @ ring.coeff[: ring.q].T % ring.q  # [unit, coefficient, u]
    multiples = np.array([1, ring.q, ring.q**2]) @ products  # [unit, u]: the index of u * unit
    gens = np.concatenate([unit_multiples[code.gen] for unit_multiples, code in zip(multiples, triple)])
    return LinearCodeR(ring, n, gens)


def random_code_r(ring: Ring, n: int, rng) -> LinearCodeR:
    """Seeded random R-code used by the verification suites."""
    rows = rng.randrange(1, n + 1)
    gens = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(rows)]
    return LinearCodeR(ring, n, gens)
