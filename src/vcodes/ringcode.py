"""Linear codes over R = F_q[v]/(v^3 - v).

A code is the R-span of a generator list.  Since R is a 3-dimensional
F_q-algebra, the span is also the F_q-span of {g, v*g, v^2*g}, so every code
wraps the length-3n F_q code of its flattened coordinates
(a0-block | a1-block | a2-block).  That code gives size, membership,
equality and chunked codeword enumeration.  lambda(x) = a2 vanishes on no
nonzero ideal (its Gram matrix ``DUAL_FORM`` has determinant -1), so y is
orthogonal to C iff lambda(c*y) = 0 for every basis word c (Wood, Amer. J.
Math. 121, 1999): iff ``DUAL_FORM`` y lies in the F_q dual of that code,
symbol by symbol.  So each dual, for every q, takes one reduction of the
kernel rows of ``fieldcode._kernel_stack``, per code or per stack.
The evaluation/CRT components (q odd) serve the component claims and, with
``brute_force_dual``, are the oracles the dual is tested against.

Component codes come in two flavours: the canonical evaluation components
(images of the code under v -> 1, -1, 0) and the literal projections
a, a+b, a+b+c of the printed definition.  Both are kept because the
verification harness measures which one satisfies the published identities.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    CharacteristicTwoUnsupported,
    EmptyCode,
    ParamMismatch,
    SearchSpaceTooLarge,
    ShapeError,
)
from .fieldcode import (
    LinearCodeFq,
    _kernel_rows,
    _kernel_stack,
    _pad,
    _positions,
    _reduced_codes,
    _stack_pivots,
    _step,
    rref_stack,
)
from .ring import DUAL_FORM_INVERSE, EVALUATION, GRAY, GRAY_INVERSE, PROJECTIONS, Ring, RingElem


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
    rows = flat[..., 2 * n :].astype(np.int64)  # indices outgrow a narrow word dtype
    for block in (flat[..., n : 2 * n], flat[..., :n]):  # Horner's rule, in place
        rows *= q
        rows += block
    return rows


def _map_symbols(q: int, matrix: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The (..., 3, n) output blocks of a 3x3 symbol map from ``ring`` applied to
    every symbol of F_q rows (..., 3n)."""
    return matrix @ flat.reshape(*flat.shape[:-1], 3, flat.shape[-1] // 3) % q


def _dual_rows(q: int, kernel: np.ndarray) -> np.ndarray:
    """F_q kernel rows (..., 3n) mapped symbol by symbol through ``DUAL_FORM_INVERSE``."""
    return _map_symbols(q, DUAL_FORM_INVERSE, kernel).reshape(kernel.shape)


def flat_dual(ring: Ring, flat: LinearCodeFq) -> LinearCodeFq:
    """The flattened dual of the R-module with flattened code ``flat``: its kernel
    rows through ``_dual_rows``, reduced once."""
    return LinearCodeFq(ring.field, flat.n, _dual_rows(ring.q, _kernel_rows(flat)))


def build_codes(ring: Ring, gens: list[np.ndarray]) -> list["LinearCodeR"]:
    """The R-code of each (m, n) array of element-index generator rows, like
    ``LinearCodeR(ring, n, rows)``: the arrays of each length go zero-padded
    through ``rref_stack`` in batches within ``_MAX_ENTRIES`` entries."""
    codes: list = [None] * len(gens)
    for n, where in _positions(g.shape[1] for g in gens).items():
        step = _step(9 * n * max(len(gens[i]) for i in where))  # 3 flattened rows of 3n entries a generator
        for start in range(0, len(where), step):
            batch = where[start : start + step]
            rows = [gens[i] for i in batch]
            flats = _reduced_codes(ring.field, *rref_stack(fq_span_rows(ring, _pad(rows, n)), ring.q))
            for i, flat in zip(batch, flats):
                codes[i] = LinearCodeR._from_flat(ring, n, flat, gens[i])
    return codes


def fill_duals(ring: Ring, codes: list["LinearCodeR"]) -> None:
    """Fill the ``dual()`` memo of each R-code: the codes of each length go in
    batches whose zero-padded bases give every dual's kernel rows through
    ``_dual_rows``, reduced by one ``rref_stack`` within ``_MAX_ENTRIES``
    entries.  Each result equals the per-code ``flat_dual``."""
    q = ring.q
    for n, where in _positions(code.n for code in codes).items():
        step = _step(9 * n * n)  # a kernel stack is 3n x 3n
        for start in range(0, len(where), step):
            batch = [codes[i] for i in where[start : start + step]]
            gen = _pad([code.flat.gen for code in batch], 3 * n)
            reduced = rref_stack(_dual_rows(q, _kernel_stack(gen, _stack_pivots(gen))), q)
            dual_gens = _unflatten(q, reduced[0])
            for code, dual, rows in zip(batch, _reduced_codes(ring.field, *reduced), dual_gens):
                code._dual = LinearCodeR._from_flat(ring, n, dual, rows[: dual.k])


def _entry_index(ring: Ring, x) -> int:
    if isinstance(x, RingElem):
        ring.check_same(x.ring)
        return x.idx
    if isinstance(x, (int, np.integer)):
        return int(x) % ring.size
    raise ParamMismatch(f"an R-vector entry must be an int or a RingElem, not {type(x).__name__}")


def _index_rows(ring: Ring, rows) -> np.ndarray:
    """R-vector rows as an (m, n) int64 array of element indices mod |R|, from
    an integer array or nested lists; no rows give shape (0, 0).  Every R-vector
    input enters here, and only an object array (``RingElem`` entries) is read
    entry by entry."""
    try:
        grid = np.asarray(rows)
    except ValueError as exc:  # numpy refuses ragged nesting
        raise ShapeError(f"R-vector rows differ in length: {exc}") from None
    if grid.dtype == object:
        grid = np.array([_entry_index(ring, x) for x in grid.flat], dtype=np.int64).reshape(grid.shape)
    elif grid.size and grid.dtype.kind not in "biu":
        raise ParamMismatch(f"R-vector entries must be ints or RingElem, not {grid.dtype}")
    if grid.shape == (0,):
        grid = grid.reshape(0, 0)
    if grid.ndim != 2:
        raise ShapeError(f"R-vector rows must form an (m, n) grid, not shape {grid.shape}")
    return grid.astype(np.int64) % ring.size


class LinearCodeR:
    """The R-span of a list of generator vectors (possibly dependent)."""

    def __init__(self, ring: Ring, n: int, gens):
        if n < 0:
            raise ShapeError(f"code length must be >= 0, not {n}")
        self.ring = ring
        self.n = n
        gens = _index_rows(ring, gens)
        if len(gens) and gens.shape[1] != n:
            raise ShapeError(f"generator length {gens.shape[1]} != n = {n}")
        gens = gens.reshape(len(gens), n)
        self.gens = tuple(map(tuple, gens.tolist()))
        self.flat = LinearCodeFq(ring.field, 3 * n, fq_span_rows(ring, gens))

    @classmethod
    def _from_flat(cls, ring: Ring, n: int, flat: LinearCodeFq, gens=None) -> "LinearCodeR":
        """The code whose flattened F_q code is ``flat``, generated by the
        index rows ``gens`` or else by its unflattened rows, without reducing
        again.  ``flat`` must be the F_q span of the R-span of those rows."""
        code = cls.__new__(cls)
        code.ring, code.n, code.flat = ring, n, flat
        gens = _unflatten(ring.q, flat.gen) if gens is None else gens
        code.gens = tuple(map(tuple, gens.tolist()))
        return code

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> "LinearCodeR":
        rows = list(rows)
        if not rows:
            raise ShapeError("cannot infer length from an empty generator list")
        return cls(ring, len(rows[0]), rows)

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
        vec = _index_rows(ring, [row])[0]
        if len(vec) != self.n:
            raise ShapeError(f"a vector of length {self.n} expected, not {len(vec)}")
        return self.flat.contains(_flatten(ring, vec))

    # ---- structure maps ----

    def _components(self, matrix: np.ndarray) -> tuple[LinearCodeFq, LinearCodeFq, LinearCodeFq]:
        """The images of C under the rows of an F_q-linear symbol map, which
        the images of its F_q basis span."""
        blocks = _map_symbols(self.ring.q, matrix, self.flat.gen)
        return tuple(LinearCodeFq(self.ring.field, self.n, blocks[:, i]) for i in range(3))

    def components_crt(self) -> tuple[LinearCodeFq, LinearCodeFq, LinearCodeFq]:
        """Evaluation components at v = 1, -1, 0, in that order; q odd only.

        They recombine through the idempotents e1 = (v+v^2)/2, e2 = (v^2-v)/2
        and e0 = 1-v^2 (``combine_components`` in 'idempotent' mode).  Kept
        on the code once computed, like ``dual()``.
        """
        if self.ring.q % 2 == 0:
            raise CharacteristicTwoUnsupported("evaluation components need odd q")
        if "_crt" not in vars(self):
            self._crt = self._components(EVALUATION)
        return self._crt

    def components_paper(self) -> tuple[LinearCodeFq, LinearCodeFq, LinearCodeFq]:
        """Literal projections a, a+b, a+b+c of the printed definition."""
        return self._components(PROJECTIONS)

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
        """Gray images of (m, n) element-index rows, as (m, 3n) field arrays."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ShapeError(f"rows of length {self.n} expected, not shape {rows.shape}")
        gray = _map_symbols(self.ring.q, GRAY, _flatten(self.ring, rows))
        return gray.reshape(len(rows), 3 * self.n)

    # ---- duals ----

    def dot(self, x, y) -> int:
        """Ring inner product of two element-index rows: sum_j times(x_j) @ coeff(y_j)."""
        ring = self.ring
        x, y = _index_rows(ring, [x, y])
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
        """C^dual by ``flat_dual``, computed on the first call and kept; it holds no link back to C."""
        if "_dual" not in vars(self):  # the kernel is an R-module
            self._dual = LinearCodeR._from_flat(self.ring, self.n, flat_dual(self.ring, self.flat))
        return self._dual

    # ---- metrics ----

    def min_lee_distance(
        self, strategy: str = "exhaustive", budget: int = DEFAULT_BUDGET
    ) -> tuple[int, str]:
        """Minimum nonzero Lee weight with the strategy that found it.

        'exhaustive' (``lee_table`` summed over each chunk of codewords, which
        stops at the first chunk holding a word of weight 1) and 'gray-image'
        are exact and must agree.
        """
        if strategy == "exhaustive":
            if self.dim_fq == 0:
                raise EmptyCode("zero code has no nonzero Lee weight")
            best = 3 * self.n
            for rows in self.codeword_chunks(budget):
                weights = self.ring.lee_table[rows].sum(axis=1)
                best = int(weights[weights > 0].min(initial=best))
                if best == 1:
                    break
            return best, "exhaustive"
        if strategy == "gray-image":
            return self.gray_image().min_distance(budget), "gray-image"
        raise ParamMismatch(f"unknown strategy {strategy!r}")


def combine_components(ring: Ring, components, mode: str) -> LinearCodeR:
    """Rebuild an R-code from three F_q codes of one length.

    'idempotent' uses e1*C1 + e2*C2 + e0*C3 (q odd), the genuine direct-sum
    decomposition.  'paper-literal' spans v*C1, (1-v)*C2, (1-v^2)*C3 as
    printed; those coefficients are not orthogonal idempotents, so this mode
    exists to measure how far the printed identities drift.
    """
    if len(components) != 3 or len({c.n for c in components}) != 1:
        raise ParamMismatch("combining needs three components that share the length n")
    multiples = _unit_multiples(ring, mode)
    gens = np.concatenate([unit_multiples[c.gen] for unit_multiples, c in zip(multiples, components)])
    return LinearCodeR(ring, components[0].n, gens)


def _unit_multiples(ring: Ring, mode: str) -> np.ndarray:
    """Row i, column u: the index of u times the i-th unit for ``mode``, so the
    index rows of a field row array times that unit are ``row[i][array]``."""
    if mode == "idempotent":
        if ring.q % 2 == 0:
            raise CharacteristicTwoUnsupported("idempotent combination needs odd q")
        units = (ring.e1, ring.e2, ring.e0)
    elif mode == "paper-literal":
        units = (ring.index(0, 1, 0), ring.index(1, -1, 0), ring.index(1, 0, -1))  # v, 1-v, 1-v^2
    else:
        raise ParamMismatch(f"unknown mode {mode!r}")
    # a field scalar u is the ring element of index u, with coefficients (u, 0, 0)
    products = ring.times(np.array(units)) @ ring.coeff[: ring.q].T % ring.q  # [unit, coefficient, u]
    return np.array([1, ring.q, ring.q**2]) @ products


def random_code_r(ring: Ring, n: int, rng) -> LinearCodeR:
    """Seeded random R-code used by the verification suites."""
    rows = rng.randrange(1, n + 1)
    gens = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(rows)]
    return LinearCodeR(ring, n, gens)
