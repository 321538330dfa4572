"""Classical linear codes over GF(q).

A code is held by its generator matrix in reduced row echelon form (a numpy
int array), so two codes are equal exactly when their matrices are equal.
Row reduction has two kernels with the same results: ``rref`` reduces one
small matrix row by row, and ``rref_stack`` reduces a whole (B, r, c) stack
one column at a time with numpy, for the lattice walks' batched joins and for
tall matrices such as the brute-force dual's chunks of words.
The exact minimum distance comes from the Brouwer-Zimmermann algorithm over
several information sets, which certifies every codeword while enumerating
only low-weight messages.  Weight distributions come from full message-space
enumeration, which is also the oracle the distance is tested against.  It
splits the generator into high and low rows: the low rows' words are
tabulated once, at most ``_CHUNK_ROWS`` of them, and each chunk adds a block
of high words to that half table, so memory does not grow with the
dimension.  Words come in message order, in the narrowest signed dtype that
holds GF(q) (int8 up to q = 128), and digit sums are reduced by subtracting
q instead of ``% q``.  Both stop with SearchSpaceTooLarge past a codeword
budget.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DEFAULT_BUDGET, EmptyCode, NotADivisor, SearchSpaceTooLarge, ShapeError
from .gf import GF, Poly, monic_divisors_of_xn_minus_1
from . import wenum

_CHUNK_ROWS = 1 << 14


def rref(mat: np.ndarray, q: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form over GF(q): (matrix, rank, pivot columns)."""
    m = np.array(mat, dtype=np.int64) % q
    if m.ndim != 2:
        raise ShapeError("matrix must be two-dimensional")
    nrows, ncols = m.shape
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i, c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        m[r] = (m[r] * pow(int(m[r, c]), q - 2, q)) % q
        for i in range(nrows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % q
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, r, pivots


def rref_stack(stack: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rref`` of every matrix of a (B, r, c) stack, one column at a time.

    Each column is pivoted across the whole batch with numpy, so the cost is
    c vectorized steps however large B is.  Zero rows may sit anywhere, so
    zero-padded matrices reduce like their unpadded selves.  Returns the
    reduced stack (matrix b equals ``rref(stack[b], q)[0]``), the (B,) ranks
    and a (B, r) array whose row b starts with the pivot columns of matrix b
    and is padded with -1.
    """
    m = np.array(stack, dtype=np.int64) % q
    if m.ndim != 3:
        raise ShapeError("stack must be three-dimensional")
    batch, nrows, ncols = m.shape
    inverse = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)
    ranks = np.zeros(batch, dtype=np.int64)
    pivots = np.full((batch, nrows), -1, dtype=np.int64)
    rows = np.arange(nrows)
    for c in range(ncols):
        candidates = (m[:, :, c] != 0) & (rows[None, :] >= ranks[:, None])
        hit = np.flatnonzero(candidates.any(axis=1))
        if not hit.size:
            continue
        # in each matrix with a pivot in column c, move the first candidate
        # row to position rank, scale it to a leading 1 and clear column c
        first = candidates[hit].argmax(axis=1)
        target = ranks[hit]
        sub = m[hit]
        each = np.arange(hit.size)
        pivot_rows = sub[each, first]
        sub[each, first] = sub[each, target]
        pivot_rows = (pivot_rows * inverse[pivot_rows[:, c]][:, None]) % q
        factors = sub[:, :, c].copy()
        factors[each, target] = 0
        sub -= factors[:, :, None] * pivot_rows[:, None, :]
        sub %= q
        sub[each, target] = pivot_rows
        m[hit] = sub
        pivots[hit, target] = c
        ranks[hit] += 1
    return m, ranks, pivots


def _messages(q: int, k: int, start: int, stop: int) -> np.ndarray:
    """Message vectors start..stop-1 in lexicographic (base-q counting) order."""
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    powers = q ** np.arange(k - 1, -1, -1, dtype=np.int64)[None, :]
    return (idx // powers) % q


def _word_dtypes(q: int) -> tuple[np.dtype, np.dtype]:
    """The narrowest signed dtype for words over GF(q) and its unsigned twin.

    The twin holds the sum 2q - 2 of two digits, which ``_add_mod`` needs
    before it reduces.
    """
    size = next(size for size in (1, 2, 4, 8) if q <= 1 << (8 * size - 1))
    return np.dtype(f"i{size}"), np.dtype(f"u{size}")


def _add_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """(a + b) mod q for broadcastable unsigned arrays of digits, without ``%``.

    A sum s < q wraps past 2q - 2 when q is subtracted, so min(s, s - q)
    is s mod q.
    """
    total = a + b
    return np.minimum(total, total - q, out=total)


def _span_table(rows: np.ndarray, q: int, dtype: np.dtype) -> np.ndarray:
    """All q^len(rows) combinations of ``rows`` in message order, as ``dtype``.

    Each row appends one digit as the new least significant one.
    """
    n = rows.shape[1]
    multiples = ((np.arange(q)[None, :, None] * rows[:, None, :]) % q).astype(dtype)
    table = np.zeros((1, n), dtype=dtype)
    for row_multiples in multiples:
        table = _add_mod(table[:, None, :], row_multiples[None, :, :], q).reshape(q * len(table), n)
    return table


def _information_sets(gen: np.ndarray, q: int) -> list[tuple[np.ndarray, int]]:
    """Greedy information sets of a full-rank generator.

    Each set row-reduces the generator with the columns no earlier set used
    placed first, so it takes as many new pivot columns as their rank allows.
    Returns (systematic generator in the original column order, relative
    rank = number of new pivots) pairs; the first set is the RREF itself.
    """
    n = gen.shape[1]
    used = np.zeros(n, dtype=bool)
    sets = []
    while not used.all():
        order = np.concatenate([np.flatnonzero(~used), np.flatnonzero(used)])
        reduced, _, pivots = rref(gen[:, order], q)
        cols = order[pivots]
        new = int(np.count_nonzero(~used[cols]))
        if not new:
            break
        systematic = np.empty_like(reduced)
        systematic[:, order] = reduced
        sets.append((systematic, new))
        used[cols] = True
    return sets


def _weight_w_codewords(systematic: np.ndarray, q: int, w: int):
    """Yield the codewords of every message of Hamming weight w, in chunks."""
    k, n = systematic.shape
    values = _messages(q - 1, w, 0, (q - 1) ** w) + 1  # every nonzero w-tuple
    step = max(1, _CHUNK_ROWS // len(values))
    supports = itertools.combinations(range(k), w)
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(supports, step)), dtype=np.int64
        ).reshape(-1, w)
        if not block.size:
            return
        words = np.einsum("vt,stn->svn", values, systematic[block]) % q
        yield words.reshape(-1, n)


class LinearCodeFq:
    """An [n, k] linear code over GF(q), generator matrix in RREF."""

    def __init__(self, field: GF, n: int, gen: np.ndarray):
        self.field = field
        self.n = n
        gen = np.asarray(gen, dtype=np.int64)
        # numpy cannot infer -1 next to a zero-length axis; length 0 is {()}
        gen = gen.reshape(-1, n) if n else np.zeros((0, 0), dtype=np.int64)
        reduced, rank, pivots = rref(gen, field.q)
        self.gen = reduced[:rank]
        self.k = rank
        self.pivots = pivots

    @classmethod
    def from_rows(cls, field: GF, n: int, rows) -> "LinearCodeFq":
        rows = list(rows)
        if not rows:
            return cls(field, n, np.zeros((0, n), dtype=np.int64))
        arr = np.array(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != n:
            raise ShapeError(f"rows must all have length {n}")
        return cls(field, n, arr)

    @classmethod
    def full_space(cls, field: GF, n: int) -> "LinearCodeFq":
        return cls(field, n, np.eye(n, dtype=np.int64))

    @classmethod
    def zero_code(cls, field: GF, n: int) -> "LinearCodeFq":
        return cls(field, n, np.zeros((0, n), dtype=np.int64))

    @property
    def size(self) -> int:
        return self.field.q**self.k

    def __eq__(self, other):
        return (
            isinstance(other, LinearCodeFq)
            and self.field == other.field
            and self.n == other.n
            and self.gen.shape == other.gen.shape
            and bool((self.gen == other.gen).all())
        )

    def __hash__(self):
        return hash((self.field.q, self.n, self.gen.tobytes()))

    def __repr__(self):
        return f"LinearCodeFq(q={self.field.q}, n={self.n}, k={self.k})"

    def reduce_vector(self, vec) -> np.ndarray:
        """Residue of vec after elimination by the generator rows."""
        v = np.array(vec, dtype=np.int64) % self.field.q
        for row, col in enumerate(self.pivots):
            if v[col]:
                v = (v - v[col] * self.gen[row]) % self.field.q
        return v

    def contains(self, vec) -> bool:
        return not self.reduce_vector(vec).any()

    def dual(self) -> "LinearCodeFq":
        """Kernel of the generator matrix, dimension n - k."""
        q = self.field.q
        free = [c for c in range(self.n) if c not in self.pivots]
        rows = np.zeros((len(free), self.n), dtype=np.int64)
        for i, f in enumerate(free):
            rows[i, f] = 1
            for r, c in enumerate(self.pivots):
                rows[i, c] = (-self.gen[r, f]) % q
        return LinearCodeFq.from_rows(self.field, self.n, rows)

    def codeword_chunks(self, budget: int = DEFAULT_BUDGET):
        """Yield codewords in message order, at most ``_CHUNK_ROWS`` per chunk.

        The last k2 generator rows span a half table of q^k2 <= _CHUNK_ROWS
        low words; each chunk adds a block of high words (messages over the
        first k1 = k - k2 rows) to every low word, so message i*q^k2 + j is
        high word i plus low word j.  Words come in the signed dtype of
        ``_word_dtypes(q)``.
        """
        q, n = self.field.q, self.n
        if self.size > budget:
            raise SearchSpaceTooLarge(f"{self.size} codewords exceeds budget {budget}")
        k2 = 0
        while k2 < self.k and q ** (k2 + 1) <= _CHUNK_ROWS:
            k2 += 1
        k1 = self.k - k2
        dtype, unsigned = _word_dtypes(q)
        low = _span_table(self.gen[k1:], q, unsigned)
        step = _CHUNK_ROWS // len(low)
        for start in range(0, q**k1, step):
            msgs = _messages(q, k1, start, min(start + step, q**k1))
            high = ((msgs @ self.gen[:k1]) % q).astype(unsigned)
            words = _add_mod(high[:, None, :], low[None, :, :], q)
            yield words.reshape(len(high) * len(low), n).view(dtype)

    def codewords(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        return np.concatenate(list(self.codeword_chunks(budget)), axis=0)

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        """Exact minimum Hamming weight (Brouwer-Zimmermann)."""
        return self._brouwer_zimmermann(budget, every_word=False)[0]

    def minimum_words(self, budget: int = DEFAULT_BUDGET) -> tuple[int, np.ndarray]:
        """The minimum distance d and every codeword of weight d.

        The words come sorted, which for an RREF generator is message order,
        the order ``codeword_chunks`` yields them in.
        """
        d, found = self._brouwer_zimmermann(budget, every_word=True)
        return d, np.unique(np.concatenate(found), axis=0)  # sets meet a word more than once

    def _brouwer_zimmermann(self, budget: int, every_word: bool) -> tuple[int, list[np.ndarray]]:
        """Round w enumerates every weight-w message on each information set
        that adds to the lower bound.

        A codeword not met on set j by round w has message weight > w there,
        so at least w+1-(k-r_j) nonzeros in the r_j columns new to set j:
        its weight is at least the sum of those terms over the sets.  Set j
        adds nothing before round k-r_j, so it is first enumerated in that
        round, which also catches up on its lower message weights: skipping
        them outright would leave minimum words unmet.  The search stops once
        the lower bound reaches the least weight met (passes it, when every
        minimum word is wanted), or when round k has met every codeword.
        Returns the distance and, if every_word, chunks holding each minimum
        word at least once.
        """
        if self.k == 0:
            raise EmptyCode("the zero code has no nonzero codeword")
        q, k = self.field.q, self.k
        sets = _information_sets(self.gen, q)
        upper = self.n + 1
        minimum: list[np.ndarray] = []
        enumerated = 0
        for w in range(1, k + 1):
            work = [
                (systematic, u)
                for systematic, r in sets
                if w >= k - r
                for u in range(1 if w == k - r else w, w + 1)
            ]
            enumerated += sum(math.comb(k, u) * (q - 1) ** u for _, u in work)
            if enumerated > budget:
                raise SearchSpaceTooLarge(f"{enumerated} codewords exceeds budget {budget}")
            for systematic, u in work:
                for words in _weight_w_codewords(systematic, q, u):
                    weights = np.count_nonzero(words, axis=1)
                    least = int(weights.min())
                    if least < upper:
                        upper, minimum = least, []
                    if every_word and least == upper:
                        minimum.append(words[weights == upper])
            lower = sum(max(0, w + 1 - (k - r)) for _, r in sets)
            if lower > upper or (lower == upper and not every_word):
                break
        return upper, minimum

    def weight_counts(self, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for words in self.codeword_chunks(budget):
            w = np.count_nonzero(words, axis=1)
            counts += np.bincount(w, minlength=self.n + 1)
        return {i: int(c) for i, c in enumerate(counts) if c}

    def is_cyclic(self) -> bool:
        """True iff the row space is closed under one cyclic right shift."""
        for row in self.gen:
            if not self.contains(np.roll(row, 1)):
                return False
        return True


def hamming_enumerator_fq(code: LinearCodeFq, budget: int = DEFAULT_BUDGET):
    return wenum.WeightEnumerator("hamming", code.n, code.field.q, code.weight_counts(budget))


def cyclic_code_fq(g: Poly, n: int) -> LinearCodeFq:
    """The cyclic code of length n generated by g, which must divide x^n - 1."""
    field = g.field
    if g.is_zero() or not g.divides(Poly.xn_minus_1(field, n)):
        raise NotADivisor(f"{g} does not divide x^{n}-1 over GF({field.q})")
    k = n - g.degree
    rows = np.zeros((max(k, 0), n), dtype=np.int64)
    for i in range(k):
        rows[i, i : i + g.degree + 1] = g.coeffs
    return LinearCodeFq.from_rows(field, n, rows)


def cyclic_dual_generator(g: Poly, n: int) -> Poly:
    """Monic h*(x) = x^deg(h) h(1/x)/h(0) for h = (x^n-1)/g.

    Generates the dual of the cyclic code generated by g.
    """
    field = g.field
    xn1 = Poly.xn_minus_1(field, n)
    if g.is_zero() or not g.divides(xn1):
        raise NotADivisor(f"{g} does not divide x^{n}-1 over GF({field.q})")
    h = xn1 // g
    return h.reciprocal().monic()


def self_dual_cyclic_exists(field: GF, n: int) -> bool:
    """Closed-form criterion: q even and n even."""
    return field.q % 2 == 0 and n % 2 == 0


def self_dual_cyclic_audit(field: GF, n: int) -> dict:
    """Exhaustive check of the criterion over all monic divisors of x^n - 1."""
    witness = None
    tested = 0
    for g in monic_divisors_of_xn_minus_1(field, n):
        tested += 1
        code = cyclic_code_fq(g, n)
        if code == code.dual():
            witness = g
            break
    return {
        "exists": witness is not None,
        "witness": witness,
        "tested": tested,
        "exhausted": witness is None,
        "criterion": self_dual_cyclic_exists(field, n),
    }


def random_code(field: GF, n: int, rng) -> LinearCodeFq:
    """Seeded random code used by the verification suites."""
    rows = rng.randrange(1, n + 1)
    mat = [[rng.randrange(field.q) for _ in range(n)] for _ in range(rows)]
    return LinearCodeFq.from_rows(field, n, mat)
