"""Classical linear codes over GF(q).

A code is held by its generator matrix in reduced row echelon form (a numpy
int array), so two codes are equal exactly when their matrices are equal.
Row reduction has two kernels with the same results: ``rref`` reduces one
small matrix row by row on Python int lists, and ``rref_stack`` reduces a
whole (B, r, c) stack one column at a time with numpy, for batches within
``_MAX_ENTRIES`` entries and tall matrices such as the brute-force dual's
chunks.  ``LinearCodeFq.from_rref`` trusts a basis already in RREF.
The exact minimum distance comes from the Brouwer-Zimmermann algorithm over
several information sets, which certifies every codeword while enumerating
only low-weight messages.  Full message-space enumeration, the oracle the
distance is tested against, splits the generator into high and low rows:
the low rows' words are tabulated once, at most ``_CHUNK_ROWS`` of them,
and each chunk adds a block of high words to that half table, so memory
does not grow with the dimension.  Words come in message order, in the
narrowest signed dtype that holds GF(q) (int8 up to q = 128), and digit
sums are reduced by subtracting q instead of ``% q``.  Weight distributions
(``span_weight_counts``) split the same way but never form a word: the
zero coordinates of high - low are the coordinates where high = low, so
one float32 product of one-hot encoded halves counts them for a whole block.
They count one word per F_q-line, since scaling by a nonzero scalar keeps
the weight, and take a (B, k, N) stack of equal-shape bases as readily as
one basis.  All three stop with SearchSpaceTooLarge past a codeword budget.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DEFAULT_BUDGET, EmptyCode, NotADivisor, ParamMismatch, SearchSpaceTooLarge, ShapeError
from .gf import GF, Poly

_CHUNK_ROWS = 1 << 14
_MAX_ENTRIES = 1 << 14  # entries in one batched reduction; 1 << 16 was no faster on the claims and peaked 2 MB higher


def _int_entries(rows) -> np.ndarray:
    """An integer array or nested lists as an int64 array, without a copy of
    an int64 array: ragged nesting raises ``ShapeError``, and float, string,
    ``None`` or other object entries ``ParamMismatch``; bool and unsigned
    entries pass."""
    try:
        grid = np.asarray(rows)
    except ValueError as exc:  # numpy refuses ragged nesting
        raise ShapeError(f"rows differ in length: {exc}") from None
    if grid.size and grid.dtype.kind not in "biu":
        raise ParamMismatch(f"entries must be ints, not {grid.dtype}")
    return grid.astype(np.int64, copy=False)


def rref(mat: np.ndarray, q: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form over GF(q): (matrix, rank, pivot columns)."""
    m = _int_entries(mat) % q
    if m.ndim != 2:
        raise ShapeError("matrix must be two-dimensional")
    rows = m.tolist()
    r = 0
    pivots: list[int] = []
    for c in range(m.shape[1]):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        if top[c] != 1:
            inverse = pow(top[c], q - 2, q)
            top[c:] = [x * inverse % q for x in top[c:]]
        tail = top[c:]  # the pivot row is zero left of column c
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = [(x - f * y) % q for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return np.array(rows, dtype=np.int64).reshape(m.shape), r, pivots


def rref_stack(stack: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rref`` of every matrix of a (B, r, c) stack, one column at a time.

    Each column is pivoted across the whole batch with numpy, so the cost is
    c vectorized steps however large B is.  Zero rows may sit anywhere, so
    zero-padded matrices reduce like their unpadded selves.  Returns the
    reduced stack (matrix b equals ``rref(stack[b], q)[0]``), the (B,) ranks
    and a (B, r) array whose row b starts with the pivot columns of matrix b
    and is padded with -1.
    """
    m = _int_entries(stack) % q
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


def _step(entries: int) -> int:
    """How many matrices of ``entries`` entries one ``rref_stack`` batch may hold."""
    return max(1, _MAX_ENTRIES // max(1, entries))  # n = 0 has empty matrices


def _positions(keys) -> dict:
    """The positions of each key in ``keys``, keys in first-seen order: the
    members of a mixed list that may share one stack."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _reduced_codes(field: GF, reduced: np.ndarray, ranks: np.ndarray, pivots: np.ndarray) -> list["LinearCodeFq"]:
    """The code of each matrix of an ``rref_stack`` result; each copies its
    rows, so the stack is freed with the batch."""
    return [
        LinearCodeFq.from_rref(field, basis[:rank].copy(), cols[:rank].tolist())
        for basis, rank, cols in zip(reduced, ranks.tolist(), pivots)
    ]


def _stack_pivots(stack: np.ndarray) -> np.ndarray:
    """The (B, r) pivot columns of a zero-padded stack of RREF bases, -1 on padding rows."""
    return np.where(stack.any(axis=2), (stack != 0).argmax(axis=2), -1)


def _pivot_rows(pivots: np.ndarray, ncols: int) -> np.ndarray:
    """(B, r, ncols): row i of matrix b is the unit vector at column pivots[b, i], zero for -1."""
    return (np.asarray(pivots)[..., None] == np.arange(ncols)).astype(np.int64)


def _kernel_stack(stack: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """The kernel rows [I | -A^T] of every RREF basis of a padded (B, r, c) stack,
    as a (B, c, c) stack whose row j is e_j minus column j of the basis placed at
    the pivot columns: 0 at a pivot column j.  Not reduced mod q; rref does that."""
    batch, _, c = stack.shape
    placed = np.zeros((batch, c, c + 1), dtype=np.int64)  # column p holds the basis row with pivot p; column c the padding
    placed[np.arange(batch)[:, None], :, pivots] = stack
    return np.eye(c, dtype=np.int64) - placed[..., :c]


def _kernel_rows(code: "LinearCodeFq") -> np.ndarray:
    """The n - k rows of a code's ``_kernel_stack`` with a 1 on the diagonal, which
    span its dual; the zero rows would only slow the reduction."""
    kernel = _kernel_stack(code.gen[None], np.array([code.pivots], dtype=np.int64))[0]
    return kernel[kernel.diagonal().astype(bool)]


def _shift_closed(stack: np.ndarray, pivots: np.ndarray, q: int, blocks: int = 1) -> np.ndarray:
    """Whether each RREF basis of a padded (B, r, c) stack spans a code closed
    under the cyclic right shift of each of its ``blocks`` column blocks: the
    residue of the shifted rows (``reduce_vector`` over the stack) is zero."""
    batch, r, c = stack.shape
    shifted = np.roll(stack.reshape(batch, r, blocks, c // blocks), 1, axis=3).reshape(stack.shape)
    coords = shifted @ np.swapaxes(_pivot_rows(pivots, c), 1, 2)  # shifted[..., pivots]
    return ~((shifted - coords @ stack) % q).any(axis=(1, 2))


def _pad(bases: list[np.ndarray], width: int) -> np.ndarray:
    """Bases of any ranks as one zero-padded (len, max rank, width) stack."""
    stack = np.zeros((len(bases), max(map(len, bases), default=0), width), dtype=np.int64)
    for i, basis in enumerate(bases):
        stack[i, : len(basis)] = basis
    return stack


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


def _table_rows(q: int, k: int, limit: int) -> int:
    """The most of k rows whose q^rows words number at most ``limit``."""
    return max((rows for rows in range(1, k + 1) if q**rows <= limit), default=0)


def _check_budget(q: int, k: int, budget: int) -> None:
    size = q**k
    if size > budget:
        raise SearchSpaceTooLarge(f"{size} codewords exceeds budget {budget}")


def _span_halves(basis: np.ndarray, q: int, k2: int, dtype: np.dtype, budget: int):
    """The q^k2 words of the last k2 of k independent ``basis`` rows, as
    ``dtype`` in message order, and an iterator over blocks of at most
    ``_CHUNK_ROWS // q^k2`` words of the first k - k2 rows: message
    i*q^k2 + j is high word i plus low word j."""
    _check_budget(q, len(basis), budget)
    k1 = len(basis) - k2
    low = _span_table(basis[k1:], q, dtype)
    step = _CHUNK_ROWS // len(low)
    highs = (
        ((_messages(q, k1, start, min(start + step, q**k1)) @ basis[:k1]) % q).astype(dtype)
        for start in range(0, q**k1, step)
    )
    return low, highs


def _line_messages(q: int, k: int, start: int, stop: int) -> np.ndarray:
    """Messages start..stop-1, in lexicographic order, of the (q^k - 1)/(q - 1)
    length-k messages whose leading nonzero digit is 1: one per F_q-line.
    As base-q numbers they fill [q^j, 2q^j) for j = 0..k-1, and message t
    is q^j + t - firsts[j] for the last j with firsts[j] <= t."""
    firsts = (q ** np.arange(k + 1, dtype=np.int64) - 1) // (q - 1)  # lines before [q^j, 2q^j)
    idx = np.arange(start, stop, dtype=np.int64)
    j = np.searchsorted(firsts, idx, side="right") - 1
    return ((q**j + idx - firsts[j])[:, None] // q ** np.arange(k - 1, -1, -1, dtype=np.int64)) % q


def _one_hot_words(messages: np.ndarray, rows: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """The words messages @ rows mod q for a float32 (m, k) message block
    and a (B, k, N) stack, one-hot encoded by the rows of the (q, q)
    identity ``eye`` as a (B, m, N*q) float32 array; the float32 product is
    exact while k (q-1)^2 < 2^24."""
    q = len(eye)
    sums = (messages @ rows.astype(np.float32)).astype(np.intp)
    sums %= q
    return np.take(eye, sums, axis=0).reshape(*sums.shape[:2], sums.shape[2] * q)


def span_weight_counts(basis: np.ndarray, q: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Entry w counts the words of weight w in the GF(q) span of k
    independent rows of length N; for a (B, k, N) stack of bases, row b of
    the (B, N + 1) result counts the span of basis b.

    No word is formed: high - low has weight N - #{c : high_c = low_c}, so a
    block of one-hot encoded high words, (block, N*q) float32, times the
    one-hot low table counts the zeros of every pair, exactly while
    N < 2^24.  As low runs over a subspace, high - low runs over the words
    high + low.  The table takes at most ceil(k/2) rows and _CHUNK_ROWS / 16
    words.  Scaling by c in F_q^* keeps a weight and maps high + low onto
    c*high + c*low, so only one high message per F_q-line is paired, the one
    with leading digit 1, and its pairs count q - 1 times; the low words
    themselves (high message zero) count once.  The high messages are made
    and encoded a block of several products at a time, and each product
    holds at most ``_CHUNK_ROWS`` pairs, over as many bases of the stack as
    fit, so memory does not grow with k.
    """
    stack = basis[None] if basis.ndim == 2 else basis
    batch, k, n = stack.shape
    _check_budget(q, k, budget)
    k2 = _table_rows(q, (k + 1) // 2, _CHUNK_ROWS // 16)
    k1 = k - k2
    lows = _messages(q, k2, 0, q**k2).astype(np.float32)
    lines = (q**k1 - 1) // (q - 1)  # high messages paired, one per F_q-line
    bases = max(1, _CHUNK_ROWS // (max(1, lines) * len(lows)))  # bases of one product
    step = max(1, _CHUNK_ROWS // len(lows))  # high words of one product
    block = step * max(1, _CHUNK_ROWS // 64 // step)  # high words encoded at once: at most max(step, _CHUNK_ROWS / 64)
    first = _line_messages(q, k1, 0, min(block, lines)).astype(np.float32)  # the only block unless a basis takes several
    eye = np.eye(q, dtype=np.float32)
    zeros = np.zeros((batch, n + 1), dtype=np.int64)  # entry z counts the words with z zero coordinates
    for start in range(0, batch, bases):
        part = stack[start : start + bases]
        offsets = (n + 1) * np.arange(len(part))[:, None, None]
        low = _one_hot_words(lows, part[:, k1:], eye)
        counts = np.bincount((low[..., ::q].sum(axis=2).astype(np.intp) + offsets[:, 0]).ravel(), minlength=offsets.size * (n + 1))
        for h in range(0, lines, block):
            messages = first if h == 0 else _line_messages(q, k1, h, min(h + block, lines)).astype(np.float32)
            high = np.swapaxes(_one_hot_words(messages, part[:, :k1], eye), 1, 2)
            for s in range(0, len(messages), step):
                matches = low @ high[..., s : s + step]
                counts += (q - 1) * np.bincount((matches.astype(np.intp) + offsets).ravel(), minlength=counts.size)
        zeros[start : start + bases] = counts.reshape(len(part), n + 1)
    return zeros[:, ::-1] if basis.ndim == 3 else zeros[0, ::-1]


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


def _field_rows(rows, n: int, empty_rows: bool = False) -> np.ndarray:
    """F_q rows as a (..., n) int64 array through ``_int_entries``.  Every F_q
    row input of ``LinearCodeFq`` enters here, as R rows enter through
    ``ringcode._index_rows``; entries are not reduced (mod q, or mod |R| for
    the index stacks of ``fsd.SignedPermutation.apply``).  A bare [] is no
    rows, shape (0, n), where ``empty_rows`` holds (a generator list), and
    otherwise one vector of length 0."""
    grid = _int_entries(rows)
    if empty_rows and grid.shape == (0,):
        grid = grid.reshape(0, n)
    if grid.shape[-1:] != (n,):
        raise ShapeError(f"rows of length {n} expected, not shape {grid.shape}")
    return grid


class LinearCodeFq:
    """An [n, k] linear code over GF(q), generator matrix in RREF."""

    def __init__(self, field: GF, n: int, gen: np.ndarray):
        if n < 0:
            raise ShapeError(f"code length must be >= 0, not {n}")
        self.field = field
        self.n = n
        reduced, rank, pivots = rref(_field_rows(gen, n, empty_rows=True), field.q)  # rref refuses a stack
        self.gen = reduced[:rank]
        self.k = rank
        self.pivots = pivots

    @classmethod
    def from_rref(cls, field: GF, gen: np.ndarray, pivots: list[int] | None = None) -> "LinearCodeFq":
        """The code of independent rows already in RREF, not reduced again;
        ``pivots`` are read off the rows unless given."""
        code = cls.__new__(cls)
        code.field, code.n, code.gen, code.k = field, gen.shape[1], gen, len(gen)
        if pivots is None:
            pivots = (gen != 0).argmax(axis=1).tolist() if gen.size else []
        code.pivots = pivots
        return code

    @classmethod
    def full_space(cls, field: GF, n: int) -> "LinearCodeFq":
        return cls(field, n, np.eye(n, dtype=np.int64))

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
        """Residue of a vector, or of each row of a stack, after elimination
        by the generator rows: v - v[pivots] G, as G is in RREF."""
        q = self.field.q
        v = _field_rows(vec, self.n) % q
        return (v - v[..., self.pivots] @ self.gen) % q

    def contains(self, vec) -> bool:
        """True iff the vector, or every row of a stack, lies in the code."""
        return not self.reduce_vector(vec).any()

    def dual(self) -> "LinearCodeFq":
        """Kernel of the generator matrix, dimension n - k."""
        return LinearCodeFq(self.field, self.n, _kernel_rows(self))

    def codeword_chunks(self, budget: int = DEFAULT_BUDGET):
        """Yield codewords in message order, at most ``_CHUNK_ROWS`` per chunk.

        The last k2 generator rows span a half table of q^k2 <= _CHUNK_ROWS
        low words; each chunk adds a block of high words (messages over the
        first k1 = k - k2 rows) to every low word, so message i*q^k2 + j is
        high word i plus low word j.  Words come in the signed dtype of
        ``_word_dtypes(q)``.
        """
        q = self.field.q
        dtype, unsigned = _word_dtypes(q)
        low, highs = _span_halves(self.gen, q, _table_rows(q, self.k, _CHUNK_ROWS), unsigned, budget)
        for high in highs:
            words = _add_mod(high[:, None, :], low[None, :, :], q)
            yield words.reshape(len(high) * len(low), self.n).view(dtype)

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
        counts = span_weight_counts(self.gen, self.field.q, budget)
        return {w: c for w, c in enumerate(counts.tolist()) if c}

    def is_cyclic(self) -> bool:
        """True iff the row space is closed under one cyclic right shift;
        kept on the code, where a stack of codes may fill it in bulk."""
        if "_cyclic" not in vars(self):
            self._cyclic = bool(_shift_closed(self.gen[None], [self.pivots], self.field.q)[0])
        return self._cyclic


def cyclic_code_fq(g: Poly, n: int) -> LinearCodeFq:
    """The cyclic code of length n generated by g, which must divide x^n - 1."""
    _cofactor(g, n)  # raises NotADivisor
    return LinearCodeFq(g.field, n, _shift_rows(g, n))


def _shift_rows(g: Poly, n: int) -> np.ndarray:
    """The (n - deg g) x n matrix of the shifts of g, for a g known to divide x^n - 1."""
    k = n - g.degree
    rows = np.zeros((max(k, 0), n), dtype=np.int64)
    for i in range(k):
        rows[i, i : i + g.degree + 1] = g.coeffs
    return rows


def _cofactor(g: Poly, n: int) -> Poly:
    """(x^n - 1)/g by one division; raises NotADivisor unless g divides x^n - 1."""
    if not g.is_zero():
        h, rem = divmod(Poly.xn_minus_1(g.field, n), g)
        if rem.is_zero():
            return h
    raise NotADivisor(f"{g} does not divide x^{n}-1 over GF({g.field.q})")


def cyclic_dual_generator(g: Poly, n: int) -> Poly:
    """Monic h*(x) = x^deg(h) h(1/x)/h(0) for h = (x^n-1)/g.

    Generates the dual of the cyclic code generated by g.
    """
    return _cofactor(g, n).reciprocal().monic()
