"""Classical linear codes over GF(q).

A code is held by its generator matrix in reduced row echelon form (a numpy
int array), so two codes are equal exactly when their matrices are equal.
Minimum distance and weight distributions come from full message-space
enumeration, chunked so the big desk-scale cases (3^15 codewords) stay
vectorized; there is a hard codeword budget and no cleverness beyond that.
"""

from __future__ import annotations

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


def _messages(q: int, k: int, start: int, stop: int) -> np.ndarray:
    """Message vectors start..stop-1 in lexicographic (base-q counting) order."""
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    powers = q ** np.arange(k - 1, -1, -1, dtype=np.int64)[None, :]
    return (idx // powers) % q


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

    def codeword_chunks(self, budget: int = DEFAULT_BUDGET, chunk_rows: int = _CHUNK_ROWS):
        """Yield codewords as numpy arrays; message 0 (the zero word) first."""
        q = self.field.q
        if self.size > budget:
            raise SearchSpaceTooLarge(f"{self.size} codewords exceeds budget {budget}")
        total = self.size
        for start in range(0, total, chunk_rows):
            stop = min(start + chunk_rows, total)
            msgs = _messages(q, self.k, start, stop)
            yield (msgs @ self.gen) % q if self.k else np.zeros((1, self.n), dtype=np.int64)

    def codewords(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        return np.concatenate(list(self.codeword_chunks(budget)), axis=0)

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        """Exact minimum Hamming weight by exhaustive message enumeration."""
        if self.k == 0:
            raise EmptyCode("the zero code has no nonzero codeword")
        best = self.n + 1
        for words in self.codeword_chunks(budget):
            w = np.count_nonzero(words, axis=1)
            nz = w[w > 0]
            if nz.size:
                best = min(best, int(nz.min()))
                if best == 1:
                    break
        return best

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
    return wenum.HammingEnumerator(code.n, code.field.q, code.weight_counts(budget))


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


def random_code(field: GF, n: int, rng, max_rows: int | None = None) -> LinearCodeFq:
    """Seeded random code used by the verification suites."""
    rows = rng.randrange(1, (max_rows or n) + 1)
    mat = [[rng.randrange(field.q) for _ in range(n)] for _ in range(rows)]
    return LinearCodeFq.from_rows(field, n, mat)
