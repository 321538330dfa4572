"""Slow, independent oracles and test-only helpers that several test modules share."""

from functools import cache

import numpy as np

from vcodes.errors import DEFAULT_BUDGET
from vcodes.fieldcode import LinearCodeFq
from vcodes.ringcode import LinearCodeR


@cache
def ring_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The |R| x |R| product and sum tables of element indices over GF(q),
    from the product written out coefficient by coefficient."""
    idx = np.arange(q**3)
    a0, a1, a2 = idx % q, (idx // q) % q, idx // (q * q)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    x0, x1, x2 = a0[i], a1[i], a2[i]
    b0, b1, b2 = a0[j], a1[j], a2[j]
    # product coefficients after reducing v^3 -> v, v^4 -> v^2
    c0 = (x0 * b0) % q
    c1 = (x0 * b1 + x1 * b0 + x1 * b2 + x2 * b1) % q
    c2 = (x0 * b2 + x1 * b1 + x2 * b0 + x2 * b2) % q
    s0, s1, s2 = (x0 + b0) % q, (x1 + b1) % q, (x2 + b2) % q
    return c0 + q * c1 + q * q * c2, s0 + q * s1 + q * q * s2


def closure_codewords(code) -> set[tuple[int, ...]]:
    """The span of an R-code by raw fixpoint closure over the oracle ring tables."""
    mul, add = ring_tables(code.ring.q)
    words = {(0,) * code.n}
    for g in code.gens:
        scaled = [tuple(int(mul[r, gj]) for gj in g) for r in range(code.ring.size)]
        words = {
            tuple(int(add[wj, sj]) for wj, sj in zip(w, s))
            for w in words
            for s in scaled
        }
    return words


def iter_codewords(code, budget: int = DEFAULT_BUDGET):
    """Stream every codeword of an R-code exactly once as a tuple of element indices."""
    for rows in code.codeword_chunks(budget):
        for r in rows:
            yield tuple(map(int, r))


def zero_code_fq(field, n: int) -> LinearCodeFq:
    return LinearCodeFq(field, n, np.zeros((0, n), dtype=np.int64))


def zero_code_r(ring, n: int) -> LinearCodeR:
    return LinearCodeR(ring, n, [])


def random_code(field, n: int, rng) -> LinearCodeFq:
    """Seeded random F_q code of length n with 1 to n generator rows."""
    rows = rng.randrange(1, n + 1)
    mat = [[rng.randrange(field.q) for _ in range(n)] for _ in range(rows)]
    return LinearCodeFq.from_rows(field, n, mat)
