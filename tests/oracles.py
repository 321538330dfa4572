"""Slow, independent oracles and test-only helpers that several test modules share."""

import itertools
from fractions import Fraction
from functools import cache

import numpy as np

from vcodes.errors import DEFAULT_BUDGET
from vcodes.fieldcode import LinearCodeFq, cyclic_code_fq
from vcodes.gf import monic_divisors_of_xn_minus_1
from vcodes.ring import DUAL_FORM, EVALUATION, ring_over
from vcodes.ringcode import LinearCodeR, _map_symbols, _unflatten


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


@cache
def eval_table(q: int) -> dict[int, np.ndarray]:
    """Key t in {0, 1, q - 1}: the image of every element index under the
    ring map v -> t, from the rows of ``EVALUATION``."""
    idx = np.arange(q**3)
    e1, em1, e0 = EVALUATION @ np.stack([idx % q, idx // q % q, idx // (q * q)]) % q
    return {0: e0, 1: e1, q - 1: em1}


def evaluate(x, t: int) -> int:
    """The image of a ``RingElem`` under v -> t, for t a root 0, 1 or -1 of v^3 - v."""
    table = eval_table(x.ring.q)
    if t % x.ring.q not in table:
        raise ValueError(f"v cannot evaluate at {t} (roots of v^3-v only)")
    return int(table[t % x.ring.q][x.idx])


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


def two_reduction_dual(code) -> LinearCodeR:
    """The R-dual as the F_q kernel of ``DUAL_FORM`` applied to every symbol of
    the flattened basis: the constraint rows reduced, then their kernel."""
    basis = code.flat.gen
    constraints = _map_symbols(code.ring.q, DUAL_FORM, basis).reshape(basis.shape)
    kernel = LinearCodeFq(code.ring.field, basis.shape[1], constraints).dual()
    return LinearCodeR(code.ring, code.n, code.ring.q ** np.arange(3) @ kernel.gen.reshape(-1, 3, code.n))


def two_reduction_witness_check(code, witness) -> bool:
    """The isodual witness check by two code equalities: the companion
    [-B^T | I] and the witness image of C, each reduced, against C^dual."""
    n = code.n // 2
    b = np.array(code.gens, dtype=np.int64).reshape(len(code.gens), code.n)[:, n:]
    companion = np.hstack([code.ring.neg_table[b.T], np.eye(n, dtype=np.int64)])
    if LinearCodeR(code.ring, code.n, companion) != code.dual():
        return False
    return apply_code(witness, code) == code.dual()


def span_weight_counts_by_words(basis: np.ndarray, q: int) -> np.ndarray:
    """Entry w counts the words of weight w in the GF(q) span of independent
    rows, every one of the q^k message combinations formed and weighed."""
    k, n = basis.shape
    messages = np.array(list(itertools.product(range(q), repeat=k)), dtype=np.int64).reshape(q**k, k)
    return np.bincount(np.count_nonzero(messages @ basis % q, axis=1), minlength=n + 1)


def binary_substitution(counts: dict[int, int], length: int, size: int) -> dict[int, Fraction]:
    """(1/size) sum_w A_w (X+Y)^(length-w) (X-Y)^w, the printed MacWilliams form,
    expanded one linear factor at a time as a polynomial in Y with X = 1:
    coefficient i is the value at weight i.  Nonzero values only."""
    total = [0] * (length + 1)
    for w, count in counts.items():
        poly = [count]
        for sign in [1] * (length - w) + [-1] * w:  # times (1 + sign*Y)
            poly = [a + sign * b for a, b in zip(poly + [0], [0] + poly)]
        total = [t + c for t, c in zip(total, poly)]
    return {i: Fraction(t, size) for i, t in enumerate(total) if t}


def iter_codewords(code, budget: int = DEFAULT_BUDGET):
    """Stream every codeword of an R-code exactly once as a tuple of element indices."""
    for rows in code.codeword_chunks(budget):
        for r in rows:
            yield tuple(map(int, r))


def zero_code_fq(field, n: int) -> LinearCodeFq:
    return LinearCodeFq(field, n, np.zeros((0, n), dtype=np.int64))


def zero_code_r(ring, n: int) -> LinearCodeR:
    return LinearCodeR(ring, n, [])


def full_space_r(ring, n: int) -> LinearCodeR:
    return LinearCodeR(ring, n, np.eye(n, dtype=np.int64))


def apply_code(witness, code) -> LinearCodeR:
    """The image of an R-code under a ``SignedPermutation``."""
    rows = np.reshape(code.gens, (len(code.gens), code.n))  # keeps n when there are no generators
    return LinearCodeR(code.ring, code.n, witness.apply(code.ring, rows))


def members(space, basis) -> np.ndarray:
    """Every vector of the span of ``basis`` in an ``AmbientSpace``, encoded
    base |R| and sorted: one full enumeration of the flattened code."""
    words = LinearCodeFq(space.ring.field, 3 * space.n, basis).codewords()
    return np.sort(_unflatten(space.ring.q, words) @ space.powers)


def random_code(field, n: int, rng) -> LinearCodeFq:
    """Seeded random F_q code of length n with 1 to n generator rows."""
    rows = rng.randrange(1, n + 1)
    mat = [[rng.randrange(field.q) for _ in range(n)] for _ in range(rows)]
    return LinearCodeFq(field, n, mat)


def random_code_r_by_entries(ring, n: int, rng) -> LinearCodeR:
    """Seeded random R-code of length n with 1 to n generator rows, drawn entry by entry."""
    rows = rng.randrange(1, n + 1)
    gens = [[rng.randrange(ring.size) for _ in range(n)] for _ in range(rows)]
    return LinearCodeR(ring, n, gens)


def random_code_stream(rng, count: int, qs=(2, 3), max_n: int = 3):
    """The sampled claims' random codes built one at a time, drawing q, then n,
    then the code: the reference for ``verify._random_codes``."""
    for _ in range(count):
        q = rng.choice(qs)
        yield random_code_r_by_entries(ring_over(q), rng.randrange(1, max_n + 1), rng)


def self_orthogonal_stream(rng, count: int) -> list:
    """The first ``count`` of at most 4000 streamed codes whose generators are
    pairwise orthogonal by ``LinearCodeR.dot``, then two fixed ones: the
    reference for ``verify._self_orth_samples``."""
    codes = random_code_stream(rng, 4000)
    found = list(itertools.islice((c for c in codes if all(c.dot(g, h) == 0 for g in c.gens for h in c.gens)), count))
    r3 = ring_over(3)
    found.append(LinearCodeR(r3, 3, [[r3.e1, r3.e1, r3.e1]]))
    found.append(LinearCodeR(ring_over(2), 2, [[2, 2]]))
    return found


def lem5_distance_stream(rng) -> list:
    """The q = 3 codes of the ``lem5-distance`` claim, built one at a time."""
    ring = ring_over(3)
    return [random_code_r_by_entries(ring, rng.randrange(1, 4), rng) for _ in range(120)]


def self_dual_cyclic_exists(field, n: int) -> bool:
    """Closed-form criterion for a self-dual cyclic code over GF(q): q even and n even."""
    return field.q % 2 == 0 and n % 2 == 0


def self_dual_cyclic_audit(field, n: int) -> dict:
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


# ---- the tuple-by-tuple FSD builders, references for the array builders in ``fsd`` ----


def signed_permutation_apply(ring, witness, row) -> tuple[int, ...]:
    """One row under a ``SignedPermutation``, entry by entry."""
    out = []
    for s, neg in zip(witness.src, witness.negate):
        x = row[s]
        out.append(int(ring.neg_table[x]) if neg else int(x))
    return tuple(out)


def identity_block_rows(b_rows) -> list[tuple[int, ...]]:
    """The generator rows of [I_n | B]."""
    n = len(b_rows)
    gens = []
    for i, brow in enumerate(b_rows):
        left = [0] * n
        left[i] = 1
        gens.append(tuple(left) + tuple(brow))
    return gens


def companion_rows(ring, b_rows) -> list[tuple[int, ...]]:
    """The rows of [-B^T | I_n], which span the dual of [I_n | B]."""
    n = len(b_rows)
    companion = []
    for i in range(n):
        left = [int(ring.neg_table[b_rows[j][i]]) for j in range(n)]
        right = [0] * n
        right[i] = 1
        companion.append(tuple(left) + tuple(right))
    return companion


def upper_triangle_rows(rows) -> list[tuple[int, ...]]:
    """A square grid symmetrized from the entries on and above its diagonal."""
    raw = [list(r) for r in rows]
    for i in range(len(raw)):
        for j in range(i):
            raw[i][j] = raw[j][i]
    return [tuple(r) for r in raw]


def random_symmetric_rows(ring, n: int, rng) -> list[tuple[int, ...]]:
    """A random symmetric grid, drawn in row-major order on and above the diagonal."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randrange(ring.size)
            rows[i][j] = x
            rows[j][i] = x
    return [tuple(r) for r in rows]


def circulant_rows(first_row) -> list[tuple[int, ...]]:
    """Row i is the right shift of row i-1."""
    m = list(first_row)
    n = len(m)
    return [tuple(m[(j - i) % n] for j in range(n)) for i in range(n)]


def bordered_rows(alpha: int, omega: int, core_first) -> list[tuple[int, ...]]:
    """The alpha corner and omega edges around the circulant of ``core_first``."""
    n = len(core_first) + 1
    core_rows = circulant_rows(core_first)
    rows = [tuple([alpha] + [omega] * (n - 1))]
    for i in range(n - 1):
        rows.append(tuple([omega] + list(core_rows[i])))
    return rows


def block_witness(n: int, block_perm) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """(src, negate) of (x, y) -> (-y.J, x.J), J given as an index map."""
    src = []
    negate = []
    for i in range(n):
        src.append(n + block_perm(i))
        negate.append(True)
    for i in range(n):
        src.append(block_perm(i))
        negate.append(False)
    return tuple(src), tuple(negate)
