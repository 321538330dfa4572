"""Formally self-dual constructions over R and their isoduality witnesses.

Three builders share the shape G = [I_n | B]:

  A: B symmetric,
  B: B circulant (double circulant construction),
  C: B bordered circulant (alpha / omega border around a circulant core).

In each case the row space of [-B^T | I_n] is the dual, and the map
(x, y) -> (-y.J, x.J) with J the block coordinate reversal fixing nothing
(identity for A, index negation mod n for B, border-fixing core reversal
for C) carries C onto its dual.  The map is a *signed* permutation: the
negation is unavoidable for odd q, and it preserves Lee weight because the
Gray map is linear, so isodual here means monomially equivalent with signs.

Odd formally self-dual codes are searched by walking the full submodule
lattice of R^n at tiny n, held as RREF F_q bases (see ``submodules``),
where the cardinality obstruction |C| = |C^dual| (impossible when q^(3n)
is not a square) settles length 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, NotSymmetric, ParamMismatch, ShapeError
from .ring import Ring
from .ringcode import LinearCodeR, _as_index_row
from .submodules import AmbientSpace
from . import wenum


@dataclass(frozen=True)
class SignedPermutation:
    """result[i] = x[src[i]], negated where negate[i] is set."""

    src: tuple[int, ...]
    negate: tuple[bool, ...]

    def apply(self, ring: Ring, row) -> tuple[int, ...]:
        out = []
        for s, neg in zip(self.src, self.negate):
            x = row[s]
            out.append(int(ring.neg_table[x]) if neg else int(x))
        return tuple(out)

    def apply_code(self, code: LinearCodeR) -> LinearCodeR:
        gens = [self.apply(code.ring, g) for g in code.gens]
        return LinearCodeR(code.ring, code.n, gens)

    def to_json_obj(self) -> dict:
        return {"src": list(self.src), "negate": [int(b) for b in self.negate]}


class SymmetricMatrixR:
    """An n x n symmetric matrix over R."""

    def __init__(self, ring: Ring, rows):
        self.ring = ring
        self.rows = tuple(_as_index_row(ring, r) for r in rows)
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ShapeError("matrix must be square")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")

    @classmethod
    def from_upper_triangle(cls, ring: Ring, rows) -> "SymmetricMatrixR":
        """Symmetrize a printed grid, trusting entries on or above the diagonal."""
        raw = [list(_as_index_row(ring, r)) for r in rows]
        n = len(raw)
        for i in range(n):
            for j in range(i):
                raw[i][j] = raw[j][i]
        return cls(ring, raw)


@dataclass(frozen=True)
class CirculantSpecR:
    """First row of a circulant matrix; row i is the right shift of row i-1."""

    ring: Ring
    first_row: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.first_row)

    def rows(self) -> list[tuple[int, ...]]:
        m = list(self.first_row)
        n = len(m)
        return [tuple(m[(j - i) % n] for j in range(n)) for i in range(n)]


@dataclass(frozen=True)
class BorderedSpecR:
    """Border (alpha corner, omega edges) around a circulant core of order n-1."""

    ring: Ring
    alpha: int
    omega: int
    core: CirculantSpecR

    @property
    def order(self) -> int:
        return self.core.order + 1

    def rows(self) -> list[tuple[int, ...]]:
        n = self.order
        core_rows = self.core.rows()
        rows = [tuple([self.alpha] + [self.omega] * (n - 1))]
        for i in range(n - 1):
            rows.append(tuple([self.omega] + list(core_rows[i])))
        return rows


def _identity_block_code(ring: Ring, b_rows) -> LinearCodeR:
    n = len(b_rows)
    gens = []
    for i, brow in enumerate(b_rows):
        left = [0] * n
        left[i] = 1
        gens.append(tuple(left) + tuple(brow))
    return LinearCodeR(ring, 2 * n, gens)


def _witness(n: int, block_perm) -> SignedPermutation:
    """(x, y) -> (-y.J, x.J) with J given as an index permutation."""
    src = []
    negate = []
    for i in range(n):
        src.append(n + block_perm(i))
        negate.append(True)
    for i in range(n):
        src.append(block_perm(i))
        negate.append(False)
    return SignedPermutation(tuple(src), tuple(negate))


def construction_a(ring: Ring, matrix) -> tuple[LinearCodeR, SignedPermutation]:
    """[I_n | A] with A symmetric; isodual via the signed half swap."""
    if not isinstance(matrix, SymmetricMatrixR):
        matrix = SymmetricMatrixR(ring, matrix)
    code = _identity_block_code(ring, matrix.rows)
    return code, _witness(matrix.n, lambda i: i)


def construction_b(ring: Ring, spec) -> tuple[LinearCodeR, SignedPermutation]:
    """[I_n | M] with M circulant (double circulant construction)."""
    if not isinstance(spec, CirculantSpecR):
        spec = CirculantSpecR(ring, _as_index_row(ring, spec))
    n = spec.order
    code = _identity_block_code(ring, spec.rows())
    return code, _witness(n, lambda i: (-i) % n)


def construction_c(ring: Ring, spec: BorderedSpecR) -> tuple[LinearCodeR, SignedPermutation]:
    """[I_n | bordered circulant]; the witness reverses the core indices."""
    if spec.core.order < 1:
        raise ShapeError("bordered construction needs a core of order >= 1")
    n = spec.order
    m = n - 1

    def perm(i: int) -> int:
        return 0 if i == 0 else 1 + ((1 - i) % m)

    code = _identity_block_code(ring, spec.rows())
    return code, _witness(n, perm)


def _right_block(code: LinearCodeR) -> list[tuple[int, ...]]:
    """Recover B from generators in [I_n | B] form."""
    n = code.n // 2
    if code.n % 2 or len(code.gens) != n:
        raise ShapeError("witness check expects n generators of length 2n")
    for i, g in enumerate(code.gens):
        left = g[:n]
        if any(left[j] != (1 if j == i else 0) for j in range(n)):
            raise ShapeError("generators are not in [I_n | B] form")
    return [g[n:] for g in code.gens]


def isodual_witness_check(code: LinearCodeR, witness: SignedPermutation) -> bool:
    """Certify C isodual: companion [-B^T | I] spans the dual, and the
    signed permutation carries C exactly onto it."""
    ring = code.ring
    n = code.n // 2
    b_rows = _right_block(code)
    companion = []
    for i in range(n):
        left = [int(ring.neg_table[b_rows[j][i]]) for j in range(n)]
        right = [0] * n
        right[i] = 1
        companion.append(tuple(left) + tuple(right))
    dual = code.dual()
    if LinearCodeR(ring, code.n, companion) != dual:
        return False
    return witness.apply_code(code) == dual


def direct_product(c1: LinearCodeR, c2: LinearCodeR) -> LinearCodeR:
    """Concatenation code C1 x C2 of length n1 + n2."""
    if c1.ring.q != c2.ring.q:
        raise ParamMismatch("direct product needs codes over the same ring")
    gens = [g + (0,) * c2.n for g in c1.gens]
    gens += [(0,) * c1.n + g for g in c2.gens]
    return LinearCodeR(c1.ring, c1.n + c2.n, gens)


def is_formally_self_dual(code: LinearCodeR, budget: int = DEFAULT_BUDGET) -> bool:
    dual = code.dual()
    return wenum.lee_enumerator(code, budget) == wenum.lee_enumerator(dual, budget)


def has_odd_lee_word(code: LinearCodeR, budget: int = DEFAULT_BUDGET) -> bool:
    return any(w % 2 for w in wenum.lee_enumerator(code, budget).counts)


def odd_fsd_search(ring: Ring, n: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Walk every R-submodule of R^n looking for an odd formally self-dual code.

    Each lattice node is an RREF F_q basis and its code is built from that
    basis; a witness is generated by all its members, in encoded order.
    Returns {"witness": code or None, "exhausted": True, "tested": count}.
    """
    space = AmbientSpace(ring, n)
    tested = 0
    for basis in space.all_submodules():
        tested += 1
        code = space.code(basis)
        if has_odd_lee_word(code, budget) and is_formally_self_dual(code, budget):
            return {"witness": space.witness(basis), "exhausted": True, "tested": tested}
    return {"witness": None, "exhausted": True, "tested": tested}


def gray_fsd_transfer(code: LinearCodeR, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the Gray image and its field dual share a Hamming enumerator."""
    image = code.gray_image()
    return image.weight_counts(budget) == image.dual().weight_counts(budget)


def random_symmetric(ring: Ring, n: int, rng) -> SymmetricMatrixR:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randrange(ring.size)
            rows[i][j] = x
            rows[j][i] = x
    return SymmetricMatrixR(ring, rows)


def random_circulant(ring: Ring, n: int, rng) -> CirculantSpecR:
    return CirculantSpecR(ring, tuple(rng.randrange(ring.size) for _ in range(n)))


def random_bordered(ring: Ring, n: int, rng) -> BorderedSpecR:
    return BorderedSpecR(
        ring,
        rng.randrange(ring.size),
        rng.randrange(ring.size),
        random_circulant(ring, n - 1, rng),
    )
