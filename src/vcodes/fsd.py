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

``constructions`` builds many codes of one construction at once, through
``ringcode.build_codes``; each single builder is that call on one input.
The harness then fills the duals (``ringcode.fill_duals``) and Lee
enumerators (``wenum.fill_lee_enumerators``) of such a stack in bulk, so
``isodual_witness_check`` and ``is_formally_self_dual`` read memos.

Odd formally self-dual codes are searched by walking the full submodule
lattice of R^n at tiny n, held as RREF F_q bases (see ``submodules``),
where the cardinality obstruction |C| = |C^dual| (impossible when q^(3n)
is not a square) settles length 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_BUDGET, NotSymmetric, ParamMismatch, ShapeError
from .fieldcode import _field_rows
from .ring import Ring
from .ringcode import LinearCodeR, _index_rows, build_codes, fq_span_rows
from .submodules import AmbientSpace
from . import wenum


@dataclass(frozen=True)
class SignedPermutation:
    """result[i] = x[src[i]], negated where negate[i] is set."""

    src: tuple[int, ...]
    negate: tuple[bool, ...]

    def __post_init__(self):
        if sorted(self.src) != list(range(len(self.negate))):
            raise ShapeError(f"src {self.src} is not a permutation of range({len(self.negate)})")

    def apply(self, ring: Ring, rows) -> np.ndarray:
        """The images of element-index rows (..., n), indices read mod |R|."""
        rows = _field_rows(rows, len(self.src), empty_rows=True)[..., list(self.src)] % ring.size
        return np.where(self.negate, ring.neg_table[rows], rows)

    def to_json_obj(self) -> dict:
        return {"src": list(self.src), "negate": [int(b) for b in self.negate]}


def _square(ring: Ring, rows) -> np.ndarray:
    matrix = _index_rows(ring, rows)
    if matrix.shape[0] != matrix.shape[1]:
        raise ShapeError("matrix must be square")
    return matrix


class SymmetricMatrixR:
    """An n x n symmetric matrix over R."""

    def __init__(self, ring: Ring, rows):
        self.ring = ring
        matrix = _square(ring, rows)
        differ = np.argwhere(matrix != matrix.T)  # row-major, so the first pair has i < j
        if len(differ):
            i, j = differ[0].tolist()
            raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
        self.rows = tuple(map(tuple, matrix.tolist()))
        self.n = len(self.rows)

    @classmethod
    def from_upper_triangle(cls, ring: Ring, rows) -> "SymmetricMatrixR":
        """Symmetrize a printed grid, trusting entries on or above the diagonal."""
        upper = np.triu(_square(ring, rows))
        return cls(ring, upper + np.triu(upper, 1).T)


@dataclass(frozen=True)
class CirculantSpecR:
    """First row of a circulant matrix; row i is the right shift of row i-1."""

    ring: Ring
    first_row: tuple[int, ...]

    def __post_init__(self):  # entries are element indices mod |R|, as in the code built from them
        object.__setattr__(self, "first_row", tuple(_index_rows(self.ring, [self.first_row])[0].tolist()))

    @property
    def order(self) -> int:
        return len(self.first_row)

    def rows(self) -> list[tuple[int, ...]]:
        shifts = np.arange(self.order)
        grid = np.array(self.first_row, dtype=np.int64)[(shifts - shifts[:, None]) % self.order]
        return list(map(tuple, grid.tolist()))


@dataclass(frozen=True)
class BorderedSpecR:
    """Border (alpha corner, omega edges) around a circulant core of order n-1."""

    ring: Ring
    alpha: int
    omega: int
    core: CirculantSpecR

    def __post_init__(self):
        alpha, omega = _index_rows(self.ring, [[self.alpha, self.omega]])[0].tolist()
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega", omega)

    @property
    def order(self) -> int:
        return self.core.order + 1

    def rows(self) -> list[tuple[int, ...]]:
        grid = np.full((self.order, self.order), self.omega, dtype=np.int64)
        grid[0, 0] = self.alpha
        grid[1:, 1:] = np.reshape(self.core.rows(), (self.core.order,) * 2)
        return list(map(tuple, grid.tolist()))


def _witness(block: np.ndarray) -> SignedPermutation:
    """(x, y) -> (-y.J, x.J) with J given as an index array."""
    n = len(block)
    return SignedPermutation(tuple(np.concatenate([n + block, block]).tolist()), (True,) * n + (False,) * n)


def _symmetric_block(ring: Ring, matrix) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(matrix, SymmetricMatrixR):
        matrix = SymmetricMatrixR(ring, matrix)
    return _square(ring, matrix.rows), np.arange(matrix.n)  # J: the identity


def _circulant_block(ring: Ring, spec) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(spec, CirculantSpecR):
        spec = CirculantSpecR(ring, spec)
    return _square(ring, spec.rows()), -np.arange(spec.order) % spec.order  # J: i -> -i mod n


def _bordered_block(ring: Ring, spec: BorderedSpecR) -> tuple[np.ndarray, np.ndarray]:
    if spec.core.order < 1:
        raise ShapeError("bordered construction needs a core of order >= 1")
    m = spec.core.order
    return _square(ring, spec.rows()), np.concatenate([[0], 1 + -np.arange(m) % m])  # J fixes the border


def constructions(ring: Ring, block, inputs) -> list[tuple[LinearCodeR, SignedPermutation]]:
    """The code [I_n | B] and witness of every input, where ``block`` (one
    of ``_symmetric_block``, ``_circulant_block``, ``_bordered_block``)
    maps an input to B and J; the codes are built together by
    ``ringcode.build_codes``."""
    parts = [block(ring, x) for x in inputs]
    codes = build_codes(ring, [np.hstack([np.eye(len(b), dtype=np.int64), b]) for b, _ in parts])
    return [(code, _witness(j)) for code, (_, j) in zip(codes, parts)]


def construction_a(ring: Ring, matrix) -> tuple[LinearCodeR, SignedPermutation]:
    """[I_n | A] with A symmetric; isodual via the signed half swap."""
    return constructions(ring, _symmetric_block, [matrix])[0]


def construction_b(ring: Ring, spec) -> tuple[LinearCodeR, SignedPermutation]:
    """[I_n | M] with M circulant (double circulant construction)."""
    return constructions(ring, _circulant_block, [spec])[0]


def construction_c(ring: Ring, spec: BorderedSpecR) -> tuple[LinearCodeR, SignedPermutation]:
    """[I_n | bordered circulant]; the witness fixes the border and reverses the core."""
    return constructions(ring, _bordered_block, [spec])[0]


def _right_block(code: LinearCodeR) -> np.ndarray:
    """Recover B from generators in [I_n | B] form."""
    n = code.n // 2
    if code.n % 2 or len(code.gens) != n:
        raise ShapeError("witness check expects n generators of length 2n")
    gens = _index_rows(code.ring, code.gens)
    if (gens[:, :n] != np.eye(n, dtype=np.int64)).any():
        raise ShapeError("generators are not in [I_n | B] form")
    return gens[:, n:]


def isodual_witness_check(code: LinearCodeR, witness: SignedPermutation) -> bool:
    """Certify C isodual: companion [-B^T | I] spans the dual, and the
    signed permutation carries C exactly onto it.

    Both codes are free of rank n (a signed permutation is a bijection), so
    each equals C^dual exactly when C^dual has F_q-dimension 3n and holds the
    flattened span of its generators: one membership test, no reduction.
    """
    if len(witness.src) != code.n:
        raise ShapeError(f"a witness of length {len(witness.src)} cannot act on length {code.n}")
    ring = code.ring
    b = _right_block(code)
    companion = np.hstack([ring.neg_table[b.T], np.eye(len(b), dtype=np.int64)])
    image = witness.apply(ring, np.reshape(code.gens, (len(b), code.n)))
    dual = code.dual().flat
    return dual.k == 3 * len(b) and dual.contains(fq_span_rows(ring, np.concatenate([companion, image])))


def direct_product(c1: LinearCodeR, c2: LinearCodeR) -> LinearCodeR:
    """Concatenation code C1 x C2 of length n1 + n2."""
    if c1.ring.q != c2.ring.q:
        raise ParamMismatch("direct product needs codes over the same ring")
    gens = [g + (0,) * c2.n for g in c1.gens]
    gens += [(0,) * c1.n + g for g in c2.gens]
    return LinearCodeR(c1.ring, c1.n + c2.n, gens)


def is_formally_self_dual(code: LinearCodeR, budget: int = DEFAULT_BUDGET) -> bool:
    if 2 * code.dim_fq != 3 * code.n:
        return False  # |C| * |C^dual| = |R|^n, so the sizes differ
    return wenum.lee_enumerator(code, budget) == wenum.lee_enumerator(code.dual(), budget)


def has_odd_lee_word(code: LinearCodeR, budget: int = DEFAULT_BUDGET) -> bool:
    return any(w % 2 for w in wenum.lee_enumerator(code, budget).counts)


def odd_fsd_search(ring: Ring, n: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Walk every R-submodule of R^n looking for an odd formally self-dual code.

    Each lattice node is an RREF F_q basis and its code is built from that
    basis; a witness is the code of the node the walk stopped at.
    Returns {"witness": code or None, "exhausted": True, "tested": count}.
    """
    space = AmbientSpace(ring, n)
    tested = 0
    for basis in space.all_submodules():
        tested += 1
        code = space.code(basis)
        if is_formally_self_dual(code, budget) and has_odd_lee_word(code, budget):  # sizes first, then Lee
            return {"witness": code, "exhausted": True, "tested": tested}
    return {"witness": None, "exhausted": True, "tested": tested}


def gray_fsd_transfer(code: LinearCodeR, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the Gray image and its field dual share a Hamming enumerator."""
    image = code.gray_image()
    return image.weight_counts(budget) == image.dual().weight_counts(budget)


def random_symmetric(ring: Ring, n: int, rng) -> SymmetricMatrixR:
    """Entries on and above the diagonal, drawn in row-major order."""
    upper = [[rng.randrange(ring.size) if j >= i else 0 for j in range(n)] for i in range(n)]
    return SymmetricMatrixR.from_upper_triangle(ring, upper)


def random_circulant(ring: Ring, n: int, rng) -> CirculantSpecR:
    return CirculantSpecR(ring, tuple(rng.randrange(ring.size) for _ in range(n)))


def random_bordered(ring: Ring, n: int, rng) -> BorderedSpecR:
    return BorderedSpecR(
        ring,
        rng.randrange(ring.size),
        rng.randrange(ring.size),
        random_circulant(ring, n - 1, rng),
    )
