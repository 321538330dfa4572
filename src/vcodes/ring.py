"""Arithmetic in R = F_q[v]/(v^3 - v).

An element a0 + a1*v + a2*v^2 is stored as the index a0 + q*a1 + q^2*a2.
A ``Ring`` instance precomputes one row per element (coefficients,
negation, Gray image, Lee weight), which the code-enumeration layers index
with numpy; evaluations go through the ``EVALUATION`` matrix instead.

Each F_q-linear symbol map is written once, as a 3x3 matrix whose row i
gives output coordinate i from (a0, a1, a2), read mod q, and so is the
inner product: ``DUAL_FORM`` is the Gram matrix of the v^2 coefficient of
x*y, through which ``ringcode`` takes every dual.  Multiplication by v is
``V``, so multiplication by r = a0 + a1*v + a2*v^2 is the matrix
``Ring.times(r)`` = a0*I + a1*V + a2*V^2, and every product goes through it.
The Gray map sends a0 + a1*v + a2*v^2 to (a0, a0+a2, a1) and the Lee weight
of a symbol is the Hamming weight of its Gray image.  The published case
table for the Lee weight is internally inconsistent (the same support
pattern is listed with two different weights, and several rows leave their
modulus unstated); it is kept here as ``PUBLISHED_LEE_TABLE`` purely so the
verification harness can audit it row by row.

Because v^3 - v = v(v-1)(v+1), evaluating v at 0, 1 and -1 gives three ring
homomorphisms R -> F_q.  For odd q they assemble into a ring isomorphism
R ~ F_q^3 whose inverse is u1*e1 + u2*e2 + u0*e0, with orthogonal
idempotents e1 = (v+v^2)/2, e2 = (v^2-v)/2, e0 = 1 - v^2.  For q = 2 the
points 1 and -1 collide and R is not semisimple; everything CRT-based
refuses to run there, although the idempotents 1 + v^2 and v^2 still split
R ~ F_2 x F_2[u]/(u^2).  ``Ring.idempotents`` lists them for every q.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .errors import ParamMismatch, ParseError, SearchSpaceTooLarge
from .gf import GF, parse_terms

_RING_CACHE: dict[int, "Ring"] = {}

_MAX_SIZE = 512  # q <= 7; per-element tables hold |R| rows, complete-enumerator tallies |R| slots

GRAY = np.array([[1, 0, 0], [1, 0, 1], [0, 1, 0]])  # (a0, a0+a2, a1)
GRAY_INVERSE = np.array([[1, 0, 0], [0, 0, 1], [-1, 1, 0]])  # (g0 | g1 | g2) -> (g0, g2, g1-g0)
EVALUATION = np.array([[1, 1, 1], [1, -1, 1], [1, 0, 0]])  # a0 + a1 t + a2 t^2 at t = 1, -1, 0
PROJECTIONS = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]])  # a, a+b, a+b+c as printed
DUAL_FORM = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 1]])  # x^T F y = v^2 coefficient of x*y
V = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0]])  # v*x = (0, a0+a2, a1), as v^3 = v
_POWERS_OF_V = np.stack([np.eye(3, dtype=np.int64), V, V @ V]).reshape(3, 9)  # row k: V^k, flattened


@functools.cache
def _inverse_mod(entries: bytes, q: int) -> np.ndarray:
    """The inverse mod q of the 3x3 int64 matrix with these entries (ValueError if
    singular): the adjugate, whose columns are cross products of row pairs, over the determinant."""
    r = np.frombuffer(entries, dtype=np.int64).reshape(3, 3)
    adjugate = np.stack([np.cross(r[1], r[2]), np.cross(r[2], r[0]), np.cross(r[0], r[1])], axis=1)
    inverse = adjugate * pow(int(r[0] @ adjugate[:, 0]), -1, q) % q
    inverse.flags.writeable = False  # one cached array serves every caller
    return inverse


class Ring:
    """R = F_q[v]/(v^3 - v) with precomputed per-element tables."""

    def __init__(self, field: GF):
        if field.q**3 > _MAX_SIZE:
            raise SearchSpaceTooLarge(f"q = {field.q}: |R| = {field.q**3} is too large to tabulate")
        self.field = field
        self.q = field.q
        self.size = field.q**3
        self._build_tables()

    def _build_tables(self):
        q = self.q
        idx = np.arange(self.size, dtype=np.int64)
        self.coeff = np.stack([idx % q, idx // q % q, idx // (q * q)], axis=1)
        self.neg_table = self.index(*-self.coeff.T)

        self.gray_table = self.coeff @ GRAY.T % q
        self.lee_table = np.count_nonzero(self.gray_table, axis=1).astype(np.int64)

        if q % 2 == 1:
            half = (q + 1) // 2  # the inverse of 2 mod q
            self.e1 = self.index(0, half, half)  # (v + v^2)/2
            self.e2 = self.index(0, -half, half)  # (v^2 - v)/2
            self.e0 = self.index(1, 0, -1)  # 1 - v^2
            self.idempotents = (self.e0, self.e1, self.e2)
        else:
            self.idempotents = (self.index(1, 0, 1), self.index(0, 0, 1))  # 1 + v^2, v^2

    # ---- index-level helpers (used by the numpy enumeration layers) ----

    def index(self, a0: int, a1: int, a2: int) -> int:
        q = self.q
        return (a0 % q) + q * (a1 % q) + q * q * (a2 % q)

    def triple(self, idx: int) -> tuple[int, int, int]:
        q = self.q
        return (idx % q, (idx // q) % q, idx // (q * q))

    def times(self, r) -> np.ndarray:
        """The 3x3 matrix a0*I + a1*V + a2*V^2 (mod q) of multiplication by
        the element of index r; for an array of indices, one per index."""
        return (self.coeff[r] @ _POWERS_OF_V % self.q).reshape(*np.shape(r), 3, 3)

    def neg(self, i: int) -> int:
        return int(self.neg_table[i])

    # ---- element-level API ----

    def elem(self, a0: int, a1: int = 0, a2: int = 0) -> "RingElem":
        return RingElem(self, self.index(a0, a1, a2))

    def from_index(self, idx: int) -> "RingElem":
        return RingElem(self, idx % self.size)

    @property
    def zero(self) -> "RingElem":
        return RingElem(self, 0)

    @property
    def one(self) -> "RingElem":
        return RingElem(self, 1)

    @property
    def v(self) -> "RingElem":
        return RingElem(self, self.q)

    def elements(self):
        for i in range(self.size):
            yield RingElem(self, i)

    def check_same(self, other: "Ring") -> None:
        if self.q != other.q:
            raise ParamMismatch(f"mixed rings over q={self.q} and q={other.q}")

    def parse(self, text: str) -> "RingElem":
        return parse_elem(self, text)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.q == other.q

    def __hash__(self):
        return hash(("Ring", self.q))

    def __repr__(self):
        return f"Ring(GF({self.q})[v]/(v^3-v))"


def ring_over(q: int) -> Ring:
    """Shared Ring instance for GF(q); tables are built once per q."""
    if q not in _RING_CACHE:
        _RING_CACHE[q] = Ring(GF(q))
    return _RING_CACHE[q]


class RingElem:
    """An element a0 + a1*v + a2*v^2 of R."""

    __slots__ = ("ring", "idx")

    def __init__(self, ring: Ring, idx: int):
        self.ring = ring
        self.idx = idx

    @property
    def a0(self) -> int:
        return self.idx % self.ring.q

    @property
    def a1(self) -> int:
        return (self.idx // self.ring.q) % self.ring.q

    @property
    def a2(self) -> int:
        return self.idx // (self.ring.q * self.ring.q)

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.ring.q == other.ring.q
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((self.ring.q, self.idx))

    def _coerce(self, other) -> "RingElem":
        if isinstance(other, RingElem):
            self.ring.check_same(other.ring)
            return other
        if isinstance(other, int):
            return self.ring.elem(other)
        raise ParamMismatch(f"cannot combine RingElem with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        ring = self.ring
        return ring.elem(*(ring.coeff[self.idx] + ring.coeff[o.idx]).tolist())

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.idx))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        ring = self.ring
        return ring.elem(*(ring.times(self.idx) @ ring.coeff[o.idx]).tolist())

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.idx == 0

    def gray(self) -> tuple[int, int, int]:
        """(a0, a0+a2, a1) over F_q."""
        g = self.ring.gray_table[self.idx]
        return (int(g[0]), int(g[1]), int(g[2]))

    def lee_weight(self) -> int:
        return int(self.ring.lee_table[self.idx])

    def __repr__(self):
        return f"RingElem(q={self.ring.q}, [{self.a0},{self.a1},{self.a2}])"

    def __str__(self):
        return format_elem(self)


_TRIPLE_RE = re.compile(r"^\[([0-9]+),([0-9]+),([0-9]+)\]$")


def parse_elem(ring: Ring, text: str) -> RingElem:
    """Parse ``[a0,a1,a2]`` or sums of terms ``c``, ``c v``, ``c v^2``."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty ring element")
    m = _TRIPLE_RE.match(s)
    if m:  # [a0,a1,a2] reads as the sum a0 + a1 v + a2 v^2
        s = "{}+{}v+{}v^2".format(*m.groups())
    return ring.elem(*parse_terms(s, ring.q, "v", "[12]", "element"))


def format_elem(x: RingElem) -> str:
    """Canonical triple form ``[a0,a1,a2]``."""
    return f"[{x.a0},{x.a1},{x.a2}]"


def format_row(ring: Ring, row) -> list[str]:
    """An element-index row in the canonical triple form, entry by entry."""
    return [format_elem(ring.from_index(int(x))) for x in row]


# The published Lee-weight case table, row by row, exactly as printed.  Every
# printed condition tests a linear form in (a0, a1, a2) for zero or nonzero
# mod q, so a row is (claimed weight, forms that vanish, forms that do not,
# modulus unstated); the audit reads a row whose printed condition ends in an
# unstated modulus as congruence mod q.  Rows 3/10, 5/7 and 4/6 put two
# different weights on identical support patterns.
_A0, _A1, _A2, _A0_A2, _A0_A1 = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)
PUBLISHED_LEE_TABLE = (
    (0, (_A0, _A1, _A2), (), False),
    (1, (_A0, _A2), (_A1,), False),
    (1, (_A2,), (_A0, _A1), False),
    (1, (_A1, _A0_A2), (_A0,), True),
    (1, (_A0,), (_A1, _A2), False),
    (2, (_A1, _A0_A2), (_A0,), True),
    (2, (_A0,), (_A1, _A2), False),
    (2, (_A0_A1,), (_A0, _A1), True),
    (3, (_A0_A2,), (_A0, _A1), True),
    (3, (_A2,), (_A0, _A1), False),
)


def _row_predicate(ring: Ring, row) -> np.ndarray:
    """The symbols whose forms vanish and do not vanish as the row says."""
    _, vanish, nonvanish, _ = row
    values = ring.coeff @ np.reshape(vanish + nonvanish, (-1, 3)).T % ring.q
    return (values[:, : len(vanish)] == 0).all(axis=1) & (values[:, len(vanish) :] != 0).all(axis=1)


def audit_published_lee_table(ring: Ring) -> dict:
    """Compare every published table row against w_H(gray(x)).

    Returns per-row match/mismatch counts with an example symbol for each
    disagreement, plus the pairs of rows that assign different weights to
    the same support pattern.  Nothing is resolved here; the caller reports.
    """
    rows = []
    masks = []
    for i, row in enumerate(PUBLISHED_LEE_TABLE, start=1):
        claimed = row[0]
        mask = _row_predicate(ring, row)
        masks.append(mask)
        actual = ring.lee_table[mask]
        bad = np.nonzero(actual != claimed)[0]
        entry = {
            "row": i,
            "claimed_weight": claimed,
            "matching_symbols": int(mask.sum()),
            "disagreements": int(bad.size),
            "modulus_unstated": row[3],
        }
        if bad.size:
            sym = int(np.nonzero(mask)[0][bad[0]])
            entry["example"] = {
                "symbol": list(ring.triple(sym)),
                "computed_weight": int(ring.lee_table[sym]),
            }
        rows.append(entry)
    conflicts = []
    for i in range(len(PUBLISHED_LEE_TABLE)):
        for j in range(i + 1, len(PUBLISHED_LEE_TABLE)):
            same_pattern = PUBLISHED_LEE_TABLE[i][1:] == PUBLISHED_LEE_TABLE[j][1:]
            if same_pattern and PUBLISHED_LEE_TABLE[i][0] != PUBLISHED_LEE_TABLE[j][0]:
                conflicts.append([i + 1, j + 1])
    return {"rows": rows, "conflicting_row_pairs": conflicts}
