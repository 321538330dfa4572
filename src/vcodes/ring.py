"""Arithmetic in R = F_q[v]/(v^3 - v).

An element a0 + a1*v + a2*v^2 is stored as the index a0 + q*a1 + q^2*a2.
A ``Ring`` instance precomputes full lookup tables (q^3 is at most a few
hundred), which the code-enumeration layers index with numpy.

Each F_q-linear symbol map is written once, as a 3x3 matrix whose row i
gives output coordinate i from (a0, a1, a2), read mod q.
The Gray map sends a0 + a1*v + a2*v^2 to (a0, a0+a2, a1) and the Lee weight
of a symbol is the Hamming weight of its Gray image.  The published case
table for the Lee weight is internally inconsistent (the same support
pattern is listed with two different weights, and several rows leave their
modulus unstated); it is kept here as ``PUBLISHED_LEE_TABLE`` purely so the
verification harness can audit it row by row.

Because v^3 - v = v(v-1)(v+1), evaluating v at 0, 1 and -1 gives three ring
homomorphisms R -> F_q.  For odd q they assemble into a ring isomorphism
R ~ F_q^3 with orthogonal idempotents e1 = (v+v^2)/2, e2 = (v^2-v)/2,
e0 = 1 - v^2.  For q = 2 the points 1 and -1 collide and R is not
semisimple; everything CRT-based refuses to run there.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import (
    CharacteristicTwoUnsupported,
    InvalidEvaluationPoint,
    ParamMismatch,
    ParseError,
    SearchSpaceTooLarge,
)
from .gf import GF

_RING_CACHE: dict[int, "Ring"] = {}

_MAX_SIZE = 512  # sixteen |R| x |R| int64 tables: 15 MB at q = 7, 230 MB at q = 11

GRAY = np.array([[1, 0, 0], [1, 0, 1], [0, 1, 0]])  # (a0, a0+a2, a1)
GRAY_INVERSE = np.array([[1, 0, 0], [0, 0, 1], [-1, 1, 0]])  # (g0 | g1 | g2) -> (g0, g2, g1-g0)
EVALUATION = np.array([[1, 1, 1], [1, -1, 1], [1, 0, 0]])  # a0 + a1 t + a2 t^2 at t = 1, -1, 0
PROJECTIONS = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]])  # a, a+b, a+b+c as printed


class Ring:
    """R = F_q[v]/(v^3 - v) with precomputed operation tables."""

    def __init__(self, field: GF):
        if field.q**3 > _MAX_SIZE:
            raise SearchSpaceTooLarge(f"q = {field.q}: |R| = {field.q**3} is too large to tabulate")
        self.field = field
        self.q = field.q
        self.size = field.q**3
        self._build_tables()

    def _build_tables(self):
        q = self.q
        idx = np.arange(self.size)
        a0 = idx % q
        a1 = (idx // q) % q
        a2 = idx // (q * q)
        self.coeff = np.stack([a0, a1, a2], axis=1).astype(np.int64)

        i, j = np.meshgrid(idx, idx, indexing="ij")
        b0, b1, b2 = a0[j], a1[j], a2[j]
        x0, x1, x2 = a0[i], a1[i], a2[i]
        # product coefficients after reducing v^3 -> v, v^4 -> v^2
        c0 = (x0 * b0) % q
        c1 = (x0 * b1 + x1 * b0 + x1 * b2 + x2 * b1) % q
        c2 = (x0 * b2 + x1 * b1 + x2 * b0 + x2 * b2) % q
        self.mul_table = (c0 + q * c1 + q * q * c2).astype(np.int64)
        s0 = (x0 + b0) % q
        s1 = (x1 + b1) % q
        s2 = (x2 + b2) % q
        self.add_table = (s0 + q * s1 + q * q * s2).astype(np.int64)
        self.neg_table = self._encode((-a0) % q, (-a1) % q, (-a2) % q)

        self.gray_table = self.coeff @ GRAY.T % q
        self.lee_table = np.count_nonzero(self.gray_table, axis=1).astype(np.int64)

        e1, em1, e0 = (self.coeff @ EVALUATION.T % q).T
        self.eval_table = {0: e0, 1: e1, q - 1: em1}
        self.unit_mask = (e0 != 0) & (e1 != 0) & (em1 != 0)

        if q % 2 == 1:
            # invert idx -> (x(1), x(-1), x(0)); a bijection for odd q
            crt = np.full((q, q, q), -1, dtype=np.int64)
            crt[e1, em1, e0] = idx
            assert (crt >= 0).all()
            self.crt_table = crt
            self.e1 = int(crt[1, 0, 0])
            self.e2 = int(crt[0, 1, 0])
            self.e0 = int(crt[0, 0, 1])
        else:
            self.crt_table = None

    # ---- index-level helpers (used by the numpy enumeration layers) ----

    def _encode(self, a0, a1, a2):
        return (a0 + self.q * a1 + self.q * self.q * a2).astype(np.int64)

    def index(self, a0: int, a1: int, a2: int) -> int:
        q = self.q
        return (a0 % q) + q * (a1 % q) + q * q * (a2 % q)

    def triple(self, idx: int) -> tuple[int, int, int]:
        q = self.q
        return (idx % q, (idx // q) % q, idx // (q * q))

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def add(self, i: int, j: int) -> int:
        return int(self.add_table[i, j])

    def neg(self, i: int) -> int:
        return int(self.neg_table[i])

    def evaluate_index(self, idx: int, t: int) -> int:
        t %= self.q
        if t not in self.eval_table:
            raise InvalidEvaluationPoint(f"v cannot evaluate at {t} (roots of v^3-v only)")
        return int(self.eval_table[t][idx])

    def crt_split_index(self, idx: int) -> tuple[int, int, int]:
        """(x(0), x(1), x(-1)); defined for every q."""
        return (
            int(self.eval_table[0][idx]),
            int(self.eval_table[1][idx]),
            int(self.eval_table[(self.q - 1) % self.q][idx]),
        )

    def crt_combine_index(self, u0: int, u1: int, u2: int) -> int:
        """Inverse of crt_split_index; needs 2 invertible, so q odd."""
        if self.q % 2 == 0:
            raise CharacteristicTwoUnsupported("CRT combination needs odd q")
        return int(self.crt_table[u1 % self.q, u2 % self.q, u0 % self.q])

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
        return RingElem(self.ring, self.ring.add(self.idx, o.idx))

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.idx))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        return RingElem(self.ring, self.ring.mul(self.idx, o.idx))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.idx == 0

    def is_unit(self) -> bool:
        """Unit iff every evaluation of v at a root of v^3 - v is nonzero."""
        return bool(self.ring.unit_mask[self.idx])

    def evaluate(self, t: int) -> int:
        """Image of the element under the ring map v -> t, t in {0, 1, -1}."""
        return self.ring.evaluate_index(self.idx, t)

    def crt_split(self) -> tuple[int, int, int]:
        return self.ring.crt_split_index(self.idx)

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


def crt_combine(ring: Ring, u0: int, u1: int, u2: int) -> RingElem:
    """Element with evaluations x(0)=u0, x(1)=u1, x(-1)=u2 (q odd)."""
    return RingElem(ring, ring.crt_combine_index(u0, u1, u2))


_TRIPLE_RE = re.compile(r"^\[(\d+),(\d+),(\d+)\]$")
_VTERM_RE = re.compile(r"^(\d+)?\*?(v(\^([12]))?)?$")


def parse_elem(ring: Ring, text: str) -> RingElem:
    """Parse ``[a0,a1,a2]`` or sums of terms ``c``, ``c v``, ``c v^2``."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty ring element")
    m = _TRIPLE_RE.match(s)
    if m:
        a0, a1, a2 = (int(g) for g in m.groups())
        for c in (a0, a1, a2):
            if c >= ring.q:
                raise ParseError(f"coefficient {c} out of range for q={ring.q}")
        return ring.elem(a0, a1, a2)
    coeffs = [0, 0, 0]
    for term in s.split("+"):
        tm = _VTERM_RE.match(term)
        if not tm or (tm.group(1) is None and tm.group(2) is None):
            raise ParseError(f"bad element term {term!r}")
        c = int(tm.group(1)) if tm.group(1) is not None else 1
        if tm.group(1) is not None and c >= ring.q:
            raise ParseError(f"coefficient {c} out of range for q={ring.q}")
        k = 0
        if tm.group(2) is not None:
            k = int(tm.group(4)) if tm.group(4) is not None else 1
        coeffs[k] = (coeffs[k] + c) % ring.q
    return ring.elem(*coeffs)


def format_elem(x: RingElem) -> str:
    """Canonical triple form ``[a0,a1,a2]``."""
    return f"[{x.a0},{x.a1},{x.a2}]"


# The published Lee-weight case table, row by row, exactly as printed.
# Each row: (claimed weight, test on a0, test on a1, third condition).
# "mod?" marks rows whose printed condition ends in an unstated modulus;
# the audit reads them as congruence mod q.  Rows 3/10, 5/7 and 4/6 put
# two different weights on identical support patterns.
PUBLISHED_LEE_TABLE = (
    (0, "zero", "zero", "a2_zero", False),
    (1, "zero", "nonzero", "a2_zero", False),
    (1, "nonzero", "nonzero", "a2_zero", False),
    (1, "nonzero", "zero", "a0_plus_a2_zero", True),
    (1, "zero", "nonzero", "a2_nonzero", False),
    (2, "nonzero", "zero", "a0_plus_a2_zero", True),
    (2, "zero", "nonzero", "a2_nonzero", False),
    (2, "nonzero", "nonzero", "a0_plus_a1_zero", True),
    (3, "nonzero", "nonzero", "a0_plus_a2_zero", True),
    (3, "nonzero", "nonzero", "a2_zero", False),
)


def _row_predicate(ring: Ring, row) -> np.ndarray:
    _, a0_test, a1_test, third, _ = row
    a0 = ring.coeff[:, 0]
    a1 = ring.coeff[:, 1]
    a2 = ring.coeff[:, 2]
    mask = (a0 != 0) if a0_test == "nonzero" else (a0 == 0)
    mask &= (a1 != 0) if a1_test == "nonzero" else (a1 == 0)
    if third == "a2_zero":
        mask &= a2 == 0
    elif third == "a2_nonzero":
        mask &= a2 != 0
    elif third == "a0_plus_a2_zero":
        mask &= (a0 + a2) % ring.q == 0
    elif third == "a0_plus_a1_zero":
        mask &= (a0 + a1) % ring.q == 0
    else:
        raise ValueError(third)
    return mask


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
            "modulus_unstated": row[4],
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
