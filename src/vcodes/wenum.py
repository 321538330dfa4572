"""Weight enumerators for codes over R and their MacWilliams transforms.

All enumerators are sparse integer maps; nothing here is floating point.
The MacWilliams step divides by |C| with an exact integrality check and
raises instead of rounding.

The q-ary transform substitutes (X + (q-1)Y, X - Y).  The published
statement over R prints (X + Y, X - Y), which is the binary special case;
``literal=True`` applies that printed form so the harness can document
where it breaks for q > 2.

The published symbol-class bookkeeping (eta classes and their alpha sums)
is kept in ``PUBLISHED_SYMBOL_CLASSES`` for comparison only: its class
memberships contradict the weight identity w_L = alpha1 + 2*alpha2 +
3*alpha3 that the same page relies on.  The working definition used
throughout is class(symbol) = Hamming weight of the Gray image, which makes
that identity hold symbol by symbol.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import DEFAULT_BUDGET, TransformInconsistent

# As printed: class indices 0..7 stand for the symbol shapes
#   0, a0, a1*v, a2*v^2, a0+a1*v, a0+a2*v^2, a1*v+a2*v^2, a0+a1*v+a2*v^2
# and each alpha_i sums the tallies of the listed classes.  Classes 4..7
# appear under several alphas at once, which is why this table cannot
# reproduce the Lee weight; it is exported only so reports can cite it.
PUBLISHED_SYMBOL_CLASSES = {
    "alpha0": (0,),
    "alpha1": (3, 4, 6, 7),
    "alpha2": (1, 4, 5, 6),
    "alpha3": (4, 5, 7),
}


class LeeEnumerator:
    """Counts of codewords by Lee weight; weights run 0..3n."""

    kind = "lee"

    def __init__(self, n: int, q: int, counts: dict[int, int]):
        self.n = n
        self.q = q
        self.length = 3 * n
        self.counts = {int(w): int(c) for w, c in counts.items() if c}

    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        return (
            isinstance(other, LeeEnumerator)
            and (self.n, self.q, self.counts) == (other.n, other.q, other.counts)
        )

    def __repr__(self):
        return f"LeeEnumerator(n={self.n}, q={self.q}, {self.counts})"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "counts": {str(w): c for w, c in sorted(self.counts.items())},
        }


class HammingEnumerator:
    """Counts of codewords by Hamming weight (symbols, not Gray bits)."""

    kind = "hamming"

    def __init__(self, n: int, q: int, counts: dict[int, int]):
        self.n = n
        self.q = q
        self.counts = {int(w): int(c) for w, c in counts.items() if c}

    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        return (
            isinstance(other, HammingEnumerator)
            and (self.n, self.q, self.counts) == (other.n, other.q, other.counts)
        )

    def __repr__(self):
        return f"HammingEnumerator(n={self.n}, q={self.q}, {self.counts})"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "counts": {str(w): c for w, c in sorted(self.counts.items())},
        }


class SymmetrizedEnumerator:
    """Counts keyed by (alpha0, alpha1, alpha2, alpha3) class tallies.

    A coordinate falls in class i when its symbol has Gray/Hamming weight i,
    so alpha0+alpha1+alpha2+alpha3 = n for every codeword.
    """

    kind = "swe"

    def __init__(self, n: int, q: int, counts: dict[tuple, int]):
        self.n = n
        self.q = q
        self.counts = {tuple(map(int, k)): int(c) for k, c in counts.items() if c}

    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        return (
            isinstance(other, SymmetrizedEnumerator)
            and (self.n, self.q, self.counts) == (other.n, other.q, other.counts)
        )

    def __repr__(self):
        return f"SymmetrizedEnumerator(n={self.n}, q={self.q}, {len(self.counts)} tallies)"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "counts": {",".join(map(str, k)): c for k, c in sorted(self.counts.items())},
        }


class CompleteEnumerator:
    """Counts keyed by the full per-symbol tally (w_a for every a in R)."""

    kind = "cwe"

    def __init__(self, n: int, ring, counts: dict[tuple, int]):
        self.n = n
        self.ring = ring
        self.q = ring.q
        self.counts = {tuple(map(int, k)): int(c) for k, c in counts.items() if c}

    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        return (
            isinstance(other, CompleteEnumerator)
            and (self.n, self.q, self.counts) == (other.n, other.q, other.counts)
        )

    def __repr__(self):
        return f"CompleteEnumerator(n={self.n}, q={self.q}, {len(self.counts)} tallies)"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "counts": {",".join(map(str, k)): c for k, c in sorted(self.counts.items())},
        }


def lee_enumerator(code, budget: int = DEFAULT_BUDGET) -> LeeEnumerator:
    """Exact Lee distribution by enumerating the code over R."""
    ring = code.ring
    counts = np.zeros(3 * code.n + 1, dtype=np.int64)
    for rows in code.codeword_chunks(budget):
        w = ring.lee_table[rows].sum(axis=1)
        counts += np.bincount(w, minlength=counts.size)
    return LeeEnumerator(code.n, ring.q, {i: int(c) for i, c in enumerate(counts) if c})


def hamming_enumerator_r(code, budget: int = DEFAULT_BUDGET) -> HammingEnumerator:
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for rows in code.codeword_chunks(budget):
        w = np.count_nonzero(rows, axis=1)
        counts += np.bincount(w, minlength=counts.size)
    return HammingEnumerator(code.n, code.ring.q, {i: int(c) for i, c in enumerate(counts) if c})


def symmetrized_enumerator(code, budget: int = DEFAULT_BUDGET) -> SymmetrizedEnumerator:
    ring = code.ring
    counts: dict[tuple, int] = {}
    for rows in code.codeword_chunks(budget):
        classes = ring.lee_table[rows]  # class of a symbol = its Gray weight
        m = rows.shape[0]
        flat = classes + 4 * np.arange(m, dtype=np.int64)[:, None]
        tallies = np.bincount(flat.ravel(), minlength=4 * m).reshape(m, 4)
        for t in map(tuple, tallies):
            counts[t] = counts.get(t, 0) + 1
    return SymmetrizedEnumerator(code.n, ring.q, counts)


def complete_enumerator(code, budget: int = DEFAULT_BUDGET) -> CompleteEnumerator:
    ring = code.ring
    counts: dict[tuple, int] = {}
    for rows in code.codeword_chunks(budget):
        # a tally is the multiset of a word's symbols, so count sorted rows and
        # tally only the distinct ones: memory stays O(rows * n), not O(rows * |R|)
        shapes, mult = np.unique(np.sort(rows, axis=1), axis=0, return_counts=True)
        tallies = np.zeros((len(shapes), ring.size), dtype=np.int64)
        np.add.at(tallies, (np.arange(len(shapes))[:, None], shapes), 1)
        for t, c in zip(map(tuple, tallies.tolist()), mult.tolist()):
            counts[t] = counts.get(t, 0) + c
    return CompleteEnumerator(code.n, ring, counts)


def specialize(enum, target: str):
    """Collapse a cwe/swe enumerator to the Lee or Hamming enumerator.

    Lee substitutes X^(3-i) Y^i for class i; Hamming keeps X for the zero
    symbol and Y for every nonzero one.
    """
    if target not in ("lee", "hamming"):
        raise ValueError(f"unknown target {target!r}")
    out: dict[int, int] = {}
    if isinstance(enum, SymmetrizedEnumerator):
        for (t0, t1, t2, t3), c in enum.counts.items():
            w = t1 + 2 * t2 + 3 * t3 if target == "lee" else enum.n - t0
            out[w] = out.get(w, 0) + c
        q = enum.q
    elif isinstance(enum, CompleteEnumerator):
        ring = enum.ring
        for tally, c in enum.counts.items():
            if target == "lee":
                w = sum(int(ring.lee_table[sym]) * cnt for sym, cnt in enumerate(tally))
            else:
                w = sum(cnt for sym, cnt in enumerate(tally) if sym != 0)
            out[w] = out.get(w, 0) + c
        q = enum.q
    else:
        raise ValueError("specialize expects a symmetrized or complete enumerator")
    if target == "lee":
        return LeeEnumerator(enum.n, q, out)
    return HammingEnumerator(enum.n, q, out)


def macwilliams_counts(
    counts: dict[int, int],
    length: int,
    q: int,
    code_size: int,
    literal: bool = False,
) -> dict[int, int]:
    """Dual weight distribution via (1/|C|) W(X+(q-1)Y, X-Y) on ``length`` coords.

    ``literal=True`` uses the printed (X+Y, X-Y) form instead.  Exact integer
    arithmetic; raises TransformInconsistent when the result is not a
    nonnegative integer distribution.
    """
    f = 1 if literal else q - 1
    acc = [0] * (length + 1)
    for w, e in counts.items():
        if not e:
            continue
        left = [comb(length - w, i) * f**i for i in range(length - w + 1)]
        right = [comb(w, i) * (-1) ** i for i in range(w + 1)]
        for i, a in enumerate(left):
            if not a:
                continue
            for j, b in enumerate(right):
                acc[i + j] += e * a * b
    out: dict[int, int] = {}
    for w, c in enumerate(acc):
        if c % code_size:
            raise TransformInconsistent(
                f"coefficient at weight {w} is {c}/{code_size}, not an integer"
            )
        c //= code_size
        if c < 0:
            raise TransformInconsistent(f"coefficient at weight {w} is negative ({c})")
        if c:
            out[w] = c
    return out


def macwilliams_lee(enum: LeeEnumerator, code_size: int, literal: bool = False) -> LeeEnumerator:
    """Lee distribution of the dual code from the code's own distribution."""
    if enum.total() != code_size:
        raise TransformInconsistent(
            f"enumerator total {enum.total()} does not match |C| = {code_size}"
        )
    out = macwilliams_counts(enum.counts, enum.length, enum.q, code_size, literal)
    return LeeEnumerator(enum.n, enum.q, out)


def macwilliams_hamming_fq(
    enum: HammingEnumerator, code_size: int, literal: bool = False
) -> HammingEnumerator:
    """Field-level MacWilliams transform for Hamming enumerators over GF(q)."""
    out = macwilliams_counts(enum.counts, enum.n, enum.q, code_size, literal)
    return HammingEnumerator(enum.n, enum.q, out)


def product_counts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Distribution of a direct product: convolution of weight counts."""
    out: dict[int, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out


def enumerator_from_json_obj(obj: dict, ring=None):
    """Inverse of to_json_obj; cwe needs the ring passed in."""
    kind = obj["kind"]
    n = int(obj["n"])
    if kind in ("lee", "hamming"):
        counts = {int(k): int(v) for k, v in obj["counts"].items()}
        q = obj.get("q")
        cls = LeeEnumerator if kind == "lee" else HammingEnumerator
        return cls(n, q if q else 0, counts)
    counts = {tuple(map(int, k.split(","))): int(v) for k, v in obj["counts"].items()}
    if kind == "swe":
        return SymmetrizedEnumerator(n, obj.get("q", 0), counts)
    if kind == "cwe":
        if ring is None:
            raise ValueError("cwe deserialization needs the ring")
        return CompleteEnumerator(n, ring, counts)
    raise ValueError(f"unknown enumerator kind {kind!r}")
