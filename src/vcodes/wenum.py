"""Weight enumerators for codes over R and their MacWilliams transforms.

One ``WeightEnumerator`` class holds all four kinds: the Lee and Hamming
enumerators, the symmetrized enumerator (swe) and the complete enumerator
(cwe).  Each is a sparse integer map from a key to a codeword count;
nothing here is floating point.  Lee and Hamming are built by one bincount
of per-row weights, swe and cwe by one tally of distinct sorted rows, and
``specialize`` collapses swe or cwe to Lee or Hamming through the Lee
weight of each tally slot.  The MacWilliams step checks the enumerator's
total against |C|, divides by |C| with an exact integrality check and
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
from operator import mul

import numpy as np

from .errors import DEFAULT_BUDGET, TransformInconsistent
from .ring import ring_over

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

_WEIGHT_KINDS = ("lee", "hamming")  # int keys; swe and cwe have tuple keys


class WeightEnumerator:
    """Counts of the codewords of a length-n code over R, keyed by ``kind``.

    lee and hamming key by an int weight: Lee weights run 0..3n, Hamming
    weights count nonzero symbols (not Gray bits) and run 0..n.  swe and
    cwe key by a tuple tally.  An swe tally (alpha0, alpha1, alpha2, alpha3)
    counts the coordinates in each class, where a symbol's class is its
    Gray/Hamming weight, so the alphas sum to n.  A cwe tally holds w_a for
    every a in R.  ``fieldcode.hamming_enumerator_fq`` uses the hamming
    kind for codes over GF(q).

    Keys (ints, or tuples of ints) and counts must be Python ints, not numpy
    scalars: they are stored as given, and zero counts are dropped.
    """

    def __init__(self, kind: str, n: int, q: int, counts: dict):
        if kind not in _WEIGHT_KINDS + ("swe", "cwe"):
            raise ValueError(f"unknown enumerator kind {kind!r}")
        self.kind = kind
        self.n = n
        self.q = q
        self.counts = {k: c for k, c in counts.items() if c}

    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        return (
            isinstance(other, WeightEnumerator)
            and (self.kind, self.n, self.q, self.counts) == (other.kind, other.n, other.q, other.counts)
        )

    def __repr__(self):
        return f"WeightEnumerator({self.kind!r}, n={self.n}, q={self.q}, {self.counts})"

    def to_json_obj(self) -> dict:
        key = str if self.kind in _WEIGHT_KINDS else (lambda k: ",".join(map(str, k)))
        return {
            "n": self.n,
            "kind": self.kind,
            "counts": {key(k): c for k, c in sorted(self.counts.items())},
        }


def _count_by_weight(kind: str, code, row_weights, budget: int) -> WeightEnumerator:
    """Count codewords by the weight ``row_weights`` gives each row."""
    counts = np.zeros(3 * code.n + 1, dtype=np.int64)
    for rows in code.codeword_chunks(budget):
        counts += np.bincount(row_weights(rows), minlength=counts.size)
    return WeightEnumerator(kind, code.n, code.ring.q, dict(enumerate(counts.tolist())))


def _count_by_tally(kind: str, code, symbol_slot: np.ndarray, slots: int, budget: int) -> WeightEnumerator:
    """Count codewords by how many of their symbols a fall in slot symbol_slot[a]."""
    counts: dict[tuple, int] = {}
    for rows in code.codeword_chunks(budget):
        # a tally is the multiset of a word's slots, so count sorted rows and
        # tally only the distinct ones: memory stays O(rows * n), not O(rows * slots)
        shapes, mult = np.unique(np.sort(symbol_slot[rows], axis=1), axis=0, return_counts=True)
        tallies = np.zeros((len(shapes), slots), dtype=np.int64)
        np.add.at(tallies, (np.arange(len(shapes))[:, None], shapes), 1)
        for t, c in zip(map(tuple, tallies.tolist()), mult.tolist()):
            counts[t] = counts.get(t, 0) + c
    return WeightEnumerator(kind, code.n, code.ring.q, counts)


def lee_enumerator(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    """Exact Lee distribution by enumerating the code over R."""
    return _count_by_weight("lee", code, lambda rows: code.ring.lee_table[rows].sum(axis=1), budget)


def hamming_enumerator_r(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    return _count_by_weight("hamming", code, lambda rows: np.count_nonzero(rows, axis=1), budget)


def symmetrized_enumerator(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    return _count_by_tally("swe", code, code.ring.lee_table, 4, budget)


def complete_enumerator(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    return _count_by_tally("cwe", code, np.arange(code.ring.size), code.ring.size, budget)


def specialize(enum: WeightEnumerator, target: str) -> WeightEnumerator:
    """Collapse a swe or cwe enumerator to the Lee or Hamming enumerator.

    Each tally slot has a Lee weight: slot i of a swe tally holds the
    symbols of class i, slot a of a cwe tally the symbol a.  Lee substitutes
    X^(3-w) Y^w for a slot of weight w; Hamming keeps X for weight 0 and Y
    for every other slot, which is exact because the Gray map is injective,
    so only the zero symbol has weight 0.
    """
    if target not in ("lee", "hamming"):
        raise ValueError(f"unknown target {target!r}")
    if enum.kind == "swe":
        weights = np.arange(4)
    elif enum.kind == "cwe":
        weights = ring_over(enum.q).lee_table
    else:
        raise ValueError("specialize expects a symmetrized or complete enumerator")
    weights = (weights if target == "lee" else weights > 0).tolist()
    out: dict[int, int] = {}
    for tally, c in enum.counts.items():
        w = sum(map(mul, tally, weights))
        out[w] = out.get(w, 0) + c
    return WeightEnumerator(target, enum.n, enum.q, out)


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


def _macwilliams(enum: WeightEnumerator, length: int, code_size: int, literal: bool) -> WeightEnumerator:
    if enum.total() != code_size:
        raise TransformInconsistent(
            f"enumerator total {enum.total()} does not match |C| = {code_size}"
        )
    out = macwilliams_counts(enum.counts, length, enum.q, code_size, literal)
    return WeightEnumerator(enum.kind, enum.n, enum.q, out)


def macwilliams_lee(enum: WeightEnumerator, code_size: int, literal: bool = False) -> WeightEnumerator:
    """Lee distribution of the dual code from the code's own distribution."""
    return _macwilliams(enum, 3 * enum.n, code_size, literal)


def macwilliams_hamming_fq(enum: WeightEnumerator, code_size: int) -> WeightEnumerator:
    """Field-level MacWilliams transform for Hamming enumerators over GF(q)."""
    return _macwilliams(enum, enum.n, code_size, False)


def product_counts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Distribution of a direct product: convolution of weight counts."""
    out: dict[int, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out
