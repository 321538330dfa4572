"""Weight enumerators for codes over R and their MacWilliams transforms.

One ``WeightEnumerator`` class holds all four kinds: the Lee and Hamming
enumerators, the symmetrized enumerator (swe) and the complete enumerator
(cwe).  Each is a sparse integer map from a key to a codeword count.
The Lee enumerator is the Hamming enumerator of the Gray image (Theorem 7
item 3), counted by ``fieldcode.span_weight_counts`` from the Gray images of
the flattened basis without forming a word; its float32 products are
exact, so every count is an integer.  ``fill_lee_enumerators`` counts a
list of codes in stacks of equal-shape Gray bases and leaves each result on
its code, which ``lee_enumerator`` returns while the code is within the
caller's budget.  The element-space tally
``lee_enumerator_by_table`` sums ``lee_table`` over every codeword instead:
it is the independent side of that theorem's check and the oracle the Gray
count is tested against.  Hamming is one bincount of per-row weights.  swe
and cwe sort each codeword's slots by a merge network over whole columns,
pack each sorted row into one exact int64 key (folding long rows a block at
a time), group equal keys by one unstable argsort and hold one row per group
with its multiplicity; the dict of tuple-keyed ``counts`` is built from them
only on first read.  ``total`` sums the multiplicities and ``specialize``
collapses swe or cwe to Lee or Hamming by summing the Lee weight of each
row's slots.  The MacWilliams step checks the enumerator's total against
|C|, divides by |C| with an exact integrality check and raises instead of
rounding.

The q-ary transform substitutes (X + (q-1)Y, X - Y).  The published
statement over R prints (X + Y, X - Y), which is its q = 2 case: the harness
applies that printed form as ``macwilliams_counts(..., 2, ...)`` to show
where it breaks for q > 2.

A symbol's swe class is the Hamming weight of its Gray image, which makes
the weight identity w_L = alpha1 + 2*alpha2 + 3*alpha3 hold symbol by symbol.
"""

from __future__ import annotations

from functools import cache
from math import comb

import numpy as np

from . import fieldcode
from .errors import DEFAULT_BUDGET, ParamMismatch, ShapeError, TransformInconsistent
from .ring import ring_over

_WEIGHT_KINDS = ("lee", "hamming")  # int keys; swe and cwe have tuple keys
_TALLY_BLOCK = 4096  # distinct tallies turned into tuple keys at once


class WeightEnumerator:
    """Counts of the codewords of a length-n code over R, keyed by ``kind``.

    lee and hamming key by an int weight: Lee weights run 0..3n, Hamming
    weights count nonzero symbols (not Gray bits) and run 0..n.  swe and
    cwe key by a tuple tally.  An swe tally (alpha0, alpha1, alpha2, alpha3)
    counts the coordinates in each class, where a symbol's class is its
    Gray/Hamming weight, so the alphas sum to n.  A cwe tally holds w_a for
    every a in R.  ``hamming_enumerator_fq`` uses the hamming
    kind for codes over GF(q).

    Keys (ints, or tuples of ints) and counts must be Python ints, not numpy
    scalars: they are stored as given, and zero counts are dropped.  A
    counts dict without a zero count is kept itself, not copied.

    An swe or cwe enumerator of a code holds slot rows instead of a dict:
    ``shapes``, a (T, n) int16 array whose row lists in sorted order the
    slot of each coordinate of one tally t (slot i appears t[i] times), and
    ``mult``, the (T,) int64 number of codewords with each tally.  ``counts``
    is built from them on first read.  One made from a counts dict keeps it
    and gets its slot rows from it, so ``specialize`` and ``total`` read slot
    rows for every swe and cwe enumerator.
    """

    def __init__(self, kind: str, n: int, q: int, counts: dict):
        if kind not in _WEIGHT_KINDS + ("swe", "cwe"):
            raise ParamMismatch(f"unknown enumerator kind {kind!r}")
        self.kind = kind
        self.n = n
        self.q = q
        self._counts = counts if all(counts.values()) else {k: c for k, c in counts.items() if c}
        self._rows = None if kind in _WEIGHT_KINDS else _rows_of_counts(self._counts, n, self._slots())

    @classmethod
    def _of_slot_rows(cls, kind: str, n: int, q: int, shapes: np.ndarray, mult: np.ndarray) -> "WeightEnumerator":
        enum = cls.__new__(cls)
        enum.kind, enum.n, enum.q = kind, n, q
        enum._counts, enum._rows = None, (shapes, mult)
        return enum

    def _slots(self) -> int:
        return 4 if self.kind == "swe" else self.q**3

    @property
    def counts(self) -> dict:
        if self._counts is None:
            self._counts = _tally_counts(*self._rows, self._slots())
        return self._counts

    def total(self) -> int:
        if self._rows is not None:
            return int(self._rows[1].sum())
        return sum(self._counts.values())

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


def _tally_counts(shapes: np.ndarray, mult: np.ndarray, slots: int) -> dict[tuple, int]:
    """The counts dict of slot rows, keyed by each row's tally as a tuple of
    Python ints; a bounded block of rows at a time keeps the peak down."""
    counts: dict[tuple, int] = {}
    for i in range(0, len(shapes), _TALLY_BLOCK):
        block = shapes[i : i + _TALLY_BLOCK]
        tallies = np.bincount((block + slots * np.arange(len(block))[:, None]).ravel(), minlength=len(block) * slots)
        counts.update(zip(map(tuple, tallies.reshape(-1, slots).tolist()), mult[i : i + _TALLY_BLOCK].tolist()))
    return counts


def _rows_of_counts(counts: dict, n: int, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot rows of a counts dict: tally t becomes the row holding slot i t[i] times."""
    tallies = np.array(list(counts), dtype=np.int64).reshape(len(counts), slots)
    if (tallies < 0).any() or (tallies.sum(axis=1) != n).any():
        raise ShapeError(f"every tally must hold {slots} nonnegative entries summing to n = {n}")
    slot_ids = np.tile(np.arange(slots, dtype=np.int16), len(counts))
    shapes = np.repeat(slot_ids, tallies.ravel()).reshape(len(counts), n)
    return shapes, np.array(list(counts.values()), dtype=np.int64)


def _count_by_weight(kind: str, code, row_weights, budget: int) -> WeightEnumerator:
    """Count codewords by the weight ``row_weights`` gives each row."""
    counts = np.zeros(3 * code.n + 1, dtype=np.int64)
    for rows in code.codeword_chunks(budget):
        counts += np.bincount(row_weights(rows), minlength=counts.size)
    return WeightEnumerator(kind, code.n, code.ring.q, dict(enumerate(counts.tolist())))


@cache
def _merge_network(n: int) -> tuple[tuple[int, int], ...]:
    """The compare-exchange pairs (i, j), i < j, of Batcher's odd-even merge
    sort on n inputs (Knuth, TAOCP vol. 3, 5.3.4), in the order they apply."""
    pairs = []
    p = 1
    while p < n:
        k = p
        while k:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, j + min(k, n - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` with each row sorted in place, by running the merge network over
    whole columns: O(n log^2 n) elementwise min/max pairs for rows of length n,
    each over every row at once, where ``np.sort(axis=1)`` pays per row."""
    cols = list(rows.T)
    for i, j in _merge_network(rows.shape[1]):
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    for j, col in enumerate(cols):  # a column no pair touched is still a view of its own
        rows[:, j] = col
    return rows


def _row_keys(rows: np.ndarray, slots: int) -> np.ndarray:
    """One int64 per row of digits below ``slots``, equal exactly when the rows
    are: the digits packed base ``slots`` by Horner's rule, a block of columns
    at a time.  Between blocks the partial key is replaced by its dense rank,
    below m = len(rows), and a block is as wide as m * slots^width <= 2^63
    allows, so no key overflows at any n."""
    m, n = rows.shape
    width = 1
    while width < n and m * slots ** (width + 1) <= 2**63:
        width += 1
    key = np.zeros(m, dtype=np.int64)
    for start in range(0, n, width):
        if start:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64, copy=False)
        for digits in rows[:, start : start + width].T:
            key *= slots
            key += digits
    return key


def _groups(shapes: np.ndarray, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows of ``shapes`` (digits below ``slots``) by
    key, and the positions in that order where each run of equal rows starts."""
    key = _row_keys(shapes, slots)
    order = np.argsort(key)  # unstable: rows that share a key are equal, so any one stands for them
    key = key[order]
    return order, np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))


def _count_by_tally(kind: str, code, symbol_slot: np.ndarray, budget: int) -> WeightEnumerator:
    """Count codewords by how many of their symbols a fall in slot symbol_slot[a]:
    a tally is the multiset of a word's slots, so only the distinct sorted int16
    slot rows (a slot is below |R| < 2^15) are kept.  Rows are grouped by exact
    int64 keys base ``len(symbol_slot)``, which bounds every slot, first within
    each chunk and then, when there is more than one, across chunks, where the
    multiplicities are summed."""
    slots = len(symbol_slot)
    symbol_slot = symbol_slot.astype(np.int16)
    parts = []
    for rows in code.codeword_chunks(budget):
        rows = _sort_rows(symbol_slot[rows])  # drop the int64 chunk before the next one
        order, starts = _groups(rows, slots)
        parts.append((np.take(rows, order[starts], axis=0), np.diff(starts, append=len(rows))))
    if len(parts) == 1:  # one chunk's rows are already distinct and in key order
        shapes, mult = parts[0]
    else:
        shapes, mults = map(np.concatenate, zip(*parts))
        order, starts = _groups(shapes, slots)
        shapes = np.take(shapes, order[starts], axis=0)
        mult = np.add.reduceat(mults[order], starts)  # exact int64 sums
    return WeightEnumerator._of_slot_rows(kind, code.n, code.ring.q, shapes, mult)


def lee_enumerator(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    """Exact Lee distribution, as the Hamming weight counts of the Gray image
    spanned by ``code.gray_basis()``, or the one ``fill_lee_enumerators``
    left on the code when the code is within ``budget``."""
    if "_lee" in vars(code) and code.size <= budget:
        return code._lee
    counts = fieldcode.span_weight_counts(code.gray_basis(), code.ring.q, budget)
    return WeightEnumerator("lee", code.n, code.ring.q, dict(enumerate(counts.tolist())))


def fill_lee_enumerators(codes, budget: int = DEFAULT_BUDGET) -> None:
    """Leave on each R-code within ``budget`` the ``lee_enumerator`` it would
    compute: the Gray bases of each (q, n, dim) go through one stacked
    ``span_weight_counts``.  A code over budget gets none, so its own call
    still raises."""
    codes = [code for code in codes if code.size <= budget]
    for (q, n, _), where in fieldcode._positions((c.ring.q, c.n, c.dim_fq) for c in codes).items():
        group = [codes[i] for i in where]
        counts = fieldcode.span_weight_counts(np.stack([code.gray_basis() for code in group]), q, budget)
        for code, row in zip(group, counts.tolist()):
            code._lee = WeightEnumerator("lee", n, q, dict(enumerate(row)))


def lee_enumerator_by_table(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    """Exact Lee distribution by summing ``lee_table`` over every codeword over R."""
    return _count_by_weight("lee", code, lambda rows: code.ring.lee_table[rows].sum(axis=1), budget)


def hamming_enumerator_r(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    return _count_by_weight("hamming", code, lambda rows: np.count_nonzero(rows, axis=1), budget)


def symmetrized_enumerator(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    return _count_by_tally("swe", code, code.ring.lee_table, budget)


def complete_enumerator(code, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    return _count_by_tally("cwe", code, np.arange(code.ring.size), budget)


def specialize(enum: WeightEnumerator, target: str) -> WeightEnumerator:
    """Collapse a swe or cwe enumerator to the Lee or Hamming enumerator.

    Each tally slot has a Lee weight: slot i of a swe tally holds the
    symbols of class i, slot a of a cwe tally the symbol a.  Lee substitutes
    X^(3-w) Y^w for a slot of weight w; Hamming keeps X for weight 0 and Y
    for every other slot, which is exact because the Gray map is injective,
    so only the zero symbol has weight 0.  A tally's weight is the sum of
    the weights of its slot row.
    """
    if target not in ("lee", "hamming"):
        raise ParamMismatch(f"unknown target {target!r}")
    if enum.kind == "swe":
        weights = np.arange(4)
    elif enum.kind == "cwe":
        weights = ring_over(enum.q).lee_table
    else:
        raise ParamMismatch("specialize expects a symmetrized or complete enumerator")
    if target == "hamming":
        weights = weights > 0
    shapes, mult = enum._rows
    counts = np.zeros(3 * enum.n + 1, dtype=np.int64)
    np.add.at(counts, weights[shapes].sum(axis=1), mult)  # exact int64 sums
    return WeightEnumerator(target, enum.n, enum.q, dict(enumerate(counts.tolist())))


def macwilliams_counts(counts: dict[int, int], length: int, q: int, code_size: int) -> dict[int, int]:
    """Dual weight distribution via (1/|C|) W(X+(q-1)Y, X-Y) on ``length`` coords;
    at q = 2 this is the binary (X+Y, X-Y).  Exact integer arithmetic; raises
    TransformInconsistent when the result is not a nonnegative integer distribution.
    """
    acc = [0] * (length + 1)
    for w, e in counts.items():
        if not e:
            continue
        left = [comb(length - w, i) * (q - 1) ** i for i in range(length - w + 1)]
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


def _macwilliams(enum: WeightEnumerator, length: int, code_size: int) -> WeightEnumerator:
    if enum.total() != code_size:
        raise TransformInconsistent(
            f"enumerator total {enum.total()} does not match |C| = {code_size}"
        )
    out = macwilliams_counts(enum.counts, length, enum.q, code_size)
    return WeightEnumerator(enum.kind, enum.n, enum.q, out)


def macwilliams_lee(enum: WeightEnumerator, code_size: int) -> WeightEnumerator:
    """Lee distribution of the dual code from the code's own distribution."""
    return _macwilliams(enum, 3 * enum.n, code_size)


def hamming_enumerator_fq(code: fieldcode.LinearCodeFq, budget: int = DEFAULT_BUDGET) -> WeightEnumerator:
    return WeightEnumerator("hamming", code.n, code.field.q, code.weight_counts(budget))


def macwilliams_hamming_fq(enum: WeightEnumerator, code_size: int) -> WeightEnumerator:
    """Field-level MacWilliams transform for Hamming enumerators over GF(q)."""
    return _macwilliams(enum, enum.n, code_size)


def product_counts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Distribution of a direct product: convolution of weight counts."""
    out: dict[int, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out
