"""Replay the witnesses of the recorded seed-42 report from its text alone.

Each check reads the printed rows and re-derives the claim with the oracle
ring tables and plain arithmetic, none of the production kernels:

- a ``cor10`` witness spans, over R, a shift-closed code of |R|^(n/2) words
  that is orthogonal to itself, so it is self-dual;
- the ``thm20`` witness has |C|^2 = |R|^n, the Lee distribution of its
  brute-force orthogonal, and a word of odd Lee weight;
- an example's minimum-weight codeword lies in the code [I | B]: its second
  half is its first half times B.  Its Lee weight is the distance the report
  states, below the published one;
- ``lem5-distance``'s first counterexample has the stated least Lee weight,
  and a smaller least weight over its images under v -> 1, -1, 0;
- ``cardinality-identity``'s first literal mismatch has the stated size, and
  its literal projections a, a+b, a+b+c the stated product of sizes;
- ``thm7-4``'s counterexample has the stated Lee distribution of its
  brute-force orthogonal, and the printed (X+Y, X-Y) substitution is first
  negative where the stated error says.

Each kind of witness also has a fault row: a corrupted witness must fail.
"""

import json
import math
import re
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from vcodes.verify import EX13_PRINTED_ROWS, EX15_PRINTED_ROWS, EX17_ALPHA, EX17_OMEGA, EX17_PRINTED_CORE

from oracles import (
    binary_substitution,
    bordered_rows,
    circulant_rows,
    closure_codewords,
    eval_table,
    ring_tables,
    upper_triangle_rows,
)

REPORT = json.loads((Path(__file__).parent / "data" / "report_seed42.json").read_text())
ENTRIES = {e["claim_id"]: e for e in REPORT["entries"]}


def _triple(q, text) -> int:
    """The element index a0 + a1 q + a2 q^2 of a printed ``[a0,a1,a2]``."""
    a0, a1, a2 = map(int, re.fullmatch(r"\[(\d+),(\d+),(\d+)\]", text).groups())
    return a0 + a1 * q + a2 * q * q


def _printed(q, text) -> int:
    """The element index of a printed sum such as ``1+2v+2v^2``."""
    coeffs = [0, 0, 0]
    for term in text.split("+"):
        c, var, square = re.fullmatch(r"(\d*)(v(\^2)?)?", term).groups()
        coeffs[2 if square else 1 if var else 0] += int(c or 1)
    return sum(c % q * q**k for k, c in enumerate(coeffs))


def _lee(q, word) -> int:
    """The Hamming weight of the Gray image (a0, a0 + a2, a1) of each entry."""
    return sum(
        (x % q != 0) + ((x % q + x // (q * q)) % q != 0) + (x // q % q != 0) for x in word
    )


def _dot(q, x, y) -> int:
    mul, add = ring_tables(q)
    total = 0
    for a, b in zip(x, y):
        total = add[total, mul[a, b]]
    return int(total)


def _span(q, n, rows) -> set:
    return closure_codewords(SimpleNamespace(ring=SimpleNamespace(q=q, size=q**3), n=n, gens=rows))


def _witnesses(claim_id, key):
    """(q, n, printed rows) of every witness a claim recorded."""
    for label, entry in ENTRIES[claim_id]["observed"].items():
        if key in entry:
            q, n = (int(v) for v in re.fullmatch(r"q=(\d+),n=(\d+)", label).groups())
            yield pytest.param(q, n, entry[key], id=label)


def _self_dual_cyclic(q, n, rows) -> bool:
    words = _span(q, n, [tuple(_triple(q, x) for x in row) for row in rows])
    return (
        len(words) == q ** (3 * n // 2)
        and all(w[-1:] + w[:-1] in words for w in words)
        and all(_dot(q, x, y) == 0 for x in words for y in words)
    )


def _odd_fsd(q, n, rows) -> bool:
    words = _span(q, n, [tuple(_triple(q, x) for x in row) for row in rows])
    orthogonal = [y for y in product(range(q**3), repeat=n) if all(_dot(q, x, y) == 0 for x in words)]
    return (
        len(words) ** 2 == q ** (3 * n)
        and Counter(_lee(q, w) for w in words) == Counter(_lee(q, y) for y in orthogonal)
        and any(_lee(q, w) % 2 for w in words)
    )


def _counterexample_words(q, found) -> set:
    return _span(q, len(found["gens"][0]), [tuple(g) for g in found["gens"]])


def _lem5_disagrees(q, found) -> bool:
    words = [w for w in _counterexample_words(q, found) if any(w)]
    table = eval_table(q)
    images = {tuple(int(table[t][x]) for x in w) for t in (1, q - 1, 0) for w in words}
    component_minimum = min(sum(map(bool, image)) for image in images if any(image))
    return min(_lee(q, w) for w in words) == found["exact"] > found["component_minimum"] == component_minimum


def _literal_product_differs(found) -> bool:
    q = found["q"]
    words = _counterexample_words(q, found)
    digits = [[[x // q**i % q for i in range(3)] for x in w] for w in words]
    sizes = [len({tuple(sum(d[: j + 1]) % q for d in w) for w in digits}) for j in range(3)]  # a, a+b, a+b+c
    return len(words) == found["size"] != found["literal_product"] == math.prod(sizes)


def _literal_macwilliams_fails(found) -> bool:
    q = found["q"]
    words = _counterexample_words(q, found)
    n = len(found["gens"][0])
    orthogonal = [y for y in product(range(q**3), repeat=n) if all(_dot(q, x, y) == 0 for x in words)]
    literal = binary_substitution(Counter(_lee(q, w) for w in words), 3 * n, len(words))
    weight, value = map(int, re.fullmatch(r"coefficient at weight (\d+) is negative \((-\d+)\)", found["literal_error"]).groups())
    return (
        {str(w): c for w, c in Counter(_lee(q, y) for y in orthogonal).items()} == found["dual_counts"]
        and min(w for w, v in literal.items() if v < 0) == weight
        and literal[weight] == value
    )


def _grid(q, rows):
    return [[_printed(q, e) for e in row] for row in rows]


# claim: q, the B of [I | B] rebuilt as the claim's note describes, and where the report states d
EXAMPLES = {
    "ex13-symmetric": (3, upper_triangle_rows(_grid(3, EX13_PRINTED_ROWS)), lambda obs: obs["gray_parameters"][2]),
    "ex15-double-circulant": (5, circulant_rows(_grid(5, EX15_PRINTED_ROWS)[0]), lambda obs: obs["minimum_distance_exact"]),
    "ex17-bordered": (
        3,
        bordered_rows(_printed(3, EX17_ALPHA), _printed(3, EX17_OMEGA), _grid(3, EX17_PRINTED_CORE)[0]),
        lambda obs: obs["gray_parameters"][2],
    ),
}


def _in_code_at_distance(claim_id, word) -> bool:
    q, b, stated = EXAMPLES[claim_id]
    entry = ENTRIES[claim_id]
    n = len(b)
    word = [_triple(q, x) for x in word]
    columns = [[row[j] for row in b] for j in range(n)]
    return (
        len(word) == 2 * n
        and word[n:] == [_dot(q, word[:n], column) for column in columns]
        and 0 < _lee(q, word) == stated(entry["observed"]) < entry["expected"][2]
    )


@pytest.mark.parametrize("q, n, rows", list(_witnesses("cor10-self-dual-cyclic", "witness_generators")))
def test_cor10_witness_is_self_dual_and_cyclic(q, n, rows):
    assert _self_dual_cyclic(q, n, rows)


@pytest.mark.parametrize("q, n, rows", list(_witnesses("thm20-odd-fsd", "witness_generators")))
def test_thm20_witness_is_odd_and_formally_self_dual(q, n, rows):
    assert _odd_fsd(q, n, rows)


@pytest.mark.parametrize("claim_id", list(EXAMPLES))
def test_example_codeword_is_in_the_code_at_the_stated_distance(claim_id):
    assert _in_code_at_distance(claim_id, ENTRIES[claim_id]["observed"]["minimum_weight_codeword"])


LEM5 = ENTRIES["lem5-distance"]["observed"]["first_counterexample"]
CARDINALITY = ENTRIES["cardinality-identity"]["observed"]["first_literal_mismatch"]
THM7_4 = ENTRIES["thm7-4-macwilliams"]["observed"]["literal_form_counterexample"]


def test_lem5_counterexample_has_the_stated_distances():
    assert _lem5_disagrees(3, LEM5)  # the claim draws q = 3 codes only


def test_cardinality_mismatch_has_the_stated_sizes():
    assert _literal_product_differs(CARDINALITY)


def test_thm7_4_counterexample_fails_the_printed_transform_as_stated():
    assert _literal_macwilliams_fails(THM7_4)


def _recorded(claim_id, label):
    return ENTRIES[claim_id]["observed"][label]["witness_generators"]


def _first_entry_replaced(rows, entry):
    return [[entry, *rows[0][1:]], *rows[1:]]


@pytest.mark.parametrize(
    "check, args",
    [
        # (1,1) replaced by (0,1): the span has 32 words, not 8
        pytest.param(
            _self_dual_cyclic,
            (2, 2, _first_entry_replaced(_recorded("cor10-self-dual-cyclic", "q=2,n=2"), "[0,0,0]")),
            id="cor10",
        ),
        # (v,0) replaced by (1,0): |C| = 3^4, so |C|^2 != 3^6
        pytest.param(_odd_fsd, (3, 2, _first_entry_replaced(_recorded("thm20-odd-fsd", "q=3,n=2"), "[1,0,0]")), id="thm20"),
        # the ex17 word with v+2v^2 replaced by v+v^2, of the same Lee weight, off the code
        pytest.param(
            _in_code_at_distance,
            ("ex17-bordered", _first_entry_replaced([ENTRIES["ex17-bordered"]["observed"]["minimum_weight_codeword"]], "[0,1,1]")[0]),
            id="ex17",
        ),
        # the component minimum raised to the exact distance, as if the lemma held
        pytest.param(_lem5_disagrees, (3, {**LEM5, "component_minimum": LEM5["exact"]}), id="lem5-distance"),
        # a literal product of 3^4 where the projections give 3^5
        pytest.param(_literal_product_differs, ({**CARDINALITY, "literal_product": 81},), id="cardinality-identity"),
        # one dual word moved from Lee weight 5 to 3: the same total, another distribution
        pytest.param(
            _literal_macwilliams_fails,
            ({**THM7_4, "dual_counts": {**THM7_4["dual_counts"], "3": 5, "5": 7}},),
            id="thm7-4",
        ),
    ],
)
def test_a_corrupted_witness_fails_its_replay(check, args):
    assert not check(*args)
