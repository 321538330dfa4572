"""Text file formats for matrices over GF(q) and generator lists over R.

Both start with a header line ``q=<q> n=<n>``.  Matrix files continue with
rows of whitespace-separated integers mod q; code files continue with one
generator per line, entries whitespace-separated in the ring element
grammar (``[a0,a1,a2]`` or ``1+2v`` style, no internal spaces).
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .fieldcode import LinearCodeFq
from .gf import GF
from .ring import Ring, format_row, parse_elem, ring_over
from .ringcode import LinearCodeR

_HEADER_RE = re.compile(r"^q=([0-9]+)\s+n=([0-9]+)$")


def _read_rows(text: str, over, entry, what: str) -> tuple:
    """``over(q)``, checked before any row is read, the length n and the rows of
    a file in either syntax, each of a line's n entries read by ``entry(over(q), text)``."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"bad header {lines[0]!r}, expected 'q=<q> n=<n>'")
    domain, n = over(int(m.group(1))), int(m.group(2))
    rows = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != n:
            raise ParseError(f"{what} has {len(entries)} entries, expected {n}")
        rows.append(tuple(entry(domain, e) for e in entries))
    return domain, n, rows


def _field_entry(field: GF, text: str) -> int:
    if not re.fullmatch("[+-]?[0-9]+", text):
        raise ParseError(f"bad matrix entry {text!r}, expected an integer mod q")
    return int(text) % field.q


def _ring_entry(ring: Ring, text: str) -> int:
    return parse_elem(ring, text).idx


def parse_matrix_file(text: str) -> tuple[GF, int, np.ndarray]:
    field, n, rows = _read_rows(text, GF, _field_entry, "row")
    return field, n, np.array(rows, dtype=np.int64).reshape(len(rows), n)


def parse_code_file(text: str) -> LinearCodeR:
    return LinearCodeR(*_read_rows(text, ring_over, _ring_entry, "generator"))


def parse_ring_matrix_file(text: str) -> tuple[Ring, list[tuple[int, ...]]]:
    """A square grid of ring elements in the code-file syntax."""
    ring, n, rows = _read_rows(text, ring_over, _ring_entry, "matrix row")
    if len(rows) != n:
        raise ParseError(f"matrix has {len(rows)} rows, expected {n}")
    return ring, rows


def format_code_file(code: LinearCodeR) -> str:
    rows = [" ".join(format_row(code.ring, g)) for g in code.gens]
    return "\n".join([f"q={code.ring.q} n={code.n}", *rows]) + "\n"


def parse_vector(ring: Ring, text: str) -> tuple[int, ...]:
    return tuple(_ring_entry(ring, e) for e in text.split())


def format_field_code(code: LinearCodeFq) -> str:
    """A matrix file holding the code's basis."""
    rows = [" ".join(map(str, row)) for row in code.gen.tolist()]
    return "\n".join([f"q={code.field.q} n={code.n}", *rows]) + "\n"
