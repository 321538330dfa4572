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

_HEADER_RE = re.compile(r"^q=(\d+)\s+n=(\d+)$")


def _split_header(text: str) -> tuple[int, int, list[str]]:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise ParseError(f"bad header {lines[0]!r}, expected 'q=<q> n=<n>'")
    return int(m.group(1)), int(m.group(2)), lines[1:]


def parse_matrix_file(text: str) -> tuple[GF, int, np.ndarray]:
    q, n, lines = _split_header(text)
    field = GF(q)
    rows = []
    for ln in lines:
        entries = ln.split()
        if len(entries) != n:
            raise ParseError(f"row has {len(entries)} entries, expected {n}")
        rows.append([int(e) % q for e in entries])
    mat = np.array(rows, dtype=np.int64) if rows else np.zeros((0, n), dtype=np.int64)
    return field, n, mat


def _element_rows(text: str, what: str) -> tuple[Ring, int, list[tuple[int, ...]]]:
    """The ring, the length n and the element-index rows of a file in the code-file syntax."""
    q, n, lines = _split_header(text)
    ring = ring_over(q)
    rows = []
    for ln in lines:
        entries = ln.split()
        if len(entries) != n:
            raise ParseError(f"{what} has {len(entries)} entries, expected {n}")
        rows.append(tuple(parse_elem(ring, e).idx for e in entries))
    return ring, n, rows


def parse_code_file(text: str) -> LinearCodeR:
    return LinearCodeR(*_element_rows(text, "generator"))


def parse_ring_matrix_file(text: str) -> tuple[Ring, list[tuple[int, ...]]]:
    """A square grid of ring elements in the code-file syntax."""
    ring, n, rows = _element_rows(text, "matrix row")
    if len(rows) != n:
        raise ParseError(f"matrix has {len(rows)} rows, expected {n}")
    return ring, rows


def format_code_file(code: LinearCodeR) -> str:
    rows = [" ".join(format_row(code.ring, g)) for g in code.gens]
    return "\n".join([f"q={code.ring.q} n={code.n}", *rows]) + "\n"


def parse_vector(ring: Ring, text: str) -> tuple[int, ...]:
    return tuple(parse_elem(ring, e).idx for e in text.split())


def format_field_code(code: LinearCodeFq) -> str:
    """A matrix file holding the code's basis."""
    rows = [" ".join(map(str, row)) for row in code.gen.tolist()]
    return "\n".join([f"q={code.field.q} n={code.n}", *rows]) + "\n"
