"""Cyclic codes over R from divisor triples of x^n - 1.

A cyclic code over R (odd q) is determined by three monic divisors
(f1, f2, f3) of x^n - 1: the field cyclic codes they generate sit in the
evaluation slots at v = 1, -1, 0 and recombine through the idempotents.
That idempotent reading carries the size formula |C| = q^(3n - sum deg fi);
the literal combination printed with coefficients v, 1-v, 1-v^2 is kept as
a measurable alternative.  Triples of one length are built together: each
divisor's shift rows are tabulated once and the codes reduced in
``rref_stack`` batches (``ringcode.build_codes``).  ``fill_stack`` then
computes the duals (``ringcode.fill_duals``), evaluation components
(``ringcode.fill_components``) and cyclicity of such a stack in batches as
well, and leaves them in the memos that ``dual()``, ``components_crt()``,
``is_cyclic()`` and ``is_cyclic_r`` read.  A per-code call runs the same
kernel on a stack of one, so the stack is tested against it for its padding
and batching, and against independent oracles for the formulas.  For q = 2, R ~ F_2 x F_2[u]/(u^2)
does not split into three fields, and searches run by exhaustive ideal
enumeration instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CharacteristicTwoUnsupported, ParamMismatch, SearchSpaceTooLarge
from .fieldcode import (
    _cofactor,
    _pad,
    _shift_closed,
    _shift_rows,
    _stack_pivots,
    cyclic_dual_generator,
)
from .gf import DIVISOR_CAP, Poly, monic_divisors_of_xn_minus_1
from .ring import Ring
from .ringcode import LinearCodeR, _basis_batches, _unit_multiples, build_codes, fill_components, fill_duals
from .submodules import AmbientSpace


@dataclass(frozen=True)
class CyclicSpecR:
    """A divisor triple defining a cyclic code over R of length n."""

    n: int
    f1: Poly
    f2: Poly
    f3: Poly

    def __post_init__(self):
        for f in (self.f1, self.f2, self.f3):
            _cofactor(f, self.n)  # raises NotADivisor

    @classmethod
    def _checked(cls, n: int, f1: Poly, f2: Poly, f3: Poly) -> "CyclicSpecR":
        """A spec whose divisors the caller has already checked."""
        spec = cls.__new__(cls)
        spec.__dict__.update(n=n, f1=f1, f2=f2, f3=f3)
        return spec

    @property
    def degree_sum(self) -> int:
        return self.f1.degree + self.f2.degree + self.f3.degree

    def size_formula(self, q: int) -> int:
        return q ** (3 * self.n - self.degree_sum)


def cyclic_code_r(ring: Ring, spec: CyclicSpecR, mode: str = "idempotent") -> LinearCodeR:
    """The R-span of the shift rows of f1, f2, f3, each times its unit for ``mode``:
    the three field cyclic codes combined, with one row reduction."""
    return cyclic_codes_r(ring, [spec], mode)[0]


def cyclic_codes_r(ring: Ring, specs, mode: str = "idempotent") -> list[LinearCodeR]:
    """``cyclic_code_r`` of a list of specs of one length, built together by
    ``build_codes``; each distinct divisor's shift rows times each unit are tabulated once."""
    n = specs[0].n if specs else 0  # a spec's divisors are checked when it is made
    multiples = _unit_multiples(ring, mode)
    slot_rows: dict[tuple[int, Poly], np.ndarray] = {}
    for spec in specs:
        for slot, f in enumerate((spec.f1, spec.f2, spec.f3)):
            if (slot, f) not in slot_rows:
                slot_rows[slot, f] = multiples[slot][_shift_rows(f, n)]
    return build_codes(ring, [np.concatenate([slot_rows[0, s.f1], slot_rows[1, s.f2], slot_rows[2, s.f3]]) for s in specs])


def fill_stack(ring: Ring, codes: list[LinearCodeR]) -> None:
    """Fill the ``dual()``, ``components_crt()``, ``is_cyclic()`` and
    ``is_cyclic_r`` memos of R-codes (q odd) in bulk.

    ``fill_components`` and ``fill_duals`` fill the components and the duals.
    Then one shift residue over each of the ``_basis_batches``, and one over
    the zero-padded bases of its codes' components, decides their
    cyclicity.  Each result equals the per-code call's.
    """
    fill_components(ring, codes)  # raises for even q
    fill_duals(ring, codes)
    for n, batch, gen in _basis_batches(codes):
        comps = [comp for code in batch for comp in code._crt]
        comp_gen = _pad([comp.gen for comp in comps], n)
        cyclic = _shift_closed(gen, _stack_pivots(gen), ring.q, 3).tolist()
        cyclic += _shift_closed(comp_gen, _stack_pivots(comp_gen), ring.q).tolist()
        for item, closed in zip(batch + comps, cyclic):
            item._cyclic = closed


def is_cyclic_r(code: LinearCodeR) -> bool:
    """True iff the F_q basis stays in the span when each of its n-blocks
    shifts right; kept on the code, where ``fill_stack`` may fill it in bulk."""
    if "_cyclic" not in vars(code):
        code._cyclic = bool(_shift_closed(code.flat.gen[None], [code.flat.pivots], code.ring.q, 3)[0])
    return code._cyclic


def cyclic_dual_spec(spec: CyclicSpecR) -> CyclicSpecR:
    """The divisor triple of the componentwise dual: each fi becomes its dual generator."""
    duals = (cyclic_dual_generator(f, spec.n) for f in (spec.f1, spec.f2, spec.f3))
    return CyclicSpecR._checked(spec.n, *duals)  # h* divides x^n - 1 when g does


def cyclic_dual_r(ring: Ring, spec: CyclicSpecR) -> LinearCodeR:
    """Dual cyclic code via componentwise dual generators (q odd)."""
    if ring.q % 2 == 0:
        raise CharacteristicTwoUnsupported("componentwise cyclic dual needs odd q")
    return cyclic_code_r(ring, cyclic_dual_spec(spec), "idempotent")


def all_divisor_triples(ring: Ring, n: int):
    divisors = monic_divisors_of_xn_minus_1(ring.field, n)
    if len(divisors) ** 3 > DIVISOR_CAP**2:
        raise SearchSpaceTooLarge(f"{len(divisors)}^3 divisor triples")
    for f in divisors:
        _cofactor(f, n)
    for fs in product(divisors, repeat=3):
        yield CyclicSpecR._checked(n, *fs)  # each divisor was checked once above


def self_dual_cyclic_search(ring: Ring, n: int, build=None) -> dict:
    """Exhaustive search for a self-dual cyclic code of length n over R.

    Odd q: every cyclic code is a divisor triple in idempotent mode, so the
    triple lattice is scanned.  q = 2: the full ideal lattice of R^n is
    walked (tiny n only) as RREF F_q bases, and the basis of each half-size
    ideal is compared with the basis of its dual, which ``flat_dual``
    computes for every q.  The witness is the self-dual code found, at q = 2
    the code of its lattice node.  ``build(ring, spec, mode)`` makes each
    odd-q code, ``cyclic_code_r`` when None; a caller that builds the same
    triples again passes its own memo.
    Returns {"witness": LinearCodeR or None, "exhausted": bool, "tested": count}.
    """
    tested = 0
    if ring.q % 2 == 1:
        build = build or cyclic_code_r
        for spec in all_divisor_triples(ring, n):
            tested += 1
            if 2 * spec.degree_sum != 3 * n:
                continue  # |C| can only match |C^dual| at the half size
            code = build(ring, spec, "idempotent")
            if code == code.dual():
                return {"witness": code, "exhausted": True, "tested": tested}
        return {"witness": None, "exhausted": True, "tested": tested}

    if n < 1:  # the odd-q branch gets this check from monic_divisors_of_xn_minus_1
        raise ParamMismatch("n must be >= 1")
    space = AmbientSpace(ring, n)
    for ideal in space.all_ideals():
        tested += 1
        # |I| = |I^dual| = q^(3n/2) needs 3n/2 basis rows; equal bases, equal codes
        if 2 * len(ideal) == 3 * n and space.dual_set(ideal).tobytes() == ideal.tobytes():
            return {"witness": space.code(ideal), "exhausted": True, "tested": tested}
    return {"witness": None, "exhausted": True, "tested": tested}
