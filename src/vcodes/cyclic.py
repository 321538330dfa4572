"""Cyclic codes over R from divisor triples of x^n - 1.

A cyclic code over R (odd q) is determined by three monic divisors
(f1, f2, f3) of x^n - 1: the field cyclic codes they generate sit in the
evaluation slots at v = 1, -1, 0 and recombine through the idempotents.
That idempotent reading carries the size formula |C| = q^(3n - sum deg fi);
the literal combination printed with coefficients v, 1-v, 1-v^2 is kept as
a measurable alternative; triples of one length are built in ``rref_stack``
batches.  For q = 2 there is no splitting and searches run by exhaustive
ideal enumeration instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CharacteristicTwoUnsupported, NotADivisor, ParamMismatch, SearchSpaceTooLarge
from .fieldcode import LinearCodeFq, _pad, _shift_rows, _step, cyclic_dual_generator, rref_stack
from .gf import DIVISOR_CAP, Poly, monic_divisors_of_xn_minus_1
from .ring import Ring
from .ringcode import LinearCodeR, _embed, fq_span_rows
from .submodules import AmbientSpace


@dataclass(frozen=True)
class CyclicSpecR:
    """A divisor triple defining a cyclic code over R of length n."""

    n: int
    f1: Poly
    f2: Poly
    f3: Poly

    def __post_init__(self):
        _check_divisors(self.n, (self.f1, self.f2, self.f3))

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


def _check_divisors(n: int, polys) -> None:
    """Raise NotADivisor unless every one of the (nonempty) ``polys`` divides x^n - 1."""
    xn1 = Poly.xn_minus_1(polys[0].field, n)
    for f in polys:
        if f.is_zero() or not f.divides(xn1):
            raise NotADivisor(f"{f} does not divide x^{n}-1")


def cyclic_code_r(ring: Ring, spec: CyclicSpecR, mode: str = "idempotent") -> LinearCodeR:
    """The R-span of the shift rows of f1, f2, f3, each times its unit for ``mode``:
    the three field cyclic codes combined, with one row reduction."""
    return cyclic_codes_r(ring, [spec], mode)[0]


def cyclic_codes_r(ring: Ring, specs, mode: str = "idempotent") -> list[LinearCodeR]:
    """``cyclic_code_r`` of a list of specs of one length, in ``rref_stack`` batches within ``_MAX_ENTRIES``."""
    n = specs[0].n if specs else 0  # a spec's divisors are checked when it is made
    gens = [_embed(ring, [_shift_rows(f, n) for f in (s.f1, s.f2, s.f3)], mode) for s in specs]
    step = _step(9 * n * max(map(len, gens), default=0))  # 3 flattened rows of 3n entries a generator
    codes = []
    for start in range(0, len(gens), step):
        batch = gens[start : start + step]
        reduced, ranks, _ = rref_stack(fq_span_rows(ring, _pad(batch, n)), ring.q)
        for rows, basis, rank in zip(batch, reduced, ranks):
            flat = LinearCodeFq.from_rref(ring.field, basis[:rank].copy())  # a copy frees the batch
            codes.append(LinearCodeR._from_flat(ring, n, flat, rows))
    return codes


def is_cyclic_r(code: LinearCodeR) -> bool:
    """True iff the F_q basis stays in the span when each of its n-blocks shifts right."""
    gen = code.flat.gen
    shifted = np.roll(gen.reshape(len(gen), 3, code.n), 1, axis=2)
    return code.flat.contains(shifted.reshape(gen.shape))


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
    _check_divisors(n, divisors)
    for fs in product(divisors, repeat=3):
        yield CyclicSpecR._checked(n, *fs)  # each divisor was checked once above


def self_dual_cyclic_search(ring: Ring, n: int, build=None) -> dict:
    """Exhaustive search for a self-dual cyclic code of length n over R.

    Odd q: every cyclic code is a divisor triple in idempotent mode, so the
    triple lattice is scanned.  q = 2: the full ideal lattice of R^n is
    walked (tiny n only) as RREF F_q bases, and the basis of each half-size
    ideal is compared with the basis of its dual, which ``flat_dual``
    computes for every q.  A witness is generated by
    all its members, in encoded order.  ``build(ring, spec, mode)`` makes
    each odd-q code, ``cyclic_code_r`` when None; a caller that builds the
    same triples again passes its own memo.
    Returns {"witness": ..., "exhausted": bool, "tested": count}.
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
                return {"witness": spec, "exhausted": True, "tested": tested}
        return {"witness": None, "exhausted": True, "tested": tested}

    if n < 1:  # the odd-q branch gets this check from monic_divisors_of_xn_minus_1
        raise ParamMismatch("n must be >= 1")
    space = AmbientSpace(ring, n)
    for ideal in space.all_ideals():
        tested += 1
        # |I| = |I^dual| = q^(3n/2) needs 3n/2 basis rows; equal bases, equal codes
        if 2 * len(ideal) == 3 * n and space.dual_set(ideal).tobytes() == ideal.tobytes():
            return {"witness": space.witness(ideal), "exhausted": True, "tested": tested}
    return {"witness": None, "exhausted": True, "tested": tested}
