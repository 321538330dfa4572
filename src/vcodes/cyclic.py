"""Cyclic codes over R from divisor triples of x^n - 1.

A cyclic code over R (odd q) is determined by three monic divisors
(f1, f2, f3) of x^n - 1: the field cyclic codes they generate sit in the
evaluation slots at v = 1, -1, 0 and recombine through the idempotents.
That idempotent reading carries the size formula |C| = q^(3n - sum deg fi);
the literal combination printed with coefficients v, 1-v, 1-v^2 is kept as
a measurable alternative.  For q = 2 there is no splitting and searches run
by exhaustive ideal enumeration instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CharacteristicTwoUnsupported, NotADivisor, SearchSpaceTooLarge
from .fieldcode import cyclic_code_fq, cyclic_dual_generator
from .gf import Poly, monic_divisors_of_xn_minus_1
from .ring import Ring
from .ringcode import ComponentTriple, LinearCodeR, combine_components
from .submodules import AmbientSpace


@dataclass(frozen=True)
class CyclicSpecR:
    """A divisor triple defining a cyclic code over R of length n."""

    n: int
    f1: Poly
    f2: Poly
    f3: Poly

    def __post_init__(self):
        xn1 = Poly.xn_minus_1(self.f1.field, self.n)
        for f in (self.f1, self.f2, self.f3):
            if f.is_zero() or not f.divides(xn1):
                raise NotADivisor(f"{f} does not divide x^{self.n}-1")

    @property
    def degree_sum(self) -> int:
        return self.f1.degree + self.f2.degree + self.f3.degree

    def size_formula(self, q: int) -> int:
        return q ** (3 * self.n - self.degree_sum)


def cyclic_code_r(ring: Ring, spec: CyclicSpecR, mode: str = "idempotent") -> LinearCodeR:
    """Combine the three field cyclic codes into an R-code."""
    triple = ComponentTriple(
        cyclic_code_fq(spec.f1, spec.n),
        cyclic_code_fq(spec.f2, spec.n),
        cyclic_code_fq(spec.f3, spec.n),
        "crt" if mode == "idempotent" else "paper-literal",
    )
    return combine_components(ring, triple, mode)


def is_cyclic_r(code: LinearCodeR) -> bool:
    """True iff one cyclic right shift of every generator stays in the span."""
    for g in code.gens:
        if not code.contains(g[-1:] + g[:-1]):
            return False
    return True


def cyclic_dual_r(ring: Ring, spec: CyclicSpecR) -> LinearCodeR:
    """Dual cyclic code via componentwise dual generators (q odd)."""
    if ring.q % 2 == 0:
        raise CharacteristicTwoUnsupported("componentwise cyclic dual needs odd q")
    dual_spec = CyclicSpecR(
        spec.n,
        cyclic_dual_generator(spec.f1, spec.n),
        cyclic_dual_generator(spec.f2, spec.n),
        cyclic_dual_generator(spec.f3, spec.n),
    )
    return cyclic_code_r(ring, dual_spec, "idempotent")


def all_divisor_triples(ring: Ring, n: int, cap: int = 4096):
    divisors = monic_divisors_of_xn_minus_1(ring.field, n, cap)
    if len(divisors) ** 3 > cap**2:
        raise SearchSpaceTooLarge(f"{len(divisors)}^3 divisor triples")
    for f1 in divisors:
        for f2 in divisors:
            for f3 in divisors:
                yield CyclicSpecR(n, f1, f2, f3)


def self_dual_cyclic_search(ring: Ring, n: int) -> dict:
    """Exhaustive search for a self-dual cyclic code of length n over R.

    Odd q: every cyclic code is a divisor triple in idempotent mode, so the
    triple lattice is scanned.  q = 2: the full ideal lattice of R^n is
    enumerated (tiny n only) and each half-size ideal is compared with its
    dual, the F_q kernel that ``LinearCodeR.dual`` computes for every q.
    Returns {"witness": ..., "exhausted": bool, "tested": count}.
    """
    tested = 0
    if ring.q % 2 == 1:
        for spec in all_divisor_triples(ring, n):
            tested += 1
            if 2 * spec.degree_sum != 3 * n:
                continue  # |C| can only match |C^dual| at the half size
            code = cyclic_code_r(ring, spec, "idempotent")
            if code == code.dual():
                return {"witness": spec, "exhausted": True, "tested": tested}
        return {"witness": None, "exhausted": True, "tested": tested}

    space = AmbientSpace(ring, n)
    half = 3 * n  # need |I|^2 = q^(3n)
    if half % 2:
        target = None
    else:
        target = ring.q ** (half // 2)
    for ideal in space.all_ideals():
        tested += 1
        if target is None or len(ideal) != target:
            continue
        dual = space.dual_set(ideal)
        if dual.size == ideal.size and (dual == ideal).all():
            code = LinearCodeR(ring, n, space.rows_of(ideal))
            return {"witness": code, "exhausted": True, "tested": tested}
    return {"witness": None, "exhausted": True, "tested": tested}
