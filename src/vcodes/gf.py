"""Prime field arithmetic GF(q) and univariate polynomials over it.

Field elements are plain ints reduced into [0, q); a ``GF`` instance carries
the modulus and the inverse; sums and products are inline ``% q``.
Polynomials store coefficients lowest degree first with no trailing zeros, so
equality is plain tuple equality.  x^n - 1 is factored by trial division at
the degrees its irreducible factors must have, read off the q-cyclotomic
cosets, and the last factor is what remains; a degree d with more than
``DIVISOR_CAP``^2 monic candidates raises instead of being tried.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import index

from .errors import DivisionByZero, ParamMismatch, ParseError, SearchSpaceTooLarge

DIVISOR_CAP = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class GF:
    """The prime field F_q; elements are ints in [0, q)."""

    def __init__(self, q: int):
        if not _is_prime(q):
            raise ParamMismatch(f"q must be prime, got {q}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, GF) and self.q == other.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __repr__(self):
        return f"GF({self.q})"

    def check_same(self, other: "GF") -> None:
        if self.q != other.q:
            raise ParamMismatch(f"mixed moduli {self.q} and {other.q}")

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.q - 2, self.q)


class Poly:
    """Univariate polynomial over GF(q), coefficients lowest degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs):
        try:
            cs = [index(c) % field.q for c in coeffs]  # numpy integers pass, floats do not
        except TypeError as exc:
            raise ParamMismatch(f"polynomial coefficients must be ints: {exc}") from None
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: GF) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: GF) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def xn_minus_1(cls, field: GF, n: int) -> "Poly":
        if n < 1:
            raise ParamMismatch("n must be >= 1")
        return cls(field, [-1] + [0] * (n - 1) + [1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        self.field.check_same(other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.field.q
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self.field.check_same(other.field)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.field.q
        return Poly(self.field, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.field, [c * a for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __divmod__(self, other: "Poly"):
        self.field.check_same(other.field)
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        q = self.field.q
        rem = list(self.coeffs)
        div = other.coeffs
        lead_inv = self.field.inv(div[-1])
        quot = [0] * max(0, len(rem) - len(div) + 1)
        for shift in range(len(rem) - len(div), -1, -1):
            c = (rem[shift + len(div) - 1] * lead_inv) % q
            if c:
                quot[shift] = c
                for i, d in enumerate(div):
                    rem[shift + i] = (rem[shift + i] - c * d) % q
        return Poly(self.field, quot), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    def reciprocal(self) -> "Poly":
        """x^deg * p(1/x); the coefficient sequence reversed."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __repr__(self):
        return f"Poly({self.field.q}, {list(self.coeffs)})"

    def __str__(self):
        return format_poly(self)


def parse_terms(text: str, q: int, var: str, exponent: str, noun: str) -> list[int]:
    """Coefficients, lowest power first, of a sum of terms ``c``, ``var``, ``c*var^k``
    (c in ASCII digits, ``*`` optional but only between c and ``var``, whitespace
    ignored, k matching the regex ``exponent``): the grammar of polynomials in x
    and of ring elements in v.  ``noun`` names either in errors."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError(f"empty {noun}")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        m = re.fullmatch(rf"(?:([0-9]+)(?:\*(?={var}))?)?({var}(?:\^({exponent}))?)?", term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ParseError(f"bad {noun} term {term!r}")
        c = int(m.group(1) or 1)
        if c >= q:
            raise ParseError(f"coefficient {c} out of range for q={q}")
        k = int(m.group(3) or 1) if m.group(2) else 0
        coeffs[k] = (coeffs.get(k, 0) + c) % q
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def parse_poly(field: GF, text: str) -> Poly:
    """Parse sums of terms ``c``, ``x^k``, ``c*x^k`` (``*`` optional)."""
    return Poly(field, parse_terms(text, field.q, "x", "[0-9]+", "polynomial"))


def format_poly(p: Poly) -> str:
    """Canonical text form, highest degree first, e.g. ``x^2+2``."""
    if p.is_zero():
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
    return "+".join(terms)


def _monic_polys(field: GF, degree: int):
    """All monic polynomials of the given degree, lexicographic in low coeffs."""
    q = field.q
    for idx in range(q**degree):
        cs = []
        m = idx
        for _ in range(degree):
            cs.append(m % q)
            m //= q
        yield Poly(field, cs + [1])


def _factor_degrees(q: int, n: int) -> list[int]:
    """The degrees of the irreducible factors of x^n - 1 over GF(q), ascending, with
    multiplicity: for n = q^s * m with q not dividing m, x^n - 1 = (x^m - 1)^(q^s), and
    each q-cyclotomic coset {i, iq, iq^2, ...} mod m gives one factor of its size."""
    m, repeats = n, 1
    while m % q == 0:
        m, repeats = m // q, repeats * q
    degrees, seen = [], set()
    for i in range(m):
        if i not in seen:
            size, j = 0, i
            while j not in seen:
                seen.add(j)
                size, j = size + 1, j * q % m
            degrees += [size] * repeats
    return sorted(degrees)


def factor_xn_minus_1(field: GF, n: int) -> list[Poly]:
    """Monic irreducible factors of x^n - 1 with multiplicity, sorted.

    Trial division by the monic polynomials of each degree a factor has, in
    ascending degree, so a divisor found is irreducible: every smaller factor
    is already split off.  The last factor is the quotient left.  Repeated
    factors appear when q divides n.
    """
    rem = Poly.xn_minus_1(field, n)
    degrees = _factor_degrees(field.q, n)
    factors: list[Poly] = []
    todo = len(degrees) - 1  # factors found by trial; the last is the quotient
    while len(factors) < todo:
        d = degrees[len(factors)]
        if field.q**d > DIVISOR_CAP**2:
            raise SearchSpaceTooLarge(f"x^{n}-1 has a factor of degree {d}: {field.q}^{d} candidates to try")
        candidates = _monic_polys(field, d)
        while len(factors) < todo and degrees[len(factors)] == d:
            p = next(candidates)
            while len(factors) < todo and p.divides(rem):
                factors.append(p)
                rem = rem // p
    factors.append(rem)
    factors.sort(key=Poly.sort_key)
    prod = reduce(lambda a, b: a * b, factors, Poly.one(field))
    assert prod == Poly.xn_minus_1(field, n)
    return factors


def monic_divisors_of_xn_minus_1(field: GF, n: int) -> list[Poly]:
    """All monic divisors of x^n - 1, sorted by (degree, coefficients)."""
    factors = factor_xn_minus_1(field, n)
    distinct: list[Poly] = []
    mult: list[int] = []
    for f in factors:
        if distinct and distinct[-1] == f:
            mult[-1] += 1
        else:
            distinct.append(f)
            mult.append(1)
    count = 1
    for m in mult:
        count *= m + 1
    if count > DIVISOR_CAP:
        raise SearchSpaceTooLarge(f"{count} divisors exceeds cap {DIVISOR_CAP}")
    divisors = [Poly.one(field)]
    for f, m in zip(distinct, mult):
        powers = [Poly.one(field)]
        for _ in range(m):
            powers.append(powers[-1] * f)
        divisors = [d * p for d in divisors for p in powers]
    divisors.sort(key=Poly.sort_key)
    return divisors
