import time

import pytest

from vcodes import gf
from vcodes.errors import DivisionByZero, ParamMismatch, ParseError, SearchSpaceTooLarge
from vcodes.gf import (
    GF,
    Poly,
    factor_xn_minus_1,
    format_poly,
    monic_divisors_of_xn_minus_1,
    parse_poly,
)
from vcodes.ring import parse_elem, ring_over


def P(q, text):
    return parse_poly(GF(q), text)


def test_field_arith_examples():
    assert GF(3).inv(2) == 2


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        GF(3).inv(0)


def test_non_prime_modulus_rejected():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ParamMismatch):
            GF(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_all_inverses(q):
    field = GF(q)
    for a in range(1, q):
        assert a * field.inv(a) % q == 1


def test_poly_divmod_examples():
    q3 = GF(3)
    quot, rem = divmod(P(3, "x^2+2"), P(3, "x+1"))  # x^2 - 1
    assert quot == P(3, "x+2") and rem.is_zero()
    quot, rem = divmod(P(2, "x^3+1"), P(2, "x+1"))
    assert quot == P(2, "x^2+x+1") and rem.is_zero()
    quot, rem = divmod(P(3, "x^2+1"), P(3, "x+1"))
    assert quot == P(3, "x+2") and rem == Poly(q3, [2])


def test_poly_division_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(P(3, "x+1"), Poly.zero(GF(3)))


def test_poly_mixed_fields_rejected():
    with pytest.raises(ParamMismatch):
        P(3, "x+1") * P(5, "x+1")


def test_factor_examples():
    assert factor_xn_minus_1(GF(3), 2) == [P(3, "x+1"), P(3, "x+2")]
    assert factor_xn_minus_1(GF(2), 3) == [P(2, "x+1"), P(2, "x^2+x+1")]
    assert factor_xn_minus_1(GF(2), 2) == [P(2, "x+1"), P(2, "x+1")]


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", range(1, 13))
def test_factor_product_reconstructs(q, n):
    field = GF(q)
    prod = Poly.one(field)
    factors = factor_xn_minus_1(field, n)
    for f in factors:
        assert f.coeffs[-1] == 1
        for d in range(1, f.degree // 2 + 1):  # irreducible: no monic divisor up to half its degree
            assert not any(p.divides(f) for p in gf._monic_polys(field, d)), (f, d)
        prod = prod * f
    assert prod == Poly.xn_minus_1(field, n)


def test_factor_degrees_come_from_the_cyclotomic_cosets():
    # 3 has order 28 mod 29: x^29 - 1 = (x - 1) * (one irreducible factor of degree 28)
    start = time.perf_counter()
    factors = factor_xn_minus_1(GF(3), 29)
    assert [f.degree for f in factors] == [1, 28]
    assert time.perf_counter() - start < 1
    assert gf._factor_degrees(3, 12) == [1, 1, 1, 1, 1, 1, 2, 2, 2]  # (x^4 - 1)^3 = ((x-1)(x+1)(x^2+1))^3
    assert gf._factor_degrees(2, 7) == [1, 3, 3]


def test_factor_refuses_a_degree_with_too_many_candidates(monkeypatch):
    # 3 has order 23 mod 47, so x^47 - 1 has two factors of degree 23: 3^23 > DIVISOR_CAP^2 candidates
    tried = []
    divides = Poly.divides
    monkeypatch.setattr(Poly, "divides", lambda f, g: tried.append(f.degree) or divides(f, g))
    with pytest.raises(SearchSpaceTooLarge):
        factor_xn_minus_1(GF(3), 47)
    assert set(tried) == {1}  # x - 1 was split off, then the degree-23 candidates were refused


def test_divisor_examples():
    divs = monic_divisors_of_xn_minus_1(GF(3), 2)
    assert set(divs) == {P(3, "1"), P(3, "x+1"), P(3, "x+2"), P(3, "x^2+2")}
    divs2 = monic_divisors_of_xn_minus_1(GF(2), 2)
    assert set(divs2) == {P(2, "1"), P(2, "x+1"), P(2, "x^2+1")}


@pytest.mark.parametrize("q,n", [(2, 4), (3, 6), (5, 4)])
def test_divisors_contain_unit_and_modulus(q, n):
    field = GF(q)
    divs = monic_divisors_of_xn_minus_1(field, n)
    assert Poly.one(field) in divs
    assert Poly.xn_minus_1(field, n) in divs
    for d in divs:
        assert d.divides(Poly.xn_minus_1(field, n))


def test_divisor_count_matches_multiplicities():
    # x^4 - 1 over GF(3) = (x-1)(x+1)(x^2+1): 2^3 divisors
    assert len(monic_divisors_of_xn_minus_1(GF(3), 4)) == 8
    # x^4 - 1 over GF(2) = (x+1)^4: 5 divisors
    assert len(monic_divisors_of_xn_minus_1(GF(2), 4)) == 5


def test_divisor_cap(monkeypatch):
    monkeypatch.setattr(gf, "DIVISOR_CAP", 4)
    with pytest.raises(SearchSpaceTooLarge):
        monic_divisors_of_xn_minus_1(GF(3), 4)


def test_parse_format_roundtrip():
    for text in ("x^2+2", "x+1", "1", "2*x^3+x+2", "0"):
        p = P(3, text)
        assert parse_poly(GF(3), format_poly(p)) == p


def test_parse_rejects_out_of_range_coefficient():
    with pytest.raises(ParseError):
        P(3, "4*x+1")
    with pytest.raises(ParseError):
        P(3, "x+3")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        P(3, "x^+2")
    with pytest.raises(ParseError):
        P(3, "")


# both term grammars at q = 3: (grammar, text, coefficients lowest power first, or the ParseError message)
TERM_GRAMMAR_TABLE = [
    ("poly", "x^10", (0,) * 10 + (1,)),
    ("poly", "2*x", (0, 2)),
    ("poly", "2x", (0, 2)),
    ("poly", "*x", "bad polynomial term '*x'"),  # '*' only between a coefficient and x
    ("poly", "2*", "bad polynomial term '2*'"),
    ("poly", " 1 + 2 x ^ 2 ", (1, 0, 2)),
    ("poly", "x+x+x", ()),
    ("poly", "x++1", "bad polynomial term ''"),
    ("poly", "x^+2", "bad polynomial term 'x^'"),
    ("poly", "v", "bad polynomial term 'v'"),
    ("poly", "[1,2,0]", "bad polynomial term '[1,2,0]'"),
    ("poly", "x+3", "coefficient 3 out of range for q=3"),
    ("poly", "", "empty polynomial"),
    ("poly", " \t", "empty polynomial"),
    ("elem", "[1,2,0]", (1, 2, 0)),
    ("elem", "[ 1, 2, 0 ]", (1, 2, 0)),
    ("elem", "1+2v+v^2", (1, 2, 1)),
    ("elem", "2*v^2", (0, 0, 2)),
    ("elem", "*v", "bad element term '*v'"),
    ("elem", "2*", "bad element term '2*'"),
    ("elem", "v^2+v^2", (0, 0, 2)),
    ("elem", "[1,2,3]", "coefficient 3 out of range for q=3"),
    ("elem", "3v", "coefficient 3 out of range for q=3"),
    ("elem", "v^3", "bad element term 'v^3'"),
    ("elem", "x", "bad element term 'x'"),
    ("elem", "v++1", "bad element term ''"),
    ("elem", "[1,2]", "bad element term '[1,2]'"),
    ("elem", "", "empty ring element"),
    ("elem", "  ", "empty ring element"),
    # ASCII digits only: int() would read '1_0' as 10 and an Arabic-Indic digit as its value
    ("poly", "1_0", "bad polynomial term '1_0'"),
    ("poly", "\u0662x", "bad polynomial term '\u0662x'"),
    ("elem", "1+2*", "bad element term '2*'"),
    ("elem", "\u0663v", "bad element term '\u0663v'"),
    ("elem", "[\u0661,0,0]", "bad element term '[\u0661,0,0]'"),
]


@pytest.mark.parametrize("grammar,text,expected", TERM_GRAMMAR_TABLE)
def test_term_grammars(grammar, text, expected):
    def parse():
        if grammar == "poly":
            return parse_poly(GF(3), text).coeffs
        x = parse_elem(ring_over(3), text)
        return (x.a0, x.a1, x.a2)

    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc:
            parse()
        assert str(exc.value) == expected
    else:
        assert parse() == expected
