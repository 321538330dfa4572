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


def P(q, text):
    return parse_poly(GF(q), text)


def test_field_arith_examples():
    assert GF(3).inv(2) == 2
    assert GF(5).mul(3, 4) == 2
    assert GF(2).neg(1) == 1


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
        assert field.mul(a, field.inv(a)) == 1


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
        prod = prod * f
    assert prod == Poly.xn_minus_1(field, n)


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
