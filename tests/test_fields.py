from fractions import Fraction

import pytest

from weakhopf import fields
from weakhopf.fields import GF, QQ, FieldError, field_from_spec


def test_rational_parse_and_canonical_form():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-5") == Fraction(-5)
    assert QQ.parse("4/-6") == Fraction(-2, 3)  # lowest terms, positive denominator
    assert QQ.format(Fraction(-2, 3)) == "-2/3"
    assert QQ.format(QQ.parse("6/3")) == "2"
    assert type(QQ.normalize(3)) is Fraction


def test_rational_rejects_zero_denominator():
    with pytest.raises(FieldError):
        QQ.parse("1/0")


def test_prime_field_arithmetic():
    f7 = GF(7)
    assert f7.normalize(-1) == 6
    assert f7.normalize(True) == 1
    assert f7.parse("10") == 3
    assert f7.parse("1/2") == 4  # 2 * 4 = 8 = 1 mod 7
    assert f7.inv(3) == 5
    with pytest.raises(FieldError):
        f7.inv(0)
    with pytest.raises(FieldError):
        f7.parse("1/7")


def test_prime_validation():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(1)
    assert GF(2).p == 2 and GF(13).p == 13


def test_a_large_prime_field_is_built_at_once_and_a_larger_modulus_refused():
    p = 1000000000000000003  # prime; trial division would take minutes
    assert GF(p).p == p and GF(p).inv(2) * 2 % p == 1
    with pytest.raises(FieldError):
        GF(p + 2)  # 3 * 333333333333333335
    with pytest.raises(FieldError):
        GF(318665857834031151167461)  # a strong pseudoprime to every base 2..37
    with pytest.raises(FieldError, match="p < 3317044064679887385961981"):
        field_from_spec("prime:618970019642690137449562111")  # 2**89 - 1, a prime
    assert [n for n in range(200) if fields._is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))]


def test_a_rational_scalar_of_any_size_prints_and_a_huge_exponent_is_refused():
    assert QQ.parse("1e4300") == 10**4300 and QQ.parse("1e-400") == Fraction(1, 10**400)
    assert QQ.format(QQ.parse("-1e4300")) == "-1" + "0" * 4300
    assert QQ.format(Fraction(3, 10**5000)) == "3/1" + "0" * 5000
    for text in ("1e4301", "1e-4301", "1e999999999", "2.5E+10_000"):
        with pytest.raises(FieldError, match="exponent is beyond 4300"):
            QQ.parse(text)


def test_field_specs_round_trip():
    assert field_from_spec("rational") is QQ
    assert field_from_spec("prime:7") == GF(7)
    assert field_from_spec(GF(5).spec()) == GF(5)
    assert field_from_spec(QQ.spec()) is QQ
    with pytest.raises(FieldError):
        field_from_spec("real")
    with pytest.raises(FieldError):
        field_from_spec("prime:abc")


def test_field_equality_and_caching():
    assert GF(7) is GF(7)
    assert GF(7) != GF(5)
    assert QQ == field_from_spec("rational")


def test_prime_field_reduces_fractions():
    f7 = GF(7)
    assert f7.normalize(Fraction(1, 2)) == 4
    assert f7.normalize(Fraction(-3, 2)) == 2  # 2 * 2 = 4 = -3 mod 7
    assert f7.normalize(Fraction(14, 3)) == 0
    assert f7.normalize(Fraction(5)) == 5
    with pytest.raises(FieldError):
        f7.normalize(Fraction(1, 7))
    with pytest.raises(FieldError):
        f7.normalize(Fraction(3, 14))


def test_fields_reject_floats():
    with pytest.raises(FieldError):
        QQ.normalize(0.1)
    with pytest.raises(FieldError):
        QQ.normalize(2.0)
    with pytest.raises(FieldError):
        GF(7).normalize(0.5)
    with pytest.raises(FieldError):
        GF(7).normalize(3.0)

