"""Scalar arithmetic: rationals and prime fields behave like fields."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nlielab.fields import GF, QQ, Field, FieldError, ModP, field_from_name, is_prime

F7 = GF(7)


def q(n, d=1):
    return QQ.scalar(n, d)


rat = st.builds(q, st.integers(-40, 40), st.integers(1, 12))
f7 = st.builds(lambda n: F7.scalar(n), st.integers(-20, 20))


@given(rat, rat, rat)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QQ.zero()


@given(rat)
def test_rational_inverse(a):
    if a != QQ.zero():
        assert a / a == QQ.one()


@given(f7, f7, f7)
def test_prime_field_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == F7.zero()


@given(f7)
def test_prime_field_inverse(a):
    if a != F7.zero():
        assert a / a == F7.one()
        assert a ** 6 == F7.one()  # Fermat


@given(st.integers(-50, 50))
def test_modp_hashes_like_its_reduced_int(v):
    a = ModP(v, 7)
    assert hash(a) == hash(v % 7)
    assert len({a, v % 7}) == 1
    assert {a: "x"}[v % 7] == "x"


residues = st.one_of(st.builds(ModP, st.integers(-30, 30), st.just(7)), st.integers(-30, 30))


@given(residues, residues)
def test_modp_equality_agrees_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (len({a, b}) == 1)


def test_integral_rationals_are_ints():
    assert type(QQ.scalar(3)) is int
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    assert type(QQ.scalar(6, 3)) is int and QQ.scalar(6, 3) == 2
    assert type(QQ.parse("-4/2")) is int
    assert type(QQ.coerce(Fraction(5, 1))) is int
    assert type(QQ.scalar(1, 2)) is Fraction


def test_div_is_the_one_exact_division():
    assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(1, 3)) is Fraction
    assert type(QQ.div(Fraction(1, 2), Fraction(1, 4))) is int
    assert type(F7.div(6, 3)) is ModP and F7.div(1, 2) == 4
    assert F7.div(ModP(1, 7), ModP(2, 7)) == 4
    for field in (QQ, F7):
        with pytest.raises(ZeroDivisionError):
            field.div(1, 0)


def test_modp_basics():
    a = ModP(10, 7)
    assert a.v == 3
    assert a == 3
    assert a != 10 and a != -4  # equal only to the reduced int, as its hash
    assert a + 5 == 1
    assert 5 - a == 2
    assert 2 / ModP(3, 7) == 3
    assert bool(ModP(7, 7)) is False
    with pytest.raises(ZeroDivisionError):
        a / ModP(0, 7)
    with pytest.raises(ZeroDivisionError):
        1 / ModP(0, 7)
    with pytest.raises(FieldError):
        a + ModP(1, 5)


def test_gf_requires_prime():
    for bad in (0, 1, 4, 6, 9, -7, 100):
        with pytest.raises(FieldError):
            Field("prime_field", bad)
    assert GF(2).p == 2
    assert GF(101) is GF(101)  # cached


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for k in range(-3, 25):
        assert is_prime(k) == (k in primes)


def test_parse_and_name_roundtrip():
    assert QQ.parse("-3/4") == q(-3, 4)
    assert F7.parse("10") == 3
    assert field_from_name("q") == QQ
    assert field_from_name("fp:11").p == 11
    assert field_from_name(QQ.name) == QQ
    assert field_from_name(GF(13).name) == GF(13)
    with pytest.raises(FieldError):
        field_from_name("fp:9")
    with pytest.raises(FieldError):
        field_from_name("real")
    for field, text in ((QQ, "1/0"), (F7, "1/0"), (F7, "3/14")):
        with pytest.raises(FieldError):
            field.parse(text)  # a zero denominator


def test_coerce_rejects_foreign_scalars():
    with pytest.raises(FieldError):
        QQ.coerce(ModP(1, 5))
    with pytest.raises(FieldError):
        F7.coerce(ModP(1, 5))
    assert F7.coerce(9) == 2
    assert QQ.coerce(3) == q(3)
    assert QQ.check(q(1, 2)) and not F7.check(q(1, 2))


def test_scalar_with_denominator_mod_p():
    # 1/2 in F_7 is 4
    assert F7.scalar(1, 2) == 4
