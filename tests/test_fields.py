"""Scalar arithmetic: rationals and prime fields behave like fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nlielab.catalog import parse_form
from nlielab.fields import GF, PRIME_BOUND, QQ, Field, FieldError, field_from_name, is_prime

F7 = GF(7)
PRIME_FIELDS = [GF(2), GF(3), F7, GF(10007)]


def q(n, d=1):
    return QQ.scalar(n, d)


rat = st.builds(q, st.integers(-40, 40), st.integers(1, 12))
# a prime field with three of its scalars, each made by ``Field.coerce``
gfp = st.sampled_from(PRIME_FIELDS).flatmap(
    lambda F: st.tuples(st.just(F), *[st.integers(-3 * F.p, 3 * F.p).map(F.coerce)] * 3))


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


@given(gfp)
def test_prime_field_ring_axioms(fabc):
    F, a, b, c = fabc
    add, mul = (lambda x, y: F.coerce(x + y)), (lambda x, y: F.coerce(x * y))
    assert all(F.check(x) for x in (a, b, c, add(a, b), mul(a, b), F.coerce(-a)))
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, F.coerce(-a)) == F.zero()


@given(gfp)
def test_prime_field_inverse(fabc):
    F, a, b, _ = fabc
    if a != F.zero():
        assert F.div(a, a) == F.one()
        assert F.coerce(F.div(b, a) * a) == b and F.check(F.div(b, a))
        assert pow(a, F.p - 1, F.p) == F.one()  # Fermat


@given(st.sampled_from(PRIME_FIELDS), st.integers(-10 ** 6, 10 ** 6), st.integers(-5, 5))
def test_prime_field_scalars_are_canonical_residues(F, v, k):
    # one int per residue class, so equal scalars are equal ints with equal hashes
    a = F.coerce(v)
    assert type(a) is int and 0 <= a < F.p and F.check(a)
    assert F.coerce(v + k * F.p) == a and F.scalar(v) == a and F.parse(str(v)) == a
    assert F.coerce(v + 1) != a


@given(st.integers(-50, 50))
def test_modp_hashes_like_its_reduced_int(v):
    a = F7.coerce(v)
    assert hash(a) == hash(v % 7)
    assert len({a, v % 7}) == 1
    assert {a: "x"}[v % 7] == "x"


residues = st.one_of(st.integers(-30, 30).map(F7.coerce), st.integers(-30, 30))


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
    assert type(F7.div(6, 3)) is int and F7.div(6, 3) == 2 and F7.div(1, 2) == 4
    assert F7.div(-1, -2) == 4 and F7.div(3, 10) == 1
    for field in (QQ, F7):
        with pytest.raises(ZeroDivisionError):
            field.div(1, 0)


def test_prime_field_scalars_are_ints_in_range():
    assert F7.coerce(10) == 3 and F7.coerce(-3) == 4 and F7.coerce(7) == 0
    assert F7.zero() == 0 and F7.one() == 1 and F7.scalar(-4) == 3
    assert F7.div(2, 3) == 3
    assert F7.reduced({0: 10, 1: -7, 2: -1}) == {0: 3, 2: 6}
    assert QQ.reduced({0: q(1, 2)}) == {0: q(1, 2)}
    for bad in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            F7.div(3, bad)
    with pytest.raises(FieldError):
        F7.coerce(Fraction(1, 3))
    for x in (3, 4):
        assert F7.check(x) and not F7.check(x + 7) and not F7.check(x - 7)
    assert not F7.check(True) and not F7.check(Fraction(3))


def test_gf_requires_prime():
    for bad in (0, 1, 4, 6, 9, -7, 100):
        with pytest.raises(FieldError):
            Field(bad)
    assert GF(2).p == 2
    assert GF(101) is GF(101)  # cached


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for k in range(-3, 25):
        assert is_prime(k) == (k in primes)


def _trial_division(k):
    return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def test_is_prime_agrees_with_a_sieve_and_trial_division():
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, 10 ** 5, d))
    assert [k for k in range(10 ** 5) if is_prime(k)] == [k for k in range(10 ** 5) if sieve[k]]
    for k in (7919, 7921, 99991, 99989 * 3):
        assert is_prime(k) == _trial_division(k)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to all prime bases up to 2, 3, 5, 7, 31 and 37
    for k in (2047, 1373653, 25326001, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(k)
    assert PRIME_BOUND == 3317044064679887385961981  # the least one to 2..41
    assert is_prime(10000000000000061) and is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)
    with pytest.raises(FieldError):
        field_from_name("fp:%d" % (PRIME_BOUND + 4))
    assert GF(10000000000000061).scalar(-1) == 10000000000000060


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
        F7.coerce(q(1, 2))
    assert F7.coerce(9) == 2
    assert QQ.coerce(3) == q(3)
    assert QQ.check(q(1, 2)) and not F7.check(q(1, 2))


def test_scalar_with_denominator_mod_p():
    # 1/2 in F_7 is 4
    assert F7.scalar(1, 2) == 4


# field handles valid and not; P runs past ``PRIME_BOUND``, where the
# field is refused, since ``is_prime`` is Miller-Rabin and instant
_pieces = ["q", "fp:", "fp", ":", "0", "1", "2", "3", "7", "9", "-", "+", "/", " ", "_",
           "\u0661", "x", "Q"]
_handles = st.one_of(
    st.lists(st.sampled_from(_pieces), max_size=6).map("".join),
    st.builds("fp:{}".format, st.integers(-10, 10 ** 6)),
    st.builds("fp:{}".format, st.integers(10 ** 6, 10 ** 26)),
    st.text(max_size=8))


@settings(max_examples=300)
@given(_handles)
def test_field_from_name_accepts_or_raises_value_error(name):
    try:
        field = field_from_name(name)
    except ValueError:
        return
    if name == "q":
        assert field == QQ
    else:
        assert name.startswith("fp:") and int(name[3:]) == field.p and is_prime(field.p)


_tokens = ["0", "1", "-2", "+3", "1/2", "-5/7", "1/0", "0/0", "3/14", "2/3/4", "/", "1/",
           "x", "1_0", "\u0661", "1.5", "#", ",", " ", "\t", "\n", "\u00a0"]


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(_tokens), st.text(max_size=4)), max_size=12)
       .map("".join), st.sampled_from([QQ, GF(2), GF(7)]))
def test_parse_form_accepts_or_raises_value_error(text, field):
    try:
        rows = parse_form(text, field)
    except ValueError:
        return
    assert rows and all(field.check(c) for row in rows for c in row)
