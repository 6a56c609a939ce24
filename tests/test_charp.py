"""Prime-characteristic seeds: the identity that holds there and the
degree growth that does not stop."""

import pytest

from nlielab.charp import CharPSeed, charp_fj_check, charp_generation, generation_profile, q_control
from nlielab.fields import GF
from nlielab.nlie import check_filippov


def test_seed_arity_is_sp_plus_one():
    assert CharPSeed(2, 1).algebra().arity == 3
    assert CharPSeed(3, 2).algebra().arity == 7
    assert CharPSeed(5, 2).algebra().arity == 11
    with pytest.raises(ValueError):
        CharPSeed(4, 1)
    with pytest.raises(ValueError):
        CharPSeed(3, 0)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 2), (5, 2)])
def test_odd_arity_seeds_satisfy_the_identity(p, s):
    rep = charp_fj_check(CharPSeed(p, s))
    assert rep.residue == 0
    assert rep.ok
    assert rep.n == s * p + 1


def test_odd_arity_seed_passes_the_direct_checker():
    alg = CharPSeed(2, 1).algebra()
    assert check_filippov(alg, mode="full").ok


@pytest.mark.parametrize("p", [3, 5, 7])
def test_even_arity_seeds_satisfy_the_identity(p):
    # n = p + 1 is even, the bracket odd and ad_a even: residue (1 - n) a = -p a
    rep = charp_fj_check(CharPSeed(p, 1))
    assert (rep.n, rep.residue, rep.ok) == (p + 1, 0, True)
    assert check_filippov(CharPSeed(p, 1).algebra(), mode="full").ok


def test_generation_exceeds_the_characteristic_zero_bound():
    g = charp_generation(CharPSeed(3, 2), cap=14)
    assert g.violation == (6, 7, 12)
    assert g.max_degree == 11
    assert not g.bound_holds
    assert 11 > g.n - 1


def test_generation_growth_is_blocked_exactly_by_vanishing_coefficients():
    # from exponents {0, 6, 7}: 6 and 7 combine (coefficient 1 mod 3),
    # while 0 with 6 and 0 with 12 both die (coefficient 0 mod 3)
    g = charp_generation(CharPSeed(3, 2), cap=14)
    assert g.exponents == (0, 6, 7, 12)
    assert g.field_name == GF(3).name


def test_rational_control_does_not_truncate():
    q = q_control(7, 14)
    assert not q.bound_holds
    assert q.violation == (6, 7, 12)
    assert q.max_degree > 6


def test_rational_closure_grows_with_the_cap():
    small = q_control(7, 14)
    large = q_control(7, 20)
    assert set(small.exponents) <= set(large.exponents)
    assert large.max_degree > small.max_degree


def test_generation_profile_respects_the_cap():
    g = generation_profile(GF(3), 7, cap=8)
    assert all(d <= 8 for d in g.degrees)
