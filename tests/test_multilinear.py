"""Koszul sign bookkeeping and the bracket <-> symmetric-map transport."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from nlielab.catalog import algebra_O
from nlielab.fields import QQ
from nlielab.multilinear import (
    MultiMap,
    bracket_to_symmetric,
    conversion_sign,
    koszul_sort,
    parse_map,
    serialize_map,
    symmetric_to_bracket,
)
from nlielab.superspace import EVEN, ODD, SuperSpace

PARITIES = (0, 1, 0, 1, 1, 0)


def inversion_sign(indices, parities, swap):
    # product of the swap cost over every inversion pair; independent of
    # the sorting route because adjacent-swap costs are +-1 scalars
    s = 1
    for i in range(len(indices)):
        for j in range(i + 1, len(indices)):
            if indices[i] > indices[j]:
                s *= swap(parities[indices[i]], parities[indices[j]])
    return s


perms = st.lists(st.integers(0, 5), min_size=1, max_size=5).map(tuple)


@given(perms)
def test_symmetric_sort_sign_matches_inversion_count(idx):
    out, sign = koszul_sort(idx, PARITIES, alternating=False)
    assert out == tuple(sorted(idx))
    if any(a == b and PARITIES[a] == ODD for a, b in zip(out, out[1:])):
        assert sign == 0
    else:
        assert sign == inversion_sign(idx, PARITIES, lambda pa, pb: -1 if pa and pb else 1)


@given(perms)
def test_alternating_sort_sign_matches_inversion_count(idx):
    out, sign = koszul_sort(idx, PARITIES)
    assert out == tuple(sorted(idx))
    if any(a == b and PARITIES[a] == EVEN for a, b in zip(out, out[1:])):
        assert sign == 0
    else:
        assert sign == inversion_sign(idx, PARITIES, lambda pa, pb: 1 if pa and pb else -1)


def test_repetition_rules():
    # odd squared dies on the symmetric side, survives on the alternating side
    assert koszul_sort((1, 1), PARITIES, alternating=False)[1] == 0
    assert koszul_sort((1, 1), PARITIES)[1] == 1
    # even squared survives on the symmetric side, dies on the alternating side
    assert koszul_sort((0, 0), PARITIES, alternating=False)[1] == 1
    assert koszul_sort((0, 0), PARITIES)[1] == 0
    # a killed tuple still comes back sorted
    assert koszul_sort((3, 0, 1, 2, 0), PARITIES) == ((0, 0, 1, 2, 3), 0)


monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(st.lists(monomials, min_size=1, max_size=5))
def test_even_keys_sort_with_the_permutation_sign(keys):
    # no parities: every key even, the polynomial carriers' monomials
    out, sign = koszul_sort(keys)
    assert out == tuple(sorted(keys))
    if len(set(keys)) < len(keys):
        assert sign == 0
    else:
        assert sign == inversion_sign(keys, {k: 0 for k in keys}, lambda pa, pb: -1)
    assert koszul_sort(keys, alternating=False) == (out, 1)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), st.data())
def test_shuffle_sign_counts_reversed_odd_pairs(arg_par, data):
    # a split of the positions into a g block and an f block
    n = len(arg_par)
    q = data.draw(st.integers(0, n - 1))
    gpos = data.draw(st.sampled_from(list(combinations(range(n), q + 1))))
    fpos = tuple(i for i in range(n) if i not in gpos)
    crossings = sum(1 for a in gpos for b in fpos if b < a and arg_par[a] and arg_par[b])
    assert koszul_sort(gpos + fpos, arg_par, alternating=False) == (
        tuple(range(n)), -1 if crossings % 2 else 1)


xi_words = st.sets(st.integers(1, 5), max_size=4).map(lambda w: tuple(sorted(w)))


@given(xi_words, xi_words)
def test_xi_word_merge_is_the_koszul_sign_of_odd_variables(a, b):
    # xi_a xi_b: each pair of a letter of a above a letter of b crosses once
    crossings = sum(1 for s in a for t in b if s > t)
    want = 0 if set(a) & set(b) else -1 if crossings % 2 else 1
    assert koszul_sort(a + b) == (tuple(sorted(a + b)), want)
    odd = [1] * 6
    assert koszul_sort(a + b, odd, alternating=False) == (tuple(sorted(a + b)), want)


def test_conversion_sign_small_cases():
    # arguments counted from the next-to-last position, every other one
    assert conversion_sign((ODD, EVEN)) == -1
    assert conversion_sign((EVEN, ODD)) == 1
    assert conversion_sign((EVEN, ODD, EVEN)) == -1
    assert conversion_sign((ODD, ODD, ODD)) == -1
    assert conversion_sign((ODD, ODD, ODD, ODD)) == 1
    with pytest.raises(ValueError):
        conversion_sign((ODD,))


def test_multimap_parity_check():
    V = SuperSpace(QQ, ("a", "x"), (EVEN, ODD))
    good = MultiMap(V, 2, 0, {(0, 1): V.basis_vector(1)})
    # symmetric interchange of an even-odd pair is free
    assert good.evaluate((1, 0)) == V.basis_vector(1)
    with pytest.raises(ValueError):
        MultiMap(V, 2, 0, {(0, 1): V.basis_vector(0)})
    with pytest.raises(ValueError):
        MultiMap(V, 2, 0, {(1, 0): V.basis_vector(1)})  # not sorted


def test_multimap_evaluate_signs():
    V = SuperSpace(QQ, ("x", "y"), (ODD, ODD))
    m = MultiMap(V, 2, 1, {(0, 1): V.basis_vector(0)})
    # odd-odd interchange on the symmetric side costs -1
    assert m.evaluate((1, 0)) == V.basis_vector(0).scale(-1)
    assert m.evaluate((0, 0)).is_zero()
    v = V.vector({0: 2, 1: 3})
    assert m.evaluate_expand(v, (1,)) == V.basis_vector(0).scale(2)


def test_bracket_transport_roundtrip_on_quaternary_cross_product():
    alg = algebra_O(3)
    mm = bracket_to_symmetric(alg.space, alg.arity, alg.bracket_parity, alg.bracket_keys)
    # the twin lives on the parity reversal and is odd: 0 + 3 - 1 = 2 even? no, parity = (0 + 3 - 1) % 2 = 0
    assert mm.space == alg.space.reversed()
    assert mm.parity == (alg.bracket_parity + alg.arity - 1) % 2
    space, arity, parity, table = symmetric_to_bracket(mm)
    assert space == alg.space
    assert arity == alg.arity and parity == alg.bracket_parity
    assert table == alg.table


def test_bracket_transport_rejects_non_anticommutative_input():
    alg = algebra_O(3)
    bracket_to_symmetric(alg.space, 3, 0, alg.bracket_keys)  # the honest bracket passes

    def symmetric_version(key):
        # ignores argument order, so it cannot be alternating
        return alg.bracket_keys(tuple(sorted(key)))

    with pytest.raises(ValueError):
        bracket_to_symmetric(alg.space, 3, 0, symmetric_version)


def test_serialize_parse_map_roundtrip():
    V = SuperSpace(QQ, ("u", "x", "y"), (EVEN, ODD, ODD))
    m = MultiMap(V, 2, 1, {(0, 0): V.basis_vector(1), (1, 2): V.vector({1: QQ.scalar(1, 2)})})
    text = serialize_map(m)
    back = parse_map(text, V, 2, 1)
    assert back == m
    with pytest.raises(ValueError):
        parse_map("u,u no arrow\n", V, 2, 1)
