"""Koszul sign bookkeeping and the bracket <-> symmetric-map transport."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from nlielab.catalog import algebra_O
from nlielab.fields import QQ
from nlielab.liegen import induced_bracket_table
from nlielab.linalg import vec_add_scaled
from nlielab.multilinear import (MultiMap, bracket_to_symmetric, canonical_count,
                                 canonical_tuples, conversion_sign, koszul_sort)
from nlielab.superspace import EVEN, ODD, SuperSpace
from nlielab.universal import WElement

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


@given(st.lists(st.integers(0, 1), max_size=7), st.integers(0, 5))
def test_canonical_tuples_are_counted_without_listing(parities, r):
    # even keys pick distinct, odd keys may repeat
    keys = list(range(len(parities)))
    assert canonical_count(parities, r) == len(list(canonical_tuples(keys, r, parities)))


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
    good = MultiMap(V, 2, 0, {(0, 1): {1: 1}, (0, 0): {}})
    assert good.table == {(0, 1): {1: 1}}  # an empty value is dropped
    with pytest.raises(ValueError):
        MultiMap(V, 2, 0, {(0, 1): {0: 1}})  # even value at an odd key
    with pytest.raises(ValueError):
        MultiMap(V, 2, 0, {(0, 0): {0: 1, 1: 1}})  # mixed value
    with pytest.raises(ValueError):
        MultiMap(V, 2, 0, {(1, 0): {1: 1}})  # not sorted
    with pytest.raises(ValueError):
        MultiMap(V, 2, 1, {(1, 1): {0: 1}})  # odd repeat on the symmetric side


def test_multimap_table_goes_through_the_one_check():
    # the check nlie.FiniteNAryAlgebra runs, on the symmetric side
    V = SuperSpace(QQ, ("a", "x", "y"), (EVEN, ODD, ODD))
    zero = MultiMap(V, 2, 1, {(0, 1): {0: 0}})
    assert zero.table == {} and WElement.from_map(zero).is_zero()
    value = {0: 1}
    assert MultiMap(V, 2, 1, {(0, 2): value}).table[0, 2] is value  # kept, not copied
    for table, message in (({(0,): {1: 1}}, r"key \(0,\) has wrong length"),
                           ({(0, 7): {1: 1}}, r"key \(0, 7\) names an index outside 0..2"),
                           ({(0, 0): {5: 1}},
                            r"value at key \(0, 0\) names an index outside 0..2")):
        with pytest.raises(ValueError, match=message):
            MultiMap(V, 2, 1, table)


def evaluate(mm, args):
    """A symmetric map's value on any argument tuple: its table entry at
    the Koszul sort of the tuple, times the sort's sign."""
    key, sign = koszul_sort(args, mm.space.parities, alternating=False)
    return {i: sign * c for i, c in mm.table.get(key, {}).items()} if sign else {}


def test_multimap_evaluate_signs():
    V = SuperSpace(QQ, ("x", "y"), (ODD, ODD))
    m = MultiMap(V, 2, 1, {(0, 1): {0: 1}})
    # odd-odd interchange on the symmetric side costs -1, an odd repeat dies
    assert evaluate(m, (0, 1)) == {0: 1}
    assert evaluate(m, (1, 0)) == {0: -1}
    assert evaluate(m, (0, 0)) == {} == evaluate(m, (1, 1))
    # v = 2x + 3y in the first slot, y after it: only the x term survives
    v = {0: 2, 1: 3}
    out = {}
    for i, c in v.items():
        vec_add_scaled(out, evaluate(m, (i, 1)), c)
    assert out == {0: 2}


def test_bracket_transport_roundtrip_on_quaternary_cross_product():
    alg = algebra_O(3)
    mm = bracket_to_symmetric(alg.space, alg.arity, alg.bracket_parity, alg.bracket_keys)
    # the twin lives on the parity reversal with parity 0 + 3 - 1 = 0 mod 2
    assert mm.space == alg.space.reversed()
    assert mm.parity == (alg.bracket_parity + alg.arity - 1) % 2 == 0
    # and the bracket read back off it through W(V) is the source table
    assert induced_bracket_table(mm.space, WElement.from_map(mm)) == alg.table


def test_bracket_transport_rejects_non_anticommutative_input():
    alg = algebra_O(3)
    bracket_to_symmetric(alg.space, 3, 0, alg.bracket_keys)  # the honest bracket passes

    def symmetric_version(key):
        # ignores argument order, so it cannot be alternating
        return alg.bracket_keys(tuple(sorted(key)))

    with pytest.raises(ValueError):
        bracket_to_symmetric(alg.space, 3, 0, symmetric_version)
